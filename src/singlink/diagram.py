"""Oriented singular link diagrams as slotted crossing lists.

Conventions (fixed throughout the package):

* a crossing has slots [in1, in2, out1, out2]; the strand entering at
  in1 exits at out2 and the strand entering at in2 exits at out1;
* colors satisfy (c(out1), c(out2)) = M(c(in1), c(in2)) with M = S at a
  positive crossing, S^-1 at a negative one, tau at a singular one;
* at a positive crossing the under-strand enters at in1, at a negative
  crossing it enters at in2;
* crossing-free circles are `loop <edge>` declarations.

Text format, one item per line, `#` starts a comment:

    X+ a b c d      positive crossing, slots in1=a in2=b out1=c out2=d
    X- a b c d      negative crossing
    Xs a b c d      singular crossing
    loop e          a circle with no crossings
    base 2 e        basepoint of component 2 is edge e

Components are indexed by their lexicographically smallest edge token.

Moves: RI, RII and RV are crossing patterns written here.  RIII, RIVa
and RIVb are read off the identities whose words define the algebra:
YANG_BAXTER and the riva and rivb words of SINGULAR_PAIR_AXIOMS.  A site
is one side's word traced along the diagram, and the rewrite runs the
other side's word on the same top edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial

from .errors import (BadBasepointError, DanglingEdgeError, DiagramError,
                     DiagramSyntaxError, PatternMismatchError, SlotReuseError,
                     UnknownNameError)
from .pairs import SINGULAR_PAIR_AXIOMS
from .pairtable import YANG_BAXTER, Derived, json_list

POS, NEG, SING = "+", "-", "s"
KINDS = (POS, NEG, SING)


@dataclass(frozen=True)
class Crossing:
    kind: str
    slots: tuple[str, str, str, str]     # in1, in2, out1, out2

    @property
    def in1(self):
        return self.slots[0]

    @property
    def in2(self):
        return self.slots[1]

    @property
    def out1(self):
        return self.slots[2]

    @property
    def out2(self):
        return self.slots[3]


@dataclass(frozen=True)
class SingularDiagram(Derived):
    """A diagram; its `derived` store keeps what the searches compile from
    it (`coloring._plan`, `invariant._nc_cells`, `invariant._sum_cells`)
    from its first search on: nothing is compiled when a diagram is built
    or moved, and nothing again when it is searched again.  It also keeps
    the sorted colorings of the last pair `coloring_array` was asked for."""

    crossings: tuple[Crossing, ...]
    loops: tuple[str, ...] = ()
    basepoints: tuple[str, ...] = ()     # one edge per component, aligned

    # derived structure, built during validation
    components: tuple[tuple[str, ...], ...] = field(init=False, compare=False)
    edges: tuple[str, ...] = field(init=False, compare=False)    # sorted
    # edge -> (crossing index, 0 for in1 / 1 for in2) eating it
    consumers: dict[str, tuple[int, int]] = field(init=False, compare=False,
                                                  repr=False)

    def __post_init__(self):
        _validate(self)

    # -- lookups -------------------------------------------------------
    def successor(self, edge: str) -> str:
        """The next edge along edge's strand: the strand entering a
        crossing at in1 leaves at out2, the one entering at in2 at out1."""
        i, slot = self.consumers[edge]
        return self.crossings[i].slots[3 - slot]

    def counts(self):
        kinds = {POS: 0, NEG: 0, SING: 0}
        for c in self.crossings:
            kinds[c.kind] += 1
        return kinds

    # -- serialization --------------------------------------------------
    def render(self) -> str:
        lines = []
        tag = {POS: "X+", NEG: "X-", SING: "Xs"}
        for c in self.crossings:
            lines.append(f"{tag[c.kind]} {' '.join(c.slots)}")
        for e in self.loops:
            lines.append(f"loop {e}")
        for i, b in enumerate(self.basepoints):
            lines.append(f"base {i} {b}")
        return "\n".join(lines) + "\n"

    def to_dict(self):
        return {"crossings": [{"kind": c.kind, "slots": list(c.slots)}
                              for c in self.crossings],
                "loops": list(self.loops),
                "base": list(self.basepoints)}

    @classmethod
    def from_dict(cls, d) -> "SingularDiagram":
        crossings = tuple(
            Crossing(c["kind"], tuple(json_list(c["slots"], str, f"crossing {i} slots")))
            for i, c in enumerate(json_list(d.get("crossings", []), dict, "crossings")))
        return cls(crossings, tuple(json_list(d.get("loops", []), str, "loops")),
                   tuple(json_list(d.get("base", []), str, "base")))


def _validate(d: SingularDiagram):
    """Check d's slots, loops and basepoints, and fill in its consumers,
    components, aligned basepoints and sorted edges."""
    crossings, loops, declared_bases = d.crossings, d.loops, d.basepoints
    consumers: dict[str, tuple[int, int]] = {}
    out_seen: dict[str, int] = {}
    for i, c in enumerate(crossings):
        if len(c.slots) != 4 or not all(isinstance(e, str) for e in c.slots):
            raise DiagramError(f"crossing {i}: a crossing needs 4 edge "
                               f"names, got {list(c.slots)!r}")
        if c.kind not in KINDS:
            raise DiagramError(f"crossing {i}: bad crossing kind {c.kind!r}")
        for slot, e in enumerate((c.in1, c.in2)):
            if e in consumers:
                raise SlotReuseError(f"edge {e!r} used twice as an in-slot")
            consumers[e] = (i, slot)
        for e in (c.out1, c.out2):
            if e in out_seen:
                raise SlotReuseError(f"edge {e!r} used twice as an out-slot")
            out_seen[e] = 1
    declared = Counter(loops)
    for e in loops:
        if e in consumers or e in out_seen:
            raise SlotReuseError(f"loop edge {e!r} also used at a crossing")
        if declared[e] > 1:
            raise SlotReuseError(f"loop edge {e!r} declared twice")
    for e in consumers:
        if e not in out_seen:
            raise DanglingEdgeError(f"edge {e!r} is consumed but never produced")
    for e in out_seen:
        if e not in consumers:
            raise DanglingEdgeError(f"edge {e!r} is produced but never consumed")
    object.__setattr__(d, "consumers", consumers)

    comps = []
    seen = set()
    for e in sorted(consumers):
        if e in seen:
            continue
        comp = [e]
        seen.add(e)
        cur = d.successor(e)
        while cur != e:
            comp.append(cur)
            seen.add(cur)
            cur = d.successor(cur)
        comps.append(tuple(sorted(comp)))
    for e in sorted(loops):
        comps.append((e,))
    comps.sort(key=lambda c: c[0])
    comps = tuple(comps)

    bases = [comp[0] for comp in comps]
    if len(declared_bases) > len(comps):
        raise BadBasepointError(
            f"{len(declared_bases)} basepoints for {len(comps)} components")
    for i, b in enumerate(declared_bases):
        if b not in comps[i]:
            raise BadBasepointError(f"edge {b!r} is not on component {i}")
        bases[i] = b
    object.__setattr__(d, "components", comps)
    object.__setattr__(d, "basepoints", tuple(bases))
    object.__setattr__(d, "edges", tuple(sorted([*consumers, *loops])))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_diagram(text: str) -> SingularDiagram:
    crossings = []
    loops = []
    base_decls = []
    tags = {"X+": POS, "X-": NEG, "Xs": SING}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        if head in tags:
            if len(toks) != 5:
                raise DiagramSyntaxError(
                    f"{head} needs 4 edge tokens, got {len(toks) - 1}",
                    lineno, len(head) + 1)
            crossings.append(Crossing(tags[head], tuple(toks[1:5])))
        elif head == "loop":
            if len(toks) != 2:
                raise DiagramSyntaxError("loop needs 1 edge token", lineno, 5)
            loops.append(toks[1])
        elif head == "base":
            if len(toks) != 3:
                raise DiagramSyntaxError("base needs <component> <edge>",
                                         lineno, 5)
            try:
                idx = int(toks[1])
            except ValueError:
                raise DiagramSyntaxError(f"bad component index {toks[1]!r}",
                                         lineno, 5) from None
            base_decls.append((idx, toks[2], lineno))
        else:
            raise DiagramSyntaxError(f"unknown directive {head!r}", lineno, 0)

    d = SingularDiagram(tuple(crossings), tuple(loops))
    if base_decls:
        bases = list(d.basepoints)
        for idx, edge, lineno in base_decls:
            if not (0 <= idx < len(d.components)):
                raise BadBasepointError(
                    f"line {lineno}: component {idx} does not exist")
            if edge not in d.components[idx]:
                raise BadBasepointError(
                    f"line {lineno}: edge {edge!r} not on component {idx}")
            bases[idx] = edge
        d = SingularDiagram(d.crossings, d.loops, tuple(bases))
    return d


# ---------------------------------------------------------------------------
# singular braid closures
# ---------------------------------------------------------------------------

def braid_closure(word, strands: int, names) -> SingularDiagram:
    """Closure of a singular braid word on `strands` strands.

    A letter (pos, kind) is a crossing of that kind on strand positions pos
    and pos+1: it eats the edges there at in1 and in2 and puts its out1 at
    pos and its out2 at pos+1.  `names` names the 2*len(word) edges in the
    order they are made, the top edge of each position first; the last
    letter at each position closes onto that position's top edge.  Raises
    ValueError when a position has no crossing or the name count is wrong.
    """
    if len(names) != 2 * len(word):
        raise ValueError(f"{len(word)} letters need {2 * len(word)} edge names, "
                         f"got {len(names)}")
    last = {p: j for j, (pos, _) in enumerate(word) for p in (pos, pos + 1)}
    if set(last) != set(range(strands)):
        raise ValueError(f"the letters must cover strand positions "
                         f"0..{strands - 1} and no others, got {sorted(last)}")
    at = list(names[:strands])
    fresh = iter(names[strands:])
    cs = []
    for j, (pos, kind) in enumerate(word):
        outs = [names[p] if last[p] == j else next(fresh) for p in (pos, pos + 1)]
        cs.append(Crossing(kind, (at[pos], at[pos + 1], *outs)))
        at[pos:pos + 2] = outs
    return SingularDiagram(tuple(cs))


# ---------------------------------------------------------------------------
# builtin corpus (transcribed from the figures; each one is pinned by the
# invariant values it must reproduce)
# ---------------------------------------------------------------------------

def ladder(kinds) -> SingularDiagram:
    """2-strand closure of one letter per kind whose level-i crossing eats
    (l_i, r_i): named so that sorted-name seeding branches on every l_i."""
    names = [f"{side}{i}" for i in range(len(kinds)) for side in "lr"]
    return braid_closure([(0, kind) for kind in kinds], 2, names)


def _sing_hopf():
    # Hopf link with one classical and one singular crossing; with
    # ({0,1}, flip, i2) its coloring set is empty
    c0 = Crossing(POS, ("a0", "b0", "b1", "a1"))
    c1 = Crossing(SING, ("a1", "b1", "b0", "a0"))
    return SingularDiagram((c0, c1))


def _four_sing_right():
    # two components crossing singularly four times; the second component
    # meets the crossings in the order C0, C1, C3, C2, and the components
    # alternate between the two in-slots as in the braid-like left link
    cs = (Crossing(SING, ("a0", "b0", "b1", "a1")),
          Crossing(SING, ("b1", "a1", "a2", "b2")),
          Crossing(SING, ("a2", "b3", "b0", "a3")),
          Crossing(SING, ("b2", "a3", "a0", "b3")))
    return SingularDiagram(cs)


_BUILTINS = {
    "unknot": lambda: SingularDiagram((), ("a",)),
    "sing_hopf": _sing_hopf,
    "four_sing_right": _four_sing_right,
    **{name: partial(ladder, kinds) for name, kinds in {
        "trefoil": "+++",
        # trefoil with positive classical crossings, one crossing made singular
        "sing_trefoil": "s++",
        "sing_trefoil_mirror": "s--",
        # the singular trefoil knot used for the {b^2} computation; the
        # transcription is pinned by that value, not by the picture
        "sing_trefoil_fig8": "+s+",
        # the (2,4)-torus pattern with all four crossings singular
        "four_sing_left": "ssss",
    }.items()},
}


def builtin_diagram(name: str) -> SingularDiagram:
    if name not in _BUILTINS:
        raise UnknownNameError(f"unknown builtin diagram {name!r}")
    return _BUILTINS[name]()


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


# ---------------------------------------------------------------------------
# Reidemeister rewrites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MoveSite:
    move: str
    crossings: tuple[int, ...] = ()
    params: tuple[tuple[str, str], ...] = ()

    def param(self, key, default=None):
        return dict(self.params).get(key, default)

    @classmethod
    def make(cls, move, crossings=(), **params):
        return cls(move, tuple(crossings),
                   tuple(sorted((k, str(v)) for k, v in params.items())))


def _rebuild(crossings, loops, old_bases) -> SingularDiagram:
    """Reassemble a diagram, keeping old basepoints where they still name
    an edge of the component (components may have been renumbered).
    Validated once: each aligned basepoint is taken from its own component."""
    d2 = SingularDiagram(tuple(crossings), tuple(loops))
    aligned = []
    for comp in d2.components:
        cands = [b for b in old_bases if b in comp]
        aligned.append(cands[0] if cands else comp[0])
    object.__setattr__(d2, "basepoints", tuple(aligned))
    return d2


def _fresh_edges(d: SingularDiagram, k: int) -> list[str]:
    used = set(d.edges)
    out = []
    i = 0
    while len(out) < k:
        cand = f"n{i}"
        if cand not in used:
            out.append(cand)
            used.add(cand)
        i += 1
    return out


def _remove_and_splice(d: SingularDiagram, dead: set[int]) -> SingularDiagram:
    """Delete the crossings in `dead`, splicing strands straight through.

    A strand run entering the dead region on edge e and leaving on edge f
    collapses to the single edge e (f is renamed).  Runs that close up
    entirely inside the dead region become crossing-free loops.
    """
    ins = sorted(e for i in dead for e in d.crossings[i].slots[:2])
    outs = {e for i in dead for e in d.crossings[i].slots[2:]}
    keep = [c for i, c in enumerate(d.crossings) if i not in dead]
    loops = list(d.loops)
    rename: dict[str, str] = {}
    visited = set()

    def run(e):
        """Follow the strand from e while a dead crossing eats it; the
        edge it leaves on, or e again when the run closes up."""
        while True:
            visited.add(e)
            e = d.successor(e)
            if e in visited or d.consumers[e][0] not in dead:
                return e

    for e in ins:
        if e not in outs:
            rename[run(e)] = e
    for e in ins:
        if e not in visited:
            run(e)
            loops.append(e)
    new_cs = tuple(Crossing(c.kind, tuple(rename.get(x, x) for x in c.slots))
                   for c in keep)
    new_loops = tuple(sorted(set(rename.get(x, x) for x in loops)))
    return _rebuild(new_cs, new_loops, [rename.get(b, b) for b in d.basepoints])


# -- RI ---------------------------------------------------------------------

def _ri_insert_sites(d: SingularDiagram, move: str) -> list[MoveSite]:
    return [MoveSite.make(move, (), edge=e, sign=POS, shape="A") for e in d.edges]


def _ri_insert(d: SingularDiagram, site: MoveSite) -> SingularDiagram:
    edge, sign, shape = (site.param("edge"), site.param("sign", POS),
                         site.param("shape", "A"))
    if sign not in (POS, NEG):
        raise PatternMismatchError("RI kinks are classical (+ or -)")
    if shape not in ("A", "B"):
        raise PatternMismatchError("kink shape must be A or B")
    if edge in d.loops:
        loop_edge, = _fresh_edges(d, 1)
        loops = tuple(e for e in d.loops if e != edge)
        if shape == "A":
            cr = Crossing(sign, (edge, loop_edge, edge, loop_edge))
        else:
            cr = Crossing(sign, (loop_edge, edge, loop_edge, edge))
        return _rebuild(d.crossings + (cr,), loops, d.basepoints)
    if edge not in d.edges:
        raise PatternMismatchError(f"no edge {edge!r}")
    new_edge, loop_edge = _fresh_edges(d, 2)
    # cut edge -> edge .. new_edge at the consumer side
    ci, slot = d.consumers[edge]
    cs = list(d.crossings)
    slots = list(cs[ci].slots)
    slots[slot] = new_edge
    cs[ci] = Crossing(cs[ci].kind, tuple(slots))
    if shape == "A":
        kink = Crossing(sign, (edge, loop_edge, new_edge, loop_edge))
    else:
        kink = Crossing(sign, (loop_edge, edge, loop_edge, new_edge))
    return _rebuild(tuple(cs) + (kink,), d.loops, d.basepoints)


def _is_kink(c: Crossing) -> str | None:
    if c.kind == SING:
        return None
    if c.in2 == c.out2:
        return "A"
    if c.in1 == c.out1:
        return "B"
    return None


def _ri_remove_sites(d: SingularDiagram, move: str) -> list[MoveSite]:
    return [MoveSite.make(move, (i,)) for i, c in enumerate(d.crossings) if _is_kink(c)]


def _ri_remove(d: SingularDiagram, site: MoveSite) -> SingularDiagram:
    idx = site.crossings[0]
    if _is_kink(d.crossings[idx]) is None:
        raise PatternMismatchError("crossing is not a removable kink")
    return _remove_and_splice(d, {idx})


# -- RII ---------------------------------------------------------------------

def _rii_pokes(d: SingularDiagram, i: int):
    """Poke patterns at crossing i: (j, pattern) where i and j are two
    classical crossings of opposite sign whose two connecting edges each
    carry one strand straight from one crossing to the other.  The partner
    is the consumer of one of i's out-edges."""
    a = d.crossings[i]
    if a.kind == SING:
        return []
    (j1, slot1), (j2, slot2) = d.consumers[a.out1], d.consumers[a.out2]
    b1, b2 = d.crossings[j1], d.crossings[j2]
    other = {POS: NEG, NEG: POS}[a.kind]
    pokes = []
    # parallel poke: a's out2 enters b at in2, so its out1 enters at in1;
    # one strand passes on the under side of both crossings
    if j1 == j2 and slot2 == 1 and b1.kind == other:
        if i < j1 or not (b1.out1 == a.in1 and b1.out2 == a.in2):
            pokes.append((j1, "par"))
    # antiparallel pokes: one connecting edge each way, and the connecting
    # strand keeps the same over/under role at both crossings (the
    # mixed-role patterns are clasps, not pokes); both predicates are
    # symmetric in (a, b), hence i < j
    if slot2 == 1 and i < j2 and b2.kind == other and b2.out2 == a.in2:
        pokes.append((j2, "anti2"))
    if slot1 == 0 and i < j1 and b1.kind == other and b1.out1 == a.in1:
        pokes.append((j1, "anti3"))
    return pokes


def _rii_sites(d: SingularDiagram, move: str) -> list[MoveSite]:
    return sorted((MoveSite.make(move, (i, j), pattern=pat)
                   for i in range(len(d.crossings)) for j, pat in _rii_pokes(d, i)),
                  key=lambda s: (s.crossings, s.params))


def _rii_remove(d: SingularDiagram, site: MoveSite) -> SingularDiagram:
    i, j = site.crossings
    if not (0 <= i < len(d.crossings)
            and (j, site.param("pattern")) in _rii_pokes(d, i)):
        raise PatternMismatchError(f"no RII poke at crossings ({i}, {j})")
    return _remove_and_splice(d, {i, j})


# -- RIII / RIVa / RIVb: read off the axiom words ----------------------------

_RIV_KINDS = {"S": POS, "T": SING}
_AXIOM_WORDS = {name: (lhs, rhs) for name, lhs, rhs in SINGULAR_PAIR_AXIOMS}

# move -> ({form: word}, the crossing kinds its map letters may stand for).
# A site reads one form's word along the diagram and is rewritten to the
# other form's word.  RIII is Yang-Baxter with S one sign at all three
# crossings; RIVa and RIVb are their singular-pair axioms.
_WORD_MOVES = {
    "RIII": (dict(zip(("left", "right"), YANG_BAXTER)), ({"S": POS}, {"S": NEG})),
    "RIVa": (dict(zip(("right", "left"), _AXIOM_WORDS["riva"])), (_RIV_KINDS,)),
    "RIVb": (dict(zip(("right", "left"), _AXIOM_WORDS["rivb"])), (_RIV_KINDS,)),
}


def _trace(d: SingularDiagram, word, kinds, first: int):
    """Read `word` along d from crossing `first`: a letter (m, i) eats the
    edges at positions i, i+1 and puts out1 at i, out2 at i+1; each later
    letter is the consumer of an edge already at its positions.  Returns
    (crossing per letter, top edge per position, bottom edge per position)
    or None when the crossings are not distinct or a kind or slot differs."""
    top: dict[int, str] = {}
    at: dict[int, str] = {}
    used: list[int] = []
    for m, i in word:
        k = (d.consumers[next(at[p] for p in (i, i + 1) if p in at)][0]
             if used else first)
        c = d.crossings[k]
        if k in used or c.kind != kinds[m]:
            return None
        for p, e in ((i, c.in1), (i + 1, c.in2)):
            if at.setdefault(p, e) != e:
                return None
            top.setdefault(p, e)
        at[i], at[i + 1] = c.out1, c.out2
        used.append(k)
    return tuple(used), top, at


def _word_sites(d: SingularDiagram, move: str) -> list[MoveSite]:
    """Trace each form's word from every crossing of the kind its first
    letter stands for; a trace from any other crossing fails at once."""
    words, kind_maps = _WORD_MOVES[move]
    by_kind: dict[str, list[int]] = {}
    for k, c in enumerate(d.crossings):
        by_kind.setdefault(c.kind, []).append(k)
    sites = []
    for form, word in words.items():
        for kinds in kind_maps:
            for k in by_kind.get(kinds[word[0][0]], ()):
                hit = _trace(d, word, kinds, k)
                if hit:
                    sites.append(MoveSite.make(move, hit[0], form=form))
    return sorted(sites, key=lambda s: (s.crossings, s.params))


def _word_apply(d: SingularDiagram, site: MoveSite) -> SingularDiagram:
    """Run the other form's word on the matched top edges.  The new
    crossings take the old indices in letter order; the last letter to
    write a position takes the old bottom edge there, and every other new
    edge takes the next of the sorted old interior names."""
    words, kind_maps = _WORD_MOVES[site.move]
    form = site.param("form")
    hit = None
    if form in words and site.crossings and 0 <= site.crossings[0] < len(d.crossings):
        for kinds in kind_maps:
            if hit := _trace(d, words[form], kinds, site.crossings[0]):
                break
    if not hit or hit[0] != site.crossings:
        raise PatternMismatchError(f"no {site.move} pattern at the given crossings")
    crossings, top, bottom = hit
    at = dict(top)
    other = next(w for f, w in words.items() if f != form)
    last = {p: j for j, (_, i) in enumerate(other) for p in (i, i + 1)}
    interior = iter(sorted({e for k in crossings for e in d.crossings[k].slots[2:]}
                           - set(bottom.values())))
    cs = list(d.crossings)
    for j, ((m, i), k) in enumerate(zip(other, crossings)):
        outs = [bottom[p] if last[p] == j else next(interior) for p in (i, i + 1)]
        cs[k] = Crossing(kinds[m], (at[i], at[i + 1], *outs))
        at[i], at[i + 1] = outs
    return _rebuild(cs, d.loops, d.basepoints)


# -- RV ------------------------------------------------------------------------

def _rv_partner(d: SingularDiagram, i: int):
    """The crossing j such that (i, j) is an RV site: crossing j eats
    crossing i's out1 at in1 and its out2 at in2, and one of the two is
    singular, the other positive.  None when there is none."""
    A = d.crossings[i]
    j, slot = d.consumers[A.out2]
    # then out1, a different edge, can only enter j at in1; the kinds
    # differ, so j is not i
    if (slot == 1 and d.consumers[A.out1][0] == j
            and {A.kind, d.crossings[j].kind} == {SING, POS}):
        return j
    return None


def _rv_sites(d: SingularDiagram, move: str) -> list[MoveSite]:
    return [MoveSite.make(move, (i, j)) for i in range(len(d.crossings))
            if (j := _rv_partner(d, i)) is not None]


def _rv_apply(d: SingularDiagram, site: MoveSite) -> SingularDiagram:
    i, j = site.crossings
    if not (0 <= i < len(d.crossings) and _rv_partner(d, i) == j):
        raise PatternMismatchError("no RV pattern at the given crossings")
    A, B = d.crossings[i], d.crossings[j]
    cs = list(d.crossings)
    cs[i] = Crossing(B.kind, A.slots)
    cs[j] = Crossing(A.kind, B.slots)
    return _rebuild(cs, d.loops, d.basepoints)


# -- public API ----------------------------------------------------------------

# move -> (its site finder, its rewrite)
_MOVES = {
    "RI_insert": (_ri_insert_sites, _ri_insert),
    "RI_remove": (_ri_remove_sites, _ri_remove),
    "RII_remove": (_rii_sites, _rii_remove),
    **{move: (_word_sites, _word_apply) for move in _WORD_MOVES},
    "RV": (_rv_sites, _rv_apply),
}
MOVES = tuple(_MOVES)


def _move(name: str):
    try:
        return _MOVES[name]
    except KeyError:
        raise UnknownNameError(f"unknown move {name!r}") from None


def find_move_sites(d: SingularDiagram, move: str) -> list[MoveSite]:
    """Every site of `move` in d, sorted by (crossings, params).  RIII,
    RIVa and RIVb trace each form's word from every crossing, so their cost
    is linear in the number of crossings per word and form; RII and RV
    read each crossing's partner off `SingularDiagram.consumers`, so
    theirs is linear too."""
    return _move(move)[0](d, move)


def apply_move(d: SingularDiagram, site: MoveSite) -> SingularDiagram:
    return _move(site.move)[1](d, site)


# ---------------------------------------------------------------------------
# diagram isomorphism (kind- and slot-preserving relabeling; basepoints may
# slide along their components)
# ---------------------------------------------------------------------------

def isomorphic(d1: SingularDiagram, d2: SingularDiagram) -> bool:
    if len(d1.crossings) != len(d2.crossings):
        return False
    if len(d1.loops) != len(d2.loops):
        return False
    if d1.counts() != d2.counts():
        return False
    if len(d1.components) != len(d2.components):
        return False
    n = len(d1.crossings)
    # backtracking over crossing assignment; edge map must follow slots
    by_kind2: dict[str, list[int]] = {}
    for j, c in enumerate(d2.crossings):
        by_kind2.setdefault(c.kind, []).append(j)

    def rec(i, emap, used):
        if i == n:
            return True
        c1 = d1.crossings[i]
        for j in by_kind2[c1.kind]:
            if j in used:
                continue
            c2 = d2.crossings[j]
            trial = dict(emap)
            ok = True
            for e1, e2 in zip(c1.slots, c2.slots):
                if trial.get(e1, e2) != e2:
                    ok = False
                    break
                trial[e1] = e2
            if not ok:
                continue
            if len(set(trial.values())) != len(trial):
                continue
            if rec(i + 1, trial, used | {j}):
                return True
        return False

    return rec(0, {}, set())
