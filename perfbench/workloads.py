"""The benchmark's three workloads: inputs built from a seed, tasks, checks.

A task is one table row, one diagram query or one per-pair group build.
`build(workload, seed)` is the set-up a command-line call pays: it
constructs every pair and diagram the tasks use (and, for `closures`, the
seeded Reidemeister move sequences).  Every task has a check; the checks
run outside the timed region.

Why these workloads and input families:

* `tables` is what `scripts/reproduce_tables.py --slow` users wait for and
  loads the whole `pairs` layer and nothing else.  Its inputs are fixed by
  the paper, so the seed does not apply, and every row with a printed
  value is checked against it.
* `closures` is bound by the coloring search.  Its cost depends on an
  input property that should not matter: edge names.  The search seeds
  free edges in sorted-name order, so the same closure costs <=2 ms with
  strand-ordered names and seconds with shuffled ones.  Names are drawn
  from the seed, and each generated diagram is drawn until its branch
  depth (`braids.branch_depth`, a function of the names alone) hits a
  fixed schedule, so every seed exercises the same spread of depths and
  the total does not hinge on one unlucky draw.  The pairs have few
  colorings (D3 with tau = S and S^-1, D5 with a tau_phi, a bialexander
  switch with a tau_a), so nearly every branch is explored and pruned.
  The fixed l_i/r_i-named alternating +/s 2-strand closures are the
  deep cases the roadmap quotes.  Each seeded diagram is recounted after
  a short seeded move sequence; the count must not change.
* `invariants` uses `coloring` differently: it materialises every
  coloring and evaluates cocycle weights on each.  Closures get
  strand-ordered names and several components, so flip pairs give
  hundreds of colorings.  Each pair's two universal groups (presentation
  plus Smith normal form) are built once per pass, about half the time.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from singlink import coloring, diagram, invariant, pairs, pairtable
from singlink.pairs import SingularPair

import braids

WORKLOADS = ("tables", "closures", "invariants")


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # error text, or None when right
    digest: Callable[[object], str] | None = None  # text pinned in reference.json
    repeat: int = 1     # untraced passes call run this often and keep the median


def digest_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _expect(value):
    def check(out):
        return None if out == value else f"got {out!r}, expected {value!r}"
    return check


def _once(fn):
    """Memoise a zero-argument oracle so later passes reuse it."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

# rows that take under 50 ms are timed as the median of this many calls, so
# the order of the small rows, and with it task_p50_ms, does not flip on noise
CHEAP_REPEAT = 10

# the paper's values
LR_ROWS = {2: (4, 3, 2, 2), 3: (216, 44, 24, 7), 4: (331776, 14022, 3360, 169)}
FLIP_ROWS = {2: (2, 2), 3: (24, 7), 4: (3360, 169)}
I_N = {3: 2, 4: 4, 5: 6, 6: 16, 7: 20, 8: 56, 9: 136, 10: 416, 11: 776, 12: 3904}


def _lr_row(n):
    c = pairs.enumerate_left_right_invertible(n)
    return (c.total, c.iso, c.bijective, c.bijective_iso)


def _search_and_classify(S, max_n=5):
    taus = pairs.enumerate_taus(S, max_n=max_n)
    classes = pairs.classify_isomorphism([SingularPair(S, t) for t in taus])
    return taus, classes


def _classes_text(res):
    taus, classes = res
    return repr((len(taus), [(c.size, c.canonical.key()) for c in classes]))


def build_tables(seed: int) -> list[Task]:
    del seed    # the paper fixes these inputs
    flips = {n: pairtable.flip_switch(n) for n in FLIP_ROWS}
    searched = {"D4": pairtable.dihedral_switch(4),
                "D5": pairtable.dihedral_switch(5),
                "bialexander(5,2,3)": pairtable.make_bialexander(5, 2, 3)}
    def repeat(cheap):
        return CHEAP_REPEAT if cheap else 1

    tasks = [Task(f"lr-invertible n={n}", lambda n=n: _lr_row(n), _expect(row),
                  repeat=repeat(n <= 3))
             for n, row in LR_ROWS.items()]
    for n, row in FLIP_ROWS.items():
        tasks.append(Task(
            f"flip pairs n={n}",
            lambda S=flips[n]: _search_and_classify(S, max_n=4),
            lambda res, row=row: _expect(row)((len(res[0]), len(res[1]))),
            _classes_text, repeat(n <= 3)))
    for name, S in searched.items():
        tasks.append(Task(f"tau search {name}",
                          lambda S=S: _search_and_classify(S),
                          lambda res: None, _classes_text, repeat(name in ("D4", "D5"))))
    tasks += [Task(f"I_{n}", lambda n=n: pairs.tau_phi_iso_count(n), _expect(v),
                   repeat=repeat(n <= 8))
              for n, v in I_N.items()]
    return tasks


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------

CLOSURE_STRANDS = (2, 3, 4)
MOVE_STEPS = 3
MOVE_DRAWS = 8
COUNT_PRESERVING = ("RIII", "RIVa", "RIVb", "RV")
REPLICATES = 16
LADDERS = (6, 8, 10)
DRAWS = 5000


def closure_pairs() -> dict[str, SingularPair]:
    D3 = pairtable.dihedral_switch(3)
    D5 = pairtable.dihedral_switch(5)
    B = pairtable.make_bialexander(5, 2, 3)
    return {
        "D3 tau=S": SingularPair(D3, D3.table),
        "D3 tau=S^-1": SingularPair(D3, D3.table.inverse()),
        # phi = multiplication by 2 on Z/5
        "D5 tau_phi": SingularPair(D5, pairs.make_tau_phi(5, 1, 4, [0, 2, 4, 1, 3])),
        "bialexander(5,2,3) tau_a": SingularPair(B, pairs.make_tau_a(5, 2, 3, 2)),
    }


def depth_schedule(n: int, strands: int) -> tuple[int, ...]:
    """Branch depths drawn for each (pair, strand count).  A search costs
    about n**depth and its cost at a given depth spreads more with more
    strands, so larger carriers and four strands get fewer, shallower
    depths; the fixed ladders carry the deep, exponential cases."""
    if n <= 3:
        return tuple(range(strands + 1, strands + (3 if strands == 4 else 4)))
    return tuple(range(strands, strands + (1 if strands == 4 else 2)))


def draw_closure(rng: random.Random, strands: int, length: int, depth: int):
    """A closure of `length` crossings with shuffled names whose branch
    depth is `depth`."""
    for _ in range(DRAWS):
        word = braids.random_word(rng, strands, length)
        cs = braids.closure_crossings(word, strands,
                                      braids.shuffled_names(rng, 2 * length))
        if braids.branch_depth(cs) == depth:
            return word, diagram.SingularDiagram(cs)
    raise RuntimeError(f"no {strands}-strand closure of depth {depth} in {DRAWS} draws")


def random_moves(rng: random.Random, d, steps: int = MOVE_STEPS):
    """Apply up to `steps` seeded Reidemeister moves that keep the crossing
    count (RIII, RIVa, RIVb, RV): each step draws a move type among those
    with a site, then a site.  Kinks (RI) and RII removals are left out:
    a kink's loop edge and a spliced strand delay pruning, so the recount
    would cost many times the first count."""
    for _ in range(steps):
        options = [s for m in COUNT_PRESERVING if (s := diagram.find_move_sites(d, m))]
        if not options:
            break
        d = diagram.apply_move(d, rng.choice(rng.choice(options)))
    return d


def moved_copy(rng: random.Random, d):
    """The first of MOVE_DRAWS seeded move sequences that changes `d`
    without raising its branch depth, or None."""
    depth = braids.branch_depth(d.crossings, d.loops)
    for _ in range(MOVE_DRAWS):
        moved = random_moves(rng, d)
        if moved != d and braids.branch_depth(moved.crossings, moved.loops) <= depth:
            return moved
    return None


def closure_inputs(prs: dict[str, SingularPair], seed: int):
    """(label, pair name, word, strands, diagram, moved diagram) for every
    seeded closure, in task order.  A diagram is redrawn until it has a
    moved copy."""
    rng = random.Random(f"closures:{seed}")
    out = []
    for pname, pair in prs.items():
        for strands in CLOSURE_STRANDS:
            for depth in depth_schedule(pair.n, strands):
                for rep in range(REPLICATES):
                    length = strands + 4 + rep % 5
                    for _ in range(DRAWS):
                        word, d = draw_closure(rng, strands, length, depth)
                        moved = moved_copy(rng, d)
                        if moved is not None:
                            break
                    else:
                        raise RuntimeError(f"no movable closure for {pname}")
                    out.append((f"{pname} k={strands} depth={depth} #{rep}", pname,
                                word, strands, d, moved))
    return out


def _count_task(name, d, pair, oracle):
    return Task(name, lambda: coloring.count_colorings(d, pair),
                lambda out: _expect(oracle())(out))


def build_closures(seed: int) -> list[Task]:
    prs = closure_pairs()
    tasks = []
    for label, pname, word, strands, d, moved in closure_inputs(prs, seed):
        pair = prs[pname]
        oracle = _once(lambda w=word, k=strands, p=pair: braids.oracle_count(w, k, p))
        tasks += [_count_task(label, d, pair, oracle),
                  _count_task(f"{label} moved", moved, pair, oracle)]
    D3 = pairtable.dihedral_switch(3)
    d3 = SingularPair(D3, D3.table)
    for k in LADDERS:
        kinds = ["+" if i % 2 == 0 else "s" for i in range(k)]
        oracle = _once(lambda kinds=kinds: braids.oracle_count(
            [(0, kind) for kind in kinds], 2, d3))
        tasks.append(_count_task(f"D3 ladder k={k}", braids.ladder_closure(kinds), d3, oracle))
    return tasks


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

# (strands, components, crossings) of the seeded closures drawn for every pair,
# SHAPE_DRAWS of each; a closure has k - components + 2j crossings, so the
# parities are forced
SHAPE_DRAWS = 3
TYPICAL_OF = 7
INVARIANT_SHAPES = ((3, 2, 9), (3, 3, 8), (4, 2, 10), (4, 3, 9), (4, 4, 10), (5, 3, 10))
WORKED = (  # (pair, cocycle pair, kind, diagram, rendered value)
    ("flip-i2", "flip-i2", "nc", "sing_trefoil", "{b^2} x2"),
    ("flip-i2", "flip-s2", "ab", "four_sing_right", "4*a*b^2*c"),
    ("flip-i2", "flip-s2", "ab", "four_sing_left", "2*a^2*c^2 + 2*b^4"),
)


def invariant_pairs() -> dict[str, SingularPair]:
    out = {name: pairs.builtin_pair(name) for name in ("flip-flip", "flip-i2", "i2-ss")}
    for n in (3, 4, 5, 6):
        D = pairtable.dihedral_switch(n)
        out[f"D{n} tau=S"] = SingularPair(D, D.table)
        out[f"D{n} tau=S^-1"] = SingularPair(D, D.table.inverse())
    for n in (4, 5):
        F = pairtable.flip_switch(n)
        out[f"flip{n} tau=flip"] = SingularPair(F, F.table)
    return out


def typical_closure(rng: random.Random, pair, strands: int, comps: int, length: int):
    """A closure with strand-ordered names and `comps` components with the
    fewest colorings of TYPICAL_OF draws.  Per-coloring work dominates a
    query and the counts of one shape differ by factors of 3 to 27 between
    draws; the lowest is also the commonest, so every seed gets the same
    counts (flip pairs always have n**components)."""
    words = []
    for _ in range(DRAWS):
        word = braids.random_word(rng, strands, length)
        if braids.components(word, strands) == comps:
            words.append((braids.oracle_count(word, strands, pair), len(words), word))
            if len(words) == TYPICAL_OF:
                word = min(words)[2]
                return word, braids.closure(word, strands)
    raise RuntimeError(f"too few {strands}-strand closures with {comps} components")


def _render_nc(group, value):
    return "; ".join("{" + ", ".join(group.render_element(e) for e in tup) + "}"
                     + (f" x{cnt}" if cnt > 1 else "")
                     for tup, cnt in value.sorted_items())


def _nc_text(v):
    return repr(v.per_coloring)


def _ss_text(v):
    return repr(sorted(v.terms.items()))


def _cocycle_text(c):
    return repr((c.target.rank, c.target.torsion, c.f, c.h))


def build_invariants(seed: int) -> list[Task]:
    rng = random.Random(f"invariants:{seed}")
    prs = invariant_pairs()
    builtins = {name: diagram.builtin_diagram(name) for name in diagram.builtin_names()}
    cocycles = {}            # (pair, kind) -> CocyclePair, filled by the group tasks

    def group_task(pname, kind):
        build = (invariant.universal_nc_cocycle if kind == "nc"
                 else invariant.universal_ab_cocycle)

        def run():
            cocycles[pname, kind] = c = build(prs[pname])
            return c
        return Task(f"group {kind} {pname}", run, lambda c: None, _cocycle_text)

    def query(pname, d):
        return (lambda: invariant.nc_invariant(d, prs[pname], cocycles[pname, "nc"]),
                lambda: invariant.state_sum(d, prs[pname], cocycles[pname, "ab"]))

    tasks = []
    for pname, pair in prs.items():
        tasks += [group_task(pname, "nc"), group_task(pname, "ab")]
        if pair.n <= 3:
            for dname, d in builtins.items():
                count = _once(lambda d=d, p=pair: braids.brute_force_count(d, p))
                nc, ss = query(pname, d)
                tasks.append(Task(
                    f"nc {pname} @{dname}", nc,
                    lambda v, count=count: _expect(count())(len(v.per_coloring)),
                    _nc_text))
                tasks.append(Task(
                    f"statesum {pname} @{dname}", ss,
                    lambda v, count=count: _expect(count())(v.coefficient_sum()),
                    _ss_text))
        for (strands, comps, length), draw in itertools.product(INVARIANT_SHAPES,
                                                                range(SHAPE_DRAWS)):
            word, d = typical_closure(rng, pair, strands, comps, length)
            oracle = _once(lambda w=word, k=strands, pn=pname: braids.oracle_invariants(
                w, k, prs[pn], cocycles[pn, "nc"], cocycles[pn, "ab"]))
            nc, ss = query(pname, d)
            label = f"{pname} k={strands} components={comps} #{draw}"

            def check_nc(v, oracle=oracle):
                return _expect(oracle()[0])(Counter(v.per_coloring))

            def check_ss(v, oracle=oracle):
                want = oracle()[1]
                if sum(want.values()) != v.coefficient_sum():
                    return f"{v.coefficient_sum()} colorings, oracle says {sum(want.values())}"
                return _expect(want)(v.terms)
            tasks += [Task(f"nc {label}", nc, check_nc),
                      Task(f"statesum {label}", ss, check_ss)]

    for pname, cname, kind, dname, text in WORKED:
        c = invariant.builtin_cocycle(cname, kind)
        d = builtins[dname]
        if kind == "nc":
            tasks.append(Task(
                f"worked nc {cname} @{dname}",
                lambda d=d, c=c, p=prs[pname]: invariant.nc_invariant(d, p, c),
                lambda v, g=c.target, text=text: _expect(text)(_render_nc(g, v))))
        else:
            tasks.append(Task(
                f"worked statesum {cname} @{dname}",
                lambda d=d, c=c, p=prs[pname]: invariant.state_sum(d, p, c),
                lambda v, g=c.target, text=text: _expect(text)(
                    invariant.render_laurent(g, v))))
    return tasks


def build(workload: str, seed: int) -> list[Task]:
    return {"tables": build_tables, "closures": build_closures,
            "invariants": build_invariants}[workload](seed)
