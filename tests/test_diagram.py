import hashlib
import itertools
import json
import random

import pytest

from singlink.diagram import (MOVES, Crossing, MoveSite, SingularDiagram,
                              apply_move, braid_closure, builtin_diagram,
                              builtin_names, find_move_sites, isomorphic,
                              parse_diagram)
from singlink.errors import (BadBasepointError, DanglingEdgeError,
                             DiagramSyntaxError, PatternMismatchError,
                             SlotReuseError, UnknownNameError)
from tests.closures import (COUNT_PRESERVING_MOVES, ladder, random_word,
                            shuffled_closure)

SING_HOPF_LIKE_TEXT = """\
# a two-component link whose two crossings are both singular
Xs a0 b0 b1 a1
Xs a1 b1 b0 a0
base 0 a0
base 1 b0
"""

KINK_TEXT = """\
X+ e0 l e0 l
"""


class TestParsing:
    def test_two_component_singular_text(self):
        d = parse_diagram(SING_HOPF_LIKE_TEXT)
        assert len(d.components) == 2
        assert d.counts()["s"] == 2
        assert d.basepoints == ("a0", "b0")

    def test_positive_kink_unknot(self):
        d = parse_diagram(KINK_TEXT)
        assert len(d.components) == 1
        assert len(d.crossings) == 1

    def test_slot_reuse(self):
        with pytest.raises(SlotReuseError):
            parse_diagram("Xs a b c d\nXs a e f g\n")

    def test_dangling_edge(self):
        with pytest.raises(DanglingEdgeError):
            parse_diagram("Xs a b c d\n")

    def test_syntax_error_has_line(self):
        with pytest.raises(DiagramSyntaxError) as err:
            parse_diagram("Xs a b c d\nXq x y z w\n")
        assert err.value.line == 2

    def test_bad_arity(self):
        with pytest.raises(DiagramSyntaxError):
            parse_diagram("X+ a b c\n")

    def test_bad_basepoint(self):
        with pytest.raises(BadBasepointError):
            parse_diagram(SING_HOPF_LIKE_TEXT + "base 0 b0\n")
        with pytest.raises(BadBasepointError):
            parse_diagram(SING_HOPF_LIKE_TEXT + "base 7 a0\n")

    def test_loop_reuse(self):
        with pytest.raises(SlotReuseError):
            parse_diagram("loop a\nloop a\n")

    def test_loop_reuse_among_many_loops(self):
        # 4,000 loop lines; only the last repeats an earlier edge
        text = "".join(f"loop e{i}\n" for i in range(3999)) + "loop e1234\n"
        with pytest.raises(SlotReuseError, match="'e1234' declared twice"):
            parse_diagram(text)

    def test_comments_and_blank_lines(self):
        d = parse_diagram("# nothing\n\nloop a # trailing\n")
        assert d.loops == ("a",)


class TestRoundTrip:
    @pytest.mark.parametrize("name", builtin_names())
    def test_parse_render(self, name):
        d = builtin_diagram(name)
        d2 = parse_diagram(d.render())
        assert isomorphic(d, d2)
        d3 = SingularDiagram.from_dict(d2.to_dict())
        assert isomorphic(d, d3)

    def test_unknown_builtin(self):
        with pytest.raises(UnknownNameError):
            builtin_diagram("borromean")


class TestBuiltins:
    def test_component_counts(self):
        expect = {"unknot": 1, "trefoil": 1, "sing_trefoil": 1,
                  "sing_trefoil_mirror": 1, "sing_trefoil_fig8": 1,
                  "sing_hopf": 2, "four_sing_left": 2, "four_sing_right": 2}
        for name, comps in expect.items():
            assert len(builtin_diagram(name).components) == comps

    def test_crossing_mixes(self):
        assert builtin_diagram("trefoil").counts() == {"+": 3, "-": 0, "s": 0}
        assert builtin_diagram("four_sing_left").counts()["s"] == 4
        assert builtin_diagram("four_sing_right").counts()["s"] == 4
        assert builtin_diagram("sing_hopf").counts()["s"] == 1

    def test_renders_match_recorded_digest(self):
        # edge names and crossing order of every builtin, as rendered
        h = hashlib.sha256()
        for name in builtin_names():
            h.update(name.encode() + b"\n" + builtin_diagram(name).render().encode())
        assert h.hexdigest() == \
            "669653140fbb8f6d31eaf3021de7bc62939feba193b92ea4941f9418f61bf0ad"


class TestMoves:
    def test_ri_insert_sites_one_per_edge(self):
        d = builtin_diagram("unknot")
        assert len(find_move_sites(d, "RI_insert")) == len(d.edges) == 1

    def test_ri_insert_then_remove_unknot(self):
        d = builtin_diagram("unknot")
        site = find_move_sites(d, "RI_insert")[0]
        d2 = apply_move(d, site)
        assert len(d2.crossings) == 1
        removes = find_move_sites(d2, "RI_remove")
        assert len(removes) == 1
        d3 = apply_move(d2, removes[0])
        assert isomorphic(d3, d)

    def test_ri_shapes_and_signs(self):
        d = builtin_diagram("trefoil")
        for sign in "+-":
            for shape in "AB":
                site = MoveSite.make("RI_insert", (), edge="l0",
                                     sign=sign, shape=shape)
                d2 = apply_move(d, site)
                assert len(d2.crossings) == 4
                assert len(d2.components) == 1
                back = [s for s in find_move_sites(d2, "RI_remove")
                        if s.crossings == (3,)]
                assert back and isomorphic(apply_move(d2, back[0]), d)

    def test_rv_on_sing_trefoil(self):
        d = builtin_diagram("sing_trefoil")
        sites = find_move_sites(d, "RV")
        assert len(sites) >= 1
        d2 = apply_move(d, sites[0])
        assert d2.counts() == d.counts()
        assert len(d2.components) == 1
        # applying RV twice at the swapped site restores the diagram
        back = [s for s in find_move_sites(d2, "RV")
                if s.crossings == sites[0].crossings]
        assert back
        assert isomorphic(apply_move(d2, back[0]), d)

    def test_rv_absent_without_adjacent_pair(self):
        assert find_move_sites(builtin_diagram("four_sing_left"), "RV") == []

    def test_rii_remove_on_poked_trefoil(self):
        # closure of the 5-crossing braid word +++ + -: the trailing +-
        # pair is a parallel poke, removing it leaves the trefoil
        d2 = ladder("++++-")
        sites = find_move_sites(d2, "RII_remove")
        par = [s for s in sites if s.param("pattern") == "par"]
        assert par
        d3 = apply_move(d2, par[0])
        assert len(d3.crossings) == 3
        assert isomorphic(d3, builtin_diagram("trefoil"))

    def test_rii_remove_antiparallel_poke(self):
        # antiparallel poke: one strand over at both crossings; removal
        # yields the 2-component unlink
        d = SingularDiagram((Crossing("+", ("x0", "ey", "y0", "ex")),
                             Crossing("-", ("y0", "ex", "x0", "ey"))))
        sites = find_move_sites(d, "RII_remove")
        anti = [s for s in sites if s.param("pattern").startswith("anti")]
        assert anti
        d2 = apply_move(d, anti[0])
        assert len(d2.crossings) == 0
        assert len(d2.components) == 2 and len(d2.loops) == 2

    def test_antiparallel_clasp_is_not_a_site(self):
        # same two circles but with mixed over/under roles: a clasp, which
        # RII must not remove (its coloring set differs from the unlink's)
        clasp = SingularDiagram((Crossing("+", ("a0", "b0", "b1", "a1")),
                                 Crossing("-", ("a1", "b1", "b0", "a0"))))
        assert find_move_sites(clasp, "RII_remove") == []

    def test_rii_empty_on_reduced_trefoil(self):
        assert find_move_sites(builtin_diagram("trefoil"), "RII_remove") == []

    def test_riii_on_three_braid(self):
        # closure of the 3-braid with crossings (23)(12)(23): has a left site
        cs = (Crossing("+", ("m0", "r0", "m1", "r1")),
              Crossing("+", ("l0", "m1", "l1", "m2")),
              Crossing("+", ("m2", "r1", "m3", "r2")),
              # close strands: l1 -> l0, m3 -> m0, r2 -> r0 via a 3-braid twist
              Crossing("+", ("l1", "m3", "l2", "m4")),
              Crossing("+", ("l2", "r2", "l0", "r3")),
              Crossing("+", ("m4", "r3", "m0", "r0x")))
        # fix the dangling r0x: make the last crossing close onto r0
        cs = cs[:5] + (Crossing("+", ("m4", "r3", "m0", "r0")),)
        d = SingularDiagram(cs)
        sites = find_move_sites(d, "RIII")
        left = [s for s in sites if s.param("form") == "left"]
        assert left
        d2 = apply_move(d, left[0])
        assert d2.counts() == d.counts()
        # the rewrite produces a right-form site at the same crossings
        back = [s for s in find_move_sites(d2, "RIII")
                if s.crossings == left[0].crossings and s.param("form") == "right"]
        assert back
        assert isomorphic(apply_move(d2, back[0]), d)

    def test_pattern_mismatch(self):
        d = builtin_diagram("trefoil")
        with pytest.raises(PatternMismatchError):
            apply_move(d, MoveSite.make("RV", (0, 1)))
        with pytest.raises(PatternMismatchError):
            apply_move(d, MoveSite.make("RI_remove", (0,)))
        with pytest.raises(PatternMismatchError):
            apply_move(d, MoveSite.make("RII_remove", (0, 1), pattern="par"))

    def test_component_partition_preserved(self):
        for name in builtin_names():
            d = builtin_diagram(name)
            for move in MOVES:
                for site in find_move_sites(d, move):
                    d2 = apply_move(d, site)
                    assert len(d2.components) == len(d.components), (name, move)

    def test_unknown_move(self):
        with pytest.raises(UnknownNameError):
            find_move_sites(builtin_diagram("unknot"), "R7")


def digest_closures():
    """Seeded 2-5 strand closures with shuffled edge names over the kind
    sets +s, +-s and - (the last gives negative RIII sites)."""
    rng = random.Random("move digest")
    out = []
    for kinds, count in (("+s", 20), ("+-s", 12), ("-", 12)):
        for _ in range(count):
            strands = rng.randint(2, 5)
            word = random_word(rng, strands, rng.randint(strands - 1, 9), kinds)
            out.append(shuffled_closure(word, strands, rng))
    return out


# SHA-256 of every find_move_sites list and every rewritten diagram, over
# the fixture diagrams, digest_closures() and the closures' one-move
# descendants; recorded before the moves were read off the axiom words
MOVES_DIGEST = "cac2ab6dac7052c52934ba918f92bfc11058913c8f4213d2ab4cf02c85bff521"


def test_moves_match_recorded_digest(all_diagrams):
    h = hashlib.sha256()

    def feed(d):
        children = []
        for move in MOVES:
            sites = find_move_sites(d, move)
            h.update(repr(sites).encode())
            for site in sites:
                d2 = apply_move(d, site)
                h.update(json.dumps(d2.to_dict()).encode())
                children.append(d2)
        return children

    for d in all_diagrams.values():
        feed(d)
    for d in digest_closures():
        for child in feed(d):
            feed(child)
    assert h.hexdigest() == MOVES_DIGEST


def strand_components(word, strands: int, d: SingularDiagram) -> list[frozenset]:
    """Oracle from the word: crossing j is letter j, and the strand at each
    position picks up the in- and out-edge it takes there.  The closure
    continues the strand that ends at position q as the one that starts at
    q, so each cycle of that permutation is one component."""
    at = list(range(strands))           # strand at each position
    edges = [set() for _ in at]
    for (pos, _), c in zip(word, d.crossings):
        a, b = at[pos], at[pos + 1]
        edges[a] |= {c.in1, c.out2}
        edges[b] |= {c.in2, c.out1}
        at[pos], at[pos + 1] = b, a
    ends = {s: q for q, s in enumerate(at)}
    comps, seen = [], set()
    for s in range(strands):
        if s in seen:
            continue
        comp = set()
        while s not in seen:
            seen.add(s)
            comp |= edges[s]
            s = ends[s]
        comps.append(frozenset(comp))
    return comps


def slot_classes(d: SingularDiagram) -> list[frozenset]:
    """Oracle by union-find: a crossing joins in1 to out2 and in2 to out1."""
    parent = {e: e for e in d.edges}

    def root(e):
        while parent[e] != e:
            e = parent[e]
        return e
    for c in d.crossings:
        for a, b in ((c.in1, c.out2), (c.in2, c.out1)):
            parent[root(a)] = root(b)
    classes = {}
    for e in d.edges:
        classes.setdefault(root(e), set()).add(e)
    return [frozenset(c) for c in classes.values()]


@pytest.mark.parametrize("word,strands,names", [
    ([(0, "+")], 3, "ab"),                    # position 2 has no crossing
    ([(1, "+"), (1, "s")], 2, "abcd"),        # position 2 is off the braid
    ([(0, "+"), (0, "s")], 2, "abc"),         # 3 names for 4 edges
])
def test_braid_closure_rejects_bad_words(word, strands, names):
    with pytest.raises(ValueError):
        braid_closure(word, strands, list(names))


def test_components_follow_the_strands():
    rng = random.Random("strand walk")
    for _ in range(150):
        strands = rng.randint(2, 5)
        word = random_word(rng, strands, rng.randint(strands - 1, 12))
        d = shuffled_closure(word, strands, rng)
        want = strand_components(word, strands, d)
        assert sorted(map(sorted, want)) == sorted(map(list, d.components)), word
        for _ in range(3):
            sites = [s for m in COUNT_PRESERVING_MOVES for s in find_move_sites(d, m)]
            if not sites:
                break
            d = apply_move(d, rng.choice(sites))
            assert len(d.components) == len(want), word
            assert sorted(map(sorted, slot_classes(d))) == sorted(map(list, d.components))


class TestIsomorphism:
    def test_respects_kind(self):
        d1 = builtin_diagram("sing_trefoil")
        d2 = builtin_diagram("trefoil")
        assert not isomorphic(d1, d2)

    def test_relabeled_edges(self):
        d = builtin_diagram("four_sing_right")
        text = d.render()
        for old, new in (("a0", "x0"), ("b2", "y7")):
            text = text.replace(old, new)
        assert isomorphic(d, parse_diagram(text))

    def test_basepoint_may_slide(self):
        d = builtin_diagram("sing_hopf")
        comp0 = d.components[0]
        other = [e for e in comp0 if e != d.basepoints[0]][0]
        d2 = SingularDiagram(d.crossings, d.loops,
                             (other,) + d.basepoints[1:])
        assert isomorphic(d, d2)


# -- RII and RV sites against all-pairs scans -----------------------------------

def rii_sites_by_pairs(d: SingularDiagram):
    """Oracle: every RII poke by comparing all ordered pairs of crossings."""
    sites = []
    for i, a in enumerate(d.crossings):
        for j, b in enumerate(d.crossings):
            if i == j or "s" in (a.kind, b.kind) or a.kind == b.kind:
                continue
            if a.out1 == b.in1 and a.out2 == b.in2 and a.out1 != a.out2:
                if i < j or not (b.out1 == a.in1 and b.out2 == a.in2):
                    sites.append(MoveSite.make("RII_remove", (i, j), pattern="par"))
            if i < j and a.out2 == b.in2 and b.out2 == a.in2 and a.out2 != b.out2:
                sites.append(MoveSite.make("RII_remove", (i, j), pattern="anti2"))
            if i < j and a.out1 == b.in1 and b.out1 == a.in1 and a.out1 != b.out1:
                sites.append(MoveSite.make("RII_remove", (i, j), pattern="anti3"))
    return sorted(sites, key=lambda s: (s.crossings, s.params))


def rv_sites_by_pairs(d: SingularDiagram):
    """Oracle: every RV site by comparing all ordered pairs of crossings."""
    return [MoveSite.make("RV", (i, j))
            for i, A in enumerate(d.crossings) for j, B in enumerate(d.crossings)
            if i != j and A.out1 == B.in1 and A.out2 == B.in2
            and {A.kind, B.kind} == {"s", "+"}]


def poked(rng: random.Random, d: SingularDiagram) -> SingularDiagram:
    """d with kinks and RII pokes added: RI kinks of either sign and shape
    on random edges, and a +- or -+ pair spliced into a random edge in
    one of the three poke patterns."""
    for _ in range(rng.randint(0, 2)):
        d = apply_move(d, MoveSite.make("RI_insert", (), edge=rng.choice(d.edges),
                                        sign=rng.choice("+-"), shape=rng.choice("AB")))
    if not d.crossings:
        return d
    # cut the strand after crossing 0's out-edge and run it through a poke
    # with a new circle
    e = rng.choice(d.crossings[0].slots[2:])
    ci, slot = d.consumers[e]
    signs = rng.sample("+-", 2)
    u, v, w, x = (f"q{i}" for i in range(4))
    pattern = rng.choice(["par", "anti2", "anti3"])
    if pattern == "par":
        # e -> in1 of a, a circle through in2; out1 of a -> in1 of b
        new = (Crossing(signs[0], (e, x, u, v)), Crossing(signs[1], (u, v, w, x)))
        feed = w
    elif pattern == "anti2":
        new = (Crossing(signs[0], (e, v, u, x)), Crossing(signs[1], (w, x, v, w)))
        feed = u
    else:
        new = (Crossing(signs[0], (v, e, x, u)), Crossing(signs[1], (x, w, v, w)))
        feed = u
    cs = list(d.crossings)
    slots = list(cs[ci].slots)
    slots[slot] = feed
    cs[ci] = Crossing(cs[ci].kind, tuple(slots))
    return SingularDiagram(tuple(cs) + new, d.loops)


def rii_rv_corpus(all_diagrams):
    rng = random.Random("rii rv sites")
    out = list(all_diagrams.values())
    # every diagram of two crossings: among them a parallel poke that
    # matches in both orders (the closure of +-), the clasps and kinks
    for ins, outs in itertools.product(itertools.permutations("wxyz"), repeat=2):
        for kinds in itertools.product("+-s", repeat=2):
            out.append(SingularDiagram((Crossing(kinds[0], ins[:2] + outs[:2]),
                                        Crossing(kinds[1], ins[2:] + outs[2:]))))
    for _ in range(120):
        strands = rng.randint(2, 4)
        word = random_word(rng, strands, rng.randint(strands - 1, 10))
        d = shuffled_closure(word, strands, rng)
        out.append(d)
        moved = d
        for _ in range(3):
            sites = [s for m in ("RIII", "RIVa", "RIVb", "RV")
                     for s in find_move_sites(moved, m)]
            if sites:
                moved = apply_move(moved, rng.choice(sites))
        out += [moved, poked(rng, d), poked(rng, moved)]
    return out


def test_rii_and_rv_sites_match_all_pairs_scans(all_diagrams):
    corpus = rii_rv_corpus(all_diagrams)
    found = {"RII_remove": 0, "RV": 0, "par both orders": 0}
    for k, d in enumerate(corpus):
        for move, oracle in (("RII_remove", rii_sites_by_pairs), ("RV", rv_sites_by_pairs)):
            want = oracle(d)
            assert find_move_sites(d, move) == want, (move, d)
            found[move] += bool(want)
            for site in want:
                apply_move(d, site)
            if k % 8:
                continue
            # applying a move checks the one site it is given
            n = len(d.crossings)
            patterns = ("par", "anti2", "anti3") if move == "RII_remove" else (None,)
            for i, j, pattern in itertools.product(range(-1, n + 1), range(-1, n + 1),
                                                   patterns):
                site = MoveSite.make(move, (i, j), **({"pattern": pattern} if pattern else {}))
                if site not in want:
                    with pytest.raises(PatternMismatchError):
                        apply_move(d, site)
        a_b = [s.crossings for s in rii_sites_by_pairs(d) if s.param("pattern") == "par"]
        found["par both orders"] += any(
            (j, i) not in a_b and d.crossings[j].out1 == d.crossings[i].in1
            and d.crossings[j].out2 == d.crossings[i].in2 for i, j in a_b)
    assert all(found.values()), found
