import copy
import hashlib
import pickle
import random
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings

from singlink import coloring
from singlink.coloring import (brute_force_colorings, count_colorings,
                               enumerate_colorings, fixed_point_count)
from singlink.diagram import (MOVES, Crossing, SingularDiagram, apply_move,
                              braid_closure, builtin_diagram, find_move_sites)
from singlink.pairs import SingularPair, builtin_pair
from singlink.pairtable import PairTable, dihedral_switch, flip_switch
from tests.closures import (EDGE_CASES, FAR_PAIRS, MOVE_PAIRS, last_edge_bases,
                            ladder, move_chain, moved_closures, random_word,
                            replace_sing_by_pos, shuffled_closure)


class TestPaperCounts:
    def test_sing_hopf_empty(self):
        assert count_colorings(builtin_diagram("sing_hopf"),
                               builtin_pair("flip-i2")) == 0

    def test_mirror_trefoil_cardinality_of_X(self):
        # with (S, S) the mirror singular trefoil has |X| colorings
        for pair, n in ((builtin_pair("d3-ss"), 3),
                        (builtin_pair("flip-flip"), 2)):
            assert count_colorings(builtin_diagram("sing_trefoil_mirror"),
                                   pair) == n

    def test_sing_trefoil_d3_nontrivial(self):
        assert count_colorings(builtin_diagram("sing_trefoil"),
                               builtin_pair("d3-ss")) == 9

    def test_roles_swap_for_S_inverse(self):
        d3inv = builtin_pair("d3-sinv")
        assert count_colorings(builtin_diagram("sing_trefoil"), d3inv) == 3
        assert count_colorings(builtin_diagram("sing_trefoil_mirror"), d3inv) == 9

    def test_unknot(self):
        for name, n in (("flip-i2", 2), ("d3-ss", 3)):
            assert count_colorings(builtin_diagram("unknot"),
                                   builtin_pair(name)) == n

    def test_trivial_pair_single_coloring(self):
        p = builtin_pair("trivial-1")
        for name in ("unknot", "trefoil", "four_sing_left"):
            assert count_colorings(builtin_diagram(name), p) == 1

    def test_four_sing_left_count(self):
        assert count_colorings(builtin_diagram("four_sing_left"),
                               builtin_pair("flip-i2")) == 4

    def test_kinked_unknot(self):
        d = builtin_diagram("unknot")
        site = find_move_sites(d, "RI_insert")[0]
        d2 = apply_move(d, site)
        for name, n in (("flip-i2", 2), ("d3-ss", 3)):
            assert count_colorings(d2, builtin_pair(name)) == n


class TestOracle:
    def test_brute_force_equivalence(self, all_diagrams, test_pairs):
        for dname, d in all_diagrams.items():
            if len(d.edges) > 8:
                continue
            for pname, p in test_pairs.items():
                if p.n > 3:
                    continue
                fast = enumerate_colorings(d, p)
                slow = brute_force_colorings(d, p)
                key = lambda col: tuple(sorted(col.items()))
                assert sorted(map(key, fast)) == sorted(map(key, slow)), \
                    (dname, pname)

    def test_sorted_deterministically(self):
        d = builtin_diagram("four_sing_left")
        p = builtin_pair("flip-i2")
        cols = enumerate_colorings(d, p)
        keys = [tuple(col[e] for e in d.edges) for col in cols]
        assert keys == sorted(keys)


def riv_closure() -> SingularDiagram:
    """A 3-strand closure with RIVa and RIVb sites for S = + and T = s and
    for the swapped kinds; a swapped rewrite changes its D5 tau_phi count."""
    word = [(0, "s"), (0, "s"), (1, "s"), (0, "s"), (1, "+"), (1, "+"),
            (1, "+"), (0, "s"), (1, "s")]
    return shuffled_closure(word, 3, random.Random("riv sites"))


class TestMoveInvariance:
    def test_counts_invariant_under_all_moves(self, all_diagrams, test_pairs):
        diagrams = dict(all_diagrams, riv_closure=riv_closure())
        prs = dict(test_pairs, **FAR_PAIRS)
        for dname, d in diagrams.items():
            for move in MOVES:
                for site in find_move_sites(d, move):
                    d2 = apply_move(d, site)
                    for pname, p in prs.items():
                        assert count_colorings(d, p) == count_colorings(d2, p), \
                            (dname, move, site, pname)


class TestSingToPosReplacement:
    def test_SS_pair_matches_classical_count(self):
        # with tau = S, colorings of the singular diagram biject with the
        # colorings of the diagram where Sing is replaced by Pos
        for pair in (builtin_pair("d3-ss"), builtin_pair("flip-flip"),
                     builtin_pair("i2-ss")):
            for name in ("sing_trefoil", "four_sing_left", "sing_hopf",
                         "sing_trefoil_fig8"):
                d = builtin_diagram(name)
                assert count_colorings(d, pair) == \
                    count_colorings(replace_sing_by_pos(d), pair), (name,)


# ---------------------------------------------------------------------------
# differential tests on random singular braid closures
# ---------------------------------------------------------------------------

def sorted_by_edges(d, cols):
    return sorted(cols, key=lambda col: tuple(col[e] for e in d.edges))


class TestRandomClosures:
    def test_enumerate_matches_brute_force(self, test_pairs):
        rng = random.Random("brute force")
        small = [p for p in test_pairs.values() if p.n <= 3]
        for _ in range(20):
            strands = rng.randint(2, 4)
            length = rng.randint(strands - 1, 5)          # at most 10 edges
            word = random_word(rng, strands, length)
            d = shuffled_closure(word, strands, rng)
            for p in small:
                assert enumerate_colorings(d, p) == \
                    sorted_by_edges(d, brute_force_colorings(d, p)), (word, d)

    def test_count_matches_fixed_points(self):
        prs = tuple(FAR_PAIRS.values())
        rng = random.Random("fixed points")
        with time_limit(60):            # a name-dependent search takes minutes
            for _ in range(60):
                strands = rng.randint(2, 4)
                word = random_word(rng, strands, rng.randint(strands - 1, 12))
                d = shuffled_closure(word, strands, rng)
                for p in prs:
                    assert count_colorings(d, p) == fixed_point_count(word, strands, p), word


@settings(max_examples=300, derandomize=True, deadline=None)
@given(moved_closures())
def test_moves_keep_the_fixed_point_count(case):
    word, strands, chain = case
    for p in MOVE_PAIRS:
        expected = fixed_point_count(word, strands, p)
        assert [count_colorings(d, p) for d in chain] == [expected] * len(chain), word


@contextmanager
def time_limit(seconds: float):
    """Fail with TimeoutError instead of hanging past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("k", [16, 64])
def test_ladder_search_does_not_depend_on_names(k):
    with time_limit(10):
        assert count_colorings(ladder("+s" * (k // 2)), builtin_pair("d3-ss")) == 3


def test_seeds_beyond_the_recursion_limit():
    # every crossing-free loop is its own seed: 1,200 of them
    d = SingularDiagram((), tuple(f"e{i}" for i in range(1200)))
    p = builtin_pair("trivial-1")
    with time_limit(10):
        assert count_colorings(d, p) == 1
        assert enumerate_colorings(d, p) == [dict.fromkeys(d.edges, 0)]


def test_many_loops_take_linear_time():
    # each loop is a fallback seed; a fallback scan from edge 0 at every
    # branch point takes 8 s to count 20,000 loops, a resumed one 0.1 s
    d = SingularDiagram((), tuple(f"e{i}" for i in range(20000)))
    p = builtin_pair("trivial-1")
    with time_limit(5):
        assert count_colorings(d, p) == 1
        assert len(enumerate_colorings(d, p)) == 1


def test_loops_between_crossings():
    # loops named to sort among the ladder's edges, so that fallback
    # seeds and pair seeds alternate on the stack
    loops = ("a", "m0", "m1", "q", "z")
    d = SingularDiagram(ladder("+s" * 8).crossings, loops)
    p = builtin_pair("d3-ss")
    cols = enumerate_colorings(d, p)
    assert count_colorings(d, p) == len(cols) == 3 * 3 ** len(loops)
    assert len({tuple(sorted(c.items())) for c in cols}) == len(cols)


def test_output_matches_recorded_digest(all_diagrams, test_pairs):
    # recorded with the sorted-name search this engine replaced; dict key
    # order is not part of the output, so each coloring is hashed as its
    # sorted items
    h = hashlib.sha256()
    for dname in sorted(all_diagrams):
        for pname in sorted(test_pairs):
            cols = enumerate_colorings(all_diagrams[dname], test_pairs[pname])
            h.update(repr((dname, pname, [sorted(c.items()) for c in cols])).encode())
    assert h.hexdigest() == \
        "da1844aa3bd91c6bd884677f814b31565554ae8f9eab4fe8aa28635bbec0592a"


def two_crossing_components(k: int) -> SingularDiagram:
    """k disjoint two-component links of two crossings each, named so that
    each link's edges sort together."""
    cs = []
    for i in range(k):
        x, y, y2, x2 = (f"c{i:05d}{s}" for s in "abcd")
        cs += [Crossing("+", (x, y, y2, x2)), Crossing("+", (y2, x2, x, y))]
    return SingularDiagram(tuple(cs))


def reference_seeds(d: SingularDiagram) -> list[str]:
    """The seed rule by plain scans: propagate to a fixed point (a crossing
    with a known in-pair or out-pair gets all four slots), then seed the
    missing slot of the first half-known in-pair or out-pair in crossing
    order, in-pair first, else the first uncoloured edge in sorted order."""
    known: set[str] = set()
    seeds = []
    while True:
        grew = True
        while grew:
            grew = False
            for c in d.crossings:
                if {c.in1, c.in2} <= known or {c.out1, c.out2} <= known:
                    grew |= not set(c.slots) <= known
                    known |= set(c.slots)
        half = [pair for c in d.crossings for pair in (c.slots[:2], c.slots[2:])
                if len(known & set(pair)) == 1]
        rest = [e for e in d.edges if e not in known]
        if not rest:
            return seeds
        seed = next(e for e in half[0] if e not in known) if half else rest[0]
        seeds.append(seed)
        known.add(seed)


def test_plan_seeds_follow_the_scan_rule():
    rng = random.Random("plan seeds")
    diagrams = [two_crossing_components(3), SingularDiagram((), ("b", "a")),
                SingularDiagram(ladder("+s" * 3).crossings, ("a", "m", "z"))]
    for _ in range(150):
        strands = rng.randint(2, 4)
        word = random_word(rng, strands, rng.randint(strands - 1, 14))
        d = shuffled_closure(word, strands, rng)
        loops = tuple(f"e{rng.randrange(1000)}x" for _ in range(rng.randint(0, 2)))
        diagrams.append(SingularDiagram(d.crossings, tuple(sorted(set(loops)))))
    for d in diagrams:
        plan = coloring._plan(d)
        assert [d.edges[e] for e, _ in plan] == reference_seeds(d), d
        # each crossing fires once
        assert sum(len(ops) for _, ops in plan) == len(d.crossings)


def test_many_components_take_linear_time():
    # the first seed scan from crossing 0 at every branch point takes 7.8 s
    # on these 4,000 links; the plan's heap of touched crossings 0.3 s
    d = two_crossing_components(4000)
    with time_limit(1):
        assert count_colorings(d, builtin_pair("trivial-1")) == 1


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_brute_force(name, test_pairs):
    d = EDGE_CASES[name]
    for pname, p in test_pairs.items():
        want = sorted_by_edges(d, brute_force_colorings(d, p))
        assert enumerate_colorings(d, p) == want, pname
        assert count_colorings(d, p) == len(want), pname
        assert coloring.coloring_array(d, p).shape == (len(want), len(d.edges))


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_row_cap_does_not_change_the_output(rows, monkeypatch, all_diagrams, test_pairs):
    # blocks of one to three rows split at almost every seed and run
    # depth-first; counts and enumerations must not notice
    rng = random.Random("row cap")
    diagrams = dict(all_diagrams, **EDGE_CASES)
    for i in range(10):
        strands = rng.randint(2, 4)
        word = random_word(rng, strands, rng.randint(strands - 1, 8))
        diagrams[f"closure {i}"] = shuffled_closure(word, strands, rng)
    prs = dict(test_pairs, **FAR_PAIRS)
    want = {(dn, pn): (count_colorings(d, p), enumerate_colorings(d, p))
            for dn, d in diagrams.items() for pn, p in prs.items()}
    monkeypatch.setattr(coloring, "_ROWS", rows)
    for (dn, pn), (count, cols) in want.items():
        d, p = diagrams[dn], prs[pn]
        assert count_colorings(d, p) == count, (dn, pn)
        assert enumerate_colorings(d, p) == cols, (dn, pn)


def ring_chain(k: int) -> SingularDiagram:
    """k rings, each linked to the next by a positive and a singular
    crossing: the closure of s1 t1 s2 t2 ... on k strands."""
    word = [(i, kind) for i in range(k - 1) for kind in "+s"]
    return shuffled_closure(word, k, random.Random("ring chain"))


def test_ring_chain_counts_fast():
    # 2^18 colorings with flip-flip: 4.4 s for the depth-first search
    d = ring_chain(18)
    with time_limit(2):
        assert count_colorings(d, builtin_pair("flip-flip")) == 2 ** 18


def one_key_cases():
    """(label, diagram, pair) whose colorings coloring_array sorts: colors
    of two bytes, where a little-endian key puts 256 before 1, and the
    flip-flip ring chain."""
    flip = flip_switch(300)
    wide = SingularPair(flip, flip.table)
    return [("n=300, one crossing", braid_closure([(0, "s")], 2, "ab"), wide),
            ("n=300, two crossings", braid_closure([(0, "s")] * 2, 2, "dcba"), wide),
            ("ring chain k=14", ring_chain(14), builtin_pair("flip-flip"))]


@pytest.mark.parametrize("label,d,p", one_key_cases(),
                         ids=[case[0] for case in one_key_cases()])
def test_rows_sort_as_by_one_key_per_edge(label, d, p):
    cols = coloring.coloring_array(d, p)
    assert len(cols) == count_colorings(d, p) and cols.dtype.itemsize == (
        1 if p.n <= 256 else 2)
    want = cols[np.random.default_rng(0).permutation(len(cols))]
    want = want[np.lexsort(want.T[::-1])]
    assert np.array_equal(cols, want), label


def d3_pair() -> SingularPair:
    """A D3 pair built anew at each call: equal to, not the same object as,
    the one before."""
    D3 = dihedral_switch(3)
    return SingularPair(D3, D3.table.inverse())


def test_stored_tables_are_read_only_and_in_key_order():
    for p in (d3_pair(), builtin_pair("flip-i2"), builtin_pair("d3-ss")):
        S, tau = p.biquandle.table, p.tau
        maps = {coloring.POS: S, coloring.NEG: S.inverse(), coloring.SING: tau}
        tabs = p.derived(coloring.flat_tables)
        assert len(tabs) == len(coloring._KEYS)
        for (kind, forward), pair in zip(coloring._KEYS, tabs):
            m = maps[kind] if forward else maps[kind].inverse()
            assert np.array_equal(pair, np.reshape([m.t1, m.t2], (2, -1)))
            for tab in pair:
                assert not tab.flags.writeable
                with pytest.raises(ValueError):
                    tab[0] = 1
        with pytest.raises(TypeError):
            tabs[0] = tabs[1]


def test_each_pair_builds_its_tables_once(monkeypatch):
    calls, flat = [], coloring.flat_tables

    def counted(p):
        calls.append(p)
        return flat(p)
    monkeypatch.setattr(coloring, "flat_tables", counted)
    ds = [builtin_diagram("four_sing_left"), builtin_diagram("sing_trefoil")]
    p, q = d3_pair(), d3_pair()
    assert p == q and p is not q and calls == []
    for pair in (p, q, p, q):
        for d in ds:
            count_colorings(d, pair)
            enumerate_colorings(d, pair)
            coloring.coloring_array(d, pair)
    # one build per pair object, at its first search: equal pairs share none
    assert len(calls) == 2 and calls[0] is p and calls[1] is q


def test_results_do_not_depend_on_the_stored_tables():
    from singlink.invariant import (nc_invariant, state_sum, universal_ab_cocycle,
                                    universal_nc_cocycle)

    d = builtin_diagram("sing_trefoil_mirror")

    def results(p):
        return (count_colorings(d, p), enumerate_colorings(d, p),
                nc_invariant(d, p, universal_nc_cocycle(p)),
                state_sum(d, p, universal_ab_cocycle(p)))

    first = results(d3_pair())
    assert first[0] == len(first[1]) == 9
    p = d3_pair()
    assert results(p) == first and results(p) == first


def test_a_tau_that_is_not_bijective_is_refused():
    S = flip_switch(2)
    # a singular pair but for bijectivity: tau(0, 1) = tau(1, 0) = (1, 1)
    p = SingularPair(S, PairTable(2, ((0, 1), (1, 0)), ((0, 1), (1, 0))))
    for d in (builtin_diagram("sing_trefoil"), builtin_diagram("unknot")):
        for search in (count_colorings, enumerate_colorings):
            with pytest.raises(ValueError, match="not bijective"):
                search(d, p)


def test_a_search_or_query_leaves_the_pairs_as_they_were():
    from singlink.invariant import (AB, NC, CocyclePair, builtin_cocycle,
                                    nc_invariant, state_sum)

    def fresh():
        nc, ab = builtin_cocycle("flip-flip", NC), builtin_cocycle("flip-flip", AB)
        return (builtin_pair("flip-flip"), CocyclePair(nc.target, nc.f, nc.h, NC),
                CocyclePair(ab.target, ab.f, ab.h, AB))

    d = builtin_diagram("four_sing_left")
    p, nc, ab = objs = fresh()
    before = [(hash(o), repr(o)) for o in objs]
    values = (count_colorings(d, p), nc_invariant(d, p, nc), state_sum(d, p, ab))
    assert [(hash(o), repr(o)) for o in objs] == before
    assert objs == fresh()
    assert [(hash(o), repr(o)) for o in fresh()] == before
    # a copy or a pickle leaves the stores behind and queries as the original
    for copied in (copy.deepcopy((d, *objs)), pickle.loads(pickle.dumps((d, *objs)))):
        assert copied == (d, *objs)
        assert not any(hasattr(o, "_derived") for o in copied)
        d2, p2, nc2, ab2 = copied
        assert (count_colorings(d2, p2), nc_invariant(d2, p2, nc2),
                state_sum(d2, p2, ab2)) == values


def fresh_copy(d: SingularDiagram) -> SingularDiagram:
    return SingularDiagram.from_dict(d.to_dict())


def searched_diagrams(all_diagrams):
    """Every closure the tests share, seeded shuffled closures, and each
    diagram of seeded move chains from them, basepoints on last edges."""
    rng = random.Random("stored plans")
    out = [*EDGE_CASES.values(), *all_diagrams.values()]
    for _ in range(20):
        strands = rng.randint(2, 4)
        out.append(shuffled_closure(random_word(rng, strands, rng.randint(strands, 9)),
                                    strands, rng))
    for d in list(out):
        out += move_chain(rng, last_edge_bases(d), 4)[1:]
    return out


def test_stored_plan_matches_a_fresh_compile(all_diagrams):
    p = builtin_pair("d3-sinv")
    for d in searched_diagrams(all_diagrams):
        count = count_colorings(d, p)
        assert len(enumerate_colorings(d, p)) == count
        assert d.derived(coloring._plan) == coloring._plan(fresh_copy(d)), d


def test_plan_compiled_once_per_diagram(monkeypatch):
    calls, plan = [], coloring._plan

    def counted(d):
        calls.append(d)
        return plan(d)
    monkeypatch.setattr(coloring, "_plan", counted)
    d = builtin_diagram("four_sing_left")
    for p in (builtin_pair("flip-flip"), builtin_pair("d3-ss"), d3_pair()):
        count_colorings(d, p)
        enumerate_colorings(d, p)
        coloring.coloring_array(d, p)
    assert calls == [d]
    # building or moving a diagram compiles nothing; its first search does
    moved = apply_move(d, find_move_sites(d, "RI_insert")[0])
    assert calls == [d]
    assert count_colorings(moved, d3_pair()) == count_colorings(d, d3_pair())
    assert calls == [d, moved] and calls[1] is moved


def test_a_search_leaves_the_diagram_as_it_was(all_diagrams):
    from singlink.invariant import (AB, NC, builtin_cocycle, nc_invariant,
                                    state_sum)

    p = builtin_pair("flip-flip")
    nc, ab = builtin_cocycle("flip-flip", NC), builtin_cocycle("flip-flip", AB)
    for d in searched_diagrams(all_diagrams)[::3]:
        copy = fresh_copy(d)
        before = (hash(d), repr(d), d.to_dict(), d.render())
        count_colorings(d, p)
        nc_invariant(d, p, nc)
        state_sum(d, p, ab)
        assert (hash(d), repr(d), d.to_dict(), d.render()) == before
        assert d == copy and hash(d) == hash(copy) and repr(d) == repr(copy)


def test_colorings_searched_once_per_diagram_and_pair(monkeypatch):
    from singlink.invariant import AB, NC, builtin_cocycle, nc_invariant, state_sum

    calls, blocks = [], coloring._blocks

    def counted(d, p):
        calls.append((d, p))
        return blocks(d, p)
    monkeypatch.setattr(coloring, "_blocks", counted)
    p = builtin_pair("flip-flip")
    nc, ab = builtin_cocycle("flip-flip", NC), builtin_cocycle("flip-flip", AB)
    ds = [builtin_diagram("four_sing_left"), builtin_diagram("sing_trefoil")]
    # a count searches every time and stores nothing
    for d in ds:
        assert count_colorings(d, p) == count_colorings(d, p) > 0
    assert [(c[0], c[1] is p) for c in calls] == [(d, True) for d in ds for _ in (0, 1)]
    calls.clear()
    for _ in range(3):
        for d in ds:
            nc_invariant(d, p, nc)
            state_sum(d, p, ab)
            enumerate_colorings(d, p)
            coloring.coloring_array(d, p)
    assert len(calls) == 2 and all(c[0] is d for c, d in zip(calls, ds))
    # nor does a count read the store
    count_colorings(ds[0], p)
    assert len(calls) == 3
    # an equal but distinct pair finds the same array
    q = builtin_pair("flip-flip")
    assert q == p and q is not p
    cols = coloring.coloring_array(ds[0], p)
    assert coloring.coloring_array(ds[0], q) is cols
    assert nc_invariant(ds[0], q, nc) == nc_invariant(ds[0], p, nc)
    assert len(calls) == 3
    # a second pair drops the first pair's array: d holds one array at most
    r = d3_pair()
    assert coloring.coloring_array(ds[0], r).shape[1] == cols.shape[1]
    assert calls[-1][1] is r and len(calls) == 4
    assert coloring.coloring_array(ds[0], p) is not cols
    assert np.array_equal(coloring.coloring_array(ds[0], p), cols)
    assert len(calls) == 5
    # a moved diagram and a copy each have their own store
    d = ds[0]
    for other in (apply_move(d, find_move_sites(d, "RI_insert")[0]), fresh_copy(d)):
        nc_invariant(other, p, nc)
        state_sum(other, p, ab)
        coloring.coloring_array(other, p)
        assert calls[-1][0] is other
    assert len(calls) == 7
    assert not cols.flags.writeable
    with pytest.raises(ValueError):
        cols[0, 0] = 1 - cols[0, 0]


def test_stored_colorings_match_a_fresh_search(all_diagrams):
    from singlink.invariant import (nc_invariant, state_sum, universal_ab_cocycle,
                                    universal_nc_cocycle)

    D5 = dihedral_switch(5)
    pairs = (builtin_pair("d3-sinv"), builtin_pair("flip-flip"),
             SingularPair(D5, D5.table))
    diagrams = searched_diagrams(all_diagrams)
    for p in pairs:
        nc, ab = universal_nc_cocycle(p), universal_ab_cocycle(p)
        for d in diagrams:
            first = nc_invariant(d, p, nc), state_sum(d, p, ab)
            fresh = fresh_copy(d)
            stored, searched = coloring.coloring_array(d, p), coloring.coloring_array(fresh, p)
            assert stored.dtype == searched.dtype and np.array_equal(stored, searched), d
            assert (nc_invariant(d, p, nc), state_sum(d, p, ab)) == first, d
            assert (nc_invariant(fresh, p, nc), state_sum(fresh, p, ab)) == first, d


def test_an_equal_pair_searches_a_fresh_copy_with_its_own_tables(monkeypatch):
    # on one diagram an equal pair finds the colorings the first pair kept,
    # so each query runs on a fresh copy, where only the second pair searches
    from singlink.invariant import (nc_invariant, state_sum, universal_ab_cocycle,
                                    universal_nc_cocycle)

    queries = (count_colorings, enumerate_colorings,
               lambda d, p: nc_invariant(d, p, universal_nc_cocycle(p)),
               lambda d, p: state_sum(d, p, universal_ab_cocycle(p)))
    d, first, p = builtin_diagram("sing_trefoil_mirror"), d3_pair(), d3_pair()
    want = [query(fresh_copy(d), first) for query in queries]
    searched, blocks = [], coloring._blocks

    def counted(d, p):
        searched.append(p)
        return blocks(d, p)
    monkeypatch.setattr(coloring, "_blocks", counted)
    for query, value in zip(queries, want):
        searched.clear()
        assert query(fresh_copy(d), p) == value
        assert len(searched) == 1 and searched[0] is p


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_row_cap_does_not_change_a_fresh_array(rows, monkeypatch, all_diagrams, test_pairs):
    # the inputs of test_row_cap_does_not_change_the_output, each array
    # searched on a fresh copy, so that none is read from a diagram's store
    rng = random.Random("row cap")
    diagrams = dict(all_diagrams, **EDGE_CASES)
    for i in range(10):
        strands = rng.randint(2, 4)
        word = random_word(rng, strands, rng.randint(strands - 1, 8))
        diagrams[f"closure {i}"] = shuffled_closure(word, strands, rng)
    prs = dict(test_pairs, **FAR_PAIRS)
    want = {(dn, pn): coloring.coloring_array(fresh_copy(d), p)
            for dn, d in diagrams.items() for pn, p in prs.items()}
    monkeypatch.setattr(coloring, "_ROWS", rows)
    for (dn, pn), cols in want.items():
        fresh = coloring.coloring_array(fresh_copy(diagrams[dn]), prs[pn])
        assert fresh.dtype == cols.dtype and np.array_equal(fresh, cols), (dn, pn)
