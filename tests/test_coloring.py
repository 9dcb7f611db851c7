import hashlib
import itertools
import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlink import coloring
from singlink.coloring import (brute_force_colorings, count_colorings,
                               enumerate_colorings)
from singlink.diagram import (MOVES, Crossing, MoveSite, SingularDiagram,
                              apply_move, builtin_diagram, find_move_sites)
from singlink.pairs import SingularPair, builtin_pair, make_tau_a, make_tau_phi
from singlink.pairtable import dihedral_switch, flip_switch, make_bialexander


def replace_sing_by_pos(d: SingularDiagram) -> SingularDiagram:
    cs = tuple(Crossing("+" if c.kind == "s" else c.kind, c.slots)
               for c in d.crossings)
    return SingularDiagram(cs, d.loops, d.basepoints)


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


# pairs whose tau is far from S: a rewrite that mixes up the S and T
# crossings of RIVa or RIVb changes their counts
FAR_PAIRS = {"d5-tau-phi": SingularPair(dihedral_switch(5),
                                        make_tau_phi(5, 1, 4, [0, 2, 4, 1, 3])),
             "bialexander-tau-a": SingularPair(make_bialexander(5, 2, 3),
                                               make_tau_a(5, 2, 3, 2))}


def riv_closure() -> SingularDiagram:
    """A 3-strand closure with RIVa and RIVb sites for S = + and T = s and
    for the swapped kinds; a swapped rewrite changes its D5 tau_phi count."""
    word = [(0, "s"), (0, "s"), (1, "s"), (0, "s"), (1, "+"), (1, "+"),
            (1, "+"), (0, "s"), (1, "s")]
    return braid_closure(word, 3, random.Random("riv sites"))


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

def random_word(rng: random.Random, strands: int, length: int, kinds="+-s"):
    """Letters (position, kind) acting on strand positions (pos, pos+1);
    every position occurs, so the closure has no crossing-free strand."""
    positions = list(range(strands - 1))
    positions += [rng.randrange(strands - 1) for _ in range(length - strands + 1)]
    rng.shuffle(positions)
    return [(pos, rng.choice(kinds)) for pos in positions]


def braid_closure(word, strands: int, rng: random.Random) -> SingularDiagram:
    """Closure of `word` whose edge names sort in a random order.

    A letter at pos consumes the edges at positions pos and pos+1 and puts
    its out1 at pos and out2 at pos+1, so the strand entering at in1
    leaves at out2; the bottom edge at each position is the top one."""
    at = list(range(strands))
    letters = []
    fresh = strands
    for pos, kind in word:
        letters.append((kind, [at[pos], at[pos + 1], fresh, fresh + 1]))
        at[pos], at[pos + 1] = fresh, fresh + 1
        fresh += 2
    bottom = {e: pos for pos, e in enumerate(at)}
    ids = sorted({bottom.get(e, e) for _, slots in letters for e in slots})
    names = dict(zip(ids, (f"e{v}" for v in rng.sample(range(10 * len(ids)), len(ids)))))
    return SingularDiagram(tuple(
        Crossing(kind, tuple(names[bottom.get(e, e)] for e in slots))
        for kind, slots in letters))


def fixed_point_count(word, strands: int, p: SingularPair) -> int:
    """Colorings of the closure = top colors that the composed map of X^k
    along the word (S, S^-1 or tau per letter) sends to themselves."""
    S = p.biquandle.table
    maps = {"+": S, "-": S.inverse(), "s": p.tau}
    count = 0
    for top in itertools.product(range(p.n), repeat=strands):
        state = list(top)
        for pos, kind in word:
            state[pos], state[pos + 1] = maps[kind].apply(state[pos], state[pos + 1])
        count += tuple(state) == top
    return count


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
            d = braid_closure(word, strands, rng)
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
                d = braid_closure(word, strands, rng)
                for p in prs:
                    assert count_colorings(d, p) == fixed_point_count(word, strands, p), word


COUNT_PRESERVING_MOVES = ("RIII", "RIVa", "RIVb", "RV")


def drawn_site(draw, d: SingularDiagram, moves):
    """One of the sites of `moves` in d, or None when there is none.  The
    kinks RI_insert could add count as one site, whose edge, sign and shape
    are drawn next."""
    sites = [s for m in moves if m != "RI_insert" for s in find_move_sites(d, m)]
    sites += ["RI_insert"] if "RI_insert" in moves and d.edges else []
    site = draw(st.sampled_from(sites)) if sites else None
    if site == "RI_insert":
        site = MoveSite.make("RI_insert", (), edge=draw(st.sampled_from(d.edges)),
                             sign=draw(st.sampled_from("+-")),
                             shape=draw(st.sampled_from("AB")))
    return site


@st.composite
def moved_closures(draw, moves=COUNT_PRESERVING_MOVES):
    """A word of at most 10 letters on 2-4 strands, its closure with
    shuffled names, and the chain of diagrams after up to 4 moves drawn
    from `moves`."""
    strands = draw(st.integers(2, 4))
    extra = draw(st.lists(st.integers(0, strands - 2), max_size=11 - strands))
    positions = draw(st.permutations(list(range(strands - 1)) + extra))
    word = [(pos, draw(st.sampled_from("+-s"))) for pos in positions]
    chain = [braid_closure(word, strands, draw(st.randoms(use_true_random=False)))]
    for _ in range(draw(st.integers(0, 4))):
        site = drawn_site(draw, chain[-1], moves)
        if site is None:
            break
        chain.append(apply_move(chain[-1], site))
    return word, strands, chain


MOVE_PAIRS = (SingularPair(dihedral_switch(3), dihedral_switch(3).table.inverse()),
              FAR_PAIRS["d5-tau-phi"])


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


def ladder(k: int) -> SingularDiagram:
    """2-strand closure alternating +/s whose level-i crossing eats
    (l_i, r_i): named so that sorted-name seeding branches on every l_i."""
    return SingularDiagram(tuple(
        Crossing("+" if i % 2 == 0 else "s",
                 (f"l{i}", f"r{i}", f"l{(i + 1) % k}", f"r{(i + 1) % k}"))
        for i in range(k)))


@pytest.mark.parametrize("k", [16, 64])
def test_ladder_search_does_not_depend_on_names(k):
    with time_limit(10):
        assert count_colorings(ladder(k), builtin_pair("d3-ss")) == 3


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
    d = SingularDiagram(ladder(16).crossings, loops)
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
                SingularDiagram(ladder(6).crossings, ("a", "m", "z"))]
    for _ in range(150):
        strands = rng.randint(2, 4)
        word = random_word(rng, strands, rng.randint(strands - 1, 14))
        d = braid_closure(word, strands, rng)
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


EDGE_CASES = {
    "empty": SingularDiagram(()),
    "loops": SingularDiagram((), ("b", "a", "c")),
    "kink": SingularDiagram((Crossing("s", ("e0", "l", "e0", "l")),)),
    "kinks and a loop": SingularDiagram((Crossing("+", ("a", "k", "b", "k")),
                                         Crossing("-", ("m", "b", "m", "a"))), ("z",)),
    "no colorings": builtin_diagram("sing_hopf"),
}


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
        diagrams[f"closure {i}"] = braid_closure(word, strands, rng)
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
    return braid_closure(word, k, random.Random("ring chain"))


def test_ring_chain_counts_fast():
    # 2^18 colorings with flip-flip: 4.4 s for the depth-first search
    d = ring_chain(18)
    with time_limit(2):
        assert count_colorings(d, builtin_pair("flip-flip")) == 2 ** 18


def d3_pair() -> SingularPair:
    """A D3 pair built anew at each call: equal to, not the same object as,
    the one before."""
    D3 = dihedral_switch(3)
    return SingularPair(D3, D3.table.inverse())


def test_flat_tables_are_read_only():
    tabs = coloring.flat_tables(d3_pair())
    for pair in tabs.values():
        for tab in pair:
            assert not tab.flags.writeable
            with pytest.raises(ValueError):
                tab[0] = 1
    with pytest.raises(TypeError):
        tabs[coloring.SING, True] = tabs[coloring.POS, True]
    with pytest.raises(AttributeError):
        tabs.pop((coloring.NEG, True))


def test_equal_pairs_share_their_tables():
    p, q = d3_pair(), d3_pair()
    assert p == q and p is not q
    assert coloring.flat_tables(p) is coloring.flat_tables(q)


def test_results_do_not_depend_on_the_table_cache():
    from singlink.invariant import (nc_invariant, state_sum, universal_ab_cocycle,
                                    universal_nc_cocycle)

    d = builtin_diagram("sing_trefoil_mirror")
    coloring.flat_tables.cache_clear()

    def results():
        p = d3_pair()
        return (count_colorings(d, p), enumerate_colorings(d, p),
                nc_invariant(d, p, universal_nc_cocycle(p)),
                state_sum(d, p, universal_ab_cocycle(p)))

    first = results()
    assert first[0] == len(first[1]) == 9
    assert coloring.flat_tables.cache_info().misses == 1
    assert results() == first
    assert coloring.flat_tables.cache_info().hits >= 1
