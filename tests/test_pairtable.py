import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlink.errors import NonUnitError
from singlink.pairs import SINGULAR_PAIR_AXIOMS, builtin_pair, enumerate_taus
from singlink.pairtable import (Biquandle, PairTable, Quandle,
                                check_biquandle, check_yang_baxter,
                                first_failure, flat_map, word_images,
                                word_arity, word_map, YANG_BAXTER,
                                dihedral_quandle, dihedral_switch,
                                flip_switch, i2_switch, make_bialexander,
                                make_quandle_switch, trivial_quandle)

# tau_1 from the computer-examples section, 1-based cycles:
# (1,1); (2,2)(3,3); (1,2)(3,1)(3,2); (1,3)(2,3)(2,1)
TAU1_CYCLES = [[(1, 1)], [(2, 2), (3, 3)],
               [(1, 2), (3, 1), (3, 2)], [(1, 3), (2, 3), (2, 1)]]
TAU2_CYCLES = [[(1, 1), (2, 2), (3, 3)], [(1, 2)],
               [(1, 3), (3, 2), (3, 1), (2, 3)], [(2, 1)]]


def table_from_cycles(n, cycles):
    m = {}
    for cyc in cycles:
        for src, dst in zip(cyc, cyc[1:] + cyc[:1]):
            m[(src[0] - 1, src[1] - 1)] = (dst[0] - 1, dst[1] - 1)
    return PairTable.from_function(n, lambda x, y: m[(x, y)])


def yang_baxter_oracle(t: PairTable) -> bool:
    """Independent check: compose full maps on X^3 as dictionaries."""
    n = t.n
    triples = list(itertools.product(range(n), repeat=3))

    def s12(v):
        a, b = t.apply(v[0], v[1])
        return (a, b, v[2])

    def s23(v):
        b, c = t.apply(v[1], v[2])
        return (v[0], b, c)

    lhs = {v: s23(s12(s23(v))) for v in triples}
    rhs = {v: s12(s23(s12(v))) for v in triples}
    return lhs == rhs


class TestYangBaxter:
    def test_flip(self):
        assert check_yang_baxter(flip_switch(3).table)

    def test_i2(self):
        assert check_yang_baxter(i2_switch().table)

    def test_tau1_fails(self):
        t = table_from_cycles(3, TAU1_CYCLES)
        assert t.is_bijective()
        assert not check_yang_baxter(t)

    def test_tau2_fails(self):
        t = table_from_cycles(3, TAU2_CYCLES)
        assert not check_yang_baxter(t)

    def test_matches_oracle_on_families(self):
        tables = [flip_switch(4).table, i2_switch().table,
                  dihedral_switch(5).table, make_bialexander(4, 3, 1).table,
                  table_from_cycles(3, TAU1_CYCLES),
                  table_from_cycles(3, TAU2_CYCLES)]
        for t in tables:
            assert check_yang_baxter(t) == yang_baxter_oracle(t)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3), st.data())
    def test_matches_oracle_random(self, n, data):
        perm = st.permutations(range(n))
        rows1 = data.draw(st.lists(perm, min_size=n, max_size=n))
        rows2 = data.draw(st.lists(perm, min_size=n, max_size=n))
        t = PairTable(n, tuple(map(tuple, rows1)),
                      tuple(zip(*map(tuple, rows2))))
        assert check_yang_baxter(t) == yang_baxter_oracle(t)


class TestWords:
    def test_letters_apply_in_order(self):
        # (1 x S) first, then (S x 1), with S the flip:
        # (0, 1, 2) -> (0, 2, 1) -> (2, 0, 1)
        maps = {"S": flip_switch(3).table}
        assert word_map((("S", 1), ("S", 0)), maps)((0, 1, 2)) == [2, 0, 1]

    def test_first_failure_is_row_major_first(self):
        # S o tau = tau o S fails first at (0, 1) for D3 with the flip
        maps = {"S": dihedral_switch(3).table, "T": flip_switch(3).table}
        lhs, rhs = (("S", 0), ("T", 0)), (("T", 0), ("S", 0))
        assert first_failure(lhs, rhs, maps, 3) == (0, 1)
        assert first_failure(lhs, lhs, maps, 3) is None


# every word the library evaluates on arrays
ALL_WORDS = (*YANG_BAXTER,
             *(w for _, lhs, rhs in SINGULAR_PAIR_AXIOMS for w in (lhs, rhs)))


@pytest.mark.parametrize("n", [2, 3, 5, 12, 13])
@pytest.mark.parametrize("dtype", [np.int8, np.int16])
@pytest.mark.parametrize("batched", [True, False], ids=["B=4", "B=1"])
@pytest.mark.parametrize("per_row", [True, False], ids=["points(B,N)", "points(N)"])
def test_word_images_match_word_map(n, dtype, batched, per_row):
    # seeded arbitrary tables and points: at n >= 12 a*n overflows int8,
    # and distinct tables per row catch a lost row offset
    rng = np.random.default_rng([n, np.dtype(dtype).itemsize, batched, per_row])
    B, N = 4, 30
    S = rng.integers(0, n, (2, n, n)).astype(dtype)
    T = rng.integers(0, n, (B, 2, n, n)).astype(dtype)
    maps = {"S": flat_map(S), "T": flat_map(T if batched else T[0])}
    tables = [{"S": PairTable(n, *S.tolist()),
               "T": PairTable(n, *T[b if batched else 0].tolist())}
              for b in range(B)]
    for word in ALL_WORDS:
        k = word_arity(word)
        points = rng.integers(0, n, (k, B, N) if per_row else (k, N)).astype(dtype)
        images = word_images(word, maps, points, n)
        for b in range(B):
            run = word_map(word, tables[b])
            want = np.array([run(points[:, b, i] if per_row else points[:, i])
                             for i in range(N)]).T
            got = [np.broadcast_to(img, (B, N))[b] for img in images]
            assert (np.array(got) == want).all(), (word, b)


class TestBiquandle:
    def test_flip_s_is_identity(self):
        assert check_biquandle(flip_switch(2).table) == (0, 1)

    def test_bialexander_s_map(self):
        # s = 1, t = -1 over Z/3: fixed points found by exhaustive scan
        t = make_bialexander(3, 1, 2).table
        expected = {(x, y) for x in range(3) for y in range(3)
                    if t.apply(x, y) == (x, y)}
        s = check_biquandle(t)
        assert s is not None
        assert expected == {(x, s[x]) for x in range(3)}
        assert s == (0, 1, 2)

    def test_degenerate_table_rejected(self):
        # constant first-component rows: not left invertible
        t = PairTable(2, ((0, 0), (1, 1)), ((0, 1), (0, 1)))
        assert check_biquandle(t) is None

    def test_builtin_families_are_biquandles(self):
        for bi in [flip_switch(n) for n in range(1, 7)] + \
                  [i2_switch(), dihedral_switch(5), dihedral_switch(6),
                   make_bialexander(5, 2, 3), make_bialexander(7, 3, 2)]:
            s = check_biquandle(bi.table)
            assert s == bi.s_map
            assert check_yang_baxter(bi.table)
            assert bi.table.is_left_invertible()
            assert bi.table.is_right_invertible()
            assert bi.table.is_bijective()


class TestBialexander:
    def test_d3_is_alexander_switch(self):
        t = make_bialexander(3, 1, -1).table
        assert t.apply(0, 1) == (1, 2)       # (y, 2y - x)
        assert t == make_quandle_switch(dihedral_quandle(3)).table

    def test_flip_case(self):
        assert make_bialexander(2, 1, 1).table == flip_switch(2).table

    def test_direct_formula_m4(self):
        # S(1,2) = (3*2, 1 + (1-3)*2) = (2, 1) mod 4
        t = make_bialexander(4, 3, 1).table
        assert t.apply(1, 2) == (2, 1)

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitError):
            make_bialexander(4, 2, 1)
        with pytest.raises(NonUnitError):
            make_bialexander(6, 1, 3)

    def test_inverse_formula(self):
        # table inversion agrees with the closed form
        # S^-1(x,y) = ((1 - 1/(st)) x + y/t, x/s) and S undoes it
        for (m, s, t) in ((5, 2, 3), (7, 3, 2), (3, 1, 2)):
            bi = make_bialexander(m, s, t)
            inv = bi.table.inverse()
            sinv = pow(s, -1, m)
            tinv = pow(t, -1, m)
            stinv = (sinv * tinv) % m
            direct = PairTable.from_function(
                m, lambda x, y: (((1 - stinv) * x + tinv * y) % m,
                                 (sinv * x) % m))
            assert inv == direct
            assert all(bi.table.apply(*inv.apply(x, y)) == (x, y)
                       for x in range(m) for y in range(m))


class TestQuandle:
    def test_trivial_quandle_gives_flip(self):
        assert make_quandle_switch(trivial_quandle(3)).table == flip_switch(3).table

    def test_dihedral_quandle_switch(self):
        bi = make_quandle_switch(dihedral_quandle(3))
        assert check_yang_baxter(bi.table)
        assert bi.table == dihedral_switch(3).table

    def test_non_quandle_rejected(self):
        with pytest.raises(ValueError):
            Quandle(2, ((1, 0), (0, 1)))     # x <| x != x

    def test_rack_not_quandle_is_not_biquandle(self):
        # cyclic rack x <| y = x + 1: a birack without diagonal fixed points
        n = 3
        t = PairTable.from_function(n, lambda x, y: (y, (x + 1) % n))
        assert check_yang_baxter(t)
        assert t.is_bijective()
        assert check_biquandle(t) is None


class TestPairTableBasics:
    def test_json_round_trip(self):
        t = dihedral_switch(4).table
        assert PairTable.from_dict(json.loads(json.dumps(t.to_dict()))) == t

    def test_relabel_composition(self):
        t = make_bialexander(5, 2, 3).table
        g = (2, 0, 4, 1, 3)
        ginv = [0] * 5
        for i, v in enumerate(g):
            ginv[v] = i
        back = t.relabel(g).relabel(tuple(ginv))
        assert back == t

    def test_cycle_type_invariant_under_relabel(self):
        t = table_from_cycles(3, TAU1_CYCLES)
        assert t.cycle_type() == (1, 2, 3, 3)
        assert t.relabel((1, 2, 0)).cycle_type() == (1, 2, 3, 3)

    def test_entries_validated(self):
        with pytest.raises(ValueError):
            PairTable(2, ((0, 1), (2, 0)), ((0, 0), (1, 1)))


def inverse_oracle(t: PairTable) -> PairTable:
    """The inverse built cell by cell after a separate bijectivity check."""
    if not t.is_bijective():
        raise ValueError("table is not bijective")
    n = t.n
    u1 = [[0] * n for _ in range(n)]
    u2 = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            a, b = t.apply(x, y)
            u1[a][b], u2[a][b] = x, y
    return PairTable(n, u1, u2)


def tables_to_invert():
    """The switches and taus the tests build: every builtin pair's, the
    flip, i2, dihedral, bialexander and quandle switches, every tau of the
    flip n = 3, D4, D5 and bialexander(5,2,3) searches and the loose flip
    n = 2 and 3 taus (some of them not bijective); then seeded random
    tables, bijective or with one cell's pair repeated."""
    names = ("flip-flip", "flip-i2", "flip-s2", "flip-flip-3", "d3-ss",
             "d3-sinv", "i2-ss", "trivial-1")
    out = [t for name in names
           for t in (builtin_pair(name).biquandle.table, builtin_pair(name).tau)]
    out += [flip_switch(n).table for n in range(1, 6)] + [i2_switch().table]
    out += [dihedral_switch(n).table for n in range(3, 13)]
    out += [make_bialexander(m, s, t).table for m in range(2, 8)
            for s in range(1, m) for t in range(1, m)
            if np.gcd(s, m) == 1 and np.gcd(t, m) == 1]
    out += [make_quandle_switch(q).table for n in range(2, 6)
            for q in (dihedral_quandle(n), trivial_quandle(n))]
    for S in (flip_switch(3), dihedral_switch(4), dihedral_switch(5),
              make_bialexander(5, 2, 3)):
        out += enumerate_taus(S)
    out += enumerate_taus(flip_switch(2), require_bijective=False)
    out += enumerate_taus(flip_switch(3), require_bijective=False)
    rng = np.random.default_rng(2024)
    for n in range(1, 9):
        for _ in range(40):
            cells = rng.permutation(n * n)
            if n > 1 and rng.random() < 0.5:
                cells[rng.integers(n * n)] = cells[rng.integers(n * n)]
            out.append(PairTable(n, (cells // n).reshape(n, n).tolist(),
                                 (cells % n).reshape(n, n).tolist()))
    return out


def test_inverse_matches_the_cell_by_cell_oracle():
    bijective = refused = 0
    for t in tables_to_invert():
        try:
            want = inverse_oracle(t)
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)):
                t.inverse()
            refused += 1
            continue
        got = t.inverse()
        assert got == want, t
        assert all(type(row) is tuple and all(type(v) is int for v in row)
                   for row in got.t1 + got.t2)
        assert got.inverse() == t
        bijective += 1
    assert bijective > 400 and refused > 100, (bijective, refused)
