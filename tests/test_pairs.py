import hashlib
import itertools
import random
from collections import Counter
from math import factorial, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlink import pairs as pairs_module
from singlink.errors import (DimensionMismatchError,
                             HomogeneityViolationError, NonUnitError,
                             SearchBoundExceededError)
from singlink.pairs import (SingularPair, brute_force_taus,
                            builtin_pair, canonical_form, canonical_key,
                            check_bialexander_characterization,
                            check_flip_s_condition, check_flip_tau_condition,
                            check_singular_pair, classify_isomorphism,
                            automorphism_group,
                            enumerate_left_right_invertible, enumerate_taus,
                            make_tau_a, make_tau_phi, pair_verdicts,
                            tau_phi_family, tau_phi_iso_count)
from singlink.pairtable import (YANG_BAXTER, Biquandle, PairTable,
                                check_biquandle, dihedral_quandle,
                                dihedral_switch, flat_map, flip_switch,
                                i2_switch, make_bialexander,
                                make_quandle_switch, trivial_quandle,
                                word_images, word_map)


class TestSingularPairAxioms:
    @pytest.mark.parametrize("bi", [flip_switch(2), flip_switch(3), i2_switch(),
                                    dihedral_switch(3), dihedral_switch(4),
                                    make_bialexander(5, 2, 3)])
    def test_tau_S_and_tau_Sinv(self, bi):
        assert check_singular_pair(bi, bi.table).ok
        assert check_singular_pair(bi, bi.table.inverse()).ok

    def test_flip_i2(self):
        assert check_singular_pair(flip_switch(2), i2_switch().table).ok

    def test_d3_with_flip_fails_rv(self):
        res = check_singular_pair(dihedral_switch(3), flip_switch(3).table)
        assert not res.ok
        assert res.violations[0].axiom == "rv"
        # the witness is a genuine counterexample to tau o S = S o tau
        x, y = res.violations[0].witness
        S = dihedral_switch(3).table
        flip = flip_switch(3).table
        assert flip.apply(*S.apply(x, y)) != S.apply(*flip.apply(x, y))

    def test_degenerate_n1(self):
        p = builtin_pair("trivial-1")
        assert check_singular_pair(p.biquandle, p.tau).ok


class TestFlipConditions:
    def test_tau_condition_flip(self):
        assert check_flip_tau_condition(flip_switch(3).table)

    def test_tau_condition_i2(self):
        # oracle: direct scan of tau1(y,x) == tau2(x,y)
        t = i2_switch().table
        assert check_flip_tau_condition(t)
        assert all(t.t1[y][x] == t.t2[x][y] for x in range(2) for y in range(2))

    def test_tau_condition_violated(self):
        t = PairTable(2, ((1, 0), (0, 1)), ((0, 1), (1, 0)))
        assert t.t1[0][1] == 0 and t.t2[1][0] == 1
        assert not check_flip_tau_condition(t)

    def test_s_condition_flip(self):
        assert check_flip_s_condition(flip_switch(4).table)

    def test_s_condition_involution_family(self):
        # S(x,y) = (s y, s x) with s an involution
        s = (1, 0, 2)
        t = PairTable.from_function(3, lambda x, y: (s[y], s[x]))
        assert check_flip_s_condition(t)
        bi = Biquandle.from_table(t)
        assert check_singular_pair(bi, flip_switch(3).table).ok

    def test_s_condition_quandle_switch_fails(self):
        assert not check_flip_s_condition(dihedral_switch(3).table)

    def test_condition_matches_full_check_for_flip(self):
        bi = flip_switch(2)
        perms = list(itertools.permutations(range(2)))
        for rows in itertools.product(perms, repeat=2):
            for cols in itertools.product(perms, repeat=2):
                t2 = tuple(tuple(cols[y][x] for y in range(2)) for x in range(2))
                t = PairTable(2, rows, t2)
                full = check_singular_pair(bi, t)
                assert (full.ok or all(v.axiom == "bijective"
                                       for v in full.violations)) == \
                    check_flip_tau_condition(t)


class TestEnumeration:
    def test_flip_n2(self):
        taus = enumerate_taus(flip_switch(2))
        assert len(taus) == 2
        keys = {t.key() for t in taus}
        assert flip_switch(2).table.key() in keys
        assert i2_switch().table.key() in keys

    def test_flip_n3_counts(self):
        taus = enumerate_taus(flip_switch(3))
        assert len(taus) == 24
        classes = classify_isomorphism(
            [SingularPair(flip_switch(3), t) for t in taus])
        assert len(classes) == 7

    def test_brute_force_agreement_flip(self):
        for n in (1, 2, 3):
            bi = flip_switch(n)
            fast = enumerate_taus(bi)
            slow = brute_force_taus(bi)
            assert [t.key() for t in fast] == [t.key() for t in slow]

    def test_brute_force_agreement_i2(self):
        bi = i2_switch()
        fast = enumerate_taus(bi)
        slow = brute_force_taus(bi)
        assert [t.key() for t in fast] == [t.key() for t in slow]

    def test_brute_force_agreement_nonbijective(self):
        bi = flip_switch(2)
        fast = enumerate_taus(bi, require_bijective=False)
        slow = brute_force_taus(bi, require_bijective=False)
        assert [t.key() for t in fast] == [t.key() for t in slow]
        assert len(fast) == 4

    def test_d3_only_S_and_Sinv(self):
        d3 = dihedral_switch(3)
        taus = enumerate_taus(d3)
        assert sorted(t.key() for t in taus) == sorted(
            [d3.table.key(), d3.table.inverse().key()])

    def test_d3_brute_force_agreement(self):
        d3 = dihedral_switch(3)
        fast = enumerate_taus(d3)
        slow = brute_force_taus(d3)
        assert [t.key() for t in fast] == [t.key() for t in slow]

    def test_enumeration_sound(self):
        # every enumerated tau really is a companion (rechecked internally,
        # asserted here against the public checker)
        for bi in (i2_switch(), dihedral_switch(4)):
            for t in enumerate_taus(bi):
                assert check_singular_pair(bi, t).ok

    def test_bound(self):
        with pytest.raises(SearchBoundExceededError):
            enumerate_taus(flip_switch(6), max_n=5)

    def test_d4_all_types(self):
        d4 = dihedral_switch(4)
        taus = enumerate_taus(d4)
        classes = classify_isomorphism([SingularPair(d4, t) for t in taus])
        assert len(classes) == 10

    def test_up_to_iso_flag(self):
        from singlink.pairs import IsoClass
        classes = enumerate_taus(flip_switch(3), up_to_iso=True)
        assert len(classes) == 7
        assert all(isinstance(c, IsoClass) for c in classes)
        assert sum(c.size for c in classes) == 24


class TestLrCounts:
    @pytest.mark.parametrize("n,expected", [
        (2, (4, 3, 2, 2)),
        (3, (216, 44, 24, 7)),
    ])
    def test_small(self, n, expected):
        c = enumerate_left_right_invertible(n)
        assert (c.total, c.iso, c.bijective, c.bijective_iso) == expected

    def test_total_is_formula(self):
        # the flip-compatible left/right-invertible maps are exactly the
        # lists of n permutations, (n!)^n of them
        import math
        for n in (2, 3, 4):
            assert enumerate_left_right_invertible(n).total == math.factorial(n) ** n

    def test_iso_count_matches_explicit_orbits_n2(self):
        # explicit orbit count over the 4 candidates at n = 2
        bi = flip_switch(2)
        taus = enumerate_taus(bi, require_bijective=False)
        keys = {canonical_key(SingularPair(bi, t)) for t in taus}
        assert len(keys) == enumerate_left_right_invertible(2).iso == 3

    def test_bound(self):
        with pytest.raises(SearchBoundExceededError):
            enumerate_left_right_invertible(5)


class TestTauPhi:
    def test_phi_identity_gives_S(self):
        d3 = dihedral_switch(3)
        assert make_tau_phi(3, 1, 2, [0, 1, 2]) == d3.table

    def test_phi_negation_gives_S_inverse(self):
        d3 = dihedral_switch(3)
        assert make_tau_phi(3, 1, 2, [0, 2, 1]) == d3.table.inverse()

    def test_d5_doubling(self):
        tab = make_tau_phi(5, 1, 4, [(2 * x) % 5 for x in range(5)])
        assert tab is not None
        assert check_singular_pair(dihedral_switch(5), tab).ok

    def test_homogeneity_violation(self):
        with pytest.raises(HomogeneityViolationError):
            make_tau_phi(5, 1, 4, [0, 2, 1, 3, 4])

    def test_family_members_are_singular_pairs(self):
        for n in (4, 5, 6):
            S = dihedral_switch(n)
            for tab in tau_phi_family(n, 1, n - 1):
                assert check_singular_pair(S, tab).ok

    # (m, s, t) -> (phis that are homogeneous, bijective tau_phi, sha256 over
    # repr(tau.key()) of the family in order), recorded with the backtracking
    # search: bialexander switches off s = 1, t = -1, then D_3..D_8
    FAMILY = {
        (5, 2, 3): (4, 3, "1028cb6dc134b094f815ed0530f8a943ea74c7009e09438e5711fafa5ff28a9f"),
        (7, 2, 2): (6, 5, "baf80600a0e8a7a722cb913bdaf91a478eb0d3b859fc287da14a188a1ccbd187"),
        (7, 3, 5): (6, 5, "be2c4c6710d1f58b756b970c4fce2a9a014d2acb12cab2fd2e550d725c06ca30"),
        (8, 3, 5): (16, 16, "45acfce323c24c8eda54bcecdefcbad98d5b1a78cf9e4d9715066597f11131c8"),
        (3, 1, 2): (2, 2, "458e016bb97171c16f24e843d5968dac87b23e58a190a2b254c13018aaa79857"),
        (4, 1, 3): (4, 4, "218945147468b625118e2d29d23f551da433c30151aca482ceec337c684265dd"),
        (5, 1, 4): (8, 8, "8be11dff6f4ac98d3a2f6880e462231872411b5fba418b13dd3851e9acead07d"),
        (6, 1, 5): (16, 16, "926f2bbed10a54489bac449687091432278fd88e7b6eaacf25ac635035cd1aec"),
        (7, 1, 6): (48, 48, "ddef8aa351523d4cdfecf1cd1e6981160805ab0621edabbf65ee2c0897e5bc2e"),
        (8, 1, 7): (96, 96, "7e1daaed84e334687f7e3609a0393413b2f7f6d9fcc95db69fdd5409346084b6"),
    }

    @pytest.mark.parametrize("mst", FAMILY)
    def test_family_matches_recorded_digest(self, mst):
        h = hashlib.sha256()
        family = tau_phi_family(*mst)
        for tab in family:
            h.update(repr(tab.key()).encode())
        assert (len(family), h.hexdigest()) == self.FAMILY[mst][1:]

    @pytest.mark.parametrize("mst", FAMILY)
    def test_family_matches_every_permutation(self, mst):
        # every permutation of Z/m through make_tau_phi, which refuses the
        # inhomogeneous ones and returns None for a non-bijective tau_phi
        m, s, t = mst
        homogeneous, tables = 0, []
        for phi in itertools.permutations(range(m)):
            try:
                tab = make_tau_phi(m, s, t, phi)
            except HomogeneityViolationError:
                continue
            homogeneous += 1
            if tab is not None:
                tables.append(tab)
        assert (homogeneous, len(tables)) == self.FAMILY[mst][:2]
        assert tau_phi_family(m, s, t) == sorted(tables, key=PairTable.key)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_dihedral_family_is_the_identity_term(self, n):
        # Fix(1): permutations of Z/n commuting with -1, which fixes 0 (and
        # n/2 for even n) and swaps the other points in pairs
        fixed = 2 - n % 2
        swapped = (n - fixed) // 2
        fix_1 = factorial(fixed) * factorial(swapped) * 2 ** swapped
        assert len(tau_phi_family(n, 1, n - 1)) == fix_1

    # at (8, 1, 2) no phi is homogeneous, and the backtracking search
    # returned [] without refusing t
    @pytest.mark.parametrize("mst", [(6, 2, 5), (6, 1, 3), (9, 3, 2), (8, 1, 2)])
    def test_family_refuses_non_units(self, mst):
        with pytest.raises(NonUnitError):
            tau_phi_family(*mst)

    def test_family_does_not_revalidate_phi(self, monkeypatch):
        monkeypatch.setattr(pairs_module, "make_tau_phi", None)
        assert len(tau_phi_family(7, 3, 5)) == 5

    def test_unit_orbits_group_by_stabilizer(self):
        # {2, 10} and {3, 9} have the same size but different stabilizers,
        # so they are not isomorphic <5, -1>-sets
        H, orbits = pairs_module._unit_orbits(12, (5, 11))
        assert H == [1, 5, 7, 11]
        assert {frozenset(points): stabilizer for points, stabilizer in orbits} == {
            frozenset({0}): frozenset(H), frozenset({6}): frozenset(H),
            frozenset({1, 5, 7, 11}): frozenset({1}),
            frozenset({2, 10}): frozenset({1, 7}), frozenset({3, 9}): frozenset({1, 5}),
            frozenset({4, 8}): frozenset({1, 7}),
        }
        for points, _ in orbits:
            least = min(points)
            assert next(iter(points)) == least
            assert all(h * least % 12 == x for x, h in points.items())

    @pytest.mark.parametrize("n,expected", [(3, 2), (4, 4), (5, 6), (6, 16),
                                            (7, 20), (8, 56), (9, 136)])
    def test_In_default(self, n, expected):
        assert tau_phi_iso_count(n) == expected

    # I_13 lies beyond the paper's table
    @pytest.mark.parametrize("n,expected", [(10, 416), (11, 776), (12, 3904),
                                            (13, 7772)])
    def test_In_slow(self, n, expected):
        assert tau_phi_iso_count(n) == expected

    @pytest.mark.parametrize("n", [
        *range(3, 10),
        *(pytest.param(n, marks=pytest.mark.slow) for n in (10, 11, 12))])
    def test_In_matches_table_level_oracle(self, n):
        # every tau_phi table, classified under Aut(D_n)
        aut = np.array(automorphism_group(dihedral_switch(n).table), dtype=np.int16)
        classes = {canonical_form(np.array([(t.t1, t.t2)], dtype=np.int16), aut)[0]
                   for t in tau_phi_family(n, 1, n - 1)}
        assert tau_phi_iso_count(n) == len(classes)

    @staticmethod
    def phi_orbit_count(n):
        """Orbits of the units a acting by phi -> a*phi(a^-1 .) on the
        permutations phi of Z/n that commute with -1, listed one by one."""
        reps = [x for x in range(n) if x <= -x % n]

        def phis(i, phi, used):
            if i == len(reps):
                yield tuple(phi)
                return
            x = reps[i]
            for v in range(n):
                if v in used or (v == -v % n) != (x == -x % n):
                    continue
                phi[x], phi[-x % n] = v, -v % n
                yield from phis(i + 1, phi, used | {v, -v % n})

        units = [a for a in range(n) if gcd(a, n) == 1]
        seen, orbits = set(), 0
        for phi in phis(0, [0] * n, frozenset()):
            if phi not in seen:
                orbits += 1
                seen.update(tuple(a * phi[pow(a, -1, n) * d % n] % n
                                  for d in range(n)) for a in units)
        return orbits

    @pytest.mark.parametrize("n", range(3, 14))
    def test_In_matches_phi_orbit_enumeration(self, n):
        assert tau_phi_iso_count(n) == self.phi_orbit_count(n)

    @pytest.mark.parametrize("n", range(3, 31))
    def test_dihedral_automorphisms_are_affine(self, n):
        affine = sorted(tuple((a * x + b) % n for x in range(n))
                        for a in range(n) if gcd(a, n) == 1 for b in range(n))
        assert sorted(automorphism_group(dihedral_switch(n).table)) == affine

    def test_count_refused_when_automorphisms_are_not_affine(self, monkeypatch):
        # Sym(Z/4) strictly contains Aff(Z/4)
        monkeypatch.setattr("singlink.pairs.automorphism_group",
                            lambda t: list(itertools.permutations(range(t.n))))
        with pytest.raises(RuntimeError, match="not Aff"):
            tau_phi_iso_count(4)


class TestTauA:
    def test_f3_family(self):
        d3 = dihedral_switch(3)
        tabs = [make_tau_a(3, 1, 2, a) for a in (1, 2)]
        assert None not in tabs
        assert sorted(t.key() for t in tabs) == sorted(
            [d3.table.key(), d3.table.inverse().key()])

    def test_degenerate_a(self):
        # (s t + 1) a = s: p=5, s=1, t=1 -> a = 3 is the degenerate value
        assert make_tau_a(5, 1, 1, 3) is None
        assert make_tau_a(5, 1, 1, 2) is not None

    def test_f5_pair(self):
        tab = make_tau_a(5, 2, 1, 1)
        assert tab is not None
        assert check_singular_pair(make_bialexander(5, 2, 1), tab).ok

    def test_non_prime_rejected(self):
        with pytest.raises(NonUnitError):
            make_tau_a(6, 1, 1, 1)

    def test_enumeration_equals_tau_a_family_f5(self):
        S = make_bialexander(5, 2, 1)
        taus = enumerate_taus(S)
        family = [make_tau_a(5, 2, 1, a) for a in range(1, 5)]
        family = [t for t in family if t is not None]
        assert sorted(t.key() for t in taus) == sorted(t.key() for t in family)


def table_witnesses(tau: PairTable) -> list:
    """The invertibility and bijectivity violations, found cell by cell:
    the first tau1 row and tau2 column that miss a value, and the first
    cell whose image an earlier cell had."""
    n = tau.n
    out = [("left_invertible", (x,)) for x in range(n)
           if sorted(tau.t1[x]) != list(range(n))][:1]
    out += [("right_invertible", (y,)) for y in range(n)
            if sorted(tau.t2[x][y] for x in range(n)) != list(range(n))][:1]
    cells = [(x, y) for x in range(n) for y in range(n)]
    images = [tau.apply(x, y) for x, y in cells]
    out += [("bijective", (cells[images.index(img)], cells[i]))
            for i, img in enumerate(images) if images.index(img) < i][:1]
    return out


def test_table_witnesses_match_the_cell_by_cell_scan():
    rng = random.Random(32)
    S = {n: flip_switch(n) for n in range(1, 5)}
    seen = Counter()
    for _ in range(400):
        n = rng.randint(1, 4)
        rows = [rng.sample(range(n), n) if rng.random() < 0.5 else
                [rng.randrange(n) for _ in range(n)] for _ in range(2 * n)]
        tau = PairTable(n, rows[:n], rows[n:])
        got = [(v.axiom, v.witness) for v in check_singular_pair(S[n], tau).violations
               if v.axiom in ("left_invertible", "right_invertible", "bijective")]
        assert got == table_witnesses(tau), tau
        seen.update(axiom for axiom, _ in got)
    assert min(seen[a] for a in ("left_invertible", "right_invertible",
                                  "bijective")) > 20


@pytest.mark.parametrize("call,message", [
    (lambda: make_bialexander(6, 1, 3), "t=3 is not a unit mod 6"),
    (lambda: make_tau_phi(6, 2, 1, range(6)), "s=2 is not a unit mod 6"),
    (lambda: tau_phi_family(8, 1, 2), "t=2 is not a unit mod 8"),
    (lambda: check_bialexander_characterization(5, 2, 3, flip_switch(5).table),
     "1-s\\*t=0 is not a unit mod 5"),
    (lambda: make_tau_a(5, 2, 3, 10), "a=0 is not a unit mod 5"),
], ids=["bialexander", "tau_phi", "tau_phi_family", "characterization", "tau_a"])
def test_non_units_are_named(call, message):
    with pytest.raises(NonUnitError, match=f"^{message}$"):
        call()


class TestCharacterization:
    def test_tau_S(self):
        assert check_bialexander_characterization(3, 1, 2, dihedral_switch(3).table)

    def test_tau_phi_members(self):
        for tab in tau_phi_family(5, 1, 4):
            assert check_bialexander_characterization(5, 1, 4, tab)

    def test_flip_on_d3(self):
        assert not check_bialexander_characterization(3, 1, 2, flip_switch(3).table)
        assert not check_singular_pair(dihedral_switch(3), flip_switch(3).table).ok

    def test_requires_unit(self):
        with pytest.raises(NonUnitError):
            check_bialexander_characterization(4, 1, 1, flip_switch(4).table)

    def test_sampled_agreement_m5(self):
        # random left/right-invertible candidates over F_5
        import random
        rng = random.Random(7)
        S = make_bialexander(5, 2, 1)
        perms = list(itertools.permutations(range(5)))
        for _ in range(200):
            rows = [rng.choice(perms) for _ in range(5)]
            cols = [rng.choice(perms) for _ in range(5)]
            t2 = tuple(tuple(cols[y][x] for y in range(5)) for x in range(5))
            tab = PairTable(5, tuple(rows), t2)
            assert check_bialexander_characterization(5, 2, 1, tab) == \
                check_singular_pair(S, tab).ok


class TestClassification:
    def test_singleton(self):
        p = builtin_pair("flip-i2")
        classes = classify_isomorphism([p])
        assert len(classes) == 1 and classes[0].size == 1

    def test_d8_tau_phi_classes(self):
        S = dihedral_switch(8)
        pairs = [SingularPair(S, t) for t in tau_phi_family(8, 1, 7)]
        assert len(classify_isomorphism(pairs)) == 56

    def test_canonical_is_idempotent(self):
        taus = enumerate_taus(flip_switch(3))
        for t in taus[:6]:
            p = SingularPair(flip_switch(3), t)
            classes = classify_isomorphism([p])
            rep = classes[0].canonical
            classes2 = classify_isomorphism([rep])
            assert classes2[0].canonical.key() == rep.key()

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(range(3)), st.integers(0, 23))
    def test_relabeling_preserves_class(self, g, idx):
        taus = enumerate_taus(flip_switch(3))
        p = SingularPair(flip_switch(3), taus[idx])
        q = p.relabel(list(g))
        assert check_singular_pair(q.biquandle, q.tau).ok
        assert canonical_key(p) == canonical_key(q)

    def test_aut_group_of_dihedral_is_affine(self):
        for n in (3, 4, 5, 6, 7):
            aut = automorphism_group(dihedral_switch(n).table)
            units = [a for a in range(1, n) if __import__("math").gcd(a, n) == 1]
            assert len(aut) == n * len(units)

    def test_same_switch_path_equals_full_minimum(self):
        # classification of many pairs for one switch agrees with the
        # all-relabelings canonical key partition
        S = dihedral_switch(4)
        pairs = [SingularPair(S, t) for t in enumerate_taus(S)]
        classes = classify_isomorphism(pairs)
        keys = {canonical_key(p) for p in pairs}
        assert len(classes) == len(keys)

    def test_mixed_switches_above_bound_refused(self):
        # same-switch inputs at n=9 use Aut(S); mixed switches cannot
        S = dihedral_switch(9)
        p1 = SingularPair(S, S.table)
        p2 = p1.relabel([1, 0] + list(range(2, 9)))
        assert p2.biquandle.table != S.table
        with pytest.raises(SearchBoundExceededError):
            classify_isomorphism([p1, p2])
        assert len(classify_isomorphism([p1, p1])) == 1


def _closure(t, start):
    """The elements T1 and T2 reach from the set `start`."""
    reached = set(start)
    while True:
        new = {v for x in reached for y in reached for v in t.apply(x, y)}
        if new <= reached:
            return reached
        reached |= new


def _aut_oracle_tables(rng, n, count):
    """Seeded tables on n elements, most of them not biquandles: random
    ones; ones that keep a random set holding 0 closed, so that 0 alone
    does not generate X; and translation-invariant ones, T(x, y) =
    (x + a(y - x), x + b(y - x)) on Z/n, whose automorphisms include
    every translation."""
    out = [PairTable.from_function(n, lambda x, y: (x, y)),
           PairTable.from_function(n, lambda x, y: (y, y))]
    for _ in range(count):
        kind = rng.randrange(3)
        t1 = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        t2 = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if kind == 1:
            closed = [0] + rng.sample(range(1, n), rng.randrange(n - 1)) \
                if n > 1 else [0]
            for x in closed:
                for y in closed:
                    t1[x][y], t2[x][y] = rng.choice(closed), rng.choice(closed)
        elif kind == 2:
            a = [rng.randrange(n) for _ in range(n)]
            b = [rng.randrange(n) for _ in range(n)]
            t1 = [[(x + a[(y - x) % n]) % n for y in range(n)] for x in range(n)]
            t2 = [[(x + b[(y - x) % n]) % n for y in range(n)] for x in range(n)]
        out.append(PairTable(n, t1, t2))
    return out


def _brute_force_automorphisms(t):
    return [g for g in itertools.permutations(range(t.n)) if t.relabel(g) == t]


AUT_SWITCHES = {
    **{f"flip{n}": flip_switch(n) for n in range(1, 6)},
    **{f"D{n}": dihedral_switch(n) for n in range(3, 8)},
    "i2": i2_switch(),
    "bialexander(4,1,3)": make_bialexander(4, 1, 3),
    "bialexander(5,2,3)": make_bialexander(5, 2, 3),
    **{f"trivial quandle {n}": make_quandle_switch(trivial_quandle(n))
       for n in (2, 3, 4)},
    **{f"dihedral quandle {n}": make_quandle_switch(dihedral_quandle(n))
       for n in (3, 4, 5)},
}


@pytest.mark.parametrize("name", list(AUT_SWITCHES))
def test_automorphism_group_matches_brute_force(name):
    # the same list as a scan of all n! relabelings, in the same order
    t = AUT_SWITCHES[name].table
    assert automorphism_group(t) == _brute_force_automorphisms(t)


@pytest.mark.parametrize("name", list(AUT_SWITCHES))
def test_generators_reach_every_element_by_derivation(name):
    t = AUT_SWITCHES[name].table
    gens, derivations = pairs_module._generators(t)
    known = list(gens)
    for z, i, x, y in derivations:
        assert x in known and y in known and (t.t1, t.t2)[i][x][y] == z
        known.append(z)
    assert sorted(known) == list(range(t.n))
    # the candidate counts the docstring states: n(n-1) for D_n, n! for
    # the flip
    if name.startswith("D"):
        assert gens == [0, 1]
    if name.startswith(("flip", "trivial quandle")):
        assert gens == list(range(t.n))


@pytest.mark.parametrize("n", range(1, 6))
def test_automorphism_group_of_random_tables_matches_brute_force(monkeypatch, n):
    tables = _aut_oracle_tables(random.Random(f"automorphisms {n}"), n, 24)
    for t in tables:
        assert automorphism_group(t) == _brute_force_automorphisms(t)
    # one candidate per batch keeps the list and its order
    monkeypatch.setattr(pairs_module, "AUT_BATCH", 1)
    for t in tables:
        assert automorphism_group(t) == _brute_force_automorphisms(t)
    if n >= 3:
        # some tables need more than one generator, and some have more
        # automorphisms than the identity
        assert any(len(_closure(t, {0})) < n for t in tables[2:])
        assert any(len(automorphism_group(t)) > 1 for t in tables[2:])


@pytest.mark.parametrize("name,bijective", [
    ("flip3", True), ("flip3", False), ("flip4", True), ("D4", True),
    ("D4", False), ("bialexander(5,2,3)", True), ("bialexander(5,2,3)", False)])
def test_search_tables_equal_validated_tables(name, bijective):
    # enumerate_taus builds its tables without PairTable's per-table checks
    S = DIGEST_SWITCHES[name]
    found = enumerate_taus(S, require_bijective=bijective)
    built = [PairTable(S.n, [list(r) for r in t.t1], [list(r) for r in t.t2])
             for t in found]
    assert found == built
    assert [hash(t) for t in found] == [hash(t) for t in built]
    assert all(type(rows) is tuple and type(r) is tuple and type(v) is int
               for t in found for rows in (t.t1, t.t2) for r in rows for v in r)


# ---------------------------------------------------------------------------
# pins: the axiom table, the search derived from it and the canonical form
# give exactly the results the hand-written versions they replaced gave
# ---------------------------------------------------------------------------

PIN_SWITCHES = {"flip3": flip_switch(3), "D3": dihedral_switch(3),
                "D4": dihedral_switch(4), "i2": i2_switch(),
                "D5": dihedral_switch(5),
                "bialexander(5,2,3)": make_bialexander(5, 2, 3)}


def _pin_candidates(S, rng, count):
    """S, S^-1 and seeded candidates: random left/right-invertible maps,
    and S or S^-1 with two entries of a tau1 row swapped or one entry
    of a table changed (these fail late or not at all)."""
    n = S.n
    base = [S.table, S.table.inverse()]
    out = list(base)
    perms = list(itertools.permutations(range(n)))
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            rows = [rng.choice(perms) for _ in range(n)]
            cols = [rng.choice(perms) for _ in range(n)]
            t1, t2 = rows, [[cols[y][x] for y in range(n)] for x in range(n)]
        else:
            b = rng.choice(base)
            t1 = [list(r) for r in b.t1]
            t2 = [list(r) for r in b.t2]
            x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if kind == 1:
                t1[x][y], t1[x][z] = t1[x][z], t1[x][y]
            else:
                rng.choice((t1, t2))[x][y] = rng.randrange(n)
        out.append(PairTable(n, t1, t2))
    return out


def test_check_singular_pair_matches_recorded_digest():
    h = hashlib.sha256()
    for name, S in PIN_SWITCHES.items():
        for tab in _pin_candidates(S, random.Random(f"check {name}"), 80):
            h.update(repr(check_singular_pair(S, tab)).encode())
    assert h.hexdigest() == \
        "09125f59a43e759e30a4e820917259c178917c92857ab22f06da0b36b11bf189"


@pytest.mark.parametrize("name,sizes", [
    # per tau1 row: the component equations due there (the first output of
    # rv, which the derivation solves, aside), and those the plan keeps
    ("D4", ([33, 61, 125, 181], [9, 21, 69, 109])),
    ("D5", ([43, 83, 135, 207, 307], [8, 28, 60, 112, 192])),
    ("bialexander(5,2,3)", ([51, 38, 130, 182, 374], [41, 8, 80, 112, 284])),
    ("flip4", ([37, 79, 121, 163], [1, 3, 5, 7])),
])
def test_search_checks_run_at_the_earliest_row(name, sizes):
    # a looser derivation would stay correct but check later and prune
    # less; the plan drops exactly the equations `_axiom_reads` marks as
    # holding for every tau, and checks each other one at the level whose
    # run holds the last cell it reads; the counts per row sum over the
    # row's levels
    due_sizes, kept_sizes = sizes
    S = {**PIN_SWITCHES, "flip4": flip_switch(4)}[name]
    n = S.n
    images, plan = pairs_module._tau_plan(S.table)
    source = (np.array(S.table.t1) * n + np.array(S.table.t2)).reshape(-1)
    planned = []
    for _, start, stop, *_, checks in plan:
        for due, reads, rows in checks:
            assert ((start <= due) & (due < stop)).all()
            # each side's values over (tau1, tau2) at the cell it reads: the
            # equation reads that cell, and S of it too where tau2 matters
            values = images[rows[..., None] + np.arange(n * n)].reshape(*rows.shape, n, n)
            on_tau = (values != values[..., :1, :1]).any(axis=(-2, -1))
            on_tau2 = (values != values[..., :1]).any(axis=(-2, -1))
            last = np.where(on_tau2, np.maximum(reads, source[reads]),
                            np.where(on_tau, reads, -1))
            assert (last.max(axis=1) <= due).all()
            planned += due.tolist()
    due_at, dropped, kept_due = [0] * n, [0] * n, []
    for (axiom, _, _, _, due, holds), _ in pairs_module._axiom_reads(S.table):
        if axiom == "rv":
            due, holds = due[1:], holds[1:]
        for row in range(n):
            due_at[row] += int((due // n == row).sum())
            dropped[row] += int((holds & (due // n == row)).sum())
        kept_due += due[~holds].tolist()
    assert Counter(planned) == Counter(kept_due)
    kept = [sum(d // n == row for d in planned) for row in range(n)]
    assert due_at == due_sizes
    assert [k + d for k, d in zip(kept, dropped)] == due_sizes
    assert kept == kept_sizes


def _random_table(rng, n):
    return PairTable(n, *[[[rng.randrange(n) for _ in range(n)]
                           for _ in range(n)] for _ in range(2)])


# switch tables, and seeded tables with arbitrary values in S's place: on
# those, an equation whose two words read tau at different cells can
# agree at the n^2 constant taus and still fail
TAUTOLOGY_TABLES = {
    **{name: S.table for name, S in PIN_SWITCHES.items()},
    **{f"flip{n}": flip_switch(n).table for n in (2, 3, 4)},
    **{f"trivial quandle {n}": make_quandle_switch(trivial_quandle(n)).table
       for n in (2, 3, 4)},
    **{f"dihedral quandle {n}": make_quandle_switch(dihedral_quandle(n)).table
       for n in (3, 4, 5)},
    **{f"random table {n}-{k}": _random_table(random.Random(f"S {n} {k}"), n)
       for n in (2, 3) for k in range(4)}}


@pytest.mark.parametrize("name", TAUTOLOGY_TABLES)
def test_dropped_equations_are_tautologies(name):
    # every (axiom, output, point) the plan drops as holding for all taus
    # holds for seeded taus with arbitrary values, not only companions
    st = TAUTOLOGY_TABLES[name]
    rng = random.Random(f"tautologies {name}")
    taus = [_random_table(rng, st.n) for _ in range(12)] + [st]
    for (axiom, lhs, rhs, points, _, holds), _ in pairs_module._axiom_reads(st):
        runs = [(word_map(lhs, maps), word_map(rhs, maps))
                for maps in ({"S": st, "T": tau} for tau in taus)]
        for j, i in zip(*np.nonzero(holds)):
            point = points[:, i].tolist()
            for left, right in runs:
                assert left(point)[j] == right(point)[j], (axiom, j, point)


@pytest.mark.parametrize("S", [flip_switch(3), dihedral_switch(4),
                               make_bialexander(4, 1, 3)],
                         ids=["flip3", "D4", "bialexander(4,1,3)"])
@pytest.mark.parametrize("bijective", [True, False])
def test_batch_sizes_do_not_change_the_output(monkeypatch, S, bijective):
    whole = enumerate_taus(S, require_bijective=bijective)
    monkeypatch.setattr(pairs_module, "SEARCH_CHUNK", 1)
    for rows in (1, 2, 3):
        monkeypatch.setattr(pairs_module, "SEARCH_ROWS", rows)
        assert enumerate_taus(S, require_bijective=bijective) == whole


@pytest.mark.parametrize("S", [flip_switch(3), dihedral_switch(4),
                               make_bialexander(4, 1, 3)],
                         ids=["flip3", "D4", "bialexander(4,1,3)"])
@pytest.mark.parametrize("bijective", [True, False])
def test_leading_level_size_does_not_change_the_output(monkeypatch, S, bijective):
    whole = pairs_module._tau_array(S.table, bijective)
    for lead in (0, 1 << 12):   # a level per cut, and a first level of 12,288 rows at D4
        monkeypatch.setattr(pairs_module, "SEARCH_LEAD", lead)
        assert np.array_equal(pairs_module._tau_array(S.table, bijective), whole)


def _lr_candidates(n):
    """Every left/right-invertible (tau1, tau2) pair of tables on n
    elements, (n!)^2n of them, as an int8 (P, 2, n, n) array."""
    perms = np.array(list(itertools.permutations(range(n))), np.int8)
    rows = perms[np.indices((len(perms),) * n).reshape(n, -1).T]
    out = np.empty((len(rows) ** 2, 2, n, n), np.int8)
    out[:, 0] = np.repeat(rows, len(rows), axis=0)
    out[:, 1] = np.tile(rows.transpose(0, 2, 1), (len(rows), 1, 1))
    return out


def _biquandles(n):
    """The biquandles of order n that `check_biquandle` finds among the
    bijective left/right-invertible tables, and one per isomorphism class."""
    tables = _lr_candidates(n)
    cells = tables[:, 0].astype(np.intp) * n + tables[:, 1]
    tables = tables[(np.sort(cells.reshape(len(tables), -1), axis=1)
                     == np.arange(n * n)).all(axis=1)]
    points = np.indices((n,) * 3).reshape(3, -1)
    maps = {"S": flat_map(tables)}
    ok = np.ones(len(tables), bool)
    for u, v in zip(*(word_images(w, maps, points, n) for w in YANG_BAXTER)):
        ok &= (u == v).all(axis=-1)
    found = [PairTable(n, *t.tolist()) for t in tables[ok]]
    found = [t for t in found if check_biquandle(t) is not None]
    keys = canonical_form(_tau_stack(found), list(itertools.permutations(range(n))))
    classes = {}
    for key, t in zip(keys, found):
        classes.setdefault(key, Biquandle.from_table(t))
    return found, list(classes.values())


@pytest.mark.parametrize("bijective", [True, pytest.param(False, marks=pytest.mark.slow)])
def test_search_misses_no_tau_on_small_biquandles(bijective):
    # the guard shows that what the search returns is a pair; this shows
    # that it returns every pair, on one biquandle of each class of order 2
    # and 3, against the filter of all 46,656 candidates at n = 3
    for n, count, classes in ((2, 2, 2), (3, 36, 15)):
        found, reps = _biquandles(n)
        assert (len(found), len(reps)) == (count, classes)
        candidates = _lr_candidates(n)
        for S in reps:
            want = candidates[pair_verdicts(S, candidates, bijective)]
            want = want[np.lexsort(want.reshape(len(want), -1).T[::-1])]
            assert np.array_equal(pairs_module._tau_array(S.table, bijective), want)


def _counting_run(monkeypatch, inspect):
    """Route `batch.run` through inspect(level, rows, chosen, step) before
    each call of the search's level step."""
    run = pairs_module.batch.run

    def counting(start, levels, values, cap, step):
        def counted(level, rows, chosen):
            inspect(level, rows, chosen, step)
            return step(level, rows, chosen)
        return run(start, levels, values, cap, counted)

    monkeypatch.setattr(pairs_module.batch, "run", counting)


@pytest.mark.parametrize("name,rows", [
    # the row search examined 82,200, 6,840 and 54,744 rows
    ("bialexander(5,2,3)", 13_440), ("D5", 1_320), ("flip4", 54_624)])
def test_search_examines_the_recorded_number_of_rows(monkeypatch, name, rows):
    # the candidate rows the level step gets: a plan that drops a tau
    # later shows up here as more rows, not only as a slower search
    seen = []
    _counting_run(monkeypatch, lambda level, rows, chosen, step: seen.append(len(rows)))
    pairs_module._tau_array(DIGEST_SWITCHES[name].table, True)
    assert sum(seen) == rows


FAMILIES = ("right_invertible", "bijective",
            *(name for name, *_ in pairs_module.SINGULAR_PAIR_AXIOMS))


def _steps_without_each_family(monkeypatch, S):
    """The search's level step for S, bijective, and per check family
    the step of a search with that family's checks left out: right
    invertibility through columns that never repeat, bijectivity through
    require_bijective=False, an identity through its equations."""
    images, plan = pairs_module._tau_plan(S.table)
    # each identity's rows of `images`, in SINGULAR_PAIR_AXIOMS order
    ends = np.cumsum([2 * due.size * S.n ** 2
                      for (_, _, _, _, due, _), _ in pairs_module._axiom_reads(S.table)])

    def without(family):
        levels = []
        for *level, known, columns, checks in plan:
            if family == "right_invertible":
                columns = (np.arange(len(known)) * S.n).astype(np.int16)
            if family in FAMILIES[2:]:
                identity = FAMILIES.index(family) - 2
                checks = [tuple(a[keep] for a in chunk) for chunk in checks
                          for keep in [np.searchsorted(ends, chunk[2][:, 0],
                                                       side="right") != identity]]
            levels.append((*level, known, columns, checks))
        return images, levels

    steps = {}
    with monkeypatch.context() as m:
        for family in (None, *FAMILIES):
            m.setattr(pairs_module, "_tau_plan", lambda st, f=family:
                      without(f) if f else (images, plan))
            m.setattr(pairs_module.batch, "run",
                      lambda start, levels, values, cap, step, f=family:
                      iter(steps.setdefault(f, step) and ()))
            pairs_module._tau_array(S.table, family != "bijective")
    return steps.pop(None), steps


def test_rows_each_check_family_alone_drops(monkeypatch):
    # summed over the steps of the searches on the 15 classes of order 3:
    # the candidate rows that a family drops and every other check keeps.
    # Right invertibility never drops one alone
    drops = dict.fromkeys(FAMILIES, 0)
    for S in _biquandles(3)[1]:
        step, others = _steps_without_each_family(monkeypatch, S)

        def inspect(level, rows, chosen, _):
            kept = len(step(level, rows.copy(), chosen))
            for family, other in others.items():
                drops[family] += len(other(level, rows.copy(), chosen)) - kept

        with monkeypatch.context() as m:
            _counting_run(m, inspect)
            pairs_module._tau_array(S.table, True)
    assert drops == {"right_invertible": 0, "bijective": 203, "rv": 0,
                     "rivb": 12, "riva": 12}


def test_canonical_keys_match_recorded_digest():
    h = hashlib.sha256()
    for S in (flip_switch(3), dihedral_switch(4)):
        for t in enumerate_taus(S):
            h.update(canonical_key(SingularPair(S, t)))
    assert h.hexdigest() == \
        "3ab8c1cc6b8146c4c914b280477673b26c7335b96e17539d8ba8da2f275f57ea"


# sha256 over repr(tau.key()) of each tau enumerate_taus returns, in order,
# recorded with the backtracking search and the flip-only search that the
# batched search replaced
TAU_DIGESTS = [
    ("flip1", True, 1, "21787fdc0781d7fbfa4016cc357beaa12198d48d5c834c7c430a306ed5a48249"),
    ("flip1", False, 1, "21787fdc0781d7fbfa4016cc357beaa12198d48d5c834c7c430a306ed5a48249"),
    ("flip2", True, 2, "19e80b904e3c802048ee26736f1b19e5126c8e376aa2d012b93bd85a4a805322"),
    ("flip2", False, 4, "c9fb5c6f42098a3bc7dfa3439b793a84bc60f95e98fa3088ded6cbc7f6ad6cb5"),
    ("flip3", True, 24, "a71cafe067c4324456aadb6ac3ecf2edabb60fb06e38f1f28360ae792e898ed1"),
    ("flip3", False, 216, "8c30b8f055fca2a312db8f5db1a8d75bfeef5fd98a021b76d97d90fc527de3bf"),
    ("flip4", True, 3360, "b9453faed07f9ab87644122d83e56079ee0b682eda5f5270d18258fea2ca6100"),
    ("i2", True, 2, "19e80b904e3c802048ee26736f1b19e5126c8e376aa2d012b93bd85a4a805322"),
    ("i2", False, 2, "19e80b904e3c802048ee26736f1b19e5126c8e376aa2d012b93bd85a4a805322"),
    ("D3", True, 2, "458e016bb97171c16f24e843d5968dac87b23e58a190a2b254c13018aaa79857"),
    ("D3", False, 2, "458e016bb97171c16f24e843d5968dac87b23e58a190a2b254c13018aaa79857"),
    ("D4", True, 16, "bd6ec99c6dd1a8ad9eab876beda10ec92d0f67558d94262bfbb0b386d68c7cff"),
    ("D4", False, 16, "bd6ec99c6dd1a8ad9eab876beda10ec92d0f67558d94262bfbb0b386d68c7cff"),
    ("D5", True, 8, "8be11dff6f4ac98d3a2f6880e462231872411b5fba418b13dd3851e9acead07d"),
    ("D5", False, 8, "8be11dff6f4ac98d3a2f6880e462231872411b5fba418b13dd3851e9acead07d"),
    ("bialexander(5,2,3)", True, 128, "04f7071e8596383d6fbf32f4db114ec9c5374373ae5d64f42bb6587adb71619c"),
    ("bialexander(5,2,3)", False, 480, "3504a193d25f8296de4466342b7a0a18ec0558f97fc6f39b4fa792a47e080040"),
    ("bialexander(4,1,3)", True, 16, "bd6ec99c6dd1a8ad9eab876beda10ec92d0f67558d94262bfbb0b386d68c7cff"),
    ("bialexander(4,1,3)", False, 16, "bd6ec99c6dd1a8ad9eab876beda10ec92d0f67558d94262bfbb0b386d68c7cff"),
    ("D4 quandle", True, 16, "bd6ec99c6dd1a8ad9eab876beda10ec92d0f67558d94262bfbb0b386d68c7cff"),
    ("D4 quandle", False, 16, "bd6ec99c6dd1a8ad9eab876beda10ec92d0f67558d94262bfbb0b386d68c7cff"),
]
DIGEST_SWITCHES = {**{f"flip{n}": flip_switch(n) for n in range(1, 5)},
                   "i2": i2_switch(), "D3": dihedral_switch(3),
                   "D4": dihedral_switch(4), "D5": dihedral_switch(5),
                   "bialexander(5,2,3)": make_bialexander(5, 2, 3),
                   "bialexander(4,1,3)": make_bialexander(4, 1, 3),
                   "D4 quandle": make_quandle_switch(dihedral_quandle(4))}


@pytest.mark.parametrize("name,bijective,count,digest", TAU_DIGESTS)
def test_enumerate_taus_matches_recorded_digest(name, bijective, count, digest):
    # the oracle where brute_force_taus cannot reach (n >= 4)
    taus = enumerate_taus(DIGEST_SWITCHES[name], require_bijective=bijective)
    h = hashlib.sha256()
    for tau in taus:
        h.update(repr(tau.key()).encode())
    assert (len(taus), h.hexdigest()) == (count, digest)


# sha256 over every array of `_tau_plan` (dtype, shape and bytes): the
# image table, then level by level its values, its run of cells, its
# derivations and known cells, and its checks, chunk by chunk
PLAN_DIGESTS = {
    "flip1": "cc028e16d72987050986634dc589f55f75ff7978bc550fab99a67d405326625c",
    "flip2": "04939d00a96747f65c2d02bc8ebac6e1fa97257404d5117a54b16e8166c4abac",
    "flip3": "6ce780cd3dc952eb42a2254f4da48e39e6df93bf9ae7c6abb07f3b08f91f2d9d",
    "flip4": "4d747a7f96e87e295472605b635dcbb1a70c8b9aae4024d6852a267b251aedf1",
    "i2": "9b2d8b50b4d418d1f8691afd988c3edb81b4e16632381b7b58acc18558bb77c4",
    "D3": "e2d6f5506c6d2de11aec59e1cea67a1ed686ac5ec985bd61242eeac3dd23029c",
    "D4": "7b726fd6d2c5e4a3204865f5d62b5f1991cdf1040335edd2bf17b491e8c69972",
    "D5": "0b1591066b75cfee030fd53e47ed7403775a04aa751609a732026581bfed87ab",
    "bialexander(5,2,3)": "b58308380f388db36a7379512ddda4dfc96c68df23df3b7d8b1fb5563bae78cb",
    "bialexander(4,1,3)": "7b726fd6d2c5e4a3204865f5d62b5f1991cdf1040335edd2bf17b491e8c69972",
    "D4 quandle": "7b726fd6d2c5e4a3204865f5d62b5f1991cdf1040335edd2bf17b491e8c69972",
}


@pytest.mark.parametrize("name", DIGEST_SWITCHES)
def test_tau_plan_matches_recorded_digest(name):
    images, plan = pairs_module._tau_plan(DIGEST_SWITCHES[name].table)
    arrays = [images]
    for values, start, stop, *derived, checks in plan:
        arrays += [values, np.array([start, stop]), *derived,
                   *itertools.chain.from_iterable(checks)]
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    assert h.hexdigest() == PLAN_DIGESTS[name]


def _canonical_form_one(tables, relabelings):
    """canonical_form of a single (k, n, n) stack."""
    return canonical_form(tables[None], relabelings)[0]


def _canonical_form_loop(tables, relabelings):
    """Reference: relabel one g at a time, keep the first least key."""
    best = None
    for idx, g in enumerate(relabelings):
        ginv = np.argsort(g)
        key = np.asarray(g, dtype=np.int16)[tables[:, ginv][:, :, ginv]].tobytes()
        if best is None or key < best[0]:
            best = key, idx
    return best


def test_canonical_form_matches_the_loop():
    rng = random.Random(5)
    S = dihedral_switch(4)
    for tau in enumerate_taus(S):
        tables = np.array([S.table.t1, S.table.t2, tau.t1, tau.t2],
                          dtype=np.int16)
        # a shuffled set with repeats
        rel = [tuple(rng.sample(range(4), 4)) for _ in range(30)]
        rel += automorphism_group(S.table)
        assert _canonical_form_one(tables, rel) == _canonical_form_loop(tables, rel)[0]


def test_canonical_form_batch_matches_one_at_a_time():
    rng = random.Random(6)
    S = dihedral_switch(4)
    taus = enumerate_taus(S)
    # repeated stacks, and relabelings with repeats and ties
    stacks = [(S.table.t1, S.table.t2, t.t1, t.t2) for t in taus + taus[:3]]
    tables = np.array(stacks, dtype=np.int16)
    rel = [tuple(rng.sample(range(4), 4)) for _ in range(30)]
    rel += automorphism_group(S.table) + rel[:5]
    keys = canonical_form(tables, rel)
    assert len(keys) == len(stacks)
    for t, key in zip(tables, keys):
        assert key == _canonical_form_one(t, rel) == _canonical_form_loop(t, rel)[0]


def test_classification_does_not_depend_on_the_batch_size(monkeypatch):
    S = flip_switch(3)
    pairs = [SingularPair(S, t)
             for t in enumerate_taus(S, require_bijective=False)]
    whole = classify_isomorphism(pairs)
    monkeypatch.setattr(pairs_module, "CANONICAL_BATCH", 1)   # one pair each
    assert classify_isomorphism(pairs) == whole
    assert (len(whole), sum(c.size for c in whole)) == (44, 216)


# ---------------------------------------------------------------------------
# the enumerate_taus guard: one batched check over the search's output
# ---------------------------------------------------------------------------

def _verdict_candidates(S, rng, count):
    """Pairs, non-bijective solutions, and seeded candidates that break
    each category: any tables, left/right-invertible maps, and pairs with
    two tau1 entries swapped or one entry changed."""
    n = S.n
    loose = enumerate_taus(S, require_bijective=n > 3)    # 331,776 at flip4
    out = rng.sample(loose, min(len(loose), 40)) + [S.table.inverse()]
    perms = list(itertools.permutations(range(n)))
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            t1 = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            t2 = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        elif kind == 1:
            rows = [rng.choice(perms) for _ in range(n)]
            cols = [rng.choice(perms) for _ in range(n)]
            t1, t2 = rows, [[cols[y][x] for y in range(n)] for x in range(n)]
        else:
            b = rng.choice(out)
            t1 = [list(r) for r in b.t1]
            t2 = [list(r) for r in b.t2]
            x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if kind == 2:
                t1[x][y], t1[x][z] = t1[x][z], t1[x][y]
            else:
                rng.choice((t1, t2))[x][y] = rng.randrange(n)
        out.append(PairTable(n, t1, t2))
    return out


@pytest.mark.parametrize("S", [flip_switch(1), flip_switch(2), i2_switch(),
                               flip_switch(3), dihedral_switch(3),
                               flip_switch(4), dihedral_switch(4),
                               make_bialexander(4, 1, 3)],
                         ids=["flip1", "flip2", "i2", "flip3", "D3", "flip4",
                              "D4", "bialexander(4,1,3)"])
def test_batched_verdicts_match_check_singular_pair(S):
    cands = _verdict_candidates(S, random.Random(f"verdicts {S.n}"), 150)
    checks = [check_singular_pair(S, t) for t in cands]
    stack = _tau_stack(cands)
    assert pair_verdicts(S, stack).tolist() == [c.ok for c in checks]
    assert pair_verdicts(S, stack, require_bijective=False).tolist() == \
        [all(v.axiom == "bijective" for v in c.violations) for c in checks]
    with pytest.raises(DimensionMismatchError):
        pair_verdicts(S, stack[:, :1])
    if S.n >= 3:
        expected = {"left_invertible", "right_invertible", "bijective", "rv"}
        # for the flip, (2) and (3) always hold
        if S.table != flip_switch(S.n).table:
            expected |= {"rivb", "riva"}
        assert {v.axiom for c in checks for v in c.violations} == expected


def _tau_stack(taus, dtype=np.int16):
    return np.array([(t.t1, t.t2) for t in taus], dtype).reshape(
        len(taus), 2, taus[0].n, taus[0].n)


def _corrupt(monkeypatch, change):
    """Run enumerate_taus's guard on change(the search's array)."""
    search = pairs_module._tau_array
    monkeypatch.setattr(pairs_module, "_tau_array",
                        lambda st, require_bijective:
                        change(search(st, require_bijective)))


def _inject(monkeypatch, bad):
    """Append the table bad to the search's array, as an int8 row."""
    _corrupt(monkeypatch, lambda taus: np.concatenate(
        [taus, _tau_stack([bad], np.int8)]))


def test_guard_names_the_violated_axiom(monkeypatch):
    monkeypatch.setattr(pairs_module, "CHECK_BATCH", 5)   # several batches
    # D3's switch table is bijective and invertible but breaks rv for flip
    _inject(monkeypatch, dihedral_switch(3).table)
    with pytest.raises(AssertionError, match=r"violated rv at \(0, 1\)$"):
        enumerate_taus(flip_switch(3))


def test_guard_asks_for_bijectivity_only_when_required(monkeypatch):
    S = flip_switch(3)
    loose = enumerate_taus(S, require_bijective=False)
    bad = next(t for t in loose if not t.is_bijective())
    _inject(monkeypatch, bad)
    with pytest.raises(AssertionError, match="violated bijective at"):
        enumerate_taus(S)
    # the loose guard passes the tau itself and rejects it only as a repeat
    with pytest.raises(AssertionError, match="not strictly in table order"):
        enumerate_taus(S, require_bijective=False)
    assert pair_verdicts(S, _tau_stack([bad]), require_bijective=False).all()


def _out_of_range(taus):
    row = np.zeros((1, 2, 3, 3), np.int8)
    row[0, 1, 2, 0] = 3
    return np.concatenate([taus, row])


@pytest.mark.parametrize("change", [
    _out_of_range, lambda taus: taus[:, :, :2, :2],
    lambda taus: taus.astype(np.int16)],
    ids=["out of range", "wrong set", "wide dtype"])
def test_guard_rejects_a_malformed_array(monkeypatch, change):
    _corrupt(monkeypatch, change)
    with pytest.raises(AssertionError, match="malformed table"):
        enumerate_taus(flip_switch(3))


@pytest.mark.parametrize("rows", [[0, 1, 2, 9, 4, 5, 6, 7, 8, 3],
                                  [0, 1, 2, 3, 3, 4]],
                         ids=["swapped", "repeated"])
@pytest.mark.parametrize("bijective", [True, False])
def test_guard_rejects_rows_out_of_order(monkeypatch, rows, bijective):
    S = dihedral_switch(4)                  # 16 taus
    _corrupt(monkeypatch, lambda taus: taus[rows + list(range(10, 16))])
    with pytest.raises(AssertionError, match="not strictly in table order"):
        enumerate_taus(S, require_bijective=bijective)
    with pytest.raises(AssertionError, match="not strictly in table order"):
        enumerate_taus(S, require_bijective=bijective, up_to_iso=True)


def test_guard_makes_no_per_tau_check_on_valid_output(monkeypatch):
    calls = []
    check = pairs_module.check_singular_pair
    monkeypatch.setattr(pairs_module, "check_singular_pair",
                        lambda *a: calls.append(a) or check(*a))
    assert len(enumerate_taus(flip_switch(4))) == 3360
    assert calls == []


# ---------------------------------------------------------------------------
# classes from keys: representatives read off the keys, and the lr count
# from the search's array
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["flip3", "flip4", "D4", "D5",
                                  "bialexander(5,2,3)"])
def test_key_representatives_equal_relabeled_pairs(name):
    S = DIGEST_SWITCHES[name]
    pairs = [SingularPair(S, t) for t in enumerate_taus(S)]
    aut = automorphism_group(S.table)
    stacks = pairs_module._pair_tables(pairs, True)
    keys = canonical_form(stacks, aut)
    # each pair relabeled by its first least relabeling, found one by one
    least = [p.relabel(list(aut[_canonical_form_loop(t, aut)[1]]))
             for p, t in zip(pairs, stacks)]
    for q, key in zip(least, keys):
        assert pairs_module._pair_from_key(S, key) == q
    # the classes themselves, represented as before by relabeled pairs
    first, sizes = {}, Counter(keys)
    for q, key in zip(least, keys):
        first.setdefault(key, q)
    if len(pairs) > 64:     # classify_isomorphism keys these under Aut(S)
        assert classify_isomorphism(pairs) == \
            [pairs_module.IsoClass(first[k], sizes[k]) for k in sorted(first)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lr_class_count_matches_classification(n):
    S = flip_switch(n)
    taus = enumerate_taus(S)
    counts = enumerate_left_right_invertible(n)
    assert counts.bijective == len(taus)
    assert counts.bijective_iso == len(
        classify_isomorphism([SingularPair(S, t) for t in taus]))


def test_partition_is_the_same_on_both_sides_of_the_64_pair_rule():
    # D4's 16 pairs are keyed under all 4! relabelings, the same pairs five
    # times over (80 > 64) under Aut(D4): the classes and their members
    # agree, only the representatives differ
    S = dihedral_switch(4)
    pairs = [SingularPair(S, t) for t in enumerate_taus(S)]
    members = Counter(canonical_key(p) for p in pairs)
    small, large = classify_isomorphism(pairs), classify_isomorphism(pairs * 5)
    assert {canonical_key(c.canonical): c.size for c in small} == members
    assert {canonical_key(c.canonical): c.size for c in large} == \
        {key: 5 * size for key, size in members.items()}
    assert len(small) == len(large) == 10
    # under all relabelings each representative is a relabeled pair, whose
    # switch table here is never D4's own; under Aut(D4) it always is
    assert all(c.canonical.biquandle.table != S.table for c in small)
    assert all(c.canonical.biquandle == S for c in large)


@pytest.mark.parametrize("copies", [1, 5])
def test_equal_switch_objects_classify_as_one_shared_switch(copies):
    # D4's 16 pairs below and above the 64-pair rule: pairs holding equal
    # but distinct switches take the same-switch path, as one shared
    # switch does
    S = dihedral_switch(4)
    taus = enumerate_taus(S) * copies
    shared = [SingularPair(S, t) for t in taus]
    distinct = [SingularPair(dihedral_switch(4), t) for t in taus]
    assert distinct[0].biquandle.table is not distinct[1].biquandle.table
    assert classify_isomorphism(distinct) == classify_isomorphism(shared)


def test_representatives_carry_the_s_of_their_switch():
    # s is x -> 3x for bialexander(5,2,3): a relabeled representative must
    # carry the s of its relabeled table, with one switch or several
    S = make_bialexander(5, 2, 3)
    pairs = [SingularPair(S, t) for t in enumerate_taus(S)[:40]]
    mixed = pairs[:20] + [SingularPair(dihedral_switch(5), t)
                          for t in enumerate_taus(dihedral_switch(5))]
    reps = [c.canonical.biquandle for c in classify_isomorphism(pairs)
            + classify_isomorphism(mixed)]
    assert all(Biquandle.from_table(b.table) == b for b in reps)
    assert any(b.s_map != S.s_map for b in reps)


# sha256 over repr((size, canonical.key(), canonical.biquandle.s_map)) of
# each class, in order: `classify_isomorphism` of the pairs of every tau
# `enumerate_taus` returns and `enumerate_taus(up_to_iso=True)`, which
# must agree, then the mixed-switch input above.  Both sides of the
# 64-pair rule: D4 has 16 pairs, bialexander(5,2,3) 128, flip4 3,360
CLASS_DIGESTS = {
    "flip1": "bf3af413b010ccacaf6738f2575a943feb477ce7a96f67ce928a5a5c6a9e86a9",
    "flip2": "c1b75ecd4f3f7dcb76aeb93904ff3a1a4ee60c71dfb02740cc39688988b918a4",
    "flip3": "78b56a443971c34472592d331d23958600c0516165b804ba39da3bc8152d4118",
    "flip4": "787203f45a635fc0184c7363df6aca0c908c38e0c5e7365f0c8c3f7a10dba3ee",
    "i2": "0627de51bf71b0e9b7abb49b9ef354af8208a763cf32eb3cfa83c29d0b1c00a4",
    "D3": "774cc4a5d30c5436df02accd2dd3799b4d62bb7763da2523ba66e5124f350299",
    "D4": "840b9aa3e4e736554d97503532e97bea29c5c993c96f7344a129d275df6ea054",
    "D5": "b0c9bff1697bcc82f21cdf2bee3467ef7e31c5cfc9b779bd3ad5e4029901f1e2",
    "bialexander(5,2,3)": "94efba9ceec91b88277a7363613f8b0483dc15c0ed4fc6ad2744a16b3f135df6",
    "bialexander(4,1,3)": "840b9aa3e4e736554d97503532e97bea29c5c993c96f7344a129d275df6ea054",
    "D4 quandle": "840b9aa3e4e736554d97503532e97bea29c5c993c96f7344a129d275df6ea054",
    "mixed": "40ba0de0b4d52b4abeff42ccd26774cb10ce4b682f4f976bd1f36d631a19ded8",
}


def _class_digest(classes):
    h = hashlib.sha256()
    for c in classes:
        h.update(repr((c.size, c.canonical.key(),
                       c.canonical.biquandle.s_map)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", CLASS_DIGESTS)
def test_classes_match_recorded_digest(name):
    if name == "mixed":
        S, D5 = make_bialexander(5, 2, 3), dihedral_switch(5)
        pairs = [SingularPair(S, t) for t in enumerate_taus(S)[:20]]
        pairs += [SingularPair(D5, t) for t in enumerate_taus(D5)]
        assert _class_digest(classify_isomorphism(pairs)) == CLASS_DIGESTS[name]
        return
    S = DIGEST_SWITCHES[name]
    pairs = [SingularPair(S, t) for t in enumerate_taus(S)]
    assert _class_digest(classify_isomorphism(pairs)) == \
        _class_digest(enumerate_taus(S, up_to_iso=True)) == CLASS_DIGESTS[name]


def _array_class_cases():
    for name, bijective, *_ in TAU_DIGESTS:
        yield name, bijective
    # 331,776 taus
    yield pytest.param("flip4", False, marks=pytest.mark.slow)


@pytest.mark.parametrize("name,bijective", _array_class_cases())
def test_array_classes_equal_classified_tables(name, bijective):
    # enumerate_taus classifies the search's array; classify_isomorphism
    # the tables it returns.  Both sides of the 64-pair rule are covered:
    # D4 has 16 taus, bialexander(5,2,3) 128 and 480, flip4 3,360
    S = DIGEST_SWITCHES[name]
    taus = enumerate_taus(S, require_bijective=bijective)
    assert enumerate_taus(S, require_bijective=bijective, up_to_iso=True) == \
        classify_isomorphism([SingularPair(S, t) for t in taus])


def test_classes_build_tables_only_for_representatives(monkeypatch):
    S = flip_switch(4)
    built = []
    init, unchecked = PairTable.__post_init__, PairTable._unchecked.__func__
    monkeypatch.setattr(PairTable, "__post_init__",
                        lambda self: built.append(self) or init(self))
    monkeypatch.setattr(PairTable, "_unchecked", classmethod(
        lambda cls, *args: built.append(args) or unchecked(cls, *args)))
    classes = enumerate_taus(S, up_to_iso=True)
    assert (len(classes), sum(c.size for c in classes)) == (169, 3360)
    assert len(built) == 169
    built.clear()
    assert len(enumerate_taus(S)) == len(built) == 3360


# ---------------------------------------------------------------------------
# orbit keys: `_orbit_keys` against `canonical_form`, its reference
# ---------------------------------------------------------------------------

@pytest.fixture
def orbits_always(monkeypatch):
    # every input takes the orbit path, even an empty one
    monkeypatch.setattr(pairs_module, "ORBIT_MIN", -1)


def _least(tables, group):
    return pairs_module.canonical_form(tables, group)


def _generated(gens, n):
    """The group generated by gens, by left multiplication."""
    reached, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        frontier = [g for h in frontier for s in gens
                    for g in [tuple(s[v] for v in h)] if g not in reached]
        reached.update(frontier)
    return reached


@pytest.mark.parametrize("name", DIGEST_SWITCHES)
def test_generating_set_regenerates_the_automorphism_group(name):
    aut = automorphism_group(DIGEST_SWITCHES[name].table)
    n = len(aut[0])
    gens = pairs_module._generating_set(aut)
    assert _generated(gens, n) == set(aut)
    # picked greedily in the group's order: each is outside the group the
    # earlier ones generate, and it comes first among those outside
    for k, g in enumerate(gens):
        earlier = _generated(gens[:k], n)
        assert g == next(h for h in aut if h not in earlier)


def _orbit_cases():
    for name, bijective, *_ in TAU_DIGESTS:
        yield name, bijective
    # 331,776 taus
    yield pytest.param("flip4", False, marks=pytest.mark.slow)


@pytest.mark.parametrize("name,bijective", _orbit_cases())
def test_orbit_keys_equal_least_keys(orbits_always, name, bijective):
    # the search's array holds whole orbits; shuffled, with repeats, and
    # cut to halves or thirds it holds partial ones as well
    S = DIGEST_SWITCHES[name]
    aut = automorphism_group(S.table)
    taus = pairs_module._tau_array(S.table, bijective).astype(np.int16)
    P = len(taus)
    expected = _least(taus, aut)
    rng = np.random.default_rng(P)
    perm = rng.permutation(P)
    repeated = np.concatenate([perm, rng.integers(0, P, P // 2 + 1)])
    for order in (np.arange(P), perm, repeated, perm[:P // 2], perm[P // 2:],
                  perm[:P // 3], perm[P // 3:2 * P // 3], perm[::3]):
        keys = pairs_module._orbit_keys(taus[order], aut)
        assert keys == [expected[i] for i in order.tolist()]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_keys_on_random_tables(orbits_always, n):
    # arbitrary tables, not pairs, under each Aut(S) of that size, the
    # whole S_n and the trivial group: random tables alone, then mixed
    # with the whole orbits of some of them
    rng = random.Random(n)
    groups = [automorphism_group(S.table) for S in DIGEST_SWITCHES.values()
              if S.n == n]
    groups += [list(itertools.permutations(range(n))), [tuple(range(n))]]
    for group in groups:
        tabs = [PairTable(n, *np.array([rng.randrange(n) for _ in range(2 * n * n)])
                          .reshape(2, n, n).tolist()) for _ in range(30)]
        whole = [t.relabel(list(g)) for t in tabs[:10] for g in group]
        rng.shuffle(whole)
        for stack in (tabs, whole + tabs[10:]):
            arr = np.array([[t.t1, t.t2] for t in stack], np.int16)
            assert pairs_module._orbit_keys(arr, group) == _least(arr, group)


def test_orbit_keys_of_no_stack(orbits_always):
    aut = automorphism_group(flip_switch(3).table)
    assert pairs_module._orbit_keys(np.empty((0, 2, 3, 3), np.int16), aut) == []


def test_only_partial_orbits_fall_back(orbits_always, monkeypatch):
    S = flip_switch(4)
    aut = automorphism_group(S.table)
    taus = pairs_module._tau_array(S.table, True).astype(np.int16)
    least = pairs_module.canonical_form
    calls = []
    monkeypatch.setattr(pairs_module, "canonical_form",
                        lambda t, g: calls.append(len(t)) or least(t, g))
    assert pairs_module._orbit_keys(taus, aut) == least(taus, aut)
    assert calls == []
    half = taus[::2]
    assert pairs_module._orbit_keys(half, aut) == least(half, aut)
    assert len(calls) == 1 and 0 < calls[0] < len(half)


def test_small_inputs_are_keyed_by_least_keys(monkeypatch):
    # at most ORBIT_MIN relabeled cells: no generating set is picked, and
    # the keys equal the orbit path's
    S = flip_switch(3)
    aut = automorphism_group(S.table)
    taus = pairs_module._tau_array(S.table, False).astype(np.int16)
    assert len(taus) * len(aut) * taus[0].size <= pairs_module.ORBIT_MIN
    pick = pairs_module._generating_set
    monkeypatch.setattr(pairs_module, "_generating_set",
                        lambda group: pytest.fail("orbit path taken"))
    keys = pairs_module._orbit_keys(taus, aut)
    monkeypatch.setattr(pairs_module, "_generating_set", pick)
    monkeypatch.setattr(pairs_module, "ORBIT_MIN", -1)
    assert pairs_module._orbit_keys(taus, aut) == keys == _least(taus, aut)
