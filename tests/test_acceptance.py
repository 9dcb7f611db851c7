"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random

import pytest

from singlink.coloring import (brute_force_colorings, count_colorings,
                               enumerate_colorings)
from singlink.diagram import (MOVES, apply_move, builtin_diagram,
                              builtin_names, find_move_sites)
from singlink.invariant import (AB, NC, CocyclePair, builtin_cocycle,
                                check_ab_cocycle, check_nc_cocycle,
                                derived_cocycle_identities, nc_invariant,
                                render_laurent, state_sum,
                                universal_ab_cocycle, universal_nc_cocycle)
from singlink.pairs import (SingularPair, builtin_pair, canonical_key,
                            check_bialexander_characterization,
                            check_singular_pair, classify_isomorphism,
                            enumerate_left_right_invertible, enumerate_taus,
                            make_tau_a, tau_phi_iso_count)
from singlink.pairtable import (Biquandle, PairTable, check_biquandle,
                                check_yang_baxter, dihedral_switch,
                                flip_switch, i2_switch, make_bialexander)
from singlink.presentation import (f_gen, h_gen, smith_normal_form)

from tests.test_invariant import elem, nc_multiset_unordered
from tests.test_pairtable import (TAU1_CYCLES, TAU2_CYCLES, table_from_cycles)
from tests.test_presentation import assert_snf_postconditions, det


def ok(msg):
    print(f"ACCEPTANCE: PASS - {msg}")


def test_criterion_1_lr_invertible_golden_tables():
    expected = {2: (4, 3, 2, 2), 3: (216, 44, 24, 7)}
    for n, row in expected.items():
        c = enumerate_left_right_invertible(n)
        assert (c.total, c.iso, c.bijective, c.bijective_iso) == row
    c4 = enumerate_left_right_invertible(4)
    # the printed table's first n=4 entry (331176) is a typo: the counted
    # set is the (n!)^n lists of n permutations, 331776 at n=4, and the
    # printed isoclass count 14022 is consistent only with 331776
    assert (c4.total, c4.iso, c4.bijective, c4.bijective_iso) == \
        (331776, 14022, 3360, 169)
    ok("criterion 1: left/right-invertible counts (4/3/2/2), "
       "(216/44/24/7), (331776/14022/3360/169)")


def test_criterion_2_flip_singular_pair_table():
    expected = {2: (2, 2), 3: (24, 7), 4: (3360, 169)}
    for n, (pairs, iso) in expected.items():
        taus = enumerate_taus(flip_switch(n), max_n=4)
        assert len(taus) == pairs
        classes = classify_isomorphism(
            [SingularPair(flip_switch(n), t) for t in taus])
        assert len(classes) == iso
    ok("criterion 2: flip singular-pair table (2,2), (24,7), (3360,169)")


def test_criterion_3_tau_phi_isoclass_counts_default():
    expected = {3: 2, 4: 4, 5: 6, 6: 16, 7: 20, 8: 56, 9: 136}
    for n, e in expected.items():
        assert tau_phi_iso_count(n) == e
    ok("criterion 3: I_3..I_9 = 2,4,6,16,20,56,136")


def test_criterion_3_tau_phi_isoclass_counts_slow():
    expected = {10: 416, 11: 776, 12: 3904}
    for n, e in expected.items():
        assert tau_phi_iso_count(n) == e
    ok("criterion 3 (slow): I_10..I_12 = 416,776,3904")


def test_criterion_4_flip3_classes_and_failing_yb():
    S = flip_switch(3)
    taus = enumerate_taus(S)
    classes = classify_isomorphism([SingularPair(S, t) for t in taus])
    assert len(classes) == 7
    yb = [cl for cl in classes if check_yang_baxter(cl.canonical.tau)]
    assert len(yb) == 5
    bq = [cl for cl in classes if check_biquandle(cl.canonical.tau) is not None]
    assert len(bq) == 4
    non_yb_keys = {canonical_key(cl.canonical) for cl in classes
                   if not check_yang_baxter(cl.canonical.tau)}
    assert len(non_yb_keys) == 2
    tau1 = table_from_cycles(3, TAU1_CYCLES)
    tau2 = table_from_cycles(3, TAU2_CYCLES)
    paper_keys = set()
    for tau in (tau1, tau2):
        assert check_singular_pair(S, tau).ok
        assert not check_yang_baxter(tau)
        paper_keys.add(canonical_key(SingularPair(S, tau)))
    assert paper_keys == non_yb_keys
    assert tau1.cycle_type() != tau2.cycle_type()
    ok("criterion 4: n=3 flip has 7 classes, 5 YBeq, 4 biquandles; the 2 "
       "non-YBeq classes are exactly tau_1 and tau_2")


def test_criterion_5_bialexander_characterization():
    # F_3, s=1, t=-1: the enumerated companions are exactly {tau_a}
    d3 = dihedral_switch(3)
    taus3 = enumerate_taus(d3)
    fam3 = [t for t in (make_tau_a(3, 1, 2, a) for a in (1, 2)) if t is not None]
    assert sorted(t.key() for t in taus3) == sorted(t.key() for t in fam3)
    # F_5 analogue of the F_4 example (a prime field with <-1,s,t> = K^x)
    S5 = make_bialexander(5, 2, 1)
    taus5 = enumerate_taus(S5)
    fam5 = [t for t in (make_tau_a(5, 2, 1, a) for a in range(1, 5))
            if t is not None]
    assert len(fam5) == 3
    assert sorted(t.key() for t in taus5) == sorted(t.key() for t in fam5)
    # exhaustive agreement on all ((3!)^3)^2 left/right-invertible tau at m=3
    perms = list(itertools.permutations(range(3)))
    full_passers = []
    checked = 0
    for rows in itertools.product(perms, repeat=3):
        for cols in itertools.product(perms, repeat=3):
            t2 = tuple(tuple(cols[y][x] for y in range(3)) for x in range(3))
            tab = PairTable(3, rows, t2)
            a = check_bialexander_characterization(3, 1, 2, tab)
            b = check_singular_pair(d3, tab).ok
            assert a == b
            checked += 1
            if b:
                full_passers.append(tab)
    assert checked == (6 ** 3) ** 2
    assert sorted(t.key() for t in full_passers) == \
        sorted(t.key() for t in taus3)
    ok("criterion 5: enumerated bialexander companions equal the tau_a "
       "family (F_3, F_5); characterization agrees with the axioms on all "
       "46656 candidates at m=3")


def test_criterion_6_coloring_counts():
    fi2 = builtin_pair("flip-i2")
    assert count_colorings(builtin_diagram("sing_hopf"), fi2) == 0
    for pname in ("flip-i2", "flip-flip", "d3-ss", "d3-sinv"):
        p = builtin_pair(pname)
        assert count_colorings(builtin_diagram("unknot"), p) == p.n
    pairs = [builtin_pair(n) for n in ("flip-i2", "flip-flip", "d3-ss",
                                       "d3-sinv", "i2-ss")]
    for name in builtin_names():
        d = builtin_diagram(name)
        for p in pairs:
            fast = enumerate_colorings(d, p)
            slow = brute_force_colorings(d, p)
            key = lambda col: tuple(sorted(col.items()))
            assert sorted(map(key, fast)) == sorted(map(key, slow))
    ok("criterion 6: sing_hopf has 0 colorings with (Z/2, flip, i2); "
       "unknot has |X|; oracle equivalence on all builtins, |X| <= 3")


def test_criterion_7_universal_groups():
    from singlink.presentation import (abelianize, build_ab_presentation,
                                       build_unc_presentation)
    n = 2
    # (Z/2, flip, i2): Z^3, f = 1, h symmetric
    g = abelianize(build_unc_presentation(builtin_pair("flip-i2")))
    assert (g.rank, g.torsion) == (3, ())
    for x in range(2):
        for y in range(2):
            assert g.generator(f_gen(n, x, y)) == g.identity()
    assert g.generator(h_gen(n, 0, 1)) == g.generator(h_gen(n, 1, 0))
    basis = [list(g.generator(h_gen(n, x, y))[0])
             for (x, y) in ((0, 0), (0, 1), (1, 1))]
    assert abs(det(basis)) == 1
    # (Z/2, flip, flip): Z^4 with f table (1, bc^-1, cb^-1, 1)
    g2 = abelianize(build_unc_presentation(builtin_pair("flip-flip")))
    assert (g2.rank, g2.torsion) == (4, ())
    assert g2.generator(f_gen(n, 0, 0)) == g2.identity()
    assert g2.generator(f_gen(n, 1, 1)) == g2.identity()
    b = g2.generator(h_gen(n, 0, 1))
    c = g2.generator(h_gen(n, 1, 0))
    assert g2.generator(f_gen(n, 0, 1)) == g2.mul(b, g2.inv(c))
    assert g2.generator(f_gen(n, 1, 0)) == g2.mul(c, g2.inv(b))
    basis = [list(g2.generator(h_gen(n, x, y))[0])
             for x in range(2) for y in range(2)]
    assert abs(det(basis)) == 1
    # Ab^{fh} for (Z/2, flip, (sy, sx)): (Z/2)^2 x Z^3
    g3 = abelianize(build_ab_presentation(builtin_pair("flip-s2")))
    assert (g3.rank, tuple(g3.torsion)) == (3, (2, 2))
    assert g3.generator(f_gen(n, 0, 0)) == g3.identity()
    assert g3.generator(f_gen(n, 1, 1)) == g3.identity()
    u1 = g3.generator(f_gen(n, 0, 1))
    u2 = g3.generator(f_gen(n, 1, 0))
    assert u1[0] == (0, 0, 0) and u2[0] == (0, 0, 0)
    assert sorted((u1[1], u2[1])) == [(0, 1), (1, 0)]
    assert g3.generator(h_gen(n, 0, 1)) == g3.generator(h_gen(n, 1, 0))
    basis = [list(g3.generator(h_gen(n, x, y))[0])
             for (x, y) in ((0, 0), (0, 1), (1, 1))]
    assert abs(det(basis)) == 1
    ok("criterion 7: universal groups Z^3 (f=1, h symmetric), Z^4 with "
       "f = (1, bc^-1, cb^-1, 1), and (Z/2)^2 x Z^3 with torsion f12, f21")


def test_criterion_8_worked_invariants():
    p = builtin_pair("flip-i2")
    cnc = builtin_cocycle("flip-i2", NC)
    g = cnc.target
    b2 = elem(g, b=2)
    v = nc_invariant(builtin_diagram("sing_trefoil"), p, cnc)
    assert v.per_coloring and all(t == (b2,) for t in v.per_coloring)
    v = nc_invariant(builtin_diagram("sing_trefoil_fig8"), p, cnc)
    assert v.per_coloring and all(t == (b2,) for t in v.per_coloring)
    cab2 = elem(g, c=1, a=1, b=2)
    v = nc_invariant(builtin_diagram("four_sing_right"), p, cnc)
    assert len(v.per_coloring) == 4
    assert all(t == (cab2, cab2) for t in v.per_coloring)
    # left link: (ca)^2 twice; the b-colorings give b^4 (the printed b^2 is
    # impossible for any 4-singular-crossing diagram, see decisions ledger)
    v = nc_invariant(builtin_diagram("four_sing_left"), p, cnc)
    ms = v.multiset()
    ca2 = elem(g, c=2, a=2)
    b4 = elem(g, b=4)
    assert ms[(ca2, ca2)] == 2 and ms[(b4, b4)] == 2 and len(v.per_coloring) == 4
    # state sums
    cab = builtin_cocycle("flip-s2", AB)
    gab = cab.target
    right = state_sum(builtin_diagram("four_sing_right"), p, cab)
    left = state_sum(builtin_diagram("four_sing_left"), p, cab)
    assert render_laurent(gab, right) == "4*a*b^2*c"
    assert right.terms == {elem(gab, a=1, b=2, c=1): 4}
    assert render_laurent(gab, left) == "2*a^2*c^2 + 2*b^4"
    assert left.terms == {elem(gab, a=2, c=2): 2, elem(gab, b=4): 2}
    # under (flip, flip) the two links' state sums coincide
    pff = builtin_pair("flip-flip")
    cff = builtin_cocycle("flip-flip", AB)
    assert state_sum(builtin_diagram("four_sing_left"), pff, cff) == \
        state_sum(builtin_diagram("four_sing_right"), pff, cff)
    ok("criterion 8: {b^2}; {cab^2, cab^2}; left-link multiset with state "
       "sums 4ab^2c and 2a^2c^2+2b^4; (flip,flip) equality")


def test_criterion_9a_move_invariance():
    pair_names = ("flip-i2", "flip-flip", "d3-ss")
    pairs = {nm: builtin_pair(nm) for nm in pair_names}
    ncs = {nm: builtin_cocycle(nm, NC) for nm in pair_names}
    abs_ = {nm: builtin_cocycle(nm, AB) for nm in pair_names}
    sites_seen = 0
    for name in builtin_names():
        d = builtin_diagram(name)
        for move in MOVES:
            for site in find_move_sites(d, move):
                d2 = apply_move(d, site)
                sites_seen += 1
                for nm in pair_names:
                    p = pairs[nm]
                    assert count_colorings(d, p) == count_colorings(d2, p)
                    assert nc_multiset_unordered(nc_invariant(d, p, ncs[nm])) == \
                        nc_multiset_unordered(nc_invariant(d2, p, ncs[nm]))
                    assert state_sum(d, p, abs_[nm]) == state_sum(d2, p, abs_[nm])
    assert sites_seen >= 20
    ok(f"criterion 9a: colorings, nc invariant and state sum unchanged at "
       f"{sites_seen} move sites over all builtins")


def _small_biquandles():
    out = []
    perms2 = list(itertools.permutations(range(2)))
    for rows in itertools.product(perms2, repeat=2):
        for cols in itertools.product(perms2, repeat=2):
            t2 = tuple(tuple(cols[y][x] for y in range(2)) for x in range(2))
            t = PairTable(2, rows, t2)
            if check_biquandle(t) is not None:
                out.append(Biquandle(t))
    out.extend([flip_switch(1), flip_switch(3), dihedral_switch(3),
                make_bialexander(3, 2, 2)])
    return out


def test_criterion_9b_universal_cocycles_pass_checkers():
    pairs_checked = 0
    for bi in _small_biquandles():
        for tau in enumerate_taus(bi):
            p = SingularPair(bi, tau)
            assert check_nc_cocycle(p, universal_nc_cocycle(p)).ok
            assert check_ab_cocycle(p, universal_ab_cocycle(p)).ok
            pairs_checked += 1
    assert pairs_checked >= 10
    ok(f"criterion 9b: universal nc and ab cocycles pass their checkers "
       f"for all {pairs_checked} enumerated pairs with n <= 3")


def test_criterion_9c_snf_random_matrices():
    rng = random.Random(123456)
    for _ in range(1000):
        r = rng.randint(1, 12)
        c = rng.randint(1, 12)
        M = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        assert_snf_postconditions(M)
    ok("criterion 9c: SNF postconditions on 1000 random matrices up to "
       "12x12 with entries in [-9, 9]")


def test_criterion_9d_lemma_consequences_n2():
    checked = 0
    for bi in _small_biquandles():
        if bi.n != 2:
            continue
        for tau in enumerate_taus(bi):
            p = SingularPair(bi, tau)
            rep = derived_cocycle_identities(p, universal_nc_cocycle(p))
            assert all(rep.values()), (bi.table, tau)
            checked += 1
    assert checked >= 4
    ok(f"criterion 9d: derived-identity report clean on all {checked} "
       f"enumerated n=2 universal pairs")
