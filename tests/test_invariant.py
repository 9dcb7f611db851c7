import functools
import hashlib
import tracemalloc
from collections import Counter
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings

from singlink import invariant
from singlink.coloring import (count_colorings, enumerate_colorings,
                               fixed_point_count)
from singlink.diagram import (MOVES, Crossing, SingularDiagram, apply_move,
                              builtin_diagram, find_move_sites, ladder)
from singlink.errors import CocycleInvalidError
from singlink.invariant import (AB, NC, CocyclePair, builtin_cocycle,
                                check_ab_cocycle, check_nc_cocycle,
                                derived_cocycle_identities, nc_invariant,
                                render_laurent, state_sum,
                                universal_ab_cocycle, universal_nc_cocycle)
from singlink.pairs import SingularPair, builtin_pair, enumerate_taus
from singlink.pairtable import (PairTable, dihedral_switch, flip_switch, i2_switch,
                                make_quandle_switch, dihedral_quandle)
from singlink.presentation import (AbelianizedGroup, FiniteGroup,
                                   GroupRingElement, relation_families,
                                   relation_instances)
from tests.closures import (EDGE_CASES, FAR_PAIRS, MOVE_PAIRS, last_edge_bases,
                            move_chain, moved_closures, random_word,
                            replace_sing_by_pos, shuffled_closure)


def elem(group, **exps):
    """Build a group element from generator labels, e.g. elem(g, b=2)."""
    free = [0] * group.rank
    tors = [0] * len(group.torsion)
    for label, e in exps.items():
        if label in group.free_labels:
            free[group.free_labels.index(label)] += e
        else:
            tors[group.torsion_labels.index(label)] += e
    tors = [v % d for v, d in zip(tors, group.torsion)]
    return (tuple(free), tuple(tors))


class TestCheckers:
    def test_universal_pairs_pass(self, test_pairs):
        for name, p in test_pairs.items():
            assert check_nc_cocycle(p, universal_nc_cocycle(p)).ok, name
            assert check_ab_cocycle(p, universal_ab_cocycle(p)).ok, name

    def test_taus_that_are_not_bijective_are_checked(self):
        # the checks invert S only; the coloring search, which inverts tau
        # too, refuses these pairs
        S = flip_switch(2)
        taus = [t for t in enumerate_taus(S, require_bijective=False)
                if not t.is_bijective()]
        assert len(taus) == 2
        for tau in taus:
            p = SingularPair(S, tau)
            assert check_nc_cocycle(p, universal_nc_cocycle(p)).ok
            assert check_ab_cocycle(p, universal_ab_cocycle(p)).ok

    def test_trivial_pair_passes(self):
        p = builtin_pair("d3-ss")
        tgt = FiniteGroup.cyclic(1)
        z = ((0,) * 3,) * 3
        assert check_nc_cocycle(p, CocyclePair(tgt, z, z, NC)).ok

    def test_c1_violation_witnessed(self):
        # quandle pair with f = 1: condition (c1) reads h(x<|z, y<|z) = h(x,y);
        # break it with an h that is not constant on a <|-orbit
        p = builtin_pair("d3-ss")
        tgt = FiniteGroup.cyclic(3)
        f = ((0,) * 3,) * 3
        h = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
        res = check_nc_cocycle(p, CocyclePair(tgt, f, h, NC))
        assert not res.ok
        assert any(v[0] == "c1" for v in res.violations)

    def test_f3_violation_reported_as_c3(self):
        # (f3) f(x, s(x)) = 1 is (c3) at the fixed point (x, s(x)) of S, so
        # breaking it at one point is reported under (c3) at that point
        p = builtin_pair("d3-ss")
        tgt = FiniteGroup.cyclic(3)
        x = 1
        sx = p.biquandle.s_map[x]
        f = [[0] * 3 for _ in range(3)]
        f[x][sx] = 1
        h = ((0,) * 3,) * 3
        res = check_nc_cocycle(p, CocyclePair(tgt, f, h, NC))
        assert not res.ok
        assert ("c3", (x, sx)) in res.violations
        assert all(v[0] not in ("f2", "f3") for v in res.violations)

    def test_ff_pair_on_SS_is_abelian_cocycle(self):
        # a type-I biquandle 2-cocycle f gives the abelian pair (f, f) on
        # (X, S, S); realize f as the f-part of the universal abelian pair
        p = builtin_pair("d3-ss")
        u = universal_ab_cocycle(p)
        cc = CocyclePair(u.target, u.f, u.f, AB)
        assert check_ab_cocycle(p, cc).ok

    def test_f_finv_pair_on_S_Sinv(self):
        # f with f o S = f gives (f, f^-1) on (X, S, S^-1); take f constant
        bi = dihedral_switch(3)
        p = SingularPair(bi, bi.table.inverse())
        tgt = FiniteGroup.cyclic(4)
        f = ((1,) * 3,) * 3
        # (f2') demands f(x, s(x)) = 1: constant f fails it, so repair the
        # diagonal; instead use f = 0 except... simplest honest instance:
        # f identically 0 and h = -f = 0 works but is trivial; use the
        # universal f pushed along a hom to keep the test meaningful
        u = universal_ab_cocycle(p)
        g: AbelianizedGroup = u.target

        def push(e):
            return (sum(e[0]) * 2) % 4          # some hom Z^rank -> Z/4

        okf = all(push(g.mul(u.f[x][y], g.inv(u.f[bi.table.t1[x][y]][bi.table.t2[x][y]])))
                  == 0 for x in range(3) for y in range(3))
        f = tuple(tuple(push(v) for v in row) for row in u.f)
        h = tuple(tuple((-v) % 4 for v in row) for row in f)
        if okf:
            cc = CocyclePair(FiniteGroup.cyclic(4), f, h, AB)
            assert check_ab_cocycle(p, cc).ok

    def test_dimension_mismatch(self):
        from singlink.errors import DimensionMismatchError
        p = builtin_pair("flip-i2")
        tgt = FiniteGroup.cyclic(2)
        z3 = ((0,) * 3,) * 3
        with pytest.raises(DimensionMismatchError):
            check_nc_cocycle(p, CocyclePair(tgt, z3, z3, NC))


def check_cocycle_oracle(p, c):
    """The checker one relation instance at a time: both sides multiplied
    out letter by letter with the target's `mul`, keeping the first
    failing point of each family."""
    ident, mul = c.target.identity(), c.target.mul
    value = [v for row in c.f for v in row] + [v for row in c.h for v in row]

    def product(side):
        out = ident
        for g in side:
            out = mul(out, value[g])
        return out

    families = relation_families(p, c.kind)
    bad = {}
    for name, point, lhs, rhs in relation_instances(families, p.n):
        if name not in bad and product(lhs) != product(rhs):
            bad[name] = point
    viols = tuple((name, bad[name]) for name, _ in families if name in bad)
    return invariant.CocycleCheck(not viols, viols)


def random_cocycles(rng, count):
    """(pair, cocycle) with seeded h into Z/2, Z/3 or S3, and f derived
    from h by (c3) or drawn at random; about one in six passes."""
    groups = (FiniteGroup.cyclic(2), FiniteGroup.cyclic(3),
              FiniteGroup.symmetric(3))
    names = ("flip-flip", "flip-i2", "i2-ss", "d3-ss", "d3-sinv", "flip-flip-3")
    for _ in range(count):
        p, G = builtin_pair(rng.choice(names)), rng.choice(groups)
        n, st = p.n, p.biquandle.table
        kind = rng.choice((NC, AB)) if G.is_abelian() else NC
        h = [[rng.randrange(G.order) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.7:
            f = [[G.mul(h[x][y], G.inv(h[st.t1[x][y]][st.t2[x][y]]))
                  for y in range(n)] for x in range(n)]
        else:
            f = [[rng.randrange(G.order) for _ in range(n)] for _ in range(n)]
        yield p, CocyclePair(G, f, h, kind)


class TestGuards:
    """Each entry refuses a cocycle pair it cannot use, with its own message."""

    @pytest.mark.parametrize("entry,kind,message", [
        (check_nc_cocycle, AB, "cocycle pair is not of noncommutative kind"),
        (check_ab_cocycle, NC, "cocycle pair is not of abelian kind"),
        (functools.partial(nc_invariant, builtin_diagram("unknot")), AB,
         "nc_invariant needs a noncommutative pair"),
        (functools.partial(state_sum, builtin_diagram("unknot")), NC,
         "state_sum needs an abelian pair"),
    ], ids=["check_nc_cocycle", "check_ab_cocycle", "nc_invariant", "state_sum"])
    def test_a_pair_of_the_other_kind_is_refused(self, entry, kind, message):
        z = ((0, 0), (0, 0))
        c = CocyclePair(FiniteGroup.cyclic(2), z, z, kind)
        with pytest.raises(CocycleInvalidError, match=f"^{message}$"):
            entry(builtin_pair("flip-i2"), c)

    def test_failing_cocycles_are_refused(self):
        # h is not symmetric, as (c3) and (c3') require on flip-i2
        p = builtin_pair("flip-i2")
        f, h = ((0, 0), (0, 0)), ((0, 1), (2, 0))
        ab = CocyclePair(FiniteGroup.cyclic(3), f, h, AB)
        with pytest.raises(CocycleInvalidError,
                           match=r"""^cocycle pair fails \["c3'"\]$"""):
            state_sum(builtin_diagram("unknot"), p, ab)
        nc = CocyclePair(FiniteGroup.cyclic(3), f, h, NC)
        with pytest.raises(CocycleInvalidError,
                           match="^pair fails the noncommutative conditions$"):
            derived_cocycle_identities(p, nc)

    def test_builtin_cocycle_refuses_an_unknown_kind_before_building(
            self, monkeypatch):
        def build(p):
            raise AssertionError("a cocycle was built")
        monkeypatch.setattr(invariant, "universal_nc_cocycle", build)
        monkeypatch.setattr(invariant, "universal_ab_cocycle", build)
        with pytest.raises(ValueError, match="^kind must be nc or ab, got 'xx'$"):
            builtin_cocycle("flip-i2", "xx")


class TestBatchedChecker:
    def test_random_finite_cocycles_match_oracle(self):
        valid = 0
        for p, c in random_cocycles(Random("batched checker"), 1000):
            res = invariant._checked(c, p)[0]
            assert res == check_cocycle_oracle(p, c), (p, c)
            valid += res.ok
        assert 100 < valid < 900

    @pytest.mark.parametrize("k", [1, 2 ** 70 + 1])
    def test_abelianized_cocycles_match_oracle(self, test_pairs, k):
        # universal cocycles (scaled past int64 at 2^70), and copies with
        # one entry of f or h replaced by another generator's value
        rng = Random(f"abelianized checker {k}")
        seen = set()
        for p in test_pairs.values():
            for c in (universal_nc_cocycle(p), universal_ab_cocycle(p)):
                c = scaled(c, k)
                cases = [c]
                for _ in range(6):
                    tabs = [[list(row) for row in c.f], [list(row) for row in c.h]]
                    x, y = rng.randrange(p.n), rng.randrange(p.n)
                    rng.choice(tabs)[x][y] = rng.choice(rng.choice(tabs)[x])
                    cases.append(CocyclePair(c.target, *tabs, c.kind))
                for case in cases:
                    res = invariant._checked(case, p)[0]
                    assert res == check_cocycle_oracle(p, case)
                    seen.add(res.ok)
        assert seen == {True, False}


class TestBuiltinCocyclesAreUniversal:
    def test_invariant_factors_match_machine_computation(self):
        # a labeled pair that passes the checker induces a surjection from
        # the universal group; equal invariant factors then force an
        # isomorphism (finitely generated abelian groups are Hopfian)
        for name, kind in (("flip-i2", NC), ("flip-s2", AB),
                           ("flip-flip", NC), ("flip-flip", AB)):
            p = builtin_pair(name)
            labeled = builtin_cocycle(name, kind)
            machine = (universal_nc_cocycle(p) if kind == NC
                       else universal_ab_cocycle(p))
            lg, mg = labeled.target, machine.target
            assert (lg.rank, tuple(lg.torsion)) == (mg.rank, tuple(mg.torsion))

    def test_labeled_generators_span(self):
        from singlink.presentation import smith_normal_form
        for name, kind in (("flip-i2", NC), ("flip-s2", AB),
                           ("flip-flip", NC), ("flip-flip", AB)):
            g = builtin_cocycle(name, kind).target
            free_rows = [list(g.generator(i)[0]) for i in range(8)]
            _, D, _ = smith_normal_form(free_rows)
            diag = [D[i][i] for i in range(min(len(D), g.rank))]
            assert diag == [1] * g.rank
            for i in range(len(g.torsion)):
                unit = ((0,) * g.rank,
                        tuple(int(j == i) for j in range(len(g.torsion))))
                assert any(g.generator(k) == unit for k in range(8))


class TestDerivedIdentities:
    def test_universal_flip_i2(self):
        p = builtin_pair("flip-i2")
        rep = derived_cocycle_identities(p, builtin_cocycle("flip-i2", NC))
        assert all(rep.values())

    def test_h_trivial_forces_f_trivial(self):
        # with h = 1 the relation f = h h(S)^-1 collapses f to 1
        p = builtin_pair("flip-flip")
        tgt = FiniteGroup.cyclic(5)
        z = ((0, 0), (0, 0))
        rep = derived_cocycle_identities(p, CocyclePair(tgt, z, z, NC))
        assert rep["f_determined_by_h"]

    def test_abelian_f_tau_inverse(self, test_pairs):
        for name, p in test_pairs.items():
            rep = derived_cocycle_identities(p, builtin_cocycle(name, NC))
            assert rep["abelian_f_tau_inverse"], name

    def test_enumerated_n2_pairs(self):
        # every singular pair on a 2-element biquandle: Lemma-consequences
        # hold for the universal abelianized cocycle
        import itertools
        from singlink.pairtable import Biquandle, PairTable, check_biquandle
        perms = list(itertools.permutations(range(2)))
        biquandles = []
        for rows in itertools.product(perms, repeat=2):
            for cols in itertools.product(perms, repeat=2):
                t2 = tuple(tuple(cols[y][x] for y in range(2)) for x in range(2))
                t = PairTable(2, rows, t2)
                if check_biquandle(t) is not None:
                    biquandles.append(Biquandle(t))
        assert len(biquandles) >= 2
        count = 0
        for bi in biquandles:
            for tau in enumerate_taus(bi):
                p = SingularPair(bi, tau)
                rep = derived_cocycle_identities(p, universal_nc_cocycle(p))
                assert all(rep.values()), (bi.table, tau)
                count += 1
        assert count >= 4


class TestNcInvariant:
    def test_sing_trefoil_b_squared(self):
        p = builtin_pair("flip-i2")
        c = builtin_cocycle("flip-i2", NC)
        g = c.target
        v = nc_invariant(builtin_diagram("sing_trefoil"), p, c)
        b2 = elem(g, b=2)
        assert v.per_coloring and all(t == (b2,) for t in v.per_coloring)

    def test_fig8_trefoil_b_squared(self):
        p = builtin_pair("flip-i2")
        c = builtin_cocycle("flip-i2", NC)
        v = nc_invariant(builtin_diagram("sing_trefoil_fig8"), p, c)
        b2 = elem(c.target, b=2)
        assert all(t == (b2,) for t in v.per_coloring)

    def test_four_sing_right_cab2(self):
        p = builtin_pair("flip-i2")
        c = builtin_cocycle("flip-i2", NC)
        v = nc_invariant(builtin_diagram("four_sing_right"), p, c)
        cab2 = elem(c.target, c=1, a=1, b=2)
        assert len(v.per_coloring) == 4
        assert all(t == (cab2, cab2) for t in v.per_coloring)

    def test_four_sing_left_multiset(self):
        p = builtin_pair("flip-i2")
        c = builtin_cocycle("flip-i2", NC)
        v = nc_invariant(builtin_diagram("four_sing_left"), p, c)
        ca2 = elem(c.target, c=2, a=2)
        b4 = elem(c.target, b=4)
        ms = v.multiset()
        assert ms[(ca2, ca2)] == 2
        assert ms[(b4, b4)] == 2

    def test_linking_number_interpretation(self):
        # S = tau = flip, f = 1, h symmetric on free(a, b, c):
        # per component, the a-exponent doubles the self-intersections of
        # component 1 and the c-exponent counts the mutual ones
        p = builtin_pair("flip-flip")
        g = AbelianizedGroup(3, (), (
            ((0, 0, 0), ()),) * 4 + (
            ((1, 0, 0), ()),       # h(0,0) = a
            ((0, 0, 1), ()),       # h(0,1) = c
            ((0, 0, 1), ()),       # h(1,0) = c
            ((0, 1, 0), ())),      # h(1,1) = b
            free_labels=("a", "b", "c"))
        f = ((g.identity(),) * 2,) * 2
        h = ((g.generator(4), g.generator(5)), (g.generator(6), g.generator(7)))
        c = CocyclePair(g, f, h, NC)
        assert check_nc_cocycle(p, c).ok
        # component A passes one singular self-crossing K (twice) and two
        # mutual crossings; component B passes only the mutual ones
        d = SingularDiagram((
            Crossing("s", ("a0", "a2", "a3", "a1")),    # K, self on A
            Crossing("s", ("a1", "b0", "b1", "a2")),    # M1
            Crossing("s", ("a3", "b1", "b0", "a0")),    # M2
        ))
        assert len(d.components) == 2
        v = nc_invariant(d, p, c)
        # the coloring A = 0, B = 1 contributes (a^2 c^2, c^2): the
        # a-exponent doubles A's self-intersections, c counts mutual ones
        a2c2 = elem(g, a=2, c=2)
        c2 = elem(g, c=2)
        assert (a2c2, c2) in v.per_coloring
        # a single singular kink likewise doubles the self-intersection
        kink = SingularDiagram((Crossing("s", ("e0", "l", "e0", "l")),))
        vk = nc_invariant(kink, p, c)
        a2 = elem(g, a=2)
        b2 = elem(g, b=2)
        assert sorted(vk.per_coloring) == sorted([(a2,), (b2,)])

    def test_basepoint_independence_abelian(self):
        p = builtin_pair("flip-i2")
        c = builtin_cocycle("flip-i2", NC)
        d = builtin_diagram("four_sing_right")
        base = nc_invariant(d, p, c).multiset()
        for e in d.components[0]:
            d2 = SingularDiagram(d.crossings, d.loops, (e, d.basepoints[1]))
            assert nc_invariant(d2, p, c).multiset() == base

    def test_basepoint_independence_nonabelian(self):
        # symmetric h into S3 on (flip, flip): non-commuting weights, the
        # conjugacy class representative does not depend on the basepoint
        p = builtin_pair("flip-flip")
        tgt = FiniteGroup.symmetric(3)
        e = tgt.identity()
        g1, g2 = 1, 4
        f = ((e, e), (e, e))
        h = ((g1, tgt.mul(g1, g2)), (tgt.mul(g1, g2), g2))
        c = CocyclePair(tgt, f, h, NC)
        assert check_nc_cocycle(p, c).ok
        d = builtin_diagram("four_sing_left")
        base = nc_invariant(d, p, c).multiset()
        for e0 in d.components[0]:
            for e1 in d.components[1]:
                d2 = SingularDiagram(d.crossings, d.loops, (e0, e1))
                assert nc_invariant(d2, p, c).multiset() == base

    def test_mirror_sensitivity(self):
        p = builtin_pair("d3-ss")
        c = universal_nc_cocycle(p)
        v1 = nc_invariant(builtin_diagram("sing_trefoil"), p, c)
        v2 = nc_invariant(builtin_diagram("sing_trefoil_mirror"), p, c)
        c1 = count_colorings(builtin_diagram("sing_trefoil"), p)
        c2 = count_colorings(builtin_diagram("sing_trefoil_mirror"), p)
        assert (c1 != c2) == (v1.multiset() != v2.multiset())
        assert c1 == 9 and c2 == 3

    def test_invalid_cocycle_rejected(self):
        p = builtin_pair("flip-i2")
        tgt = FiniteGroup.cyclic(3)
        f = ((0, 0), (0, 0))
        h = ((0, 1), (2, 0))      # breaks h symmetry required by (c3)
        with pytest.raises(CocycleInvalidError):
            nc_invariant(builtin_diagram("unknot"), p,
                         CocyclePair(tgt, f, h, NC))

    def test_abelian_kind_refuses_a_nonabelian_target_when_built(self):
        s3, f, h = FiniteGroup.symmetric(3), ((0, 0), (0, 0)), ((0, 1), (1, 0))
        with pytest.raises(CocycleInvalidError,
                           match="^abelian cocycle pair needs an abelian target$"):
            CocyclePair(s3, f, h, AB)
        assert CocyclePair(s3, f, h, NC).target is s3
        assert CocyclePair(FiniteGroup.cyclic(2), f, h, AB).kind == AB

    def test_cocycle_checked_once_per_pair(self, monkeypatch):
        p, other = builtin_pair("flip-i2"), builtin_pair("flip-flip")
        ds = [builtin_diagram("sing_trefoil"), builtin_diagram("four_sing_left")]
        # fresh copies of the (already checked) builtins
        nc, ab = (CocyclePair(c.target, c.f, c.h, c.kind) for c in
                  (builtin_cocycle("flip-i2", NC), builtin_cocycle("flip-s2", AB)))
        calls, builds = [], []
        check, table = invariant._checked, invariant._weight_table
        monkeypatch.setattr(invariant, "_checked",
                            lambda c, p: calls.append(c.kind) or check(c, p))
        monkeypatch.setattr(invariant, "_weight_table",
                            lambda p, c: builds.append((c.kind, p)) or table(p, c))
        assert check_nc_cocycle(p, nc).ok and check_ab_cocycle(p, ab).ok
        for _ in range(5):
            for d in ds:
                nc_invariant(d, p, nc)
                state_sum(d, p, ab)
        assert calls == [NC, AB]
        assert builds == [(NC, p), (AB, p)]
        # nc is a cocycle of flip-flip too: one more table, for that pair
        for _ in range(5):
            for d in ds:
                nc_invariant(d, other, nc)
        assert calls == [NC, AB, NC]
        assert builds == [(NC, p), (AB, p), (NC, other)]
        bad = CocyclePair(FiniteGroup.cyclic(3), ((0, 0), (0, 0)),
                          ((0, 1), (2, 0)), NC)
        for _ in range(3):
            with pytest.raises(CocycleInvalidError):
                nc_invariant(ds[0], p, bad)
        assert calls == [NC, AB, NC, NC]
        assert builds[3:] == [(NC, p)]

    def test_each_pair_hashes_its_tables_once(self, monkeypatch):
        hashed, table_hash = [], PairTable.__hash__
        monkeypatch.setattr(PairTable, "__hash__",
                            lambda t: hashed.append(t) or table_hash(t))
        p, q = builtin_pair("flip-i2"), builtin_pair("flip-i2")
        nc, ab = builtin_cocycle("flip-i2", NC), builtin_cocycle("flip-s2", AB)
        ds = [builtin_diagram("sing_trefoil"), builtin_diagram("four_sing_left")]
        hashed.clear()
        for _ in range(5):
            for pair in (p, q):
                for d in ds:
                    nc_invariant(d, pair, nc)
                    state_sum(d, pair, ab)
        # the switch's table and tau, once per pair object at its first query
        assert hashed == [p.biquandle.table, p.tau, q.biquandle.table, q.tau]
        assert hash(p) == hash(q) == hash((p.biquandle, p.tau))
        assert p == q and repr(p) == repr(q)


class TestStateSum:
    def test_four_sing_right(self):
        p = builtin_pair("flip-s2")
        c = builtin_cocycle("flip-s2", AB)
        v = state_sum(builtin_diagram("four_sing_right"), p, c)
        g = c.target
        expected = GroupRingElement([(elem(g, a=1, b=2, c=1), 4)])
        assert v == expected
        assert render_laurent(g, v) == "4*a*b^2*c"

    def test_four_sing_left(self):
        p = builtin_pair("flip-s2")
        c = builtin_cocycle("flip-s2", AB)
        v = state_sum(builtin_diagram("four_sing_left"), p, c)
        g = c.target
        expected = GroupRingElement([(elem(g, a=2, c=2), 2), (elem(g, b=4), 2)])
        assert v == expected
        assert render_laurent(g, v) == "2*a^2*c^2 + 2*b^4"

    def test_flip_flip_does_not_distinguish(self):
        p = builtin_pair("flip-flip")
        c = builtin_cocycle("flip-flip", AB)
        left = state_sum(builtin_diagram("four_sing_left"), p, c)
        right = state_sum(builtin_diagram("four_sing_right"), p, c)
        assert left == right

    def test_unknot_counts_X(self, test_pairs, ab_cocycles):
        for name, p in test_pairs.items():
            c = ab_cocycles[name]
            v = state_sum(builtin_diagram("unknot"), p, c)
            ident = (c.target.identity() if isinstance(c.target, AbelianizedGroup)
                     else c.target.identity())
            assert v == GroupRingElement([(ident, p.n)])

    def test_coefficient_sum_is_coloring_count(self, all_diagrams, test_pairs,
                                               ab_cocycles):
        for dname, d in all_diagrams.items():
            for pname, p in test_pairs.items():
                v = state_sum(d, p, ab_cocycles[pname])
                assert v.coefficient_sum() == count_colorings(d, p), \
                    (dname, pname)

    def test_output_matches_recorded_digest(self, all_diagrams, test_pairs,
                                            ab_cocycles):
        # terms are hashed in their order of first appearance over colorings
        h = hashlib.sha256()
        for dname in sorted(all_diagrams):
            for pname in sorted(test_pairs):
                v = state_sum(all_diagrams[dname], test_pairs[pname],
                              ab_cocycles[pname])
                h.update(repr((dname, pname, list(v.terms.items()))).encode())
        assert h.hexdigest() == \
            "529e9d7e9e0c560c4a0893c387c5d0ba54f75a418350445099fc9dd886d7db87"

    def test_sing_to_pos_replacement_with_ff_cocycle(self):
        # on (X, S, S) with the abelian pair (f, f), the singular state sum
        # equals the classical state sum of the Pos-replaced diagram
        p = builtin_pair("d3-ss")
        u = universal_ab_cocycle(p)
        ff = CocyclePair(u.target, u.f, u.f, AB)
        assert check_ab_cocycle(p, ff).ok
        for name in ("sing_trefoil", "sing_hopf", "four_sing_left"):
            d = builtin_diagram(name)
            assert state_sum(d, p, ff) == state_sum(replace_sing_by_pos(d), p, ff), name

    def test_render_identity_coefficient(self):
        p = builtin_pair("flip-s2")
        c = builtin_cocycle("flip-s2", AB)
        g = c.target
        assert render_laurent(g, GroupRingElement([(g.identity(), 3)])) == "3"

    def test_render_torsion(self):
        p = builtin_pair("flip-s2")
        g = builtin_cocycle("flip-s2", AB).target
        v = GroupRingElement([(elem(g, u1=1), 2), (g.identity(), 2)])
        assert render_laurent(g, v) == "2*u1 + 2"


def nc_multiset_unordered(value):
    """Multiset over colorings of component values up to component
    permutation: moves rename edges, so component indices (assigned by
    smallest edge token) are a presentation artifact, not invariant data."""
    return Counter(tuple(sorted(map(repr, t))) for t in value.per_coloring)


class TestReidemeisterInvariance:
    def test_all_builtin_sites(self, all_diagrams, test_pairs, nc_cocycles,
                               ab_cocycles):
        for dname, d in all_diagrams.items():
            for move in MOVES:
                for site in find_move_sites(d, move):
                    d2 = apply_move(d, site)
                    for pname, p in test_pairs.items():
                        v1 = nc_multiset_unordered(nc_invariant(d, p, nc_cocycles[pname]))
                        v2 = nc_multiset_unordered(nc_invariant(d2, p, nc_cocycles[pname]))
                        assert v1 == v2, (dname, move, site, pname, "nc")
                        s1 = state_sum(d, p, ab_cocycles[pname])
                        s2 = state_sum(d2, p, ab_cocycles[pname])
                        assert s1 == s2, (dname, move, site, pname, "ab")


class TestCompareNotions:
    def test_symmetric_h_satisfies_both(self):
        p = builtin_pair("flip-flip")
        tgt = FiniteGroup.cyclic(6)
        e = 0
        f = ((e, e), (e, e))
        h = ((1, 5), (5, 3))
        nc = CocyclePair(tgt, f, h, NC)
        ab = CocyclePair(tgt, f, h, AB)
        assert check_nc_cocycle(p, nc).ok
        assert check_ab_cocycle(p, ab).ok


# ---------------------------------------------------------------------------
# the batched evaluation against one coloring at a time
# ---------------------------------------------------------------------------

def nc_oracle(d, p, c):
    """nc_invariant one coloring at a time: each component's product from
    its basepoint in the target's own mul and inv, then its class
    representative."""
    t = c.target
    conj = t.conjugacy_class_rep if isinstance(t, FiniteGroup) else (lambda a: a)
    sinv = p.biquandle.table.inverse()
    consumer = {}
    for cr in d.crossings:
        consumer[cr.in1] = (cr, 0)
        consumer[cr.in2] = (cr, 1)
    walks = []
    for base in d.basepoints:
        walk, edge = [], base
        while edge in consumer:
            cr, slot = consumer[edge]
            walk.append((cr, slot))
            edge = cr.out2 if slot == 0 else cr.out1
            if edge == base:
                break
        walks.append(walk)
    values = []
    for col in enumerate_colorings(d, p):
        comp_vals = []
        for walk in walks:
            val = t.identity()
            for cr, slot in walk:
                x, y = col[cr.in1], col[cr.in2]
                if cr.kind == "s":
                    val = t.mul(val, c.h[x][y])
                elif cr.kind == "+" and slot == 0:
                    val = t.mul(val, c.f[x][y])
                elif cr.kind == "-" and slot == 1:
                    a, b = sinv.apply(x, y)
                    val = t.mul(val, t.inv(c.f[a][b]))
            comp_vals.append(conj(val))
        values.append(tuple(comp_vals))
    return tuple(values)


def state_sum_oracle(d, p, c):
    """state_sum's terms one coloring at a time, in order of first
    appearance over the sorted colorings."""
    t = c.target
    sinv = p.biquandle.table.inverse()
    tally = {}
    for col in enumerate_colorings(d, p):
        val = t.identity()
        for cr in d.crossings:
            x, y = col[cr.in1], col[cr.in2]
            if cr.kind == "s":
                w = c.h[x][y]
            elif cr.kind == "+":
                w = c.f[x][y]
            else:
                a, b = sinv.apply(x, y)
                w = t.inv(c.f[a][b])
            val = t.mul(val, w)
        tally[val] = tally.get(val, 0) + 1
    return list(tally.items())


def assert_matches_oracles(d, p, nc=None, ab=None, label=None):
    # repr: the batched values must be Python ints in tuples, as the
    # oracle's are, not numpy scalars
    if nc is not None:
        assert repr(nc_invariant(d, p, nc).per_coloring) == \
            repr(nc_oracle(d, p, nc)), (label, "nc")
    if ab is not None:
        assert repr(list(state_sum(d, p, ab).terms.items())) == \
            repr(state_sum_oracle(d, p, ab)), (label, "ab")


def flip_flip_finite_cocycles():
    """(flip, flip) cocycles into finite groups: h symmetric into S3 with
    non-commuting values, and into Z/6 (both kinds)."""
    s3 = FiniteGroup.symmetric(3)
    e = s3.identity()
    g = s3.mul(1, 4)
    z6 = FiniteGroup.cyclic(6)
    return (CocyclePair(s3, ((e, e), (e, e)), ((1, g), (g, 4)), NC),
            CocyclePair(z6, ((0, 0), (0, 0)), ((1, 5), (5, 3)), NC),
            CocyclePair(z6, ((0, 0), (0, 0)), ((1, 5), (5, 3)), AB))


def scaled(c: CocyclePair, k: int) -> CocyclePair:
    """k times an abelianized cocycle: multiplication by k is an
    endomorphism of the target, so the result is a cocycle too."""
    g = c.target

    def times(a):
        return (tuple(k * v for v in a[0]),
                tuple(k * v % m for v, m in zip(a[1], g.torsion)))
    return CocyclePair(g, [[times(a) for a in row] for row in c.f],
                       [[times(a) for a in row] for row in c.h], c.kind)


class TestBatchedEvaluation:
    def test_builtin_cocycles(self, all_diagrams, test_pairs, nc_cocycles,
                              ab_cocycles):
        for dname, d in dict(all_diagrams, **EDGE_CASES).items():
            for pname, p in test_pairs.items():
                assert_matches_oracles(d, p, nc_cocycles[pname], ab_cocycles[pname],
                                       (dname, pname))

    def test_random_closures(self, test_pairs):
        prs = dict(test_pairs, **FAR_PAIRS)
        cocycles = {name: (universal_nc_cocycle(p), universal_ab_cocycle(p))
                    for name, p in prs.items()}
        rng = Random("batched invariants")
        for _ in range(12):
            strands = rng.randint(2, 4)
            word = random_word(rng, strands, rng.randint(strands - 1, 9))
            d = shuffled_closure(word, strands, rng)
            for name, p in prs.items():
                assert_matches_oracles(d, p, *cocycles[name], (word, name))

    def test_finite_targets(self, all_diagrams):
        p = builtin_pair("flip-flip")
        s3, z6_nc, z6_ab = flip_flip_finite_cocycles()
        assert not s3.target.is_abelian()
        for dname, d in all_diagrams.items():
            assert_matches_oracles(d, p, s3, z6_ab, dname)
            assert_matches_oracles(d, p, z6_nc, None, dname)
        # the class representatives are not the products themselves
        values = {v for t in nc_invariant(builtin_diagram("four_sing_left"), p,
                                          s3).per_coloring for v in t}
        assert any(s3.target.conjugacy_class_rep(v) != v for v in range(6))
        assert all(s3.target.conjugacy_class_rep(v) == v for v in values)

    @pytest.mark.parametrize("k", [2 ** 40 + 1, 2 ** 70 + 1])
    def test_large_coordinates_stay_exact(self, k, all_diagrams):
        # 2^40: int64 sums; 2^70: Python ints, with values past 2^63
        p = builtin_pair("flip-i2")
        nc, ab = (scaled(builtin_cocycle("flip-i2", kind), k) for kind in (NC, AB))
        assert check_nc_cocycle(p, nc).ok and check_ab_cocycle(p, ab).ok
        assert ab.target.torsion == (2, 2)
        biggest = 0
        for dname, d in all_diagrams.items():
            assert_matches_oracles(d, p, nc, ab, dname)
            for elem in state_sum(d, p, ab).terms:
                biggest = max([biggest, *map(abs, elem[0])])
        assert biggest >= 2 * k


    def test_one_table_for_int64_and_python_int_sums(self):
        # the table of a cocycle with coordinates near 2^57 serves a query
        # whose sums fit int64 and one whose sums pass 2^63
        p = builtin_pair("flip-i2")
        k = 2 ** 57 + 1
        nc, ab = (scaled(builtin_cocycle("flip-i2", kind), k) for kind in (NC, AB))
        small = builtin_diagram("four_sing_left")
        big = ladder("s" * 140)
        for d, fits in ((small, True), (big, False)):
            passages = 2 * len(d.crossings)
            assert ((passages + 1) * k < 2 ** 62) == fits
            assert_matches_oracles(d, p, nc, ab, len(d.crossings))
        biggest = max(abs(v) for elem in state_sum(big, p, ab).terms for v in elem[0])
        assert biggest >= 2 ** 63

    def test_gathers_in_row_blocks(self):
        p = builtin_pair("flip-flip")
        word = [(i, kind) for i in range(0, 12, 2) for kind in "+s"]
        d = shuffled_closure(word, 12, Random("row blocks"))
        nc, ab = builtin_cocycle("flip-flip", NC), builtin_cocycle("flip-flip", AB)
        assert count_colorings(d, p) == 4096 and len(d.basepoints) == 12
        # at least one weight per coloring, component and coordinate
        assert 4096 * 12 * nc.target.rank > 2 * invariant._CELLS
        assert_matches_oracles(d, p, nc, ab)

    @pytest.mark.parametrize("cells", [1, 40, 700])
    def test_results_do_not_depend_on_the_block_size(self, cells, monkeypatch):
        # blocks of one coloring (cells = 1) up to a few: every query and
        # check below takes several blocks, and must give what one takes
        def results():
            out = []
            for d, p, nc, ab in block_size_queries():
                assert count_colorings(d, p) >= 2
                out.append((repr(nc_invariant(d, p, nc).per_coloring),
                            repr(list(state_sum(d, p, ab).terms.items())),
                            invariant._checked(nc, p)[0],
                            invariant._checked(ab, p)[0]))
            return out
        want = results()
        monkeypatch.setattr(invariant, "_CELLS", cells)
        assert results() == want


def block_size_queries():
    """(diagram, pair, nc cocycle, ab cocycle), each cocycle pair fresh, so
    that its check runs again: universal ones, one scaled past int64, and
    finite targets, on builtins and closures with 2 to 32 colorings."""
    rng = Random("block size")
    words = {3: "0s 1+ 0s 1+ 1s 0- 1s", 4: "0s 0s 1+ 2s 1+ 2s 0+",
             6: "0+ 0+ 1s 1s 2+ 3s 3s 4+ 4-"}
    closures = [shuffled_closure([(int(a), b) for a, b in w.split()], k, rng)
                for k, w in words.items()]
    ff, fi = builtin_pair("flip-flip"), builtin_pair("flip-i2")
    s3, _, z6 = flip_flip_finite_cocycles()

    def fresh(c):
        return CocyclePair(c.target, c.f, c.h, c.kind)
    out = []
    for d in [builtin_diagram("four_sing_left"), *closures]:
        out += [(d, ff, universal_nc_cocycle(ff), universal_ab_cocycle(ff)),
                (d, ff, fresh(s3), fresh(z6)),
                (d, fi, *(scaled(builtin_cocycle(name, kind), 2 ** 70 + 1)
                          for name, kind in (("flip-i2", NC), ("flip-s2", AB))))]
    d3 = builtin_pair("d3-ss")
    return out + [(builtin_diagram("sing_trefoil"), d3, universal_nc_cocycle(d3),
                   universal_ab_cocycle(d3))]


def tally_oracle(t, vals):
    """`_tally` by one Counter per run over the values as tuples."""
    values, which, counts = [], [], []
    for run in vals.tolist():
        keys = [v if isinstance(v, int) else tuple(v) for v in run]
        count = Counter(keys)
        rank = {v: len(values) + i for i, v in enumerate(count)}
        which.append([rank[v] for v in keys])
        values += count
        counts += count.values()
    if isinstance(t, AbelianizedGroup):
        values = [(v[:t.rank], v[t.rank:]) for v in values]
    return values, which, counts


def tally_cases():
    """(label, target, vals): every kind of value `_tally` is given."""
    rng = np.random.default_rng(21)
    z2 = AbelianizedGroup(2, (), ())
    z1_z4 = AbelianizedGroup(1, (4,), ())
    big = 2 ** 62
    ints = np.array([[[-big, 3], [big, -1], [-big, 3], [0, 0]],
                     [[big, -1], [big, -1], [-1, big], [-big, 3]]], np.int64)
    wide = np.empty((2, 3, 2), object)
    wide[...] = [[[2 ** 70, 1], [-2 ** 64, 3], [2 ** 70, 1]],
                 [[2 ** 70, 1], [2 ** 63, 0], [2 ** 63, 0]]]
    return [
        ("int64 near 2^62", AbelianizedGroup(1, (5,), ()), ints),
        ("Python ints past 2^63", z1_z4, wide),
        ("finite ids", FiniteGroup.cyclic(6), rng.integers(0, 6, (3, 40))),
        ("repeated across runs", z2, np.tile(rng.integers(-2, 2, (1, 30, 2)), (4, 1, 1))),
        ("many pairs", z1_z4, np.stack([rng.integers(-3, 3, (3, 400)),
                                        rng.integers(0, 4, (3, 400))], -1)),
        ("no runs", z2, np.zeros((0, 5, 2), np.int64)),
        ("no colorings", z2, np.zeros((3, 0, 2), np.int64)),
        ("no coordinates", AbelianizedGroup(0, (), ()), np.zeros((2, 3, 0), np.int64)),
        ("finite, no colorings", FiniteGroup.cyclic(2), np.zeros((2, 0), np.intp)),
    ]


@pytest.mark.parametrize("path", ["dict", "sort"])
@pytest.mark.parametrize("label,t,vals", tally_cases(),
                         ids=[case[0] for case in tally_cases()])
def test_tally_matches_a_counter_per_run(path, label, t, vals, monkeypatch):
    monkeypatch.setattr(invariant, "_DICT_KEYS", 1 << 30 if path == "dict" else -1)
    # repr: Python ints in tuples and lists, as the oracle has them
    assert repr(invariant._tally(t, vals)) == repr(tally_oracle(t, vals))


def test_tally_sort_never_copies_int64_keys_at_their_width():
    # a multi-run int64 tally of few distinct values, so that the keys, not
    # the tally's lists, set the peak: narrowed before any copy, int64 keys
    # cost what the same values as int8 keys cost, and give the same tally
    rng = np.random.default_rng(30)
    runs, m, width = 8, 4096, 12
    vals = rng.integers(-3, 4, (8, width))[rng.integers(0, 8, runs * m)]
    outs, peaks = [], []
    for flat in (vals, vals.astype(np.int8)):
        tracemalloc.start()
        try:
            outs.append(invariant._tally_sort(flat, flat, runs, m))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert repr(outs[0]) == repr(outs[1])
    assert peaks[0] < peaks[1] + vals.nbytes // 8


@functools.lru_cache(maxsize=None)
def move_cocycles():
    """(pair, nc cocycle, ab cocycle): the universal cocycles of the pairs
    the count test draws moves for, and finite (flip, flip) ones."""
    s3, _, z6_ab = flip_flip_finite_cocycles()
    return tuple((p, universal_nc_cocycle(p), universal_ab_cocycle(p))
                 for p in MOVE_PAIRS) + ((builtin_pair("flip-flip"), s3, z6_ab),)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(moved_closures(MOVES))
def test_moves_keep_both_invariants(case):
    word, strands, chain = case
    for p, nc, ab in move_cocycles():
        count = fixed_point_count(word, strands, p)
        ncs = [nc_multiset_unordered(nc_invariant(d, p, nc)) for d in chain]
        sums = [state_sum(d, p, ab) for d in chain]
        assert sum(ncs[0].values()) == sums[0].coefficient_sum() == count, word
        assert ncs == ncs[:1] * len(chain), word
        assert sums == sums[:1] * len(chain), word


def test_queries_on_moved_diagrams_match_fresh_copies(all_diagrams):
    # each diagram is queried under pairs of two sizes, so its stored cells
    # serve both block offsets; moves rebuild diagrams and set their
    # basepoints after construction
    rng = Random("stored cells")
    queries = list(move_cocycles()) + [(builtin_pair("flip-flip"),
                                        builtin_cocycle("flip-flip", NC),
                                        builtin_cocycle("flip-flip", AB))]
    for start in all_diagrams.values():
        for d in move_chain(rng, last_edge_bases(start), 3):
            fresh = SingularDiagram.from_dict(d.to_dict())
            for p, nc, ab in queries:
                assert nc_invariant(d, p, nc) == nc_invariant(fresh, p, nc), d
                assert state_sum(d, p, ab) == state_sum(fresh, p, ab), d
            for cells in (invariant._nc_cells, invariant._sum_cells):
                assert np.array_equal(d.derived(cells), cells(fresh)), d
