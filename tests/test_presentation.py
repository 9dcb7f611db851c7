import hashlib
import logging
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlink import presentation
from singlink.errors import NotInvolutiveError
from singlink.invariant import (CocyclePair, builtin_cocycle, check_ab_cocycle,
                                check_nc_cocycle)
from singlink.pairs import SingularPair, builtin_pair, enumerate_taus
from singlink.pairtable import (dihedral_switch, flip_switch, i2_switch,
                                make_bialexander)
from singlink.presentation import (AbelianizedGroup, FiniteGroup,
                                   GroupRingElement, Presentation, abelianize,
                                   build_ab_presentation,
                                   build_unc_presentation,
                                   equivalence_classes_involutive, f_gen,
                                   h_gen, relation_families,
                                   relation_instances, relation_words,
                                   smith_normal_form)


def matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def det(M):
    M = [row[:] for row in M]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1]


def assert_snf_postconditions(M):
    r, c = len(M), len(M[0])
    U, D, V = smith_normal_form(M)
    assert matmul(matmul(U, M), V) == D
    for i in range(r):
        for j in range(c):
            if i != j:
                assert D[i][j] == 0
    diag = [D[i][i] for i in range(min(r, c))]
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1


class TestSmithNormalForm:
    def test_diag_2_3(self):
        _, D, _ = smith_normal_form([[2, 0], [0, 3]])
        assert [D[0][0], D[1][1]] == [1, 6]

    def test_zero(self):
        U, D, V = smith_normal_form([[0, 0], [0, 0]])
        assert D == [[0, 0], [0, 0]]
        assert U == [[1, 0], [0, 1]] and V == [[1, 0], [0, 1]]

    def test_identity(self):
        _, D, _ = smith_normal_form([[1, 0], [0, 1]])
        assert D == [[1, 0], [0, 1]]

    def test_random_matrices(self):
        rng = random.Random(20240)
        for _ in range(150):
            r = rng.randint(1, 7)
            c = rng.randint(1, 7)
            M = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            assert_snf_postconditions(M)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
                    min_size=1, max_size=5).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    def test_hypothesis_matrices(self, M):
        assert_snf_postconditions(M)


class TestPresentations:
    def test_relation_instantiation_counts(self):
        p = builtin_pair("flip-i2")
        pres = build_unc_presentation(p)
        # 5 triple families + 2 pair families, minus reduced duplicates
        assert pres.kind == "nc"
        assert all(all(0 <= g < 8 for g, _ in w) for w in pres.relations)
        pres_ab = build_ab_presentation(p)
        assert pres_ab.kind == "ab"

    def test_unc_flip_i2(self):
        g = abelianize(build_unc_presentation(builtin_pair("flip-i2")))
        assert (g.rank, g.torsion) == (3, ())
        n = 2
        for x in range(n):
            for y in range(n):
                assert g.generator(f_gen(n, x, y)) == g.identity()
        assert g.generator(h_gen(n, 0, 1)) == g.generator(h_gen(n, 1, 0))
        basis = [g.generator(h_gen(n, 0, 0))[0],
                 g.generator(h_gen(n, 0, 1))[0],
                 g.generator(h_gen(n, 1, 1))[0]]
        assert abs(det([list(b) for b in basis])) == 1

    def test_unc_flip_flip(self):
        g = abelianize(build_unc_presentation(builtin_pair("flip-flip")))
        assert (g.rank, g.torsion) == (4, ())
        n = 2
        ident = g.identity()
        assert g.generator(f_gen(n, 0, 0)) == ident
        assert g.generator(f_gen(n, 1, 1)) == ident
        b = g.generator(h_gen(n, 0, 1))
        c = g.generator(h_gen(n, 1, 0))
        assert g.generator(f_gen(n, 0, 1)) == g.mul(b, g.inv(c))
        assert g.generator(f_gen(n, 1, 0)) == g.mul(c, g.inv(b))
        basis = [list(g.generator(h_gen(n, x, y))[0])
                 for x in range(n) for y in range(n)]
        assert abs(det(basis)) == 1

    def test_ab_flip_s2(self):
        g = abelianize(build_ab_presentation(builtin_pair("flip-s2")))
        assert (g.rank, tuple(g.torsion)) == (3, (2, 2))
        n = 2
        ident = g.identity()
        assert g.generator(f_gen(n, 0, 0)) == ident
        assert g.generator(f_gen(n, 1, 1)) == ident
        u1 = g.generator(f_gen(n, 0, 1))
        u2 = g.generator(f_gen(n, 1, 0))
        assert u1[0] == (0, 0, 0) and u2[0] == (0, 0, 0)
        assert sorted((u1[1], u2[1])) == [(0, 1), (1, 0)]
        assert g.generator(h_gen(n, 0, 1)) == g.generator(h_gen(n, 1, 0))
        basis = [list(g.generator(h_gen(n, x, y))[0])
                 for (x, y) in ((0, 0), (0, 1), (1, 1))]
        assert abs(det(basis)) == 1

    def test_involutive_pair_i2(self):
        g = abelianize(build_unc_presentation(builtin_pair("i2-ss")))
        assert (g.rank, g.torsion) == (2, ())
        n = 2
        assert g.generator(h_gen(n, 0, 0)) == g.generator(h_gen(n, 1, 1))
        assert g.generator(h_gen(n, 0, 1)) == g.generator(h_gen(n, 1, 0))
        for x in range(2):
            for y in range(2):
                assert g.generator(f_gen(n, x, y)) == g.identity()

    def test_trivial_n1(self):
        p = builtin_pair("trivial-1")
        g = abelianize(build_unc_presentation(p))
        assert (g.rank, g.torsion) == (1, ())
        assert g.generator(0) == g.identity()          # f forced trivial
        assert g.generator(1) != g.identity()          # h free
        g2 = abelianize(build_ab_presentation(p))
        assert (g2.rank, g2.torsion) == (1, ())

    def test_abelianize_invariant_under_row_shuffle_and_signs(self):
        pres = build_unc_presentation(builtin_pair("flip-i2"))
        g = abelianize(pres)
        rng = random.Random(5)
        rels = list(pres.relations)
        rng.shuffle(rels)
        rels = [tuple((gen, -e) for gen, e in w) if rng.random() < 0.5 else w
                for w in rels]
        g2 = abelianize(Presentation(pres.n, pres.kind, tuple(rels)))
        assert (g.rank, g.torsion) == (g2.rank, g2.torsion)
        # kernel agreement on sample words
        words = [((0, 1), (1, 1)), ((4, 1), (5, -1)), ((4, 1), (7, 1)),
                 ((5, 1), (6, -1)), ((1, 2), (2, 2))]
        for w in words:
            assert (g.normal_form(w) == g.identity()) == \
                (g2.normal_form(w) == g2.identity())


class TestNormalForm:
    def test_empty_word(self):
        g = abelianize(build_unc_presentation(builtin_pair("flip-i2")))
        assert g.normal_form(()) == g.identity()

    def test_relation_words_die(self):
        pres = build_unc_presentation(builtin_pair("flip-flip"))
        g = abelianize(pres)
        for w in pres.relations:
            assert g.normal_form(w) == g.identity()

    def test_f12_f21_cancel_in_flip_flip(self):
        n = 2
        g = abelianize(build_unc_presentation(builtin_pair("flip-flip")))
        w = ((f_gen(n, 0, 1), 1), (f_gen(n, 1, 0), 1))
        assert g.normal_form(w) == g.identity()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(-3, 3)),
                    max_size=8))
    def test_homomorphism_property(self, word):
        g = abelianize(build_unc_presentation(builtin_pair("flip-i2")))
        w1 = tuple(word[: len(word) // 2])
        w2 = tuple(word[len(word) // 2:])
        assert g.normal_form(w1 + w2) == g.mul(g.normal_form(w1),
                                               g.normal_form(w2))


class TestUniversality:
    def _check_kills_relations(self, pres, target, images):
        for w in pres.relations:
            val = target.identity()
            for gen, e in w:
                x = images[gen]
                if e < 0:
                    x = target.inv(x)
                for _ in range(abs(e)):
                    val = target.mul(val, x)
            assert val == target.identity()

    def test_concrete_cyclic_cocycle(self):
        # push the universal abelianized pair into Z/4 along a homomorphism
        p = builtin_pair("flip-i2")
        pres = build_unc_presentation(p)
        g = abelianize(pres)
        tgt = FiniteGroup.cyclic(4)
        hom_free = (1, 2, 3)

        def img(gen):
            free, tors = g.generator(gen)
            return sum(e * hv for e, hv in zip(free, hom_free)) % 4

        images = {gen: img(gen) for gen in range(8)}
        self._check_kills_relations(pres, tgt, images)

    def test_symmetric_h_into_s3(self):
        # S = tau = flip, f = 1, h symmetric: a cocycle into any group
        p = builtin_pair("flip-flip")
        pres = build_unc_presentation(p)
        tgt = FiniteGroup.symmetric(3)
        e = tgt.identity()
        g1, g2 = 1, 2          # arbitrary elements
        images = {f_gen(2, x, y): e for x in range(2) for y in range(2)}
        images[h_gen(2, 0, 0)] = g1
        images[h_gen(2, 1, 1)] = g2
        images[h_gen(2, 0, 1)] = images[h_gen(2, 1, 0)] = tgt.mul(g1, g2)
        self._check_kills_relations(pres, tgt, images)

    def test_functoriality_swap_automorphism(self):
        # the transposition is an automorphism of (flip, i2); the induced
        # generator substitution preserves every relation
        p = builtin_pair("flip-i2")
        g = (1, 0)
        q = p.relabel(list(g))
        assert q.key() == p.key()
        pres = build_unc_presentation(p)
        grp = abelianize(pres)
        n = 2

        def mapped(gen):
            base = gen % (n * n)
            x, y = divmod(base, n)
            idx = g[x] * n + g[y]
            return idx if gen < n * n else n * n + idx

        for w in pres.relations:
            image_word = tuple((mapped(gen), e) for gen, e in w)
            assert grp.normal_form(image_word) == grp.identity()


class TestEquivalenceClasses:
    def test_flip_singletons(self):
        assert len(equivalence_classes_involutive(flip_switch(2).table)) == 4

    def test_i2_pairs(self):
        classes = equivalence_classes_involutive(i2_switch().table)
        assert classes == [((0, 0), (1, 1)), ((0, 1), (1, 0))]

    def test_not_involutive(self):
        with pytest.raises(NotInvolutiveError):
            equivalence_classes_involutive(dihedral_switch(3).table)

    def test_class_count_equals_rank(self):
        for bi in (flip_switch(2), flip_switch(3), i2_switch()):
            classes = equivalence_classes_involutive(bi.table)
            g = abelianize(build_unc_presentation(SingularPair(bi, bi.table)))
            assert len(classes) == g.rank
            assert g.torsion == ()


class TestGroupRing:
    def test_zero_coefficients_dropped(self):
        e1 = GroupRingElement([(("x",), 1), (("x",), -1)])
        assert e1.terms == {}

    def test_dict_and_pair_inputs(self):
        # a dict's keys are distinct: only its zero coefficients go
        d = GroupRingElement({("a",): 2, ("b",): 0, ("c",): -1})
        assert list(d.terms.items()) == [(("a",), 2), (("c",), -1)]
        # pairs merge repeated elements at their first place, and drop
        # the ones that cancel or are zero throughout
        e = GroupRingElement([(("a",), 2), (("b",), 0), (("c",), 1), (("a",), 1),
                              (("c",), -1), (("d",), 0), (("b",), 4)])
        assert list(e.terms.items()) == [(("a",), 3), (("b",), 4)]
        assert GroupRingElement([(("x",), 1), (("x",), -1), (("x",), 0)]).terms == {}
        assert GroupRingElement({}).terms == GroupRingElement().terms == {}

    def test_addition(self):
        a = GroupRingElement([(("a",), 2)])
        b = GroupRingElement([(("a",), 1), (("b",), 3)])
        assert (a + b).terms == {("a",): 3, ("b",): 3}

    def test_coefficient_sum(self):
        a = GroupRingElement([(("a",), 2), (("b",), 5)])
        assert a.coefficient_sum() == 7


class TestFiniteGroup:
    def test_cyclic(self):
        g = FiniteGroup.cyclic(5)
        assert g.identity() == 0
        assert g.mul(3, 4) == 2
        assert g.inv(2) == 3
        assert g.is_abelian()

    def test_symmetric_3(self):
        g = FiniteGroup.symmetric(3)
        assert g.order == 6
        assert not g.is_abelian()
        # conjugacy class representative is constant on classes
        for a in range(6):
            ra = g.conjugacy_class_rep(a)
            for c in range(6):
                conj = g.mul(g.mul(c, a), g.inv(c))
                assert g.conjugacy_class_rep(conj) == ra

    @pytest.mark.parametrize("k, classes", [(3, 3), (4, 5)])
    def test_class_reps_and_abelian_flag_built_once(self, k, classes):
        g = FiniteGroup.symmetric(k)
        assert g.class_reps == tuple(map(g.conjugacy_class_rep, range(g.order)))
        assert len(set(g.class_reps)) == classes     # the partitions of k
        assert not g.abelian and FiniteGroup.cyclic(k).abelian

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            FiniteGroup(2, ((0, 1), (1, 1)))


# SHA-256 of repr(Presentation.relations), recorded from the hand-written
# per-family builders that the relation table replaced
RELATION_DIGESTS = {
    "nc flip-flip":
        "9bb9d9bc6d44522df3a69b4d00e3003423f634054b496e27f43e2b12295a7c24",
    "ab flip-flip":
        "1c7b20671d99737f4341c7433bd466bc926fecda66eb94e657fde622b420db3b",
    "nc flip-i2":
        "07d8c64735d7946637fed476c245020ae4fe569cb95fce683b7e4721fd4662e6",
    "ab flip-i2":
        "59b35d3c73093ad598fabdd7e1836997f2e7f1d4285a6bf618c4c8da21db2d8e",
    "nc flip-s2":
        "07d8c64735d7946637fed476c245020ae4fe569cb95fce683b7e4721fd4662e6",
    "ab flip-s2":
        "59b35d3c73093ad598fabdd7e1836997f2e7f1d4285a6bf618c4c8da21db2d8e",
    "nc flip-flip-3":
        "37f1bbc5efa32a692d9f969ad6043159a09fd5ea00a22ed52e52f955b6a93354",
    "ab flip-flip-3":
        "1ac267ae061250c9cdb2b66e694e953150640a0be70b37b809a492efeefa8d41",
    "nc d3-ss":
        "6ab9978ba52feec6721479e2fa5fc1ad7c2a92fb84cb3e69fb8f1411e6f75a47",
    "ab d3-ss":
        "ffe3079de79e3832db3607c2b1e2085a4ed2b16589d4f84390f55b0aa8d61e96",
    "nc d3-sinv":
        "63381f6bba9d321c66bdade92f4efdd07abf32e077a16a5b9a1dcd8e42f12a0b",
    "ab d3-sinv":
        "12ecaa10e5c0751243bf1e04a7b32dc1aef5519852ddb1da1df5caf642f130d3",
    "nc i2-ss":
        "877838235c548eafe6b4205f757c98e22dd57a1d2814dfb303c3026e94428b50",
    "ab i2-ss":
        "7e770b65c0a0f71f552fd6f5fcb01f1a96ccae8809426ddf478b91b032f7963b",
    "nc trivial-1":
        "17c55ca98069009fedee6b52c3a39426f0d09030248906d2831d00cf3d093dae",
    "ab trivial-1":
        "f2c78235f0e06bb0168c38d7c3996bef4a99098d84f9b5006e9065de13603396",
    "nc D3 tau=S":
        "6ab9978ba52feec6721479e2fa5fc1ad7c2a92fb84cb3e69fb8f1411e6f75a47",
    "ab D3 tau=S":
        "ffe3079de79e3832db3607c2b1e2085a4ed2b16589d4f84390f55b0aa8d61e96",
    "nc D3 tau=S^-1":
        "63381f6bba9d321c66bdade92f4efdd07abf32e077a16a5b9a1dcd8e42f12a0b",
    "ab D3 tau=S^-1":
        "12ecaa10e5c0751243bf1e04a7b32dc1aef5519852ddb1da1df5caf642f130d3",
    "nc D4 tau=S":
        "66c71b0268d09fbf2910915ba0baf936ff12dccb40c1aa13325d5e3a13a5fb77",
    "ab D4 tau=S":
        "c3f21046d7c0447ed6176a26e712d567ac6b8ca326ffc0871b41e49ae1ca8b4a",
    "nc D4 tau=S^-1":
        "8ff993cd4d04e169bfece833930161d240ae4ec22bd8bc68fc055bf4f4e1345a",
    "ab D4 tau=S^-1":
        "6b39f9760638eda416685786bc26c2201a5bd600b725f04e43abde0968c349a0",
    "nc D5 tau=S":
        "fd7de7f5cb4c2691b164fff8e112ba852e3c6a252a8380fedf68897dae900702",
    "ab D5 tau=S":
        "877936cd15a5e8cf2c5def79e0723a08e7834e71c1ec6efaf6d37f7f965ce3be",
    "nc D5 tau=S^-1":
        "332d34f52291ff2188d5b168e44a49a0ac3b92d7e1e0f1c6314f9f52d0a27a63",
    "ab D5 tau=S^-1":
        "cfbdb0099db1ffde80821a228a23632b9f1524eb857761cbe8f65d4d6cb65bbc",
}


def _digest_pairs():
    out = {name: builtin_pair(name) for name in (
        "flip-flip", "flip-i2", "flip-s2", "flip-flip-3", "d3-ss", "d3-sinv",
        "i2-ss", "trivial-1")}
    for n in (3, 4, 5):
        S = dihedral_switch(n)
        out[f"D{n} tau=S"] = SingularPair(S, S.table)
        out[f"D{n} tau=S^-1"] = SingularPair(S, S.table.inverse())
    return out


def test_relations_match_recorded_digests():
    got = {}
    for name, p in _digest_pairs().items():
        for kind, build in (("nc", build_unc_presentation),
                            ("ab", build_ab_presentation)):
            rels = repr(build(p).relations).encode()
            got[f"{kind} {name}"] = hashlib.sha256(rels).hexdigest()
    assert got == RELATION_DIGESTS


# SHA-256 of repr((rank, torsion, coord_map)) of `abelianize`, recorded from
# the list-based Smith normal form that the numpy one replaced (D7 and D8
# from the numpy one before it had a unit step): the coordinates are in
# the SNF basis, so these pin its pivot sequence
ABELIANIZE_DIGESTS = {
    "nc flip-flip":
        "4159fdf30789e68a1b564884105e1be0a480031bc649a8aca83262479a91b34b",
    "ab flip-flip":
        "febc3e1dcd78aefd6e23096805e37f5ee0138a557d8e050b3fb246c32dcec47d",
    "nc flip-i2":
        "7eb267f06461cc8204984d5cb43c035457e5e5125bf377f4f73a8929f3ad1f5b",
    "ab flip-i2":
        "e7b4b3e25e77d1c982da7e9c536eb09cd3a4f58cdf21abe0bdfb657bab4f0396",
    "nc flip-s2":
        "7eb267f06461cc8204984d5cb43c035457e5e5125bf377f4f73a8929f3ad1f5b",
    "ab flip-s2":
        "e7b4b3e25e77d1c982da7e9c536eb09cd3a4f58cdf21abe0bdfb657bab4f0396",
    "nc flip-flip-3":
        "75dfa31672197e66f4bb3e4104dcc8eef5db1b6effde5efc7507d80a07762b7e",
    "ab flip-flip-3":
        "5dbe0452021a8bd1092da49a27d94d958185190b35d34234702d0c7ede8bc382",
    "nc d3-ss":
        "4845127bf8f5107380831c2dc701ff07569923786ddabd6249e874fe541b0bb8",
    "ab d3-ss":
        "083d447470db2221470c4bf9b60c97bc026947f4c4c47968371e1bff6250ae06",
    "nc d3-sinv":
        "4845127bf8f5107380831c2dc701ff07569923786ddabd6249e874fe541b0bb8",
    "ab d3-sinv":
        "bf1c465ffd777a8c22b34be77ffac0e5adaeb0a818eaf64aef3da5abeb984262",
    "nc i2-ss":
        "29e5ad6e63fe72719ebab2422995c9447fa3c2abb34ac41e5046269f3b9d3f83",
    "ab i2-ss":
        "a38b10d32255b1e0584c86fa2cb49e108331c168d4a583a8bde7c0c2dafd78ed",
    "nc trivial-1":
        "2cce65eea8ae34ad54cde0d72a6961afee50b74a4645e322ef7540e9e3486735",
    "ab trivial-1":
        "2cce65eea8ae34ad54cde0d72a6961afee50b74a4645e322ef7540e9e3486735",
    "nc D3 tau=S":
        "4845127bf8f5107380831c2dc701ff07569923786ddabd6249e874fe541b0bb8",
    "ab D3 tau=S":
        "083d447470db2221470c4bf9b60c97bc026947f4c4c47968371e1bff6250ae06",
    "nc D3 tau=S^-1":
        "4845127bf8f5107380831c2dc701ff07569923786ddabd6249e874fe541b0bb8",
    "ab D3 tau=S^-1":
        "bf1c465ffd777a8c22b34be77ffac0e5adaeb0a818eaf64aef3da5abeb984262",
    "nc D4 tau=S":
        "35207e1ab6f5ce45846f1864757c07fec2ffc6175ec3a567097040dce68b3788",
    "ab D4 tau=S":
        "6cbcb767c28649cc2de11e443219445571e09eae81f84231556707b0b98596b9",
    "nc D4 tau=S^-1":
        "35207e1ab6f5ce45846f1864757c07fec2ffc6175ec3a567097040dce68b3788",
    "ab D4 tau=S^-1":
        "d405cdcf85db39aefa8fbffaf25478ba0318ba75980a9c2a84f5729a483c8609",
    "nc D5 tau=S":
        "98a6ef2be24f8a9ee06aafa8807b6c4b1e5cc9d2c8db6f4feeadfa111dc034a2",
    "ab D5 tau=S":
        "63531f1c96496823377105744519ece15bdbc002e3ae10a11af58c9b117aef28",
    "nc D5 tau=S^-1":
        "98a6ef2be24f8a9ee06aafa8807b6c4b1e5cc9d2c8db6f4feeadfa111dc034a2",
    "ab D5 tau=S^-1":
        "c066c0dc66aeeda3128d098cfaa5f750bdf191a368d4f39d882ada1e43b41e59",
    "nc D6 tau=S":
        "c7c4148942f47e27993ad33db4d882eaac4f886c50fd83c5a1b5ad0e2fe8fa1b",
    "ab D6 tau=S":
        "0e966f894ecd84618a0dea320da2bc8e7cc8340935a0f7ad8ee7f67607873b15",
    "nc D6 tau=S^-1":
        "7756e60ecdfd2beac31eb613a07b2cbdd61cb6c9f3f9cd550165d164bc9cb755",
    "ab D6 tau=S^-1":
        "03bf5b2335a0de8efcc9cb89d56faa8d104deddd129fd3109eece3fe7f7890de",
    "nc flip4 tau=S":
        "a53d6d19d3471de2b982d9767ec5228ff0870db5b45e14283c32219f50368016",
    "ab flip4 tau=S":
        "e75d9c0fb0942a4d61ea0efd0e09982394667b81f880527c10ab8920ef622605",
    "nc flip5 tau=S":
        "7cd71a192f7c739f7885130b59b87b9f7f5c53277ae27571f05cf4e2cf2f4d4d",
    "ab flip5 tau=S":
        "ab5ccf0f3d0a060a7dd65ebcaa56314968b9a6c44221049e0c4ba1c3e2acbd64",
    "nc D7 tau=S":
        "3cc9664432c6dddaa7e245d3b4a8665a32d07cc3a912bd1ec789d644c76fd718",
    "ab D7 tau=S":
        "0a4026f96e6ef64ee511bb6c01fe5ffaf5c233f04feb53991db634f61ea911c0",
    "nc D8 tau=S":
        "27e90d760ef21121683102f44d155ee2219a7b59db37502fbff0d07fa2a8a0c6",
    "ab D8 tau=S":
        "11ea59452eeea8516e6e3897f5d364f29a5e56bb9e888dab006024c37d7ec838",
}


# SHA-256 of repr(smith_normal_form(M)) on the D4 tau=S^-1 nc relation matrix
SNF_DIGEST_D4 = (
    "ffb1ab8b1d1f9d09616b1bcddda4f283fd107e22ae0c77b28b8c45df81371fc7")


def _abelianize_pairs():
    out = _digest_pairs()
    S = dihedral_switch(6)
    out["D6 tau=S"] = SingularPair(S, S.table)
    out["D6 tau=S^-1"] = SingularPair(S, S.table.inverse())
    for n in (7, 8):
        S = dihedral_switch(n)
        out[f"D{n} tau=S"] = SingularPair(S, S.table)
    for n in (4, 5):
        F = flip_switch(n)
        out[f"flip{n} tau=S"] = SingularPair(F, F.table)
    return out


def test_abelianize_matches_recorded_digests():
    got = {}
    for name, p in _abelianize_pairs().items():
        for kind, build in (("nc", build_unc_presentation),
                            ("ab", build_ab_presentation)):
            g = abelianize(build(p))
            text = repr((g.rank, g.torsion, g.coord_map)).encode()
            got[f"{kind} {name}"] = hashlib.sha256(text).hexdigest()
    assert got == ABELIANIZE_DIGESTS


def test_smith_normal_form_matches_recorded_digest():
    S = dihedral_switch(4)
    M = build_unc_presentation(
        SingularPair(S, S.table.inverse())).exponent_matrix()
    text = repr(smith_normal_form(M)).encode()
    assert hashlib.sha256(text).hexdigest() == SNF_DIGEST_D4


# Exact diagonals and SHA-256 of repr((U, D, V)), recorded from the list-based
# Smith normal form on Python ints
OVERFLOW_CASES = {
    # an input entry of 2^70
    "input 2^70": (
        [[3, 2**70, 5], [7, 11, 2**70 + 1], [2, 4, 6]],
        [1, 1, 2787593149816327892630574019803739800469720],
        "19b4de03a90c6bd9dac7252d2325d12adec27caa4793509fb56fe1fa5dfc6ef0"),
    # entries near 2^40: beyond int64's exact range from the start
    "entries near 2^40": (
        [
            [-1099511512724, -1099511195948, 1099511594864,
             1099511390185, 1099510737405, 1099511188993],
            [1099511222913, 1099511045758, 1099511267380,
             1099511153312, 1099510649273, -1099511056931],
            [-1099511483917, 1099511601090, 1099510800405,
             -1099510654421, 1099511270558, 1099510625028],
            [-1099510601515, 1099511497156, 1099511355879,
             1099511352831, -1099511308599, -1099510735561],
            [1099510724620, -1099511051975, 1099511534819,
             -1099510667720, -1099511029205, 1099511294191],
            [-1099511197301, -1099510833619, -1099510860228,
             1099510853707, 1099511223811, 1099511613989],
        ],
        [1, 1, 1, 1, 1,
         56539026198373991770246598707678093082624307179229557598710156222545062148],
        "155f9f15539b1aa79d90d6e13c1c684577356bfedea1276c414531787f23ae4b"),
    # entries near 2^29 fit int64, but elimination passes 2^63
    "entries near 2^29": (
        [
            [-535981962, 536427568, -536543366,
             536693689, 535890166, 536754946],
            [536555430, -536866486, 536702336,
             536760198, -536282550, 536678100],
            [-536708237, 536405921, -536683750,
             -536123654, -536450027, 536655506],
            [536592488, 536376159, 536536785,
             536656709, -536692839, -536800841],
            [-536148852, -536252709, 535854244,
             -536658103, -536107340, -536138532],
            [535842230, -535905089, 536075078,
             535945085, 535839870, -536187993],
        ],
        [1, 1, 1, 1, 1, 482782805522190705109843022781612038962493314404152],
        "8fd320f12985f63cb5710046a4c3a7d3034bcc2b2d76bb08c2b3ea141e9c7a05"),
}


@pytest.mark.parametrize("case", OVERFLOW_CASES)
def test_smith_normal_form_is_exact_beyond_int64(case):
    M, diagonal, digest = OVERFLOW_CASES[case]
    assert_snf_postconditions(M)
    U, D, V = smith_normal_form(M)
    assert [D[i][i] for i in range(len(D))] == diagonal
    assert hashlib.sha256(repr((U, D, V)).encode()).hexdigest() == digest


def smith_by_full_scan(M, steps=None):
    """Oracle: the elimination of `smith_normal_form` on lists of Python
    ints, each pivot found by scanning the whole remaining block for the
    first nonzero entry of least absolute value in row-major order.  A
    list passed as steps gets, per pivot of the main loop, the absolute
    value of the first entry it picked and the largest |entry| after it."""
    r, c = len(M), len(M[0])
    W = [[*row, *(int(i == k) for k in range(r))] for i, row in enumerate(M)]
    W += [[int(i == j) for j in range(c)] + [0] * r for i in range(c)]

    def pivot(k, R, C):
        nonzero = [(abs(W[i][j]), i, j) for i in range(k, R) for j in range(k, C)
                   if W[i][j]]
        return min(nonzero)[1:] if nonzero else None

    def reduce_at(k, R, C):
        piv = pivot(k, R, C)
        if piv is None:
            return False
        while True:
            i, j = piv
            W[k], W[i] = W[i], W[k]
            for row in W:
                row[k], row[j] = row[j], row[k]
            rows = [i for i in range(k + 1, R) if W[i][k]]
            for i in rows:
                q = W[i][k] // W[k][k]
                W[i] = [a - q * b for a, b in zip(W[i], W[k])]
            cols = [j for j in range(k + 1, C) if W[k][j]]
            for j in cols:
                q = W[k][j] // W[k][k]
                for row in W:
                    row[j] -= q * row[k]
            if not any([W[i][k] for i in rows] + [W[k][j] for j in cols]):
                return True
            piv = pivot(k, R, C)

    def make_positive(j):
        if W[j][j] < 0:
            W[j] = [-a for a in W[j]]

    k = 0
    while k < min(r, c) and (piv := pivot(k, r, c)) is not None:
        first = abs(W[piv[0]][piv[1]])
        reduce_at(k, r, c)
        make_positive(k)
        if steps is not None:
            steps.append((first, max(abs(x) for row in W for x in row)))
        k += 1
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            if W[i + 1][i + 1] % W[i][i]:
                for row in W:
                    row[i] += row[i + 1]
                reduce_at(i, i + 2, i + 2)
                make_positive(i)
                make_positive(i + 1)
                changed = True
    return ([row[c:] for row in W[:r]], [row[:c] for row in W[:r]],
            [row[:c] for row in W[r:]])


def snf_differential_matrices():
    """Random matrices, some taller than 64 rows: with units, unit-free
    (every entry even, or each row a multiple of its own 2 to 6, so that
    rows differ in their least entry), sparse, and with
    entries from 2^29 to past 2^30, where the elimination moves to Python
    ints."""
    rng = random.Random("snf full scan")
    out = []
    for t in range(120):
        r, c = rng.randint(1, 80 if t % 4 == 0 else 8), rng.randint(1, 9)
        kind = t % 5
        M = []
        for _ in range(r):
            scale = (1, 2, rng.randint(2, 6), 1, rng.choice((1 << 29, 1 << 31)))[kind]
            zero = 0.7 if kind == 3 else 0.2
            M.append([0 if rng.random() < zero else scale * rng.randint(-4, 4)
                      + (rng.randint(-1, 1) if kind == 4 else 0) for _ in range(c)])
        out.append(M)
    return out


def test_smith_normal_form_matches_the_full_scan_oracle():
    mats = snf_differential_matrices()
    unit_free = big = tall = 0
    for M in mats:
        assert smith_normal_form(M) == smith_by_full_scan(M), M
        entries = [abs(x) for row in M for x in row]
        unit_free += 1 not in entries
        big += max(entries) > 1 << 30
        tall += 1 not in entries and len(M) > 64
    assert unit_free and big and tall, (unit_free, big, tall)


def unit_step_matrices():
    """Relation-shaped matrices for the unit steps: tall, 8 or 18 columns
    (the 2n^2 generators at n = 2, 3), 2 to 4 nonzeros a row, mostly +-1
    of either sign, with zero rows and repeated or negated rows.  In some,
    the last columns hold no unit but +-2, 3, 4 or 6, so the units can run
    out before the block does and come back after a larger pivot; in
    others some rows have all entries but one of about +-2^29, which the
    unit steps push past 2^30 and then past 2^63."""
    rng = random.Random("snf unit steps")
    out = []
    for t in range(48):
        c, kind = rng.choice((8, 18)), t % 3
        r = rng.randint(70, 120) if t % 4 == 0 else rng.randint(2 * c, 40)
        split = rng.randint(2, c - 3) if kind == 1 else c
        M = []
        for _ in range(r):
            if M and rng.random() < 0.08:
                M.append([rng.choice((1, -1)) * x for x in rng.choice(M)])
                continue
            row = [0] * c
            if rng.random() > 0.05:
                for j in rng.sample(range(c), rng.randint(2, 4)):
                    row[j] = rng.choice((1, -1)) * (
                        rng.choice((2, 3, 4, 6)) if j >= split
                        else rng.choice((1, 1, 1, 2, 3)))
            if kind == 2 and rng.random() < 0.3:
                # a unit pivot row with a big entry multiplies it into others
                keep = rng.choice([j for j, x in enumerate(row) if x] or [0])
                row = [rng.choice((1, -1)) * ((1 << 29) + rng.randint(0, 3))
                       if x and j != keep else x for j, x in enumerate(row)]
            M.append(row)
        out.append(M)
    # a chain of unit pivots carrying entries 2^27: small enough for an
    # int64 exponent matrix, but the unit steps make 2^54, then 2^81
    a = 1 << 27
    out.append([[1, a, 0, 0, 0, 0, 0, 0], [0, -1, a, 0, 0, 0, 0, 0],
                [0, 0, 1, a, 0, 0, 0, 0], [a, 0, 0, -1, 0, 1, 0, 0],
                [0, 0, 0, 0, 2, 0, 0, 3]])
    # units on the diagonal, -2^20 below it: the block keeps its entries,
    # while the row sweeps on U make them up to 2^140
    out.append([[-(1 << 20) if j == i - 1 else int(i == j) for j in range(8)]
                for i in range(8)])
    return out


def group_from_oracle(M):
    """(rank, torsion, coord_map) read off the oracle's D and V as
    `abelianize` reads them: the free coordinates are the columns past the
    last pivot, the torsion ones the columns with d_i > 1, mod d_i."""
    _, D, V = smith_by_full_scan(M)
    diag = [D[i][i] for i in range(min(len(D), len(M[0])))]
    r0 = sum(map(bool, diag))
    tors = [i for i in range(r0) if diag[i] > 1]
    return (len(M[0]) - r0, tuple(diag[i] for i in tors),
            tuple((tuple(row[r0:]), tuple(row[i] % diag[i] for i in tors))
                  for row in V))


def test_unit_steps_match_the_full_scan_oracle():
    seen = Counter()
    for M in unit_step_matrices():
        steps = []
        assert smith_normal_form(M) == smith_by_full_scan(M, steps), M
        words = tuple(tuple((g, e) for g, e in enumerate(row) if e) for row in M)
        g = abelianize(Presentation({8: 2, 18: 3}[len(M[0])], "ab", words))
        assert (g.rank, g.torsion, g.coord_map) == group_from_oracle(M)
        units = [p == 1 for p, _ in steps]
        first_big = next((t for t, (_, m) in enumerate(steps) if m > 1 << 30), None)
        seen.update({
            "tall": len(M) > 64,
            "zero row": [0] * len(M[0]) in M,
            "repeated row": len(set(map(tuple, M))) < len(M),
            "units run out": True in units and False in units[units.index(True):],
            "units come back": False in units and True in units[units.index(False):],
            "widened by unit steps": (first_big is not None and all(units[:first_big + 1])
                                      and max(abs(x) for row in M for x in row) <= 1 << 30),
        })
    assert all(seen.values()), seen


def test_smith_reduce_reports_its_pivots(caplog, capsys):
    # one unit pivot, then the 2 x 2 block [[0, 2], [2, 0]] has none
    M = [[1, 2, 0], [0, 0, 2], [0, 2, 0]]
    with caplog.at_level(logging.DEBUG, logger="singlink.presentation"):
        assert smith_normal_form(M)[1] == [[1, 0, 0], [0, 2, 0], [0, 0, 2]]
        abelianize(Presentation(1, "ab", ()))
    assert caplog.messages == [
        "smith normal form: 1 unit pivots, then 2 general pivots on the 2 x 2 block left",
        "smith normal form: 0 unit pivots, then 0 general pivots on the 0 x 2 block left"]
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# the stacked relation builder against a per-instance oracle
# ---------------------------------------------------------------------------

def free_reduce(letters):
    """Freely reduce (generator, exponent) letters one at a time against
    a stack."""
    out = []
    for g, e in letters:
        if e == 0:
            continue
        if out and out[-1][0] == g and out[-1][1] + e == 0:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def instances_oracle(families, n):
    """(name, point, lhs, rhs) of every instance, each family run at its
    own points: x walks the unary families, y the binary ones and z the
    ternary ones, each in table order."""
    by_arity = {1: [], 2: [], 3: []}
    for name, rel in families:
        k = rel.__code__.co_argcount
        lhs, rhs = ([[int(g[i]) for g in side] for i in range(n ** k)]
                    for side in rel(*np.indices((n,) * k).reshape(k, -1)))
        by_arity[k].append((name, lhs, rhs))
    for x in range(n):
        for name, lhs, rhs in by_arity[1]:
            yield name, (x,), lhs[x], rhs[x]
        for y in range(n):
            i = x * n + y
            for name, lhs, rhs in by_arity[2]:
                yield name, (x, y), lhs[i], rhs[i]
            for z in range(n):
                for name, lhs, rhs in by_arity[3]:
                    yield name, (x, y, z), lhs[i * n + z], rhs[i * n + z]


def presentation_oracle(p, kind):
    """Each relator lhs rhs^-1 freely reduced letter by letter, empty ones
    dropped, repeats kept at their first occurrence."""
    words = {}
    for _, _, lhs, rhs in instances_oracle(relation_families(p, kind), p.n):
        w = free_reduce([(g, 1) for g in lhs] + [(g, -1) for g in reversed(rhs)])
        if w:
            words.setdefault(w, None)
    return tuple(words)


@pytest.mark.parametrize("switch", ["flip3", "D4", "D5", "bialexander(5,2,3)"])
def test_stacked_relations_match_the_per_instance_oracle(switch):
    S = {"flip3": lambda: flip_switch(3), "D4": lambda: dihedral_switch(4),
         "D5": lambda: dihedral_switch(5),
         "bialexander(5,2,3)": lambda: make_bialexander(5, 2, 3)}[switch]()
    classes = enumerate_taus(S, up_to_iso=True)
    assert classes
    for cls in classes:
        p = cls.canonical
        for kind, build in (("nc", build_unc_presentation),
                            ("ab", build_ab_presentation)):
            families = relation_families(p, kind)
            assert (list(relation_instances(families, p.n))
                    == list(instances_oracle(families, p.n))), (p, kind)
            pres = build(p)
            assert pres.relations == presentation_oracle(p, kind), (p, kind)
            assert all(type(v) is int for w in pres.relations
                       for letter in w for v in letter)


def test_free_reduction_strips_the_common_suffix():
    # n = 1, f = f(0,0) is generator 0 and h = h(0,0) generator 1: (c3)
    # h = f h loses its common suffix h and leaves f^-1; (c4) h = h f has
    # none, as a common prefix does not cancel; (f1), (f4) and (h1) cancel
    # entirely and are dropped; (c1) and (c2) give the same word, kept once
    p = builtin_pair("trivial-1")
    want = (((0, -1),), ((1, 1), (0, -1), (1, -1)),
            ((0, 1), (1, 1), (0, -1), (1, -1)))
    assert build_unc_presentation(p).relations == want
    assert presentation_oracle(p, "nc") == want


# ---------------------------------------------------------------------------
# the exponent matrix against a letter-by-letter oracle, and the relation
# instances a pair keeps
# ---------------------------------------------------------------------------

def exponent_matrix_oracle(pres):
    """Each word's exponent sums, added up letter by letter in Python ints."""
    M = [[0] * pres.num_generators for _ in pres.relations]
    for row, word in zip(M, pres.relations):
        for g, e in word:
            row[g] += e
    return M


def test_exponent_matrix_matches_the_letter_by_letter_oracle():
    pairs = _digest_pairs()
    S = dihedral_switch(6)
    pairs["D6 tau=S"] = SingularPair(S, S.table)
    pairs["D6 tau=S^-1"] = SingularPair(S, S.table.inverse())
    for name, p in pairs.items():
        for build in (build_unc_presentation, build_ab_presentation):
            pres = build(p)
            M = pres.exponent_matrix()
            assert M.dtype == np.int64, name
            assert M.tolist() == exponent_matrix_oracle(pres), (name, pres.kind)
            # _build_presentation's letter arrays are the ones its words give
            by_hand = Presentation(pres.n, pres.kind, pres.relations)
            assert all(np.array_equal(a, b) for a, b in zip(pres.letters, by_hand.letters))
            assert by_hand == pres and hash(by_hand) == hash(pres)
            assert repr(by_hand) == repr(pres) and "letters" not in repr(pres)


@pytest.mark.parametrize("words, big", [
    ((), False),
    # a repeated generator, a letter that cancels one before it, an empty word
    ((((0, 1), (1, -1), (0, 2)), (), ((7, -3), (7, 3), (2, 1))), False),
    # every exponent within 2^30, their absolute sum past it
    ((((0, 1 << 29), (3, -(1 << 29))), ((0, 1),)), True),
    # exponents past 2^30, and past int64, that cancel to small sums
    ((((5, 1 << 31),), ((3, 1 << 70), (3, 1 - (1 << 70)), (4, -(1 << 40)))), True),
])
def test_hand_built_exponent_matrix(words, big):
    pres = Presentation(2, "ab", words)
    M = pres.exponent_matrix()
    assert M.dtype == (object if big else np.int64)
    assert M.tolist() == exponent_matrix_oracle(pres)
    assert all(type(v) is int for row in M.tolist() for v in row)


def test_each_pair_builds_its_relation_instances_once(monkeypatch):
    nc, ab = (builtin_cocycle(name, kind) for name, kind in
              (("flip-i2", "nc"), ("flip-s2", "ab")))
    calls, words = [], presentation.family_words

    def counted(families, n):
        calls.append("nc" if families[0][0] == "f1" else "ab")
        return words(families, n)
    monkeypatch.setattr(presentation, "family_words", counted)
    p, q = builtin_pair("flip-i2"), builtin_pair("flip-i2")
    assert p == q and p is not q and calls == []
    for pair in (p, q, p, q):
        build_unc_presentation(pair)
        build_ab_presentation(pair)
        # fresh cocycle pairs, whose stores hold no check yet
        assert check_nc_cocycle(pair, CocyclePair(nc.target, nc.f, nc.h, "nc")).ok
        assert check_ab_cocycle(pair, CocyclePair(ab.target, ab.f, ab.h, "ab")).ok
    # one build per pair object and kind: equal pairs share none
    assert calls == ["nc", "ab", "nc", "ab"]
    for kind in ("nc", "ab"):
        t = p.derived(relation_words, kind)
        assert t is p.derived(relation_words, kind)
        assert t is not q.derived(relation_words, kind)
        for a in (t.family, t.point, t.lhs, t.rhs):
            with pytest.raises(ValueError):
                a[0] = 0


def test_build_presentation_reports_its_sizes(caplog):
    # trivial-1's seven instances keep three words of 1, 3 and 4 letters
    # (test_free_reduction_strips_the_common_suffix)
    with caplog.at_level(logging.DEBUG, logger="singlink.presentation"):
        build_unc_presentation(builtin_pair("trivial-1"))
    assert caplog.messages == [
        "nc presentation: 7 relation instances, 3 words kept, 8 letters"]
