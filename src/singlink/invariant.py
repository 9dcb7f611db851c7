"""Cocycle pairs and the two invariants: the noncommutative per-component
weight product and the abelian state sum.

Weights at a crossing met with incoming colors (x, y):

    positive crossing, passed on the under-strand (in1):  f(x, y)
    negative crossing, passed on the under-strand (in2):  f(S^-1(x,y))^-1
    singular crossing, every passage:                     h(x, y)

A component's value is the ordered product from its basepoint, reduced
to a conjugacy class representative; the state sum multiplies the
weights of all crossings once each, with no order, and sums over
colorings in the integral group ring.

The cocycle conditions are not written out here: the checkers evaluate
both sides of every instance of the relation table in
`presentation.relation_families` in the target group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .coloring import enumerate_colorings
from .diagram import NEG, POS, SING, SingularDiagram
from .errors import CocycleInvalidError, DimensionMismatchError
from .pairs import SingularPair, builtin_pair
from .presentation import (AbelianizedGroup, FiniteGroup, GroupRingElement,
                           abelianize, build_ab_presentation,
                           build_unc_presentation, f_gen, h_gen,
                           relation_families, relation_instances)

Target = Union[FiniteGroup, AbelianizedGroup]

NC, AB = "nc", "ab"


@dataclass(frozen=True)
class CocyclePair:
    target: Target
    f: tuple
    h: tuple
    kind: str                      # "nc" | "ab"

    # CocycleCheck per singular pair, filled by the checkers
    checks: dict = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "checks", {})
        object.__setattr__(self, "f", tuple(tuple(r) for r in self.f))
        object.__setattr__(self, "h", tuple(tuple(r) for r in self.h))
        if self.kind not in (NC, AB):
            raise ValueError(f"kind must be nc or ab, got {self.kind!r}")
        n = len(self.f)
        if len(self.h) != n or any(len(r) != n for r in self.f + self.h):
            raise ValueError(f"f and h must both be {n}x{n} tables")
        if isinstance(self.target, FiniteGroup) and not all(
                0 <= v < self.target.order for r in self.f + self.h for v in r):
            raise ValueError(f"values must lie in 0..{self.target.order - 1}")

    @property
    def n(self) -> int:
        return len(self.f)


def _ops(target: Target):
    if isinstance(target, FiniteGroup):
        return (target.identity(), target.mul, target.inv,
                target.conjugacy_class_rep)
    return (target.identity(), target.mul, target.inv, lambda a: a)


def _target_abelian(target: Target) -> bool:
    return isinstance(target, AbelianizedGroup) or target.is_abelian()


@dataclass(frozen=True)
class CocycleCheck:
    ok: bool
    violations: tuple[tuple[str, tuple], ...]


def _memo_check(p: SingularPair, c: CocyclePair) -> CocycleCheck:
    """_check_cocycle, once per (cocycle pair, singular pair)."""
    res = c.checks.get(p)
    if res is None:
        res = c.checks[p] = _check_cocycle(p, c)
    return res


def _check_cocycle(p: SingularPair, c: CocyclePair) -> CocycleCheck:
    """Evaluate both sides of every relation instance in the target and
    keep the first failing point of each family."""
    ident, mul, _, _ = _ops(c.target)
    # generator index -> table value: all f(x,y), then all h(x,y)
    value = [v for row in c.f for v in row] + [v for row in c.h for v in row]

    def product(side):
        if not side:
            return ident
        out = value[side[0]]
        for g in side[1:]:
            out = mul(out, value[g])
        return out

    families = relation_families(p, c.kind)
    bad = {}
    for name, point, lhs, rhs in relation_instances(families, p.n):
        # identical sides hold in every group and need no evaluation
        if name not in bad and lhs != rhs and product(lhs) != product(rhs):
            bad[name] = point
    viols = tuple((name, bad[name]) for name, _ in families if name in bad)
    return CocycleCheck(not viols, viols)


def check_nc_cocycle(p: SingularPair, c: CocyclePair) -> CocycleCheck:
    """The seven noncommutative conditions (f1), (f4), (h1), (c1)-(c4).

    (f2) and (f3) are consequences of these ((f3) is (c3) at a fixed point
    of S, (f2) follows from (c3), (h1) and Yang-Baxter); they are checked
    in derived_cocycle_identities.
    """
    if c.kind != NC:
        raise CocycleInvalidError("cocycle pair is not of noncommutative kind")
    if c.n != p.n:
        raise DimensionMismatchError("cocycle tables do not match the pair")
    return _memo_check(p, c)


def check_ab_cocycle(p: SingularPair, c: CocyclePair) -> CocycleCheck:
    """The five abelian conditions (f1'), (f2'), (c1'), (c2'), (c3')."""
    if c.kind != AB:
        raise CocycleInvalidError("cocycle pair is not of abelian kind")
    if not _target_abelian(c.target):
        raise CocycleInvalidError("abelian cocycle pair needs an abelian target")
    if c.n != p.n:
        raise DimensionMismatchError("cocycle tables do not match the pair")
    return _memo_check(p, c)


def derived_cocycle_identities(p: SingularPair, c: CocyclePair) -> dict[str, bool]:
    """Consequences of the defining conditions, checked directly:

    * f(x, s(x)) = 1                             ((c3) at a fixed point)
    * f(S1(x,y), S1(S2(x,y),z)) = f(y,z)         ((c3) + (h1))
    * f(x,y) = h(x,y) h(S(x,y))^-1               (f determined by h)
    * abelian targets only: f(tau(x,y)) = f(x,y)^-1
    """
    if not check_nc_cocycle(p, c).ok:
        raise CocycleInvalidError("pair fails the noncommutative conditions")
    n = p.n
    ident, mul, inv, _ = _ops(c.target)
    st = p.biquandle.table
    s1, s2 = st.t1, st.t2
    f, h = c.f, c.h
    smap = p.biquandle.s_map
    report = {
        "f_fixed_point_trivial": all(f[x][smap[x]] == ident for x in range(n)),
        "f_invariance_f2": all(
            f[s1[x][y]][s1[s2[x][y]][z]] == f[y][z]
            for x in range(n) for y in range(n) for z in range(n)),
        "f_determined_by_h": all(
            f[x][y] == mul(h[x][y], inv(h[s1[x][y]][s2[x][y]]))
            for x in range(n) for y in range(n)),
    }
    if _target_abelian(c.target):
        t1, t2 = p.tau.t1, p.tau.t2
        report["abelian_f_tau_inverse"] = all(
            f[t1[x][y]][t2[x][y]] == inv(f[x][y])
            for x in range(n) for y in range(n))
    return report


# ---------------------------------------------------------------------------
# universal cocycles
# ---------------------------------------------------------------------------

def _tables_from_group(n: int, group: AbelianizedGroup):
    f = tuple(tuple(group.generator(f_gen(n, x, y)) for y in range(n))
              for x in range(n))
    h = tuple(tuple(group.generator(h_gen(n, x, y)) for y in range(n))
              for x in range(n))
    return f, h


def universal_nc_cocycle(p: SingularPair) -> CocyclePair:
    """pi_f, pi_h into the abelianization of U_nc^{fh}.

    The full noncommutative universal group has an undecidable word
    problem in general; all values this package computes live in the
    abelianization (or in a user-supplied finite group).
    """
    group = abelianize(build_unc_presentation(p))
    f, h = _tables_from_group(p.n, group)
    return CocyclePair(group, f, h, NC)


def universal_ab_cocycle(p: SingularPair) -> CocyclePair:
    group = abelianize(build_ab_presentation(p))
    f, h = _tables_from_group(p.n, group)
    return CocyclePair(group, f, h, AB)


def builtin_cocycle(pair_name: str, kind: str) -> CocyclePair:
    """Universal cocycles for the worked n=2 examples with the customary
    generator names: a, b, c (and d); torsion generators u1, u2.

    Each table is validated against the corresponding checker, and the
    invariant factors agree with the machine-computed universal group, so
    these are the universal pairs up to relabeling the basis.
    """
    p = builtin_pair(pair_name)
    if pair_name in ("flip-i2", "flip-s2") and kind == NC:
        group = AbelianizedGroup(
            3, (), _coords_flip_i2_nc(), free_labels=("a", "b", "c"))
        f, h = _tables_from_group(2, group)
        c = CocyclePair(group, f, h, NC)
    elif pair_name in ("flip-i2", "flip-s2") and kind == AB:
        group = AbelianizedGroup(
            3, (2, 2), _coords_flip_s2_ab(),
            free_labels=("a", "b", "c"), torsion_labels=("u1", "u2"))
        f, h = _tables_from_group(2, group)
        c = CocyclePair(group, f, h, AB)
    elif pair_name == "flip-flip" and kind == NC:
        group = AbelianizedGroup(
            4, (), _coords_flip_flip_nc(), free_labels=("a", "b", "c", "d"))
        f, h = _tables_from_group(2, group)
        c = CocyclePair(group, f, h, NC)
    elif pair_name == "flip-flip" and kind == AB:
        group = AbelianizedGroup(
            5, (), _coords_flip_flip_ab(),
            free_labels=("f12", "a", "b", "c", "d"))
        f, h = _tables_from_group(2, group)
        c = CocyclePair(group, f, h, AB)
    else:
        c = universal_nc_cocycle(p) if kind == NC else universal_ab_cocycle(p)
    checker = check_nc_cocycle if kind == NC else check_ab_cocycle
    if not checker(p, c).ok:
        raise CocycleInvalidError(f"builtin cocycle {pair_name}/{kind} is broken")
    return c


def _unit(rank, tors_len, free_i=None, tors_i=None, neg_free=None):
    free = [0] * rank
    tors = [0] * tors_len
    if free_i is not None:
        free[free_i] = 1
    if neg_free is not None:
        free[neg_free] -= 1
    if tors_i is not None:
        tors[tors_i] = 1
    return tuple(free), tuple(tors)


def _coords_flip_i2_nc():
    # generators f00,f01,f10,f11,h00,h01,h10,h11; free basis a,b,c
    z = _unit(3, 0)
    a = _unit(3, 0, free_i=0)
    b = _unit(3, 0, free_i=1)
    cc = _unit(3, 0, free_i=2)
    return (z, z, z, z, a, b, b, cc)


def _coords_flip_s2_ab():
    z = _unit(3, 2)
    u1 = _unit(3, 2, tors_i=0)
    u2 = _unit(3, 2, tors_i=1)
    a = _unit(3, 2, free_i=0)
    b = _unit(3, 2, free_i=1)
    cc = _unit(3, 2, free_i=2)
    return (z, u1, u2, z, a, b, b, cc)


def _coords_flip_flip_nc():
    # h generators are the free basis a,b,c,d; f = (1, bc^-1, cb^-1, 1)
    z = _unit(4, 0)
    bc = ((0, 1, -1, 0), ())
    cb = ((0, -1, 1, 0), ())
    a = _unit(4, 0, free_i=0)
    b = _unit(4, 0, free_i=1)
    cc = _unit(4, 0, free_i=2)
    dd = _unit(4, 0, free_i=3)
    return (z, bc, cb, z, a, b, cc, dd)


def _coords_flip_flip_ab():
    # free on f12, h11, h12, h21, h22 with f21 = f12 + h21 - h12
    z = _unit(5, 0)
    f12 = _unit(5, 0, free_i=0)
    f21 = ((1, 0, -1, 1, 0), ())
    a = _unit(5, 0, free_i=1)
    b = _unit(5, 0, free_i=2)
    cc = _unit(5, 0, free_i=3)
    dd = _unit(5, 0, free_i=4)
    return (z, f12, f21, z, a, b, cc, dd)


# ---------------------------------------------------------------------------
# the noncommutative invariant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NcInvariantValue:
    """Per coloring, a tuple of conjugacy-class representatives indexed by
    component; `multiset` aggregates over colorings."""

    per_coloring: tuple[tuple, ...]

    def multiset(self):
        from collections import Counter
        return Counter(self.per_coloring)

    def sorted_items(self):
        return sorted(self.multiset().items(), key=lambda kv: repr(kv[0]))


def _validate_cocycle(p: SingularPair, c: CocyclePair):
    checker = check_nc_cocycle if c.kind == NC else check_ab_cocycle
    res = checker(p, c)
    if not res.ok:
        raise CocycleInvalidError(
            f"cocycle pair fails {[v[0] for v in res.violations]}")


def nc_invariant(d: SingularDiagram, p: SingularPair,
                 c: CocyclePair) -> NcInvariantValue:
    if c.kind != NC:
        raise CocycleInvalidError("nc_invariant needs a noncommutative pair")
    _validate_cocycle(p, c)
    ident, mul, inv, conj_rep = _ops(c.target)
    sinv = p.biquandle.table.inverse()
    colorings = enumerate_colorings(d, p)
    consumer = {}
    for cr in d.crossings:
        consumer[cr.in1] = (cr, 0)
        consumer[cr.in2] = (cr, 1)
    # each component's passages from its basepoint: (crossing, 0 for in1 / 1 for in2)
    walks = []
    for base in d.basepoints:
        walk = []
        edge = base
        while edge in consumer:       # a crossing-free loop has an empty walk
            cr, slot = consumer[edge]
            walk.append((cr, slot))
            edge = cr.out2 if slot == 0 else cr.out1
            if edge == base:
                break
        walks.append(walk)
    values = []
    for col in colorings:
        comp_vals = []
        for walk in walks:
            val = ident
            for cr, slot in walk:
                x, y = col[cr.in1], col[cr.in2]
                if cr.kind == SING:
                    val = mul(val, c.h[x][y])
                elif cr.kind == POS and slot == 0:
                    val = mul(val, c.f[x][y])
                elif cr.kind == NEG and slot == 1:
                    a, b = sinv.apply(x, y)
                    val = mul(val, inv(c.f[a][b]))
            comp_vals.append(conj_rep(val))
        values.append(tuple(comp_vals))
    return NcInvariantValue(tuple(values))


def state_sum(d: SingularDiagram, p: SingularPair,
              c: CocyclePair) -> GroupRingElement:
    """Phi_{f,h}(L) = sum over colorings of the unordered product of all
    Boltzmann weights, in Z[H]."""
    if c.kind != AB:
        raise CocycleInvalidError("state_sum needs an abelian pair")
    _validate_cocycle(p, c)
    ident, mul, inv, _ = _ops(c.target)
    n = p.n
    sinv = p.biquandle.table.inverse()
    # weight at incoming colors (x, y), flat at x*n + y, per crossing kind
    weights = {SING: [w for row in c.h for w in row],
               POS: [w for row in c.f for w in row],
               NEG: [inv(c.f[a][b]) for a, b in
                     (sinv.apply(x, y) for x in range(n) for y in range(n))]}
    crossings = [(cr.in1, cr.in2, weights[cr.kind]) for cr in d.crossings]
    # coefficient per value, in order of first appearance over colorings
    tally: dict = {}
    for col in enumerate_colorings(d, p):
        val = ident
        for e1, e2, w in crossings:
            val = mul(val, w[col[e1] * n + col[e2]])
        tally[val] = tally.get(val, 0) + 1
    return GroupRingElement(tally)


def render_laurent(group: AbelianizedGroup, v: GroupRingElement) -> str:
    """Canonical text for a group-ring value over an abelianized target.

    Terms are sorted by (torsion part, exponent vector), descending, so
    example values read like leading-term-first polynomials.
    """
    if not v.terms:
        return "0"
    items = sorted(v.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]),
                   reverse=True)
    parts = []
    for elem, coeff in items:
        mono = group.render_element(elem)
        if mono == "1":
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{abs(coeff)}*{mono}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def compare_cocycle_notions(p: SingularPair, bound: int = 6) -> dict:
    """Experimental: do noncommutative pairs with abelian targets also
    satisfy the abelian conditions?

    Checks the abelianized universal pair and all its pushforwards into
    cyclic groups Z/k for k <= bound.  Reports counterexamples; asserts
    nothing.
    """
    ncp = universal_nc_cocycle(p)
    group: AbelianizedGroup = ncp.target
    checked = []
    counterexamples = []

    def push(hom_free, hom_tors, k):
        def img(elem):
            val = sum(e * hv for e, hv in zip(elem[0], hom_free))
            val += sum(e * hv for e, hv in zip(elem[1], hom_tors))
            return val % k
        tgt = FiniteGroup.cyclic(k)
        f = tuple(tuple(img(v) for v in row) for row in ncp.f)
        h = tuple(tuple(img(v) for v in row) for row in ncp.h)
        return CocyclePair(tgt, f, h, NC)

    # the universal abelianized pair itself
    ab_version = CocyclePair(group, ncp.f, ncp.h, AB)
    ok_ab = check_ab_cocycle(p, ab_version).ok
    checked.append(("universal_abelianized", ok_ab))
    if not ok_ab:
        counterexamples.append("universal_abelianized")
    import itertools
    for k in range(2, bound + 1):
        tors_choices = []
        for dd in group.torsion:
            tors_choices.append([v for v in range(k) if (v * dd) % k == 0])
        free_choices = [range(k)] * group.rank
        for hom in itertools.product(*free_choices, *tors_choices):
            hom_free = hom[:group.rank]
            hom_tors = hom[group.rank:]
            cc = push(hom_free, hom_tors, k)
            if not check_nc_cocycle(p, cc).ok:
                continue
            ab_cc = CocyclePair(cc.target, cc.f, cc.h, AB)
            ok = check_ab_cocycle(p, ab_cc).ok
            name = f"Z/{k} hom {hom}"
            checked.append((name, ok))
            if not ok:
                counterexamples.append(name)
    return {"checked": len(checked), "counterexamples": counterexamples}
