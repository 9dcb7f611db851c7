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

Both are evaluated on every coloring at once: `coloring_array` gives the
sorted colorings as one array, and each passage's weight is gathered for
all of them.  In an abelianized target coordinate rows are added (int64,
or Python ints where a sum could pass 2^62) and the torsion is reduced
once; a finite target folds its Cayley table.  Equal values are tallied
with np.unique, in order of first appearance.

The cocycle conditions are not written out here: the checkers evaluate
both sides of every instance of the relation table in
`presentation.relation_families` in the target group, each family at all
of its points at once with the same products.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .coloring import coloring_array, flat_tables
from .diagram import NEG, POS, SING, SingularDiagram
from .errors import CocycleInvalidError, DimensionMismatchError
from .pairs import SingularPair, builtin_pair
from .presentation import (AbelianizedGroup, FiniteGroup, GroupRingElement,
                           abelianize, build_ab_presentation,
                           build_unc_presentation, f_gen, family_words,
                           h_gen, relation_families)

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
        if isinstance(self.target, AbelianizedGroup):
            shape = self.target.rank, len(self.target.torsion)
            if not all(tuple(map(len, v)) == shape for r in self.f + self.h for v in r):
                raise ValueError(f"values must have {shape[0]} free and "
                                 f"{shape[1]} torsion coordinates")

    @property
    def n(self) -> int:
        return len(self.f)


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
    """Evaluate both sides of every relation family in the target at all
    of its points at once (`_product`), and keep the first failing point
    of each family in row-major order."""
    words = list(family_words(relation_families(p, c.kind), p.n))
    W = _weights(c, max(side.shape[1] for _, _, *sides in words for side in sides))
    viols = []
    for name, k, lhs, rhs in words:
        left, right = (_product(c.target, [(W, g) for g in side.T], len(side))
                       for side in (lhs, rhs))
        ok = (left == right).reshape(len(lhs), -1).all(axis=1)
        if not ok.all():
            point = np.unravel_index(ok.argmin(), (p.n,) * k)
            viols.append((name, tuple(map(int, point))))
    return CocycleCheck(not viols, tuple(viols))


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
    t = c.target
    ident, mul, inv = t.identity(), t.mul, t.inv
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


# The worked n = 2 examples in their customary bases: free labels, torsion,
# and the free then torsion coordinates of f11, f12, f21, f22, h11, h12,
# h21, h22.  flip-flip nc: h is the free basis, f = (1, bc^-1, cb^-1, 1);
# flip-flip ab: free on f12 and h, with f21 = f12 + h21 - h12.
_NAMED = {
    ("flip-i2", NC): ("abc", (), ((0, 0, 0),) * 4 + (
        (1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1))),
    ("flip-i2", AB): ("abc", (2, 2), (
        (0, 0, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, 0, 0, 0),
        (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))),
    ("flip-flip", NC): ("abcd", (), (
        (0, 0, 0, 0), (0, 1, -1, 0), (0, -1, 1, 0), (0, 0, 0, 0),
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    ("flip-flip", AB): (("f12", "a", "b", "c", "d"), (), (
        (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (1, 0, -1, 1, 0), (0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))),
}


def builtin_cocycle(pair_name: str, kind: str) -> CocyclePair:
    """Universal cocycles for the worked n=2 examples with the customary
    generator names: a, b, c (and d); torsion generators u1, u2.

    Each table is validated against the corresponding checker, and the
    invariant factors agree with the machine-computed universal group, so
    these are the universal pairs up to relabeling the basis.
    """
    p = builtin_pair(pair_name)
    spec = _NAMED.get(("flip-i2" if pair_name == "flip-s2" else pair_name, kind))
    if spec:
        free, torsion, coords = spec
        r = len(free)
        group = AbelianizedGroup(r, torsion, tuple((v[:r], v[r:]) for v in coords),
                                 tuple(free))
        c = CocyclePair(group, *_tables_from_group(2, group), kind)
    else:
        c = universal_nc_cocycle(p) if kind == NC else universal_ab_cocycle(p)
    checker = check_nc_cocycle if kind == NC else check_ab_cocycle
    if not checker(p, c).ok:
        raise CocycleInvalidError(f"builtin cocycle {pair_name}/{kind} is broken")
    return c


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


def _weights(c: CocyclePair, terms: int) -> np.ndarray:
    """The target value of every generator, all f(x, y) and then all
    h(x, y) as `f_gen` and `h_gen` index them: ints in a finite target,
    and in an abelianized one rows of free then torsion coordinates,
    int64, or Python ints if `terms` of them could sum past 2^62."""
    if isinstance(c.target, FiniteGroup):
        return np.array(c.f + c.h).ravel()
    rows = [fr + tr for row in c.f + c.h for fr, tr in row]
    big = max(map(abs, itertools.chain(*rows)), default=0) * (terms + 1) >> 62
    return np.array(rows, dtype=object if big else np.int64).reshape(len(rows), -1)


def _passages(d: SingularDiagram, p: SingularPair, c: CocyclePair, passages: int):
    """The number of colorings of d, and per crossing the weight of its
    passage at every coloring as (W, k): W[k] is h at a singular crossing,
    f at a positive one and f(S^-1(x,y))^-1 at a negative one, where k =
    x*n + y indexes the incoming colors.  W holds target elements as
    `_weights` does, sized for sums of `passages` of them."""
    n, t, tables = p.n, c.target, flat_tables(p)
    cols = coloring_array(d, p)
    s1, s2 = tables[NEG, True]                         # S^-1
    at = s1 * n + s2
    A = _weights(c, passages)
    F = A[:n * n]
    neg = np.array(t.inverse)[F[at]] if isinstance(t, FiniteGroup) else -F[at]
    W = {POS: F, SING: A[n * n:], NEG: neg}
    col = dict(zip(d.edges, cols.T))
    return len(cols), lambda cr: (W[cr.kind],
                                  col[cr.in1].astype(np.intp) * n + col[cr.in2])


def _product(t: Target, factors, size: int):
    """Per coloring, the ordered product of W[k] over (W, k) in factors: a
    Cayley-table fold in a finite target, a sum of coordinate rows reduced
    once mod the torsion in an abelianized one."""
    if isinstance(t, FiniteGroup):
        table, val = np.array(t.table), np.full(size, t.identity())
        for W, k in factors:
            val = table[val, W[k]]
        return val
    val = np.zeros((size, t.rank + len(t.torsion)), np.int64)
    for W, k in factors:
        val = val + W[k]
    val[:, t.rank:] %= np.array(t.torsion, dtype=val.dtype)
    return val


def _distinct(t: Target, vals):
    """The distinct values of vals (ints, or rows of coordinates) in order
    of first appearance as target elements, the class of every value and
    the size of every class."""
    keys = vals.reshape(len(vals), math.prod(vals.shape[1:]))
    if keys.dtype == object:      # exact: rank each column of Python ints
        keys = np.stack([np.unique(col, return_inverse=True)[1] for col in keys.T], 1)
    # each row as one opaque value; the zero column keeps it from being empty
    keys = np.concatenate([keys, np.zeros((len(keys), 1), keys.dtype)], axis=1)
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, which, counts = np.unique(keys, return_index=True,
                                        return_inverse=True, return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    out = vals[first[order]].tolist()
    if isinstance(t, AbelianizedGroup):
        out = [(tuple(v[:t.rank]), tuple(v[t.rank:])) for v in out]
    return out, rank[which.ravel()].tolist(), counts[order].tolist()


def nc_invariant(d: SingularDiagram, p: SingularPair,
                 c: CocyclePair) -> NcInvariantValue:
    """Per coloring, each component's ordered weight product from its
    basepoint, as a conjugacy-class representative.  Enumerative: in a
    non-abelian target the classes do not factor over crossings.  Every
    coloring is evaluated at once, one passage at a time."""
    if c.kind != NC:
        raise CocycleInvalidError("nc_invariant needs a noncommutative pair")
    _validate_cocycle(p, c)
    t = c.target
    size, factor = _passages(d, p, c, 2 * len(d.crossings))
    comps = []
    for base in d.basepoints:
        # the weighted passages from the basepoint; a loop has none
        passed, edge = [], base
        while edge in d.consumers:
            ci, slot = d.consumers[edge]
            cr = d.crossings[ci]
            if cr.kind == SING or (cr.kind, slot) in ((POS, 0), (NEG, 1)):
                passed.append(cr)
            edge = d.successor(edge)
            if edge == base:
                break
        val = _product(t, map(factor, passed), size)
        if isinstance(t, FiniteGroup):
            val = np.array([t.conjugacy_class_rep(a) for a in range(t.order)])[val]
        values, which, _ = _distinct(t, val)
        comps.append(map(values.__getitem__, which))
    return NcInvariantValue(tuple(zip(*comps)) if comps else ((),) * size)


def state_sum(d: SingularDiagram, p: SingularPair,
              c: CocyclePair) -> GroupRingElement:
    """Phi_{f,h}(L) = sum over colorings of the unordered product of all
    Boltzmann weights, in Z[H]; terms in order of first appearance over
    the sorted colorings."""
    if c.kind != AB:
        raise CocycleInvalidError("state_sum needs an abelian pair")
    _validate_cocycle(p, c)
    size, factor = _passages(d, p, c, len(d.crossings))
    values, _, counts = _distinct(
        c.target, _product(c.target, map(factor, d.crossings), size))
    return GroupRingElement(dict(zip(values, counts)))


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
