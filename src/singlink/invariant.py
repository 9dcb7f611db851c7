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

A cocycle pair's weights on a singular pair are one table, built with
the cocycle check at the pair's first check or query and kept in the
cocycle pair's `derived` store (`_checked`).  A query reads indices into
that table off the sorted colorings of `coloring_array`: a run of
passages per component, or one run of all crossings for the state sum,
each run padded with the identity to the longest.  The runs' cells
(`_cells`) are the diagram's, compiled at its first query and kept with
it for its lifetime, as is its coloring plan; a query adds only the
pair's block offsets.  `_evaluate` builds the indices and gathers their
weights a block of colorings at a time, at most _CELLS weights, so that
a query holds little beyond its colorings and its values, and multiplies
along the runs: in an abelianized target coordinate rows are summed
(int64, or Python ints where a sum could pass 2^62) and the torsion is
reduced once; a finite target folds its Cayley table.  `_tally` counts
each run's values in order of first appearance: in a dict, one pass per
run, up to _DICT_KEYS (run, value) pairs, as in nearly every query;
above that by one np.unique over (run, value) keys, whose fixed cost of
some 35 numpy calls a large tally repays.  The sorted colorings are kept
with the diagram too, for its last pair (`coloring_array`), so the nc
invariant and the state sum of one (diagram, pair) share one search.

The cocycle conditions are not written out here: the checkers evaluate
both sides of every instance of the relation table in
`presentation.relation_families` in the target group with the same
`_evaluate`, all families at all of their points in one gather of
`presentation.family_words`' stack, and split the verdict per family.
The stack is the one the pair's presentations read, built once per pair
and kind and kept in the pair's store (`presentation.relation_words`).
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .coloring import coloring_array
from .diagram import NEG, POS, SING, SingularDiagram
from .errors import CocycleInvalidError, DimensionMismatchError, SinglinkError
from .pairs import SingularPair, builtin_pair
from .pairtable import Derived, json_list
from .presentation import (AbelianizedGroup, FiniteGroup, GroupRingElement,
                           abelianize, build_ab_presentation,
                           build_unc_presentation, f_gen, h_gen,
                           relation_words)

Target = Union[FiniteGroup, AbelianizedGroup]

NC, AB = "nc", "ab"

# gathered weights (steps x runs x colorings x coordinates) a block may
# hold, 128 KB of int64: blocks of 2^16 cells measured slower on queries
# with 625 colorings
_CELLS = 1 << 14

# (run, value) pairs up to which `_tally` counts in a dict, not by np.unique:
# on the invariants bench's tallies the dict was faster at nearly all of
# up to 256 pairs, at about half of 256 to 1,024 and at none above
_DICT_KEYS = 512


@dataclass(frozen=True)
class CocyclePair(Derived):
    """Weights f and h in a target; an abelian kind needs an abelian
    target, refused here.  Its `derived` store keeps, per singular pair,
    the weight table and the check made with it (`_checked`)."""

    target: Target
    f: tuple
    h: tuple
    kind: str                      # "nc" | "ab"

    def __post_init__(self):
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
            self.target.check_elements(
                (v for r in self.f + self.h for v in r), "values")
        if self.kind == AB and not _target_abelian(self.target):
            raise CocycleInvalidError("abelian cocycle pair needs an abelian target")

    @property
    def n(self) -> int:
        return len(self.f)

    @classmethod
    def from_dict(cls, d, kind: str, target: FiniteGroup | None = None):
        """A cocycle file of the given kind: f and h tables of the indices
        of elements of a finite target, or without one, of [free, torsion]
        elements of the abelianized "target" the file embeds."""
        if d.get("kind", kind) != kind:
            raise SinglinkError(f"cocycle file is of kind {d.get('kind')!r}")
        if target is not None:
            return cls(target, json_list(d["f"], int, "f", 2),
                       json_list(d["h"], int, "h", 2), kind)
        if "target" not in d:
            raise SinglinkError("cocycle file needs --target or an embedded target")
        read = AbelianizedGroup.read_element
        f, h = ([[read(v, f"{name}({x}, {y})") for y, v in enumerate(row)]
                 for x, row in enumerate(json_list(d[name], list, name, 2))]
                for name in "fh")
        return cls(AbelianizedGroup.from_dict(d["target"]), f, h, kind)


def _target_abelian(target: Target) -> bool:
    return isinstance(target, AbelianizedGroup) or target.is_abelian()


@dataclass(frozen=True)
class CocycleCheck:
    ok: bool
    violations: tuple[tuple[str, tuple], ...]


@dataclass(frozen=True)
class _Weights:
    """A cocycle pair's weights on one singular pair, as target elements.
    Row x*n + y of each n*n block of `rows` holds f(x, y), then h(x, y)
    (so generator g of `f_gen` and `h_gen` is row g), then
    f(S^-1(x, y))^-1; the last row holds the identity.  An element is an
    index into the Cayley table `mul` in a finite target, and a row of
    free then torsion coordinates in an abelianized one: int64, or Python
    ints if one passes 2^62.  `bound` is the largest |coordinate|."""
    rows: np.ndarray
    bound: int = 0
    mul: Union[np.ndarray, None] = None


def _weight_table(p: SingularPair, c: CocyclePair) -> _Weights:
    n, t = p.n, c.target
    sinv = p.biquandle.table.inverse()
    at = (np.array(sinv.t1, np.intp) * n + np.array(sinv.t2, np.intp)).ravel()
    if isinstance(t, FiniteGroup):
        fh = np.array(c.f + c.h, np.intp).ravel()
        return _Weights(np.concatenate([fh, np.array(t.inverse)[fh[at]],
                                        [t.identity()]]), mul=np.array(t.table))
    coords = [fr + tr for row in c.f + c.h for fr, tr in row]
    bound = max(map(abs, itertools.chain(*coords)), default=0)
    fh = np.array(coords, dtype=object if bound >> 62 else np.int64).reshape(
        len(coords), t.rank + len(t.torsion))
    return _Weights(np.concatenate([fh, -fh[at], np.zeros_like(fh[:1])]), bound)


def _checked(c: CocyclePair, p: SingularPair) -> tuple[CocycleCheck, _Weights]:
    """c's check on p and the weight table it was made with; kept in c's
    store (`_stored`).  Both sides of every instance of every relation
    family are evaluated in the target at once, as two runs of one index
    array into the table, and the first failing point of each family in
    row-major order is kept.  The instances are p's, kept in its store
    (`presentation.relation_words`)."""
    w = _weight_table(p, c)
    t = p.derived(relation_words, c.kind)
    # a side's pad, -1, reads the last row of w: the identity
    idx = np.stack([t.lhs.T, t.rhs.T], axis=1)
    left, right = _evaluate(c.target, w, idx.shape, lambda lo, hi: idx[..., lo:hi])
    bad = np.flatnonzero(~(left == right).reshape(len(t.family), -1).all(axis=1))
    fams, first = np.unique(t.family[bad], return_index=True)
    viols = tuple((t.names[f], tuple(int(v) for v in np.unravel_index(
        t.point[i], (p.n,) * t.arity[f]))) for f, i in zip(fams.tolist(), bad[first]))
    return CocycleCheck(not viols, viols), w


def _stored(p: SingularPair, c: CocyclePair, kind: str,
            message: str) -> tuple[CocycleCheck, _Weights]:
    """`_checked` from c's store, once c suits p: a c of another kind is
    refused with the caller's message, and c's tables must be on p's
    carrier."""
    if c.kind != kind:
        raise CocycleInvalidError(message)
    if c.n != p.n:
        raise DimensionMismatchError("cocycle tables do not match the pair")
    return c.derived(_checked, p)


def check_nc_cocycle(p: SingularPair, c: CocyclePair) -> CocycleCheck:
    """The seven noncommutative conditions (f1), (f4), (h1), (c1)-(c4).

    (f2) and (f3) are consequences of these ((f3) is (c3) at a fixed point
    of S, (f2) follows from (c3), (h1) and Yang-Baxter); they are checked
    in derived_cocycle_identities.
    """
    return _stored(p, c, NC, "cocycle pair is not of noncommutative kind")[0]


def check_ab_cocycle(p: SingularPair, c: CocyclePair) -> CocycleCheck:
    """The five abelian conditions (f1'), (f2'), (c1'), (c2'), (c3')."""
    return _stored(p, c, AB, "cocycle pair is not of abelian kind")[0]


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
    return tuple(tuple(tuple(group.generator(gen(n, x, y)) for y in range(n))
                       for x in range(n)) for gen in (f_gen, h_gen))


def universal_nc_cocycle(p: SingularPair) -> CocyclePair:
    """pi_f, pi_h into the abelianization of U_nc^{fh}.

    The full noncommutative universal group has an undecidable word
    problem in general; all values this package computes live in the
    abelianization (or in a user-supplied finite group).
    """
    group = abelianize(build_unc_presentation(p))
    return CocyclePair(group, *_tables_from_group(p.n, group), NC)


def universal_ab_cocycle(p: SingularPair) -> CocyclePair:
    group = abelianize(build_ab_presentation(p))
    return CocyclePair(group, *_tables_from_group(p.n, group), AB)


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
    if kind not in (NC, AB):
        raise ValueError(f"kind must be nc or ab, got {kind!r}")
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
    broken = f"builtin cocycle {pair_name}/{kind} is broken"
    if not _stored(p, c, kind, broken)[0].ok:
        raise CocycleInvalidError(broken)
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
        return collections.Counter(self.per_coloring)

    def sorted_items(self):
        return sorted(self.multiset().items(), key=lambda kv: repr(kv[0]))


def _evaluate(t: Target, w: _Weights, shape, index) -> np.ndarray:
    """Ordered products of weights: per run r and column j of a (steps,
    runs, columns) array idx of the given shape, the product of
    w.rows[idx[i, r, j]] over the steps i, with at least one step; a
    shorter run is padded with the identity row.  index(lo, hi) builds
    idx[..., lo:hi], one block of columns at a time, each block of at most
    _CELLS weights, so no more of idx exists at once.  The result is a
    (runs, columns) array of elements in a finite target, and a (runs,
    columns, coordinates) one, torsion reduced, in an abelianized target:
    Python ints there if a sum could pass 2^62."""
    steps, runs, m = shape
    rows = w.rows if w.bound * (steps + 1) >> 62 == 0 else w.rows.astype(object)
    block = max(1, _CELLS // max(1, steps * runs * math.prod(rows.shape[1:])))
    out = np.empty((runs, m, *rows.shape[1:]), rows.dtype)
    for r in range(0, m, block):
        g = rows.take(index(r, r + block), axis=0)
        if w.mul is None:
            out[:, r:r + block] = g.sum(axis=0)
            continue
        val = g[0]
        for step in g[1:]:
            val = w.mul[val, step]
        out[:, r:r + block] = val
    if w.mul is None:
        out[..., t.rank:] %= np.array(t.torsion, dtype=out.dtype)
    return out


# the n*n block of w.rows that each crossing kind weighs in; block 3 is
# the identity row
_BLOCK = {POS: 0, SING: 1, NEG: 2}


def _cells(d: SingularDiagram, runs) -> np.ndarray:
    """The (edge, edge, block) cells of runs of crossings of d, as a
    read-only (3, steps, runs) array: a crossing met with incoming colors
    (x, y) on edges (in1, in2) weighs row x*n + y of its kind's block of
    w.  Runs are padded to the longest, at least one step, with the cell
    (edges, edges, 3), whose colors `_products` sets to 0: the identity."""
    index = {e: i for i, e in enumerate(d.edges)}
    steps = max(map(len, runs), default=0) or 1
    pad = [(len(index), len(index), 3)]
    cells = np.array([[(index[cr.in1], index[cr.in2], _BLOCK[cr.kind]) for cr in run]
                      + pad * (steps - len(run)) for run in runs], np.intp)
    cells = cells.reshape(len(runs), steps, 3).T
    cells.flags.writeable = False
    return cells


def _nc_cells(d: SingularDiagram) -> np.ndarray:
    """The cells of each component's weighted passages from its basepoint,
    in order: every singular crossing, and a classical one met on its
    under-strand; a loop has none."""
    runs = []
    for base in d.basepoints:
        passed, edge = [], base
        while edge in d.consumers:
            ci, slot = d.consumers[edge]
            cr = d.crossings[ci]
            if cr.kind == SING or (cr.kind, slot) in ((POS, 0), (NEG, 1)):
                passed.append(cr)
            edge = d.successor(edge)
            if edge == base:
                break
        runs.append(passed)
    return _cells(d, runs)


def _sum_cells(d: SingularDiagram) -> np.ndarray:
    """The cells of one run of all of d's crossings, in order."""
    return _cells(d, [d.crossings])


def _products(d: SingularDiagram, p: SingularPair, t: Target, w: _Weights,
              cells: np.ndarray) -> np.ndarray:
    """`_evaluate`'s product over each run of `_cells` at every sorted
    coloring of d.  The cells are d's, kept with it from its first query
    (`SingularDiagram.derived`); only the blocks' offset, n*n a block,
    depends on the pair.  The colorings are those `coloring_array` keeps
    with d; each block of them is copied into a padded intp array, whose
    last row, the pad cells' edge, is 0, and read off at the cells."""
    n, edges = p.n, len(d.edges)
    cols = coloring_array(d, p)
    x, y, block = cells
    offset = (block * (n * n))[..., None]

    def index(lo, hi):
        part = cols[lo:hi]
        colors = np.zeros((edges + 1, len(part)), np.intp)
        colors[:-1] = part.T
        return colors[x] * n + colors[y] + offset
    return _evaluate(t, w, (*x.shape, len(cols)), index)


def _tally(t: Target, vals):
    """The distinct (run, value) pairs of vals, a (runs, colorings) array
    of target elements: their values as target elements, in order of first
    appearance run by run, per run the rank of each coloring's pair, and
    the count of each pair.

    Up to _DICT_KEYS pairs, a Counter per run counts its values, keyed by
    the element id in a finite target, by the row's bytes in int64 and by
    the row's tuple of Python ints; insertion order is first appearance,
    and one map reads the ranks back.  Above it, one np.unique sorts
    (run, value) keys: some 35 numpy calls whatever the size, but less
    per pair."""
    runs, m = vals.shape[:2]
    flat = vals.reshape(runs * m, *vals.shape[2:])
    keys = flat.reshape(len(flat), math.prod(vals.shape[2:]))
    tally = _tally_dict if len(flat) <= _DICT_KEYS else _tally_sort
    out, which, counts = tally(flat, keys, runs, m)
    if isinstance(t, AbelianizedGroup):
        out = [(tuple(v[:t.rank]), tuple(v[t.rank:])) for v in out]
    return out, which, counts


def _tally_dict(flat, keys, runs, m):
    """`_tally` in one dict pass per run, values still as flat's rows."""
    width = keys.itemsize * keys.shape[1]
    as_bytes = flat.ndim > 1 and keys.dtype != object and width > 0
    if flat.ndim == 1:            # a finite target: the values are the keys
        items = flat.tolist()
    elif as_bytes:
        keys = np.ascontiguousarray(keys)
        items = keys.view(np.dtype((np.void, width))).ravel().tolist()
    else:
        items = list(map(tuple, keys.tolist()))
    out, which, counts = [], [], []
    for r in range(runs):
        run = items[r * m:(r + 1) * m]
        count = collections.Counter(run)
        rank = dict(zip(count, itertools.count(len(out))))
        which.append(list(map(rank.__getitem__, run)))
        out += count
        counts += count.values()
    if as_bytes:
        out = np.frombuffer(b"".join(out), keys.dtype).reshape(-1, keys.shape[1])
        out = out.tolist()
    return out, which, counts


def _tally_sort(flat, keys, runs, m):
    """`_tally` by one np.unique over (run, value) keys."""
    if keys.dtype == object:      # exact: rank each column of Python ints
        keys = np.stack([np.unique(col, return_inverse=True)[1] for col in keys.T], 1)
    # each (run, value) as one opaque key, filled straight into the
    # narrowest integer type that holds the runs and the values: fewer
    # bytes to copy and to sort
    width = 1 + keys.shape[1]
    both = np.empty((runs, m, width), np.result_type(*map(np.min_scalar_type, (
        keys.min(initial=0), max(keys.max(initial=0), runs - 1)))))
    both[..., 0] = np.arange(runs)[:, None]
    both[..., 1:] = keys.reshape(runs, m, width - 1)
    keys = both.view(np.dtype((np.void, both.itemsize * width))).ravel()
    _, first, which, counts = np.unique(keys, return_index=True,
                                        return_inverse=True, return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return (flat[first[order]].tolist(), rank[which.ravel()].reshape(runs, m).tolist(),
            counts[order].tolist())


def nc_invariant(d: SingularDiagram, p: SingularPair,
                 c: CocyclePair) -> NcInvariantValue:
    """Per coloring, each component's ordered weight product from its
    basepoint, as a conjugacy-class representative.  Enumerative: in a
    non-abelian target the classes do not factor over crossings.  Every
    coloring and every component is evaluated at once, each component's
    weighted passages one run of `_products`."""
    check, w = _stored(p, c, NC, "nc_invariant needs a noncommutative pair")
    if not check.ok:
        raise CocycleInvalidError(
            f"cocycle pair fails {[v[0] for v in check.violations]}")
    t = c.target
    vals = _products(d, p, t, w, d.derived(_nc_cells))
    if isinstance(t, FiniteGroup):
        vals = np.array(t.class_reps)[vals]
    values, which, _ = _tally(t, vals)
    comps = [map(values.__getitem__, ranks) for ranks in which]
    return NcInvariantValue(tuple(zip(*comps)) if comps else ((),) * vals.shape[1])


def state_sum(d: SingularDiagram, p: SingularPair,
              c: CocyclePair) -> GroupRingElement:
    """Phi_{f,h}(L) = sum over colorings of the unordered product of all
    Boltzmann weights, in Z[H]; terms in order of first appearance over
    the sorted colorings."""
    check, w = _stored(p, c, AB, "state_sum needs an abelian pair")
    if not check.ok:
        raise CocycleInvalidError(
            f"cocycle pair fails {[v[0] for v in check.violations]}")
    vals = _products(d, p, c.target, w, d.derived(_sum_cells))
    values, _, counts = _tally(c.target, vals)
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
