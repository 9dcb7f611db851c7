"""Universal coefficient groups as finite presentations, and their
abelianizations via exact integer Smith normal form.

Generators are indexed 0..2n^2-1: first all f_{xy} in row-major order,
then all h_{xy}.  A relation is a word of (generator, exponent) letters;
only exponent sums matter after abelianizing, but the words keep their
order so they can be evaluated in noncommutative targets.

The relation table (`relation_families`) is the single definition of the
cocycle conditions: a cocycle pair into G is a homomorphism from the
universal group that sends f(x,y), h(x,y) to their table values, so the
same families present U_nc^{fh} and Ab^{fh} here and are evaluated in the
target by the cocycle checkers in `invariant`.

`family_words` stacks every instance of every family into one padded
array per side, in `relation_instances` order, with a fixed number of
numpy calls besides the families' own indexing.  A pair builds that
stack once per kind, at its first presentation or cocycle check of the
kind, and keeps it read-only in its `derived` store (`relation_words`),
where the presentations here and the checkers in `invariant` read it.  A
presentation is read off that stack in bulk: each relator lhs rhs^-1 is
freely reduced by stripping the common suffix of its two sides, and the
words are cut from one tuple of letters.  It keeps the same letters as
arrays of (word index, generator, exponent), so its exponent matrix is
one scatter-add.  `abelianize` reads each generator's coordinates
off the column transform of the Smith normal form by slicing.  Nearly
every pivot of a relation matrix is +-1; those are found from one flag per
row, and each clears its row and column by one column update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NotInvolutiveError
from .pairs import SingularPair
from .pairtable import PairTable, json_checked, json_list

Word = tuple[tuple[int, int], ...]


def f_gen(n: int, x: int, y: int) -> int:
    return x * n + y


def h_gen(n: int, x: int, y: int) -> int:
    return n * n + x * n + y


def generator_name(n: int, g: int) -> str:
    kind = "f" if g < n * n else "h"
    g %= n * n
    return f"{kind}({g // n},{g % n})"


@dataclass(frozen=True)
class Presentation:
    n: int
    kind: str                      # "nc" | "ab"
    relations: tuple[Word, ...]
    # every letter of the relations as three arrays, (word index,
    # generator, exponent), in word order: `_build_presentation`'s own,
    # or read off the words once when a presentation is made by hand
    letters: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.letters is None:
            object.__setattr__(self, "letters", _letter_arrays(self.relations))

    @property
    def num_generators(self) -> int:
        return 2 * self.n * self.n

    def exponent_matrix(self) -> np.ndarray:
        """The (relations, generators) matrix of exponent sums, one
        scatter-add of `letters`: int64, or Python ints (object dtype)
        when the exponents' absolute sum passes 2^30."""
        word, gen, exp = self.letters
        big = exp.dtype == object or abs(exp).sum() > _INT64_SAFE
        M = np.zeros((len(self.relations), self.num_generators),
                     dtype=object if big else np.int64)
        np.add.at(M, (word, gen), exp.astype(M.dtype))
        return M


def _letter_arrays(words):
    """`Presentation.letters` of words of (generator, exponent) letters:
    intp word indices and generators, and the exponents as int64 while
    each is at most 2^30 in absolute value, else as Python ints."""
    exps = [e for w in words for _, e in w]
    return (np.repeat(np.arange(len(words)), [len(w) for w in words]),
            np.array([g for w in words for g, _ in w], dtype=np.intp),
            np.array(exps, dtype=object if max(map(abs, exps), default=0) > _INT64_SAFE
                     else np.int64))


# ---------------------------------------------------------------------------
# the relation table: the single definition of the cocycle conditions
# ---------------------------------------------------------------------------

def relation_families(p: SingularPair, kind: str):
    """The relation families of U_nc^{fh} (kind "nc") or Ab^{fh} ("ab").

    Each entry is (name, relation), listed in reporting order.  relation
    takes a point (x), (x, y) or (x, y, z) as integer arrays, all points
    of a batch at once, and returns the generator index arrays of the
    letters of the two sides of lhs = rhs; every letter has exponent +1.
    `family_words` runs it over every point.
    """
    n = p.n
    s1, s2 = np.array(p.biquandle.table.t1), np.array(p.biquandle.table.t2)
    t1, t2 = np.array(p.tau.t1), np.array(p.tau.t2)
    s = np.array(p.biquandle.s_map)

    # F[x, y] = f_gen(n, x, y), H[x, y] = h_gen(n, x, y)
    F = np.arange(n * n).reshape(n, n)
    H = F + n * n

    if kind == "nc":
        return (
            # (f1)  f(x,y) f(S2(x,y),z) = f(x,S1(y,z)) f(S2(x,S1(y,z)),S2(y,z))
            ("f1", lambda x, y, z: (
                [F[x, y], F[s2[x, y], z]],
                [F[x, s1[y, z]], F[s2[x, s1[y, z]], s2[y, z]]])),
            # (f4)  f(x,y) f(S2(x,y),z) = f(x,tau1(y,z)) f(S2(x,tau1(y,z)),tau2(y,z))
            ("f4", lambda x, y, z: (
                [F[x, y], F[s2[x, y], z]],
                [F[x, t1[y, z]], F[s2[x, t1[y, z]], t2[y, z]]])),
            # (h1)  h(S1(x,y),S1(S2(x,y),z)) = h(y,z)
            ("h1", lambda x, y, z: (
                [H[s1[x, y], s1[s2[x, y], z]]], [H[y, z]])),
            # (c1)  f(x,S1(y,z)) h(S2(x,S1(y,z)),S2(y,z)) = h(x,y) f(tau2(x,y),z)
            ("c1", lambda x, y, z: (
                [F[x, s1[y, z]], H[s2[x, s1[y, z]], s2[y, z]]],
                [H[x, y], F[t2[x, y], z]])),
            # (c2)  f(y,z) h(S2(x,S1(y,z)),S2(y,z)) = h(x,y) f(tau1(x,y),S1(tau2(x,y),z))
            ("c2", lambda x, y, z: (
                [F[y, z], H[s2[x, s1[y, z]], s2[y, z]]],
                [H[x, y], F[t1[x, y], s1[t2[x, y], z]]])),
            # (c3)  h(x,y) = f(x,y) h(S(x,y))
            ("c3", lambda x, y: (
                [H[x, y]], [F[x, y], H[s1[x, y], s2[x, y]]])),
            # (c4)  h(S(x,y)) = h(x,y) f(tau(x,y))
            ("c4", lambda x, y: (
                [H[s1[x, y], s2[x, y]]], [H[x, y], F[t1[x, y], t2[x, y]]])),
        )
    return (
        # (f1')  f(x,y) f(S2(x,y),z) f(S1(x,y),S1(S2(x,y),z))
        #          = f(x,S1(y,z)) f(S2(x,S1(y,z)),S2(y,z)) f(y,z)
        ("f1'", lambda x, y, z: (
            [F[x, y], F[s2[x, y], z], F[s1[x, y], s1[s2[x, y], z]]],
            [F[x, s1[y, z]], F[s2[x, s1[y, z]], s2[y, z]], F[y, z]])),
        # (f2')  f(x, s(x)) = 1
        ("f2'", lambda x: ([F[x, s[x]]], [])),
        # (c1')  h(y,z) f(x,tau1(y,z)) f(S2(x,tau1(y,z)),tau2(y,z))
        #          = f(x,y) f(S2(x,y),z) h(S1(x,y),S1(S2(x,y),z))
        ("c1'", lambda x, y, z: (
            [H[y, z], F[x, t1[y, z]], F[s2[x, t1[y, z]], t2[y, z]]],
            [F[x, y], F[s2[x, y], z], H[s1[x, y], s1[s2[x, y], z]]])),
        # (c2')  f(y,z) f(x,S1(y,z)) h(S2(x,S1(y,z)),S2(y,z))
        #          = h(x,y) f(tau2(x,y),z) f(tau1(x,y),S1(tau2(x,y),z))
        ("c2'", lambda x, y, z: (
            [F[y, z], F[x, s1[y, z]], H[s2[x, s1[y, z]], s2[y, z]]],
            [H[x, y], F[t2[x, y], z], F[t1[x, y], s1[t2[x, y], z]]])),
        # (c3')  f(x,y) h(S(x,y)) = h(x,y) f(tau(x,y))
        ("c3'", lambda x, y: (
            [F[x, y], H[s1[x, y], s2[x, y]]], [H[x, y], F[t1[x, y], t2[x, y]]])),
    )


class Relations(NamedTuple):
    """Every instance of every relation family, one row each, in
    `relation_instances` order.  lhs and rhs hold the generator indices
    of the two sides, each right-aligned and padded on the left with -1
    to the longest side of any family; instance i belongs to family
    family[i] (names[family[i]], of arity arity[family[i]]) at the point
    with index point[i] in the row-major order of X^k."""
    names: tuple[str, ...]
    arity: tuple[int, ...]
    family: np.ndarray
    point: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray


def family_words(families, n: int) -> Relations:
    """Run every family at every point of X^3 and keep its instances.

    A family of arity k reads the first k coordinates, so of its n^(3-k)
    equal copies at a point of X^k it keeps the one whose other
    coordinates are 0.  Kept in the row-major order of (point of X^3,
    arity, family), that is `relation_instances` order: at (x, 0, 0) the
    unary families, at (x, y, 0) the binary ones, at every (x, y, z) the
    ternary ones.  Every family is evaluated before the stacking, so
    beyond the families' own indexing a call makes a fixed number of
    numpy calls.
    """
    points = np.indices((n, n, n)).reshape(3, -1)
    names = tuple(name for name, _ in families)
    arity = tuple(rel.__code__.co_argcount for _, rel in families)
    # unary, then binary, then ternary families, each in table order
    order = sorted(range(len(families)), key=arity.__getitem__)
    sides = [side for f in order for side in families[f][1](*points[:arity[f]])]
    width = max(map(len, sides))
    pad = [np.full(n ** 3, -1)]
    # (point, family, side, letter), each side right-aligned
    letters = np.concatenate([g for side in sides for g in pad * (width - len(side)) + side])
    letters = letters.reshape(len(order), 2, width, n ** 3).transpose(3, 0, 1, 2)
    # the coordinates after the last one read are 0: 2 at (x, 0, 0), 1 at (x, y, 0)
    zeros = (points[2] == 0) * (1 + (points[1] == 0))
    at, col = np.nonzero(np.array([arity[f] for f in order]) + zeros[:, None] >= 3)
    kept = letters[at, col]
    family = np.array(order)[col]
    return Relations(names, arity, family, at // (n ** (3 - np.array(arity)))[family],
                     kept[:, 0], kept[:, 1])


def relation_instances(families, n: int):
    """Yield (name, point, lhs, rhs) for every instance of every family,
    the sides as lists of generator indices read off `family_words`.

    x walks the unary families, y the binary ones and z the ternary ones,
    each in table order, so relations come out grouped by point.
    """
    t = family_words(families, n)
    for f, i, lhs, rhs in zip(t.family.tolist(), t.point.tolist(),
                              t.lhs.tolist(), t.rhs.tolist()):
        k = t.arity[f]
        yield (t.names[f], tuple(i // n ** (k - 1 - j) % n for j in range(k)),
               [g for g in lhs if g >= 0], [g for g in rhs if g >= 0])


def relation_words(p: SingularPair, kind: str) -> Relations:
    """`family_words` of p's relation families of the kind ("nc" or
    "ab"), as read-only arrays.  Presentations and cocycle checks read
    them from p's `derived` store, `p.derived(relation_words, kind)`, so a
    pair object builds them once per kind."""
    t = family_words(relation_families(p, kind), p.n)
    for a in (t.family, t.point, t.lhs, t.rhs):
        a.flags.writeable = False
    return t


def _build_presentation(p: SingularPair, kind: str) -> Presentation:
    """Each relator lhs rhs^-1, freely reduced, in `relation_instances`
    order; empty ones dropped, and repeats after their first occurrence.

    A relator is a row of signed codes, +(g+1) for g and -(g+1) for g^-1:
    lhs right-aligned, then rhs reversed and inverted, with 0 for a pad.
    Every lhs letter has exponent +1 and every rhs letter -1, so letters
    cancel only in pairs outwards from where the two halves meet: the
    common suffix of lhs and rhs.  The words are cut from one tuple of
    all kept letters, a dict keeps each word's first occurrence, and the
    presentation's letter arrays are the codes of one row per word."""
    t = p.derived(relation_words, kind)
    w = t.lhs.shape[1]
    codes = np.concatenate([t.lhs, -2 - t.rhs[:, ::-1]], axis=1) + 1
    # pairs (lhs[-1-j], rhs[-1-j]) that cancel, up to the first that does
    # not; two pads count as cancelling, and are dropped either way
    cut = np.logical_and.accumulate(codes[:, w - 1::-1] + codes[:, w:] == 0, axis=1)
    kept = (codes != 0) & ~np.concatenate([cut[:, ::-1], cut], axis=1)
    # each code's (generator, exponent) letter, one object shared by the words
    g = 2 * p.n * p.n
    alphabet = ([(i, -1) for i in range(g - 1, -1, -1)] + [None]
                + [(i, 1) for i in range(g)])
    lens = kept.sum(axis=1)
    letters = tuple(map(alphabet.__getitem__, (codes[kept] + g).tolist()))
    ends = np.cumsum(lens).tolist()
    rows = list(map(letters.__getitem__, map(slice, [0] + ends, ends)))
    # a dict keeps each word where it first occurs, with the last row that
    # holds it: equal words have equal letters
    at = dict(zip(rows, range(len(rows))))
    at.pop((), None)
    words, chosen = tuple(at), list(at.values())
    code = codes[chosen][kept[chosen]]
    import logging    # on first use, so importing this module does not load it
    logging.getLogger(__name__).debug(
        "%s presentation: %d relation instances, %d words kept, %d letters",
        kind, len(rows), len(words), len(code))
    return Presentation(p.n, kind, words, (
        np.repeat(np.arange(len(words)), lens[chosen]), abs(code) - 1, np.sign(code)))


def build_unc_presentation(p: SingularPair) -> Presentation:
    """The seven relation families presenting U_nc^{fh}(X, S, tau)."""
    return _build_presentation(p, "nc")


def build_ab_presentation(p: SingularPair) -> Presentation:
    """The abelian presentation of Ab^{fh}: (f1'),(f2'),(c1'),(c2'),(c3')."""
    return _build_presentation(p, "ab")


# ---------------------------------------------------------------------------
# Smith normal form over Z (exact: int64 while entries are small, then
# Python integers)
# ---------------------------------------------------------------------------

# A row or column update replaces a by a - q*b; with |a|, |b|, |q| at most
# this the result stays below 2^61, so int64 arithmetic is exact.
_INT64_SAFE = 1 << 30


def _exceeds(block) -> bool:
    return block.size > 0 and (block.max() > _INT64_SAFE
                               or block.min() < -_INT64_SAFE)


def _int_matrix(M):
    """M as an int64 array, or as an object array of Python ints when an
    entry is too large for exact int64 elimination."""
    try:
        A = np.array(M, dtype=np.int64)
        if not _exceeds(A):
            return A
    except OverflowError:
        pass
    return np.array([[int(x) for x in row] for row in M], dtype=object)


def _smith_reduce(W, r: int, c: int):
    """Bring W[:r, :c] to Smith normal form; return (W, number of pivots).

    Row operations act on whole rows of W[:r] and column operations on
    whole columns of W[:, :c]; pivot searches see W[:r, :c] only.  With
    identities in W[:r, c:] and W[r:, :c] these record U and V.

    Each pivot is the first nonzero entry of least absolute value in
    W[k:r, k:c], in row-major order.  While the block holds a +-1, that is
    its first +-1, read off per-row flags, and the step is a unit step:
    the update of the columns that row k meets also does the row sweep's
    work on W[:r, :c], so the row sweep runs on U alone and column k keeps
    entries below the pivot that nothing reads.  When the units run out
    those entries are zeroed, and the general loop (one masked argmin, both
    sweeps, re-pivot until row and column are clear) takes the rest.  W
    comes back as an object array of Python ints when it is one, or when
    an updated block has an entry beyond 2^30; int64 is exact until then.
    """

    def widen(block):
        nonlocal W
        if W.dtype != object and _exceeds(block):
            W = W.astype(object)

    def swap(k, i, j):
        """Move entry (i, j) to (k, k) by swapping whole rows and columns."""
        if i != k:
            W[k], W[i] = W[i], W[k].copy()
        if j != k:
            W[:, k], W[:, j] = W[:, j], W[:, k].copy()

    def pivot(k, R, C):
        """First nonzero entry of least absolute value in W[k:R, k:C], in
        row-major order, or None when the block is zero: one argmin, with
        the zeros masked by a value above every entry."""
        B = abs(W[k:R, k:C])
        if not B.any():
            return None
        at = np.where(B == 0, B.max() + 1, B).argmin()
        return k + at // (C - k), k + at % (C - k)

    def reduce_at(k, R, C):
        """Pivot at (k, k) and clear the rest of row k and column k inside
        W[:R, :C]; False when W[k:R, k:C] is zero."""
        piv = pivot(k, R, C)
        if piv is None:
            return False
        while True:
            swap(k, *piv)
            # row k and column k stay fixed while the other rows (columns)
            # are reduced by them, so each sweep is one rank-1 update
            rows = k + 1 + np.flatnonzero(W[k + 1:R, k])
            if rows.size:
                q = W[rows, k] // W[k, k]
                W[rows] = new = W[rows] - np.outer(q, W[k])
                widen(new)
            cols = k + 1 + np.flatnonzero(W[k, k + 1:C])
            if cols.size:
                q = W[k, cols] // W[k, k]
                W[:, cols] = new = W[:, cols] - np.outer(W[:, k], q)
                widen(new)
            if not (W[rows, k].any() or W[k, cols].any()):
                return True
            piv = pivot(k, R, C)

    # unit steps.  unit[i] says whether W[i, k:c] holds a +-1; a step
    # changes only the rows with a nonzero in column k, so only their
    # flags are recomputed.
    unit = (abs(W[:r, :c]) == 1).any(axis=1)
    k = 0
    while k < min(r, c):
        i = k + unit[k:].argmax()
        if not unit[i]:
            break
        swap(k, i, k + (abs(W[i, k:c]) == 1).argmax())
        unit[i] = unit[k]
        u = W[k, k]
        # rows above k are zero in column k, so nz starts with k
        nz = np.flatnonzero(W[:, k])
        rows = nz[1:nz.searchsorted(r)]
        if rows.size and W.shape[1] > c:
            # the row sweep on U only: on W[:r, :c] the column update does
            # its work, since both subtract W[i, k] * u * W[k, j] there
            W[rows, c:] = new = W[rows, c:] - np.outer(W[rows, k] * u, W[k, c:])
            widen(new)
        cols = k + 1 + np.flatnonzero(W[k, k + 1:c])
        if cols.size:
            at = nz[:, None], cols
            W[at] = new = W[at] - np.outer(W[nz, k], W[k, cols] * u)
            widen(new)
        # column k keeps its entries below the pivot; nothing reads them
        unit[rows] = (abs(W[rows, k + 1:c]) == 1).any(axis=1)
        if u < 0:
            W[k] = -W[k]
        k += 1
    units = k
    W[:r, :k][np.tri(r, k, -1, dtype=bool)] = 0

    while k < min(r, c) and reduce_at(k, r, c):
        if W[k, k] < 0:
            W[k] = -W[k]
        k += 1
    import logging    # on first use, so importing this module does not load it
    logging.getLogger(__name__).debug(
        "smith normal form: %d unit pivots, then %d general pivots on the "
        "%d x %d block left",
        units, k - units, r - units, c - units)

    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            if W[i + 1, i + 1] % W[i, i]:
                # col i += col i+1 puts d_{i+1} under d_i; rediagonalizing
                # the 2x2 block replaces (d_i, d_{i+1}) with (gcd, lcm)
                W[:, i] = new = W[:, i] + W[:, i + 1]
                widen(new)
                reduce_at(i, i + 2, i + 2)
                for j in (i, i + 1):
                    if W[j, j] < 0:
                        W[j] = -W[j]
                changed = True
    return W, k


def smith_normal_form(M):
    """Return (U, D, V) with U*M*V = D diagonal, d1 | d2 | ..., U,V unimodular.

    Pivoting always picks the nonzero entry of least absolute value in the
    remaining submatrix (the first one in row-major order), which keeps
    coefficients small on the relation matrices this package produces.
    A +-1 pivot clears its row and column by one rank-1 update of the
    columns it meets, and of U's rows; any other pivot by one update of
    the rows and one of the columns, repeated until both are clear.
    The arithmetic is int64 while every entry of M, U and V stays within
    2^30, where it is exact; the first entry beyond that moves the rest of
    the run to Python integers, so the result is exact for any input.
    U, D and V are nested lists of Python ints.
    """
    A = _int_matrix(M)
    if A.ndim < 2:
        return [], [], []
    r, c = A.shape
    W = np.zeros((r + c, c + r), dtype=A.dtype)
    W[:r, :c] = A
    W[np.arange(r), c + np.arange(r)] = 1
    W[r + np.arange(c), np.arange(c)] = 1
    W, _ = _smith_reduce(W, r, c)
    return W[:r, c:].tolist(), W[:r, :c].tolist(), W[r:, :c].tolist()


# ---------------------------------------------------------------------------
# finitely generated abelian groups in invariant-factor coordinates
# ---------------------------------------------------------------------------

Element = tuple[tuple[int, ...], tuple[int, ...]]    # (free coords, torsion coords)


@dataclass(frozen=True)
class AbelianizedGroup:
    """Z^rank + sum Z/d_i, with the image of every presentation generator."""

    rank: int
    torsion: tuple[int, ...]
    coord_map: tuple[Element, ...]
    free_labels: tuple[str, ...] = ()
    torsion_labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.rank < 0 or any(d < 2 for d in self.torsion):
            raise ValueError(f"bad rank {self.rank} or torsion {list(self.torsion)}")
        if not self.free_labels:
            object.__setattr__(self, "free_labels",
                               tuple(f"z{i+1}" for i in range(self.rank)))
        if not self.torsion_labels:
            object.__setattr__(self, "torsion_labels",
                               tuple(f"u{i+1}" for i in range(len(self.torsion))))
        if (len(self.free_labels), len(self.torsion_labels)) != \
                (self.rank, len(self.torsion)):
            raise ValueError("free_labels and torsion_labels need one label per factor")
        self.check_elements(self.coord_map, "coord_map values")

    def check_elements(self, elements, what: str):
        """ValueError unless each element has this group's coordinates."""
        shape = self.rank, len(self.torsion)
        if not all(tuple(map(len, a)) == shape for a in elements):
            raise ValueError(f"{what} must have {shape[0]} free and "
                             f"{shape[1]} torsion coordinates")

    # group operations on elements -----------------------------------
    def identity(self) -> Element:
        return (0,) * self.rank, (0,) * len(self.torsion)

    def mul(self, a: Element, b: Element) -> Element:
        free = tuple(x + y for x, y in zip(a[0], b[0]))
        tors = tuple((x + y) % d for x, y, d in zip(a[1], b[1], self.torsion))
        return free, tors

    def inv(self, a: Element) -> Element:
        free = tuple(-x for x in a[0])
        tors = tuple((-x) % d for x, d in zip(a[1], self.torsion))
        return free, tors

    def power(self, a: Element, e: int) -> Element:
        free = tuple(e * x for x in a[0])
        tors = tuple((e * x) % d for x, d in zip(a[1], self.torsion))
        return free, tors

    def generator(self, g: int) -> Element:
        return self.coord_map[g]

    def normal_form(self, word: Word) -> Element:
        out = self.identity()
        for g, e in word:
            out = self.mul(out, self.power(self.coord_map[g], e))
        return out

    def render_element(self, a: Element) -> str:
        parts = []
        for lbl, e, d in zip(self.torsion_labels, a[1], self.torsion):
            e %= d
            if e == 1:
                parts.append(lbl)
            elif e:
                parts.append(f"{lbl}^{e}")
        for lbl, e in zip(self.free_labels, a[0]):
            if e == 1:
                parts.append(lbl)
            elif e:
                parts.append(f"{lbl}^{e}")
        return "*".join(parts) if parts else "1"

    def to_dict(self):
        return {"rank": self.rank, "torsion": list(self.torsion),
                "coord_map": [[list(a[0]), list(a[1])] for a in self.coord_map],
                "free_labels": list(self.free_labels),
                "torsion_labels": list(self.torsion_labels)}

    @staticmethod
    def read_element(value, what: str) -> Element:
        """An element as JSON writes it, [free, torsion]: two lists of
        integers, whose lengths `check_elements` checks."""
        parts = json_checked(value, list, what)
        if len(parts) != 2:
            raise ValueError(f"{what} must be a [free, torsion] pair, got {value!r}")
        return tuple(tuple(json_list(v, int, f"the {part} part of {what}"))
                     for v, part in zip(parts, ("free", "torsion")))

    @classmethod
    def from_dict(cls, d):
        return cls(json_checked(d["rank"], int, "rank"),
                   tuple(json_list(d["torsion"], int, "torsion")),
                   tuple(cls.read_element(a, f"coord_map[{g}]")
                         for g, a in enumerate(json_checked(d["coord_map"], list,
                                                            "coord_map"))),
                   tuple(json_list(d.get("free_labels", []), str, "free_labels")),
                   tuple(json_list(d.get("torsion_labels", []), str,
                                   "torsion_labels")))


def abelianize(pres: Presentation) -> AbelianizedGroup:
    """Quotient Z^{2n^2} by the rows of the relation exponent matrix.

    Runs the elimination of `smith_normal_form` with only the column
    transform V carried along; the row transform U is never formed, so a
    unit pivot's step is one column update.
    Generator j's coordinates are row j of V: its free ones the columns
    past the last pivot, its torsion ones the columns of the invariant
    factors d_i > 1, reduced mod d_i; both are read as array slices.
    """
    g = pres.num_generators
    M = pres.exponent_matrix()
    r = len(M)
    W = np.concatenate([M, np.identity(g, M.dtype)])    # W[:r] = M, W[r:] = I
    W, r0 = _smith_reduce(W, r, g)
    # generator e_j has coordinates row j of V = W[r:] in the new basis:
    # the free ones in columns r0.., the torsion ones where d_i > 1
    diag = W.diagonal()[:r0]
    tors = np.flatnonzero(diag > 1)
    V = W[r:]
    coord = tuple(zip(map(tuple, V[:, r0:].tolist()),
                      map(tuple, (V[:, tors] % diag[tors]).tolist())))
    torsion = tuple(diag[tors].tolist())
    return AbelianizedGroup(g - r0, torsion, coord)


# ---------------------------------------------------------------------------
# finite groups given by multiplication tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteGroup:
    order: int
    table: tuple[tuple[int, ...], ...]
    identity_index: int = field(init=False, default=0)
    inverse: tuple[int, ...] = field(init=False, default=())
    # derived from the table once: whether it commutes, and per element
    # the least element of its conjugacy class
    abelian: bool = field(init=False, default=False, repr=False, compare=False)
    class_reps: tuple[int, ...] = field(init=False, default=(), repr=False,
                                        compare=False)

    def __post_init__(self):
        k = self.order
        t = tuple(tuple(int(v) for v in row) for row in self.table)
        object.__setattr__(self, "table", t)
        if len(t) != k or any(len(r) != k for r in t):
            raise ValueError("multiplication table has wrong shape")
        ident = None
        for e in range(k):
            if all(t[e][x] == x and t[x][e] == x for x in range(k)):
                ident = e
                break
        if ident is None:
            raise ValueError("no identity element")
        inv = [None] * k
        for x in range(k):
            for y in range(k):
                if t[x][y] == ident and t[y][x] == ident:
                    inv[x] = y
        if any(v is None for v in inv):
            raise ValueError("missing inverses")
        for x in range(k):
            for y in range(k):
                for z in range(k):
                    if t[t[x][y]][z] != t[x][t[y][z]]:
                        raise ValueError("multiplication is not associative")
        reps = [None] * k
        for a in range(k):
            if reps[a] is None:
                orbit = {t[t[g][a]][inv[g]] for g in range(k)}
                rep = min(orbit)
                for b in orbit:
                    reps[b] = rep
        object.__setattr__(self, "identity_index", ident)
        object.__setattr__(self, "inverse", tuple(inv))
        object.__setattr__(self, "abelian", all(
            t[a][b] == t[b][a] for a in range(k) for b in range(a)))
        object.__setattr__(self, "class_reps", tuple(reps))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def identity(self) -> int:
        return self.identity_index

    def is_abelian(self) -> bool:
        return self.abelian

    def conjugacy_class_rep(self, a: int) -> int:
        return min(self.mul(self.mul(g, a), self.inv(g)) for g in range(self.order))

    @classmethod
    def cyclic(cls, k: int) -> "FiniteGroup":
        return cls(k, [[(i + j) % k for j in range(k)] for i in range(k)])

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        import itertools
        perms = sorted(itertools.permutations(range(n)))
        idx = {p: i for i, p in enumerate(perms)}
        table = [[idx[tuple(p[q[i]] for i in range(n))] for q in perms]
                 for p in perms]
        return cls(len(perms), table)

    @classmethod
    def from_dict(cls, d):
        return cls(json_checked(d["order"], int, "order"),
                   json_list(d["mul"], int, "mul", 2))


# ---------------------------------------------------------------------------
# group-ring elements (finitely supported integer combinations)
# ---------------------------------------------------------------------------

class GroupRingElement:
    """Sum of group elements with integer coefficients; zero coeffs dropped.

    terms is a dict element -> coefficient, or pairs (element,
    coefficient) in which an element may repeat: its coefficients add up,
    at the place of its first occurrence."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        if not isinstance(terms, dict):
            merged = {}
            for elem, coeff in terms:
                merged[elem] = merged.get(elem, 0) + coeff
            terms = merged
        self.terms = {elem: coeff for elem, coeff in terms.items() if coeff}

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return GroupRingElement(out)

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"GroupRingElement({sorted(self.terms.items())})"

    def coefficient_sum(self) -> int:
        return sum(self.terms.values())


def equivalence_classes_involutive(S: PairTable) -> list[tuple[tuple[int, int], ...]]:
    """Finest partition of X x X closed under (y,z) ~ (S1(x,y), S1(S2(x,y),z)).

    Defined for involutive S only; the class count equals the rank of the
    abelianized universal group of the pair (S, S).
    """
    if not S.is_involutive():
        raise NotInvolutiveError("S is not involutive")
    n = S.n
    parent = {(x, y): (x, y) for x in range(n) for y in range(n)}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(p, q):
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[max(rp, rq)] = min(rp, rq)

    for x in range(n):
        for y in range(n):
            for z in range(n):
                union((y, z), (S.t1[x][y], S.t1[S.t2[x][y]][z]))
    classes: dict[tuple, list] = {}
    for p in parent:
        classes.setdefault(find(p), []).append(p)
    return sorted(tuple(sorted(v)) for v in classes.values())
