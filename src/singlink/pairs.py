"""Singular pairs: axioms, exhaustive enumeration, bialexander families.

A singular pair is a biquandle S together with a bijective, left- and
right-invertible tau: X x X -> X x X satisfying the three identities of
SINGULAR_PAIR_AXIOMS:

    (1) tau o S = S o tau                                     (RV)
    (2) (Sx1)(1xS)(tau x 1) = (1 x tau)(Sx1)(1xS)             (RIVb)
    (3) (1xS)(Sx1)(1 x tau) = (tau x 1)(1xS)(Sx1)             (RIVa)

That table, two words of elementary maps per identity, is their only
definition.  check_singular_pair evaluates both words at every point, and
the diagram layer reads the RIVa and RIVb moves off the same words (and
RIII off pairtable.YANG_BAXTER): the two sides of an identity are the two
sides of its move.
One search serves every switch.  It fills tau1 cell by cell in row-major
order (left invertibility makes each row a permutation), derives tau2
pointwise from the first component of (1), and checks every other
component of every identity as soon as the cells it reads are filled;
which cells those are comes from running the words' S-only prefixes, so
the words stay the only definition.  Components that hold for every tau
are never checked: run on the n^2 constant taus when the plan is built,
they agree on all of them and either read tau at the same cell on both
sides or read no tau.  The same images, one row per component and tau
value, are the table the search reads each component from.  The search
runs on numpy batches of partial taus (`batch.run`), one level per run of
cells that ends where something becomes due, and returns one int8 array,
which `enumerate_taus` checks once more as it stands (`pair_verdicts`
runs the same words over numpy arrays) before it builds tables, only for
what it returns.
Isomorphism classes are keyed by the least relabeled table stack
(`canonical_form`).  Under Aut(S), which fixes S, a class is an Aut(S)-
orbit of taus, and the search's array holds whole orbits: `_orbit_keys`
relabels each tau once per generator of a small generating set of Aut(S),
looks the images up among the input and keys each tau by the least member
of its orbit, P * |generators| relabeled stacks in place of
P * |Aut(S)|.  That serves up_to_iso, `classify_isomorphism` of more than
64 pairs sharing a switch, and the lr table's class count.
`canonical_form` still keys partial orbits, inputs too small for the
orbits to pay (ORBIT_MIN), and pairs under all n! relabelings.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import factorial, gcd, perm, prod

import numpy as np

from . import batch
from .errors import (DimensionMismatchError, HomogeneityViolationError,
                     NonUnitError, SearchBoundExceededError, UnknownNameError)
from .pairtable import (Biquandle, Derived, PairTable, dihedral_switch,
                        first_failure, flat_map, flip_switch, i2_switch, word_arity,
                        word_images)

# batch sizes: taus per `pair_verdicts` call in the `enumerate_taus`
# guard and per `tolist` when the search's tables are built, and relabeled
# cells (stacks x relabelings x table cells) per batch of `canonical_form`
# and per generator lookup in `_orbit_keys`: large enough to amortise
# numpy's cost per call, small enough that a batch's arrays and lists stay
# near 100 kB
CHECK_BATCH = 128
CANONICAL_BATCH = 1 << 14
# `_orbit_keys` closes its input under generators only where
# `canonical_form` would relabel more cells than this (stacks x |group| x
# table cells): below, its fixed cost, a sort of the keys, the generating
# set and the closure passes, exceeds the relabelings it saves (measured
# crossover between 25,600 and 36,864 cells)
ORBIT_MIN = 1 << 15
# the tau search: the `batch.run` row cap; component equations checked
# per gather before failing taus are dropped; and the candidates the first
# level reaches before it may end, since on fewer rows a level costs more
# than what a cut could prune
SEARCH_ROWS = 1 << 12
SEARCH_CHUNK = 32
SEARCH_LEAD = 1 << 8
# automorphism candidates: table cells (candidates x n^2) checked per batch
AUT_BATCH = 1 << 14

# (name, lhs, rhs): words of letters (map, i) in application order, S the
# switch and T the companion tau, listed in reporting order
SINGULAR_PAIR_AXIOMS = (
    ("rv", (("S", 0), ("T", 0)), (("T", 0), ("S", 0))),
    ("rivb", (("T", 0), ("S", 1), ("S", 0)), (("S", 1), ("S", 0), ("T", 1))),
    ("riva", (("T", 1), ("S", 0), ("S", 1)), (("S", 0), ("S", 1), ("T", 0))),
)


@dataclass(frozen=True, slots=True)
class SingularPair(Derived):
    """A switch and tau on one carrier; its `derived` store keeps the
    coloring search's tables (`coloring.flat_tables`) from its first
    search on, the relation instances of each kind that its presentations
    and cocycle checks read (`presentation.relation_words`) from the
    first that needs them, and its hash from the first one taken: a
    cocycle pair's store is keyed by the pair, so every query takes it."""

    biquandle: Biquandle
    tau: PairTable

    def __post_init__(self):
        if self.biquandle.n != self.tau.n:
            raise DimensionMismatchError("switch and tau live on different sets")

    def __hash__(self):
        return self.derived(_field_hash)

    @property
    def n(self) -> int:
        return self.biquandle.n

    def key(self):
        return self.biquandle.table.key() + self.tau.key()

    def relabel(self, g) -> "SingularPair":
        return SingularPair(Biquandle(self.biquandle.table.relabel(g)),
                            self.tau.relabel(g))

    def to_dict(self):
        return {"biquandle": self.biquandle.table.to_dict(),
                "tau": self.tau.to_dict()}

    @classmethod
    def from_dict(cls, d) -> "SingularPair":
        """A pair file; its switch must be a biquandle, tau may fail the axioms."""
        return cls(Biquandle.from_table(PairTable.from_dict(d["biquandle"])),
                   PairTable.from_dict(d["tau"]))

    @classmethod
    def checked(cls, biquandle: Biquandle, tau: PairTable) -> "SingularPair":
        res = check_singular_pair(biquandle, tau)
        if not res.ok:
            v = res.violations[0]
            raise ValueError(f"not a singular pair: violated {v.axiom} at {v.witness}")
        return cls(biquandle, tau)


def _field_hash(p: SingularPair) -> int:
    """The hash a frozen dataclass gives: of the tuple of its fields."""
    return hash((p.biquandle, p.tau))


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple


@dataclass(frozen=True)
class PairCheck:
    ok: bool
    violations: tuple[Violation, ...]


def check_singular_pair(S: Biquandle, tau: PairTable) -> PairCheck:
    """Check invertibility, bijectivity and SINGULAR_PAIR_AXIOMS; report the
    first witness per category (row-major first failing point per axiom)."""
    if S.n != tau.n:
        raise DimensionMismatchError(
            f"switch on {S.n} elements, tau on {tau.n}")
    n = S.n
    bad: list[Violation] = []

    if not tau.is_left_invertible():
        x = next(x for x in range(n) if len(set(tau.t1[x])) != n)
        bad.append(Violation("left_invertible", (x,)))
    if not tau.is_right_invertible():
        y = next(y for y in range(n)
                 if len({tau.t2[x][y] for x in range(n)}) != n)
        bad.append(Violation("right_invertible", (y,)))
    if not tau.is_bijective():
        seen = {}
        wit = None
        for x in range(n):
            for y in range(n):
                img = tau.apply(x, y)
                if img in seen and wit is None:
                    wit = (seen[img], (x, y))
                seen[img] = (x, y)
        bad.append(Violation("bijective", wit))

    maps = {"S": S.table, "T": tau}
    for name, lhs, rhs in SINGULAR_PAIR_AXIOMS:
        point = first_failure(lhs, rhs, maps, n)
        if point is not None:
            bad.append(Violation(name, point))

    return PairCheck(not bad, tuple(bad))


def pair_verdicts(S: Biquandle, taus: np.ndarray,
                  require_bijective: bool = True) -> np.ndarray:
    """`check_singular_pair(S, tau).ok` for each tau of a (P, 2, n, n)
    integer array of (tau1, tau2) tables with entries in 0..n-1, as one
    bool array; with require_bijective=False, whether tau breaks nothing
    but bijectivity.

    The same checks as numpy arrays over the whole batch: every tau1 row
    and tau2 column sorts to 0..n-1 (left and right invertibility), the
    n^2 cells (tau1, tau2) sort to 0..n^2-1 (bijectivity), and both words
    of each SINGULAR_PAIR_AXIOMS identity agree at every point of X^k
    (`word_images`, the array reading of the words `word_map` runs).
    """
    n = S.n
    if taus.shape[1:] != (2, n, n):
        raise DimensionMismatchError(f"taus of shape {taus.shape} on {n} elements")
    t1, t2 = taus[:, 0], taus[:, 1]
    ok = (np.sort(t1, axis=2) == np.arange(n)).all(axis=(1, 2))
    ok &= (np.sort(t2, axis=1) == np.arange(n)[:, None]).all(axis=(1, 2))
    if require_bijective:
        cells = (t1.astype(np.intp) * n + t2).reshape(len(ok), -1)
        ok &= (np.sort(cells, axis=1) == np.arange(n * n)).all(axis=1)
    maps = {"S": flat_map(np.array([S.table.t1, S.table.t2], np.int16)),
            "T": flat_map(taus)}
    for _, lhs, rhs in SINGULAR_PAIR_AXIOMS:
        k = word_arity(lhs, rhs)
        points = np.indices((n,) * k, dtype=np.int16).reshape(k, -1)
        for left, right in zip(word_images(lhs, maps, points, n),
                               word_images(rhs, maps, points, n)):
            ok &= (left == right).all(axis=-1)
    return ok


def check_flip_tau_condition(tau: PairTable) -> bool:
    """tau1(y,x) = tau2(x,y); equivalent to the pair axioms when S = flip."""
    n = tau.n
    return all(tau.t1[y][x] == tau.t2[x][y] for x in range(n) for y in range(n))


def check_flip_s_condition(S: PairTable) -> bool:
    """The five identities making (X, S, flip) a singular pair."""
    n = S.n
    s1, s2 = S.t1, S.t2
    for x in range(n):
        for y in range(n):
            if s1[x][y] != s2[y][x]:
                return False
            for z in range(n):
                if s1[s2[x][y]][z] != s1[x][z]:
                    return False
                if s2[s2[x][y]][z] != s2[s2[x][z]][y]:
                    return False
                if s1[x][s1[y][z]] != s1[y][s1[x][z]]:
                    return False
                if s2[y][z] != s2[y][s1[x][z]]:
                    return False
    return True


# ---------------------------------------------------------------------------
# bialexander families
# ---------------------------------------------------------------------------

def _tau_phi_table(m: int, s: int, t: int, phi) -> PairTable:
    """tau_phi(x,y) = (x + phi(s*y - x), y - t*phi(s*y - x)) on Z/m, for
    s, t and phi already reduced mod m."""
    return PairTable.from_function(
        m, lambda x, y: ((x + phi[(s * y - x) % m]) % m,
                         (y - t * phi[(s * y - x) % m]) % m))


def make_tau_phi(m: int, s: int, t: int, phi) -> PairTable | None:
    """tau_phi(x,y) = (x + phi(s*y - x), y - t*phi(s*y - x)) on Z/m.

    phi must be a bijection of Z/m commuting with multiplication by s, t
    and -1; the result is returned only when the assembled map is
    bijective (left/right invertibility is automatic).
    """
    s %= m
    t %= m
    if gcd(s, m) != 1 or gcd(t, m) != 1:
        raise NonUnitError("s and t must be units")
    phi = [p % m for p in phi]
    if sorted(phi) != list(range(m)):
        raise ValueError("phi must be a permutation of Z/m")
    for lam in (s, t, m - 1):
        for x in range(m):
            if phi[(lam * x) % m] != (lam * phi[x]) % m:
                raise HomogeneityViolationError(
                    f"phi({lam}*{x}) != {lam}*phi({x}) mod {m}")
    tab = _tau_phi_table(m, s, t, phi)
    return tab if tab.is_bijective() else None


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p**0.5) + 1))


def make_tau_a(p: int, s: int, t: int, a: int) -> PairTable | None:
    """tau_a(x,y) = (a*y + (1-a/s)*x, (a*t/s)*x + (1-a*t)*y) over F_p.

    Returns None exactly when (s*t+1)*a = s, i.e. when tau_a fails to be
    bijective.
    """
    if not _is_prime(p):
        raise NonUnitError(f"{p} is not prime")
    s %= p
    t %= p
    a %= p
    for name, v in (("s", s), ("t", t), ("a", a)):
        if v == 0:
            raise NonUnitError(f"{name} must be a unit mod {p}")
    if ((s * t + 1) * a - s) % p == 0:
        return None
    sinv = pow(s, -1, p)
    return PairTable.from_function(
        p, lambda x, y: ((a * y + (1 - a * sinv) * x) % p,
                         ((a * t * sinv) * x + (1 - a * t) * y) % p))


def check_bialexander_characterization(m: int, s: int, t: int,
                                       tau: PairTable) -> bool:
    """Linear-algebra characterization of singular pairs for S_{s,t}.

    Valid when (1 - s*t) is a unit; agrees with check_singular_pair on
    every left/right-invertible candidate.  The conditions: tau commutes
    with multiplication by s, t, -1; the two translation identities that
    pin tau down to tau(0,-); and t*tau1(0,x) = s*tau2(x,0).  Bijectivity
    of tau is part of being a singular pair and is checked as well.
    """
    s %= m
    t %= m
    if gcd(s, m) != 1 or gcd(t, m) != 1:
        raise NonUnitError("s and t must be units")
    if gcd((1 - s * t) % m, m) != 1:
        raise NonUnitError("(1 - s*t) must be a unit")
    if tau.n != m:
        raise DimensionMismatchError("tau is not on Z/m")
    if not (tau.is_left_invertible() and tau.is_right_invertible()
            and tau.is_bijective()):
        return False
    sinv = pow(s, -1, m)
    for lam in (s, t, m - 1):
        for x in range(m):
            for y in range(m):
                a, b = tau.apply(x, y)
                if tau.apply((lam * x) % m, (lam * y) % m) != ((lam * a) % m, (lam * b) % m):
                    return False
    for x in range(m):
        for y in range(m):
            a, b = tau.apply(x, y)
            a0, b0 = tau.apply(0, (y - x * sinv) % m)
            if (a, b) != ((a0 + x) % m, (b0 + x * sinv) % m):
                return False
            a1, b1 = tau.apply((x - s * y) % m, 0)
            if (a, b) != ((a1 + s * y) % m, (b1 + y) % m):
                return False
    for x in range(m):
        if (t * tau.t1[0][x]) % m != (s * tau.t2[x][0]) % m:
            return False
    return True


def _unit_orbits(m: int, units) -> tuple[list[int], list[tuple[dict, frozenset]]]:
    """The group H that the units mod m generate, sorted, and the orbits of
    Z/m under multiplication by H, by least point.  Each orbit is a dict
    taking each of its points x to an h in H with h * (least point) = x,
    least point first, and the orbit's stabilizer, a subset of H."""
    H, frontier = {1 % m}, [1 % m]
    while frontier:
        h = frontier.pop()
        for v in {h * u % m for u in units} - H:
            H.add(v)
            frontier.append(v)
    H = sorted(H)
    orbits, seen = [], set()
    for x in range(m):
        if x not in seen:
            points = {}
            for h in H:
                points.setdefault(h * x % m, h)
            seen.update(points)
            orbits.append((points, frozenset(h for h in H if h * x % m == x)))
    return H, orbits


def tau_phi_family(m: int, s: int, t: int) -> list[PairTable]:
    """All bijective tau_phi for S_{s,t} on Z/m, sorted.

    phi ranges over the bijections of Z/m equivariant under H = <s, t, -1>.
    Such a phi maps each H-orbit onto an orbit with the same stabilizer
    and is fixed there by the image of the orbit's least point, so the phis
    are a product over stabilizers of a permutation of the orbits with that
    stabilizer and a target point in each image orbit.
    """
    s %= m
    t %= m
    if gcd(s, m) != 1 or gcd(t, m) != 1:
        raise NonUnitError("s and t must be units")
    by_stabilizer = {}
    for points, stabilizer in _unit_orbits(m, (s, t, m - 1))[1]:
        by_stabilizer.setdefault(stabilizer, []).append(points)
    per_class = [[list(zip(same, ys)) for image in itertools.permutations(same)
                  for ys in itertools.product(*image)]
                 for same in by_stabilizer.values()]
    tables = []
    for choice in itertools.product(*per_class):
        phi = [0] * m
        for points, y in itertools.chain.from_iterable(choice):
            for x, h in points.items():
                phi[x] = h * y % m
        tab = _tau_phi_table(m, s, t, phi)
        if tab.is_bijective():
            tables.append(tab)
    return sorted(tables, key=PairTable.key)


# ---------------------------------------------------------------------------
# exhaustive enumeration of companion tau's
# ---------------------------------------------------------------------------

def _word_reads(word, maps, points, n: int, source):
    """`word_images` of word at points, a (k, 1, N) array, as one int8
    (k, B, N) array for maps' B taus (equal rows where an output reads no
    tau); per output and point the last tau1 cell the image reads, or -1
    when it reads no tau; and per point the flat cell a*n + b where the
    word reads tau, or -1.

    Cells are flat, a*n + b, so their row-major order is the search's.
    The word reads tau at most once, at the point (a, b) its S-only
    prefix reaches: tau1(a, b) reads that cell, and tau2(a, b), derived
    from tau1 at it and at S(a, b) (flat `source`), the later of the two.
    Each letter after tau mixes the two coordinates it acts on.  The
    prefix runs once, on the (1, N) points, and the rest of the word on
    maps' taus from its image.
    """
    letters = [m for m, _ in word]
    assert letters.count("T") <= 1, word
    t = letters.index("T") if "T" in letters else len(word)
    prefix = word_images(word[:t], maps, points, n)
    reads = np.full((len(points), points.shape[2]), -1)
    cell = np.full(points.shape[2], -1)
    if t < len(word):
        i = word[t][1]
        cell = prefix[i][0] * n + prefix[i + 1][0]
        reads[i], reads[i + 1] = cell, np.maximum(cell, source[cell])
        for _, c in word[t + 1:]:
            reads[c] = reads[c + 1] = np.maximum(reads[c], reads[c + 1])
    images = np.empty((len(points), len(maps["T"][2]), points.shape[2]), np.int8)
    for c, image in enumerate(word_images(word[t:], maps, prefix, n)):
        images[c] = image
    return images, reads, cell


def _axiom_reads(st: PairTable):
    """Per identity of SINGULAR_PAIR_AXIOMS, ((name, lhs, rhs, points, due,
    holds), sides): `points` is X^k in row-major order as a (k, n^k)
    array, and for output j of the two words at point i, due[j, i] is the
    last tau1 cell a*n + b they read, and holds[j, i] says that they agree
    there for every tau.  `sides` holds, per word, its images at the n^2
    constant taus, a (k, n^2, n^k) array, and per point the cell where it
    reads tau, or -1.

    Each word reads tau at most once (`_word_reads`), so output j of each
    is a function of tau at one cell, and the n^2 constant taus give it
    every value: it holds when the words agree at all of them, and either
    read tau at the same cell or lhs's output is constant over them (then
    so is rhs's).  One `_word_reads` call per word, at every point; D4 has
    192 of its 416 outputs marked.  Outputs that vary and read different
    cells are never marked, even where they agree.
    """
    n = st.n
    source = (np.array(st.t1) * n + np.array(st.t2)).reshape(-1)
    # the constant taus: tau(x, y) = (c // n, c % n) for c < n^2
    const = np.stack(divmod(np.arange(n * n), n), axis=1)[:, :, None, None]
    maps = {"S": flat_map(np.array([st.t1, st.t2])),
            "T": flat_map(np.broadcast_to(const, (n * n, 2, n, n)))}
    for name, lhs, rhs in SINGULAR_PAIR_AXIOMS:
        arity = word_arity(lhs, rhs)
        points = np.indices((n,) * arity).reshape(arity, -1)
        # images per (output, constant tau, point)
        (limg, left, lcell), (rimg, right, rcell) = (
            _word_reads(w, maps, points[:, None], n, source) for w in (lhs, rhs))
        same = (lcell >= 0) & (lcell == rcell)
        holds = ((limg == rimg) & (same | (limg == limg[:, :1]))).all(axis=1)
        yield ((name, lhs, rhs, points, np.maximum(left, right), holds),
               ((limg, lcell), (rimg, rcell)))


def _run_rows(start: int, stop: int, n: int):
    """Per tau1 row that the run of cells [start, stop) covers, the run's
    length there and whether the run starts inside the row and reaches
    its last cell, which then has one value left."""
    return tuple((min(stop, r + n) - max(start, r), r < start and stop >= r + n)
                 for r in range(start - start % n, stop, n))


def _tau_plan(st: PairTable):
    """The tau search: `images`, one flat int8 table of the words' images,
    and the levels, each a run of tau1 cells [start, stop) in row-major
    order, as a tuple (values, start, stop, cells, sources, known,
    columns, checks) of what the run makes known.

    Cells are flat, a*n + b.  A level gives each partial tau every row of
    `values` in the run's cells.  Left invertibility makes each tau1 row a
    permutation: per row the run covers, the values are the permutations
    of 0..n-1 of its length there (`_run_rows`), except where the run
    starts inside a row and reaches its last cell.  There a 0 stands in
    for that cell, and the search drops the taus that repeat an earlier
    cell of the row and gives the last cell the one value left.
    tau2(a, b) is derived at the level of the later of the cells (a, b)
    and S(a, b): `cells` are those cells and `sources` the cells S(a, b)
    whose tau1 the derivation reads.  `known` are the cells derived by the
    end of the level, `cells` last, and `columns` their b*n, so that
    tau2 + b*n repeats over them only where two cells of a column share a
    tau2 value.  `checks` holds every component equation of
    SINGULAR_PAIR_AXIOMS whose last tau1 cell read lies in the run, as
    chunks (due, reads, rows) of at most SEARCH_CHUNK equations: equation
    e reads tau at the cells reads[e] on its two sides, and with v the
    value tau1 * n + tau2 at each, it holds when images[rows[e] + v]
    agree; due[e] is the last tau1 cell it reads.  Each side reads tau at
    one cell at most (`_axiom_reads`), so its images at the n^2 constant
    taus are all its values.  Two kinds of equation are left out: the
    first component of rv, which the derivation solves, and every
    equation that holds for all taus (`_axiom_reads`' holds: same cell,
    or no tau read), 192 of 416 for D4 and 384 of 416 for the flip at
    n = 4.
    A run ends only after a cell where a derivation or a check becomes
    due, or after a row's last cell when one becomes due at the cell
    before it (the last cell always derives its own tau2), so a row where
    nothing is due before its end is one level of n! values.  The first
    level, which starts from a single partial tau, runs on past such cells
    until it has more than SEARCH_LEAD candidates.
    """
    n, nn = st.n, st.n * st.n
    source = (np.array(st.t1) * n + np.array(st.t2)).reshape(-1)
    derive_at = np.maximum(np.arange(nn), source)
    # per identity, both words' images at the n^2 constant taus as rows of
    # n^2 values, (side, output, point, tau value); per kept equation, the
    # cell each side reads tau at and the start of its row in `images`
    tables, due, reads, rows = [], [], [], []
    size = 0
    for (name, _, _, _, at, holds), ((limg, lcell), (rimg, rcell)) in _axiom_reads(st):
        assert at.min() >= 0, name      # each equation reads tau on a side
        at[holds] = -1
        if name == "rv":
            at[0] = -1
        j, i = np.nonzero(at >= 0)
        due.append(at[j, i])
        reads.append(np.stack([lcell[i], rcell[i]], axis=1))
        tables.append(np.stack([limg, rimg]).transpose(0, 1, 3, 2).reshape(-1))
        row = size + (j * at.shape[1] + i) * nn
        rows.append(np.stack([row, row + limg.size], axis=1))
        size += 2 * limg.size
    images = np.concatenate(tables)
    due, reads, rows = map(np.concatenate, (due, reads, rows))
    cut = np.zeros((n, n), bool)
    cut.flat[derive_at] = cut.flat[due] = True
    if n > 1:
        cut[:, -1] |= cut[:, -2]
        cut[:, -2] = False
    stops = np.flatnonzero(cut) + 1
    # the first level runs on until it has more than SEARCH_LEAD candidates
    lead = 1
    for k, (start, stop) in enumerate(zip([0, *stops[:-1].tolist()], stops.tolist())):
        lead *= prod(perm(n, length - forced) for length, forced in _run_rows(start, stop, n))
        if lead > SEARCH_LEAD:
            break
    stops = stops[k:]
    level_of = np.searchsorted(stops, np.arange(nn), side="right")

    def grouped(key, *arrays):
        """arrays sorted by level key, items on axis 0 and in their order
        within a level, and the bounds of each level's items"""
        order = np.argsort(key, kind="stable")
        bounds = np.searchsorted(key[order], np.arange(len(stops) + 1))
        return [x[order] for x in arrays], bounds.tolist()

    (cells,), cell_at = grouped(level_of[derive_at], np.arange(nn))
    sources, columns = source[cells], (cells % n * n).astype(np.int16)
    (due, reads, rows), check_at = grouped(
        level_of[due], due, np.maximum(reads, 0), rows)
    values_of = {}
    plan = []
    for k, (start, stop) in enumerate(zip([0, *stops[:-1].tolist()], stops.tolist())):
        spec = _run_rows(start, stop, n)
        if spec not in values_of:
            values = np.zeros((1, 0), np.int8)
            for length, forced in spec:
                # a 0 where the row's last cell gets the value left
                part = np.array([p + (0,) * forced for p in itertools.permutations(
                    range(n), length - forced)], np.int8).reshape(-1, length)
                values = np.concatenate([np.repeat(values, len(part), axis=0),
                                         np.tile(part, (len(values), 1))], axis=1)
            values_of[spec] = values
        lo, hi = check_at[k], check_at[k + 1]
        first, last = cell_at[k], cell_at[k + 1]
        plan.append((values_of[spec], start, stop, cells[first:last],
                     sources[first:last], cells[:last], columns[:last],
                     [(due[i:j], reads[i:j], rows[i:j])
                      for i in range(lo, hi, SEARCH_CHUNK)
                      for j in [min(hi, i + SEARCH_CHUNK)]]))
    return images, plan


def _fresh(keys: np.ndarray, d: int) -> np.ndarray:
    """Whether each of the last d columns of each row of keys differs from
    every column before it."""
    k = keys.shape[1] - d
    ok = (keys[:, :k] != keys[:, k, None]).all(axis=1)
    for c in range(k + 1, k + d):
        ok &= (keys[:, :c] != keys[:, c, None]).all(axis=1)
    return ok


def _tau_array(st: PairTable, require_bijective: bool) -> np.ndarray:
    """Every tau for the switch table st that enumerate_taus returns,
    before its guard, in table order, as one int8 (P, 2, n, n) array:
    `_tau_plan` run by `batch.run`, one level per run of tau1 cells, each
    with its own values."""
    n = st.n
    s1 = np.array(st.t1, np.int8)
    # tau2(a, b) solves S1(tau1(a, b), tau2(a, b)) = tau1(S(a, b)), the
    # first component of rv: linv[u, S1(u, y)] = y
    linv = np.empty((n, n), np.int8)
    linv[np.arange(n)[:, None], s1] = np.arange(n)
    images, plan = _tau_plan(st)

    def step(k, taus, chosen):
        _, start, stop, cells, sources, known, columns, checks = plan[k]
        flat = taus.reshape(len(taus), 2, n * n)
        flat[:, 0, start:stop] = chosen
        row = start - start % n
        if row < start:
            # left invertibility, in the row the run starts inside
            end = min(stop, row + n - 1)
            taus = taus.compress(_fresh(flat[:, 0, row:end], end - start), axis=0)
            flat = taus.reshape(len(taus), 2, n * n)
            if stop >= row + n:
                last = row + n - 1
                flat[:, 0, last] = n * (n - 1) // 2 - flat[:, 0, row:last].sum(
                    axis=1, dtype=np.int16)
        tau1, tau2 = flat[:, 0], flat[:, 1]
        tau2[:, cells] = linv[tau1[:, cells], tau1[:, sources]]
        vals = tau1 * np.int16(n) + tau2
        if len(cells):
            # right invertibility, and bijectivity, over the cells known so far
            ok = _fresh(tau2[:, known] + columns, len(cells))
            if require_bijective:
                ok &= _fresh(vals[:, known], len(cells))
            taus, vals = taus.compress(ok, axis=0), vals.compress(ok, axis=0)
        for _, reads, rows in checks:
            both = images.take(vals[:, reads] + rows)
            ok = (both[..., 0] == both[..., 1]).all(axis=1)
            taus, vals = taus.compress(ok, axis=0), vals.compress(ok, axis=0)
        return taus

    return np.concatenate([np.empty((0, 2, n, n), np.int8), *batch.run(
        np.zeros((1, 2, n, n), np.int8), len(plan), [p[0] for p in plan],
        SEARCH_ROWS, step)])


def enumerate_taus(S: Biquandle, require_bijective: bool = True,
                   up_to_iso: bool = False, max_n: int = 5):
    """All tau making (S, tau) a singular pair, in table-lexicographic
    order, or under up_to_iso their classes (`_tau_classes`).

    With require_bijective=False the bijectivity requirement is dropped
    (left/right invertibility and eqs (1)-(3) still hold), which is the
    population counted in the left/right-invertible table.

    The search (`_tau_array`) runs a plan (`_tau_plan`) on int8 batches
    of partial taus (`batch.run`), at most SEARCH_ROWS at a time.  Each
    level fills a run of tau1 cells in row-major order, extending each
    partial tau by every choice of distinct values for the run's cells in
    each row, derives the tau2 cells it completes, and drops a partial tau
    as soon as a tau1 row repeats a value, two known tau2 cells of a
    column agree, two known cells share a (tau1, tau2) pair (when
    bijectivity is required), or an equation of the plan fails.  A run
    ends where a derivation or an equation becomes due, so a tau is
    dropped at the first cell where it can fail.  The cost is the number
    of partial taus that survive each level times the next level's
    choices; no bound on that number is claimed.

    The search's int8 (P, 2, n, n) array (`_tau_array`) is checked before
    anything is built from it, as a guard on the search: its dtype, shape
    and range; `pair_verdicts`, CHECK_BATCH taus at a time; and strict
    table order, each row's bytes against the next's.  A rejected tau
    raises AssertionError naming the violations `check_singular_pair`
    reports for it, and so does disorder.  Tables are built only for what
    is returned: every tau, sharing one tuple per distinct row, or the
    class representatives.
    """
    n = S.n
    if n > max_n:
        raise SearchBoundExceededError(
            f"n={n} exceeds enumeration bound {max_n}")
    taus = _tau_array(S.table, require_bijective)
    if (taus.dtype != np.int8 or taus.shape[1:] != (2, n, n)
            or not ((taus >= 0) & (taus < n)).all()):
        raise AssertionError("the tau search built a malformed table")
    for start in range(0, len(taus), CHECK_BATCH):
        part = taus[start:start + CHECK_BATCH]
        ok = pair_verdicts(S, part, require_bijective)
        if not ok.all():
            tau = PairTable(n, *part[ok.argmin()].tolist())
            bad = [f"violated {v.axiom} at {v.witness}"
                   for v in check_singular_pair(S, tau).violations
                   if require_bijective or v.axiom != "bijective"]
            raise AssertionError("enumeration produced a non-pair: "
                                 + ", ".join(bad))
    # int8 entries in 0..n-1: bytes order rows as table keys do
    keys = taus.reshape(len(taus), -1).view(f"S{2 * n * n}")[:, 0]
    if (keys[1:] <= keys[:-1]).any():
        raise AssertionError("enumeration is not strictly in table order")
    if up_to_iso:
        return _tau_classes(S, taus)
    # one interned tuple per distinct row, told apart by one key per row:
    # its entries as base-n digits, or its bytes where n^n overflows int64
    rows = taus.reshape(-1, n)
    key = (rows @ n ** np.arange(n, dtype=np.int64) if n ** n < 1 << 63
           else rows.view(f"V{n}")[:, 0])
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    interned = list(map(tuple, rows[first].tolist()))
    step = 2 * n
    tables = []
    for start in range(0, len(rows), step * CHECK_BATCH):
        refs = list(map(interned.__getitem__,
                        which[start:start + step * CHECK_BATCH].tolist()))
        tables += [PairTable._unchecked(n, tuple(refs[i:i + n]),
                                        tuple(refs[i + n:i + step]))
                   for i in range(0, len(refs), step)]
    return tables


def brute_force_taus(S: Biquandle, require_bijective: bool = True,
                     max_n: int = 3) -> list[PairTable]:
    """Oracle: scan all ((n!)^n)^2 left/right-invertible maps directly."""
    n = S.n
    if n > max_n:
        raise SearchBoundExceededError(f"n={n} exceeds brute-force bound {max_n}")
    perms = list(itertools.permutations(range(n)))
    out = []
    for rows in itertools.product(perms, repeat=n):
        for cols in itertools.product(perms, repeat=n):
            t2 = tuple(tuple(cols[y][x] for y in range(n)) for x in range(n))
            tab = PairTable(n, rows, t2)
            res = check_singular_pair(S, tab)
            if res.ok:
                out.append(tab)
            elif not require_bijective:
                if all(v.axiom == "bijective" for v in res.violations):
                    out.append(tab)
    return sorted(out, key=lambda t_: t_.key())


# ---------------------------------------------------------------------------
# left/right-invertible counts (the flip-compatible population)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LrCounts:
    total: int
    iso: int
    bijective: int
    bijective_iso: int


def _partitions(n):
    if n == 0:
        yield []
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield [first] + rest


def _centralizer_order(cycle_type, n):
    out = 1
    for ell in set(cycle_type):
        m = cycle_type.count(ell)
        out *= ell**m * factorial(m)
    return out


def _power_cycle_type(cycle_type, e):
    out = []
    for ell in cycle_type:
        g = gcd(ell, e)
        out.extend([ell // g] * g)
    return sorted(out, reverse=True)


def enumerate_left_right_invertible(n: int, max_n: int = 4) -> LrCounts:
    """The four counts of the flip-compatible left/right-invertible table.

    total is (n!)^n (tau1 is a free list of n permutations and forces
    tau2); iso is computed by Burnside orbit counting over S_n acting by
    simultaneous relabeling; the bijective population is the tau search's
    array for S = flip, and its classes are the distinct keys of that
    array under Aut(flip) = S_n, with no table or SingularPair built.  The
    array holds whole orbits, so `_orbit_keys` finds them from n - 1
    generators (3,360 taus x 3 generators at n = 4, not x 24 relabelings);
    n = 2 and 3 are below ORBIT_MIN and keyed by `canonical_form`.  The
    `enumerate_taus` guard does not run here: the tests compare both
    counts with `enumerate_taus` and `classify_isomorphism`.
    """
    if n > max_n:
        raise SearchBoundExceededError(f"n={n} exceeds bound {max_n}")
    total = factorial(n) ** n
    # Burnside: a relabeling g fixes the tau determined by rows (p_x) iff
    # p_{g(x)} = g p_x g^-1; choices are one centralizer element of g^ell
    # per cycle of length ell.
    iso_sum = 0
    for ct in _partitions(n):
        class_size = factorial(n) // _centralizer_order(ct, n)
        fixed = 1
        for ell in ct:
            fixed *= _centralizer_order(_power_cycle_type(ct, ell), n)
        iso_sum += class_size * fixed
    iso = iso_sum // factorial(n)

    flip = flip_switch(n).table
    taus = _tau_array(flip, require_bijective=True)
    keys = _orbit_keys(taus.astype(np.int16), automorphism_group(flip))
    return LrCounts(total, iso, len(taus), len(set(keys)))


# ---------------------------------------------------------------------------
# isomorphism classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsoClass:
    canonical: SingularPair
    size: int


def _generators(t: PairTable):
    """A generating set of X under T1 and T2, and how the rest follows.

    Generators are picked greedily: the least element not yet reached,
    then the reached set is closed under T1 and T2.  Returns the
    generators and the derivations (z, i, x, y), one per other element z,
    in an order where x and y are generators or derived earlier and
    z = T_i(x, y) (i = 0 for T1, 1 for T2).
    """
    n = t.n
    tabs = (t.t1, t.t2)
    known: list[int] = []
    reached = [False] * n
    gens, derivations = [], []
    for start in range(n):
        if reached[start]:
            continue
        gens.append(start)
        reached[start] = True
        known.append(start)
        # pair each new element with itself and every element before it
        pos = len(known) - 1
        while pos < len(known):
            u = known[pos]
            for v in known[:pos + 1]:
                for x, y in ((u, v), (v, u)):
                    for i, tab in enumerate(tabs):
                        z = tab[x][y]
                        if not reached[z]:
                            reached[z] = True
                            known.append(z)
                            derivations.append((z, i, x, y))
            pos += 1
    return gens, derivations


def automorphism_group(t: PairTable) -> list[tuple[int, ...]]:
    """All permutations g with (g x g) o T o (g x g)^-1 = T, in
    lexicographic order.

    An automorphism is fixed by its images of a generating set
    (`_generators`, k elements): g(T_i(x, y)) = T_i(g x, g y) fills in
    the rest along the derivations.  Every injective choice of generator
    images, n!/(n-k)! of them, is filled in that way, AUT_BATCH cells at
    a time on numpy; a candidate that is not a permutation is dropped,
    and every other one is checked at all n^2 cells of both tables.  So
    the cost is n!/(n-k)! candidates times n^2 cells: n(n-1) candidates
    for D_n (k = 2), n! for the flip (k = n).  Each element below the
    j-th generator lies in the closure of the generators before it, so
    generator images in lexicographic order give the automorphisms in
    lexicographic order.
    """
    n = t.n
    tabs = np.array([t.t1, t.t2], dtype=np.int16)
    gens, derivations = _generators(t)
    choices = itertools.chain.from_iterable(
        itertools.permutations(range(n), len(gens)))
    batch = max(1, AUT_BATCH // (n * n))
    out = []
    while True:
        images = np.fromiter(itertools.islice(choices, batch * len(gens)),
                             dtype=np.int16)
        if not len(images):
            return out
        g = np.empty((len(images) // len(gens), n), dtype=np.int16)
        g[:, gens] = images.reshape(len(g), len(gens))
        for z, i, x, y in derivations:
            g[:, z] = tabs[i][g[:, x], g[:, y]]
        g = g[(np.sort(g, axis=1) == np.arange(n)).all(axis=1)]
        # g(T_i(x, y)) == T_i(g x, g y) at every cell of both tables
        ok = g[:, tabs] == tabs[:, g[:, :, None], g[:, None, :]].swapaxes(0, 1)
        out += map(tuple, g[ok.all(axis=(1, 2, 3))].tolist())


def _relabeled(tables: np.ndarray, g: np.ndarray) -> np.ndarray:
    """P stacks of k tables, a (P, k, n, n) int16 array, relabeled by each
    of m permutations, an (m, n) int16 array, as a (P, m, k*n*n) array.

    Relabeling by g sends every table T to (g x g) o T o (g x g)^-1; all
    stacks and all relabelings are done at once.
    """
    m, n = g.shape
    P, k = tables.shape[:2]
    ginv = np.argsort(g, axis=1)
    # cells[r, t, x, y]: flat index of T_t(ginv_r(x), ginv_r(y)) in a stack
    cells = (np.arange(k)[:, None, None] * n * n
             + ginv[:, None, :, None] * n + ginv[:, None, None, :])
    images = tables.reshape(P, -1)[:, cells]
    # g_r(v) is g.flat[r*n + v]; offsets in the narrowest dtype holding
    # m*n keep the sum narrow, which makes the lookup several times faster
    offsets = n * np.arange(m).astype(np.min_scalar_type(m * n))
    return g.take(images + offsets[:, None, None, None]).reshape(P, m, -1)


def canonical_form(tables: np.ndarray, relabelings) -> list[bytes]:
    """The least keys of P stacks of k tables, a (P, k, n, n) int16 array,
    over relabelings, CANONICAL_BATCH relabeled cells at a time.

    A relabeled stack's key is the bytes of its int16 tables
    (`_relabeled`).
    """
    rel = np.asarray(relabelings, dtype=np.int16)
    batch = max(1, CANONICAL_BATCH // (len(rel) * prod(tables.shape[1:])))
    keys = []
    for start in range(0, len(tables), batch):
        images = _relabeled(tables[start:start + batch], rel)
        # equal-width "S" strings order as their bytes do, like the keys
        as_bytes = images.view(np.uint8).view(f"S{2 * images.shape[2]}")[..., 0]
        best = as_bytes.argmin(axis=1)
        keys += [row.tobytes() for row in images[np.arange(len(images)), best]]
    return keys


def _pair_tables(pairs, tau_only: bool = False) -> np.ndarray:
    """The (P, 4, n, n) int16 stack of S1, S2, tau1, tau2 per pair, or of
    tau1, tau2 alone, (P, 2, n, n), filled straight from their row tuples."""
    groups = [(p.tau.t1, p.tau.t2) if tau_only else
              (p.biquandle.table.t1, p.biquandle.table.t2, p.tau.t1, p.tau.t2)
              for p in pairs]
    flat = itertools.chain.from_iterable
    cells = np.fromiter(flat(flat(flat(groups))), dtype=np.int16)
    return cells.reshape(len(groups), -1, pairs[0].n, pairs[0].n)


def canonical_key(pair: SingularPair) -> bytes:
    """Minimal serialized form over all n! relabelings."""
    n = pair.n
    if n > 8:
        raise SearchBoundExceededError(
            f"canonical form over all {n}! relabelings refused for n={n}")
    return canonical_form(_pair_tables([pair]),
                          list(itertools.permutations(range(n))))[0]


def _generating_set(group) -> list[tuple[int, ...]]:
    """A generating set of a permutation group, listed whole, picked
    greedily in its order: an element joins when the group the earlier
    ones generate does not hold it.  Each new generator closes the group
    again, right multiplication by every generator until nothing is new,
    O(|group| * |generators|^2) compositions in all."""
    gens: list[tuple[int, ...]] = []
    reached = {tuple(range(len(group[0])))}
    for g in group:
        if g in reached:
            continue
        gens.append(g)
        frontier = list(reached)
        while frontier:
            new = []
            for h in frontier:
                for s in gens:
                    hs = tuple([h[x] for x in s])
                    if hs not in reached:
                        reached.add(hs)
                        new.append(hs)
            frontier = new
    return gens


def _orbit_keys(tables: np.ndarray, group) -> list[bytes]:
    """`canonical_form(tables, group)` for a (P, k, n, n) int16 stack and a
    permutation group listed whole, found by closing the input under a
    generating set of the group instead of relabeling it by every element.

    The distinct stacks are sorted by key, relabeled once per generator
    (`_generating_set`, `_relabeled`), and each image is looked up among
    them.  A stack's closure (its images, their images and so on) is its
    orbit when every generator image of every member is in the input; its
    least member is then the stack's key.  Only stacks whose closure
    reaches a missing image, a partial orbit, are keyed by
    `canonical_form`, so every input is served and it stays the reference.
    The cost is P * |generators| relabeled stacks and lookups, plus one
    pass over the lookups per step of the orbits' diameter, against
    P * |group| relabeled stacks for `canonical_form`, which keys the whole
    input of the trivial group or of at most ORBIT_MIN relabeled cells.
    """
    P = len(tables)
    cells = prod(tables.shape[1:])
    if len(group) == 1 or P * len(group) * cells <= ORBIT_MIN:
        return canonical_form(tables, group)
    width = 2 * cells
    # "V" strings sort as their bytes do, like the keys
    as_key = lambda a: a.view(f"V{width}")[..., 0]
    sorted_keys, inverse = np.unique(
        as_key(np.ascontiguousarray(tables).reshape(P, cells)),
        return_inverse=True)
    U = len(sorted_keys)
    distinct = sorted_keys.view(np.int16).reshape(U, *tables.shape[1:])
    gens = np.array(_generating_set(group), np.int16)
    # per generator, where each distinct stack's image lies in key order,
    # or the stack itself where the image is not in the input
    image_at = np.empty((len(gens), U), np.intp)
    missing = np.zeros(U, bool)
    batch = max(1, CANONICAL_BATCH // (len(gens) * cells))
    for start in range(0, U, batch):
        images = as_key(_relabeled(distinct[start:start + batch], gens)).T
        at = np.minimum(np.searchsorted(sorted_keys, images), U - 1)
        found = sorted_keys[at] == images
        image_at[:, start:start + batch] = np.where(
            found, at, np.arange(start, start + images.shape[1]))
        missing[start:start + batch] = ~found.all(axis=0)
    # over the closure reached so far: its least member, by place in key
    # order, and whether a member lacks an image
    least, unclosed = np.arange(U), missing
    while True:
        least2 = np.minimum(least, least[image_at].min(axis=0))
        unclosed2 = unclosed | unclosed[image_at].any(axis=0)
        if (least2 == least).all() and (unclosed2 == unclosed).all():
            break
        least, unclosed = least2, unclosed2
    owner = least[inverse]
    reps = np.unique(owner)
    rows = distinct[reps].tobytes()
    key_of = dict(zip(reps.tolist(), [rows[i:i + width]
                                      for i in range(0, len(rows), width)]))
    keys = list(map(key_of.__getitem__, owner.tolist()))
    partial = np.flatnonzero(unclosed[inverse])
    if len(partial):
        for i, key in zip(partial.tolist(),
                          canonical_form(tables[partial], group)):
            keys[i] = key
    return keys


def _pair_from_key(S: Biquandle, key: bytes) -> SingularPair:
    """The pair whose int16 stack is key: S and the tau of a (tau1, tau2)
    key, or the switch and tau of a (S1, S2, tau1, tau2) key."""
    n = S.n
    *switch, t1, t2 = np.frombuffer(key, np.int16).reshape(-1, n, n).tolist()
    if switch:
        S = Biquandle(PairTable(n, *switch))
    return SingularPair(S, PairTable(n, t1, t2))


def _classes(S: Biquandle, keys: list[bytes]) -> list[IsoClass]:
    """Classes of pairs from their keys, `canonical_form` or `_orbit_keys`
    of their table stacks, in key order, each represented by the pair its
    key decodes to (`_pair_from_key`)."""
    return [IsoClass(_pair_from_key(S, key), size)
            for key, size in sorted(Counter(keys).items())]


def _tau_classes(S: Biquandle, taus: np.ndarray) -> list[IsoClass]:
    """The classes of the pairs (S, tau) for a (P, 2, n, n) integer array
    of taus: for more than 64 taus or n > 8, the tau tables keyed under
    Aut(S), which fixes S, so each representative carries S; otherwise the
    full stacks under all n! relabelings, so a representative's switch is
    in general a relabeling of S.  The partition is the same either way.
    Under Aut(S) the keys are `_orbit_keys`: the least member of each
    tau's orbit, closed under a generating set of Aut(S), with
    `canonical_form` only for taus whose orbit the input holds in part,
    and for inputs below ORBIT_MIN relabeled cells."""
    n = S.n
    taus = taus.astype(np.int16, copy=False)
    if n > 8 or len(taus) > 64:
        return _classes(S, _orbit_keys(taus, automorphism_group(S.table)))
    switch = np.array([S.table.t1, S.table.t2], np.int16)
    stacks = np.concatenate(
        [np.broadcast_to(switch, (len(taus), 2, n, n)), taus], axis=1)
    return _classes(S, canonical_form(stacks, list(itertools.permutations(range(n)))))


def classify_isomorphism(pairs) -> list[IsoClass]:
    """Partition pairs into isomorphism classes (simultaneous relabeling),
    in key order.  Pairs sharing one switch are classified by
    `_tau_classes`: for more than 64 pairs or n > 8 as Aut(S)-orbits of
    their taus (`_orbit_keys`, whose cost is P * |generators| relabeled
    tau stacks), and their representatives then carry that switch; else
    by `canonical_form` under all n! relabelings.  Pairs with different
    switches are keyed by `canonical_form` under all n! relabelings
    (n <= 8)."""
    pairs = list(pairs)
    if not pairs:
        return []
    n = pairs[0].n
    if any(p.n != n for p in pairs):
        raise DimensionMismatchError("pairs of mixed cardinality")
    S = pairs[0].biquandle
    # pairs usually share one switch object: `is` spares the table compare
    if all(p.biquandle.table is S.table or p.biquandle.table == S.table
           for p in pairs):
        return _tau_classes(S, _pair_tables(pairs, tau_only=True))
    if n > 8:
        raise SearchBoundExceededError(
            f"general classification needs n <= 8, got {n}")
    stacks = _pair_tables(pairs)
    return _classes(S, canonical_form(stacks, list(itertools.permutations(range(n)))))


def tau_phi_iso_count(n: int) -> int:
    """I_n: isomorphism classes of tau_phi singular pairs for D_n, counted
    by Burnside's lemma over the units of Z/n; no table is built.

    On D_n (s=1, t=-1), tau_phi(x,y) = (x + phi(y-x), y + phi(y-x))
    preserves y - x, so it is bijective for every permutation phi of Z/n
    commuting with -1.  Conjugating tau_phi by g(x) = ax + b gives
    tau_phi' with phi'(d) = a*phi(a^-1 d); translations act trivially.
    Since Aut(D_n) = Aff(Z/n), I_n is the number of orbits of (Z/n)^x on
    these phi:

        I_n = (1/phi(n)) * sum over units a of Fix(a),

    where Fix(a) counts the permutations commuting with a and -1, i.e.
    the bijections of Z/n equivariant under H = <a, -1>.  H is abelian,
    so orbits with equal stabilizer K are isomorphic H-sets and
    Fix(a) = prod over K of m_K! * [H:K]^m_K, m_K being the number of
    orbits with stabilizer K (`_unit_orbits`).  Equal size is not enough:
    for n = 12, a = 5 the orbits {2, 10} and {3, 9} have stabilizers
    {1, 7} and {1, 5}.

    Guard: the reduction holds only if Aut(D_n) is exactly the affine
    maps x -> ax + b with gcd(a, n) = 1, so `automorphism_group` is run
    on the switch table and compared with them; a mismatch, or a sum not
    divisible by phi(n), raises RuntimeError.  The guard is most of the
    cost: summed over n = 3..12, a call takes 6.5-10 ms on a 2-core
    x86-64 machine, of which building and validating the D_n switch
    (`check_yang_baxter` on numpy) takes 3-3.5 ms and
    `automorphism_group` 2-3 ms; the count itself is O(phi(n) * n * |H|).
    `tau_phi_family` with
    `canonical_form` under `automorphism_group` is the table-level
    oracle the tests compare against.
    """
    units = [a for a in range(n) if gcd(a, n) == 1]
    affine = {tuple((a * x + b) % n for x in range(n))
              for a in units for b in range(n)}
    aut = automorphism_group(dihedral_switch(n).table)
    if sorted(aut) != sorted(affine):
        raise RuntimeError(f"Aut(D_{n}) is not Aff(Z/{n}); "
                           "the Burnside count does not apply")
    total = 0
    for a in units:
        H, orbits = _unit_orbits(n, (a, n - 1))
        fix = 1
        for K, count in Counter(K for _, K in orbits).items():
            fix *= factorial(count) * (len(H) // len(K)) ** count
        total += fix
    if total % len(units):
        raise RuntimeError(f"Burnside sum {total} for n={n} is not "
                           f"divisible by phi(n) = {len(units)}")
    return total // len(units)


# ---------------------------------------------------------------------------
# builtin pairs
# ---------------------------------------------------------------------------

def builtin_pair(name: str) -> SingularPair:
    S_flip2 = flip_switch(2)
    table = {
        "flip-flip": lambda: SingularPair(S_flip2, S_flip2.table),
        "flip-i2": lambda: SingularPair(S_flip2, i2_switch().table),
        # same pair as flip-i2; the paper writes tau(x,y) = (s y, s x)
        "flip-s2": lambda: SingularPair(S_flip2, i2_switch().table),
        "flip-flip-3": lambda: SingularPair(flip_switch(3), flip_switch(3).table),
        "d3-ss": lambda: SingularPair(dihedral_switch(3), dihedral_switch(3).table),
        "d3-sinv": lambda: SingularPair(dihedral_switch(3),
                                        dihedral_switch(3).table.inverse()),
        "i2-ss": lambda: SingularPair(i2_switch(), i2_switch().table),
        "trivial-1": lambda: SingularPair(flip_switch(1), flip_switch(1).table),
    }
    if name not in table:
        raise UnknownNameError(f"unknown builtin pair {name!r}")
    return table[name]()
