"""Finite switches: maps X x X -> X x X stored as a pair of tables.

Elements of the carrier are 0..n-1 (sets written {1,2,...} in the
literature are shifted down by one).  A switch S is kept as the two
component tables t1[x][y] = S1(x,y), t2[x][y] = S2(x,y).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import NonUnitError

Row = tuple[int, ...]
Table = tuple[Row, ...]


class Derived:
    """What is computed from an immutable object, kept with it: `derived`
    returns build(self, *args), built at the first call with that build
    and args.  The store is one slot, not a field, so ==, hash and repr
    do not see it, and a copy or pickle leaves it behind."""

    __slots__ = ("_derived",)

    def derived(self, build, *args):
        try:
            store = self._derived
        except AttributeError:
            store = {}
            object.__setattr__(self, "_derived", store)
        key = (build, *args)
        try:
            return store[key]
        except KeyError:
            value = store[key] = build(self, *args)
            return value

    def __getstate__(self):
        return vars(self)


def _freeze(rows) -> Table:
    """Rows as tuples of ints; a row that already is one is kept, so
    tables built from shared rows share them."""
    return tuple(row if type(row) is tuple and all(type(v) is int for v in row)
                 else tuple(int(v) for v in row) for row in rows)


def json_checked(value, kind: type, what: str):
    """value as read from JSON, if it is of type kind, else TypeError:
    int() and tuple() would take a bool, a float or a numeric string for
    an int, and a string for the list of its letters."""
    if type(value) is not kind:
        raise TypeError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


def json_list(value, kind: type, what: str, depth: int = 1) -> list:
    """A JSON list of items of type kind (`json_checked`), or at depth 2 a
    list of such lists, as a table is."""
    items = json_checked(value, list, what)
    if depth > 1:
        return [json_list(v, kind, f"a row of {what}", depth - 1) for v in items]
    return [json_checked(v, kind, f"an item of {what}") for v in items]


@dataclass(frozen=True, slots=True)
class PairTable:
    """A map X x X -> X x X on X = {0..n-1}; backbone of S and tau."""

    n: int
    t1: Table
    t2: Table

    def __post_init__(self):
        object.__setattr__(self, "t1", _freeze(self.t1))
        object.__setattr__(self, "t2", _freeze(self.t2))
        n = self.n
        if n < 1:
            raise ValueError("carrier must be nonempty")
        for t in (self.t1, self.t2):
            if len(t) != n or any(len(row) != n for row in t):
                raise ValueError(f"tables must be {n}x{n}")
            if any(not (0 <= v < n) for row in t for v in row):
                raise ValueError("table entries out of range")

    @classmethod
    def _unchecked(cls, n: int, t1: Table, t2: Table) -> "PairTable":
        """A table from rows its caller has built and checked: n tuples of
        n ints in 0..n-1 per table.  Skips `__post_init__`, which
        `PairTable(n, t1, t2)` runs."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "t2", t2)
        return self

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return self.t1[x][y], self.t2[x][y]

    def is_left_invertible(self) -> bool:
        # for each fixed x, y -> t1[x][y] is a permutation
        full = set(range(self.n))
        return all(set(row) == full for row in self.t1)

    def is_right_invertible(self) -> bool:
        # for each fixed y, x -> t2[x][y] is a permutation
        full = set(range(self.n))
        return all({self.t2[x][y] for x in range(self.n)} == full for y in range(self.n))

    def is_bijective(self) -> bool:
        return len({self.apply(x, y) for x in range(self.n) for y in range(self.n)}) == self.n**2

    def inverse(self) -> "PairTable":
        """The inverse map, in one pass over the cells: n^2 cells fill
        n^2 places, so the table is bijective iff no place is hit twice."""
        n = self.n
        u1 = [[-1] * n for _ in range(n)]
        u2 = [[-1] * n for _ in range(n)]
        for x, (r1, r2) in enumerate(zip(self.t1, self.t2)):
            for y, a, b in zip(range(n), r1, r2):
                if u1[a][b] >= 0:
                    raise ValueError("table is not bijective")
                u1[a][b] = x
                u2[a][b] = y
        return PairTable._unchecked(n, tuple(map(tuple, u1)), tuple(map(tuple, u2)))

    def is_involutive(self) -> bool:
        return all(self.apply(*self.apply(x, y)) == (x, y)
                   for x in range(self.n) for y in range(self.n))

    def relabel(self, g) -> "PairTable":
        """Conjugate by the permutation g: (g x g) o T o (g x g)^-1."""
        n = self.n
        ginv = [0] * n
        for i, v in enumerate(g):
            ginv[v] = i
        u1 = [[g[self.t1[ginv[x]][ginv[y]]] for y in range(n)] for x in range(n)]
        u2 = [[g[self.t2[ginv[x]][ginv[y]]] for y in range(n)] for x in range(n)]
        return PairTable(n, u1, u2)

    def cycles(self) -> list[list[tuple[int, int]]]:
        """Cycle decomposition as a permutation of X x X (bijective tables)."""
        if not self.is_bijective():
            raise ValueError("cycle decomposition needs a bijective table")
        seen = set()
        out = []
        for x in range(self.n):
            for y in range(self.n):
                if (x, y) in seen:
                    continue
                cyc = [(x, y)]
                seen.add((x, y))
                a, b = self.apply(x, y)
                while (a, b) != (x, y):
                    cyc.append((a, b))
                    seen.add((a, b))
                    a, b = self.apply(a, b)
                out.append(cyc)
        return out

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted(len(c) for c in self.cycles()))

    def key(self):
        return (self.t1, self.t2)

    def to_dict(self):
        return {"n": self.n, "t1": [list(r) for r in self.t1],
                "t2": [list(r) for r in self.t2]}

    @classmethod
    def from_dict(cls, d) -> "PairTable":
        return cls(json_checked(d["n"], int, "n"), json_list(d["t1"], int, "t1", 2),
                   json_list(d["t2"], int, "t2", 2))

    @classmethod
    def from_function(cls, n: int, fn) -> "PairTable":
        pairs = [[fn(x, y) for y in range(n)] for x in range(n)]
        t1 = [[pairs[x][y][0] for y in range(n)] for x in range(n)]
        t2 = [[pairs[x][y][1] for y in range(n)] for x in range(n)]
        return cls(n, t1, t2)


# A word is a tuple of letters (map, i) in application order; the letter
# replaces coordinates i, i+1 of a point of X^k by maps[map] applied to them.
# An identity is a pair of words that must agree at every point.

YANG_BAXTER = ((("S", 1), ("S", 0), ("S", 1)),    # (1xS)(Sx1)(1xS)
               (("S", 0), ("S", 1), ("S", 0)))    # (Sx1)(1xS)(Sx1)


def word_map(word, maps):
    """The map X^k -> X^k of `word` (images as lists), each letter read
    from `maps`."""
    bound = [(maps[m].t1, maps[m].t2, i) for m, i in word]

    def run(point) -> list[int]:
        p = list(point)
        for t1, t2, i in bound:
            a, b = p[i], p[i + 1]
            p[i], p[i + 1] = t1[a][b], t2[a][b]
        return p
    return run


def flat_map(tables) -> tuple:
    """The `word_images` map of a (2, n, n) table pair (t1, t2) that every
    point shares, or of a (B, 2, n, n) stack, one pair per batch row."""
    n = tables.shape[-1]
    flat = tables.reshape(-1)
    rows = None if tables.ndim == 3 else np.arange(len(tables))[:, None] * (2 * n * n)
    return flat, flat[n * n:], rows


def word_images(word, maps, points, n: int):
    """`word_map` on integer arrays, for a batch of maps at once.

    maps[m] is a `flat_map` (f1, f2, rows): flat tables, f2 a view n^2
    cells into f1, and rows the (B, 1) batch offsets b * 2n^2, or None when
    shared.  Each letter computes one index k = a*n + b (+ rows) as np.intp,
    which holds B * 2n^2 (int8 taus overflow a*n at n >= 12), and reads both
    outputs with f1.take(k) and f2.take(k).  `points` holds one integer array
    per coordinate of X^k; the images come back the same way, a coordinate
    of shape (B, N) once a batched letter has written it.
    """
    p = list(points)
    for m, i in word:
        f1, f2, rows = maps[m]
        k = p[i] * np.intp(n) + p[i + 1]
        if rows is not None:
            k = k + rows
        p[i], p[i + 1] = f1.take(k), f2.take(k)
    return p


@functools.cache
def word_arity(*words) -> int:
    """The k of X^k the words act on."""
    return max(i for w in words for _, i in w) + 2


def first_failure(lhs, rhs, maps, n: int):
    """The first point of X^k, in row-major order, where the two words
    disagree, or None when they agree everywhere."""
    left, right = word_map(lhs, maps), word_map(rhs, maps)
    for point in itertools.product(range(n), repeat=word_arity(lhs, rhs)):
        if left(point) != right(point):
            return point
    return None


def check_yang_baxter(t: PairTable) -> bool:
    """The braid-form Yang-Baxter identity YANG_BAXTER at every triple,
    all n^3 of them in one `word_images` pass."""
    S = {"S": flat_map(np.array([t.t1, t.t2]))}
    points = np.indices((t.n,) * 3).reshape(3, -1)
    lhs, rhs = (word_images(w, S, points, t.n) for w in YANG_BAXTER)
    return all((u == v).all() for u, v in zip(lhs, rhs))


def check_biquandle(t: PairTable):
    """The diagonal fix-point permutation s if t is a biquandle, else None
    (`Biquandle.from_table`)."""
    try:
        return Biquandle.from_table(t).s_map
    except ValueError:
        return None


def _fixed_point_map(b: "Biquandle"):
    """s when the fixed points of b's table are exactly the graph of a
    bijection s: X -> X, else None."""
    t, n = b.table, b.n
    fixed = [(x, y) for x in range(n) for y in range(n) if t.apply(x, y) == (x, y)]
    s = tuple(y for _, y in fixed)
    if [x for x, _ in fixed] != list(range(n)) or sorted(s) != list(range(n)):
        return None
    return s


@dataclass(frozen=True, slots=True)
class Biquandle(Derived):
    """A switch (X, S), given by its table alone."""

    table: PairTable

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def s_map(self) -> tuple[int, ...] | None:
        """s with S(x, s(x)) = (x, s(x)), read off the fixed points once
        and kept in the `derived` store; None when they are not the graph
        of a bijection, so that the table is no biquandle."""
        return self.derived(_fixed_point_map)

    @classmethod
    def from_table(cls, t: PairTable) -> "Biquandle":
        """(X, t) if t is a bijective, left and right invertible Yang-Baxter
        solution whose fixed points are the graph of a bijection s."""
        b = cls(t)
        if not (t.is_left_invertible() and t.is_right_invertible()
                and t.is_bijective() and check_yang_baxter(t)
                and b.s_map is not None):
            raise ValueError("table is not a biquandle")
        return b


@dataclass(frozen=True)
class Quandle:
    """Self-distributive idempotent operation given by op[x][y] = x <| y."""

    n: int
    op: Table

    def __post_init__(self):
        object.__setattr__(self, "op", _freeze(self.op))
        n = self.n
        if len(self.op) != n or any(len(r) != n for r in self.op):
            raise ValueError(f"op must be {n}x{n}")
        full = set(range(n))
        for y in range(n):
            if {self.op[x][y] for x in range(n)} != full:
                raise ValueError("- <| y must be a bijection for every y")
        for x in range(n):
            if self.op[x][x] != x:
                raise ValueError("quandle needs x <| x = x")
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if self.op[self.op[x][y]][z] != self.op[self.op[x][z]][self.op[y][z]]:
                        raise ValueError("self-distributivity fails")

    @classmethod
    def from_dict(cls, d) -> "Quandle":
        return cls(json_checked(d["n"], int, "n"),
                   json_list(d["op"], int, "op", 2))


def flip_switch(n: int) -> Biquandle:
    t = PairTable.from_function(n, lambda x, y: (y, x))
    return Biquandle(t)


def i2_switch() -> Biquandle:
    """The nontrivial involutive biquandle of size 2: (x,y) -> (y+1, x+1)."""
    t = PairTable.from_function(2, lambda x, y: ((y + 1) % 2, (x + 1) % 2))
    return Biquandle.from_table(t)


def make_bialexander(m: int, s: int, t: int) -> Biquandle:
    """Bialexander switch S(x,y) = (s*y, t*x + (1-s*t)*y) on Z/m."""
    if m < 1:
        raise ValueError("carrier must be nonempty")
    s %= m
    t %= m
    if gcd(s, m) != 1:
        raise NonUnitError(f"s={s} is not a unit mod {m}")
    if gcd(t, m) != 1:
        raise NonUnitError(f"t={t} is not a unit mod {m}")
    table = PairTable.from_function(
        m, lambda x, y: ((s * y) % m, (t * x + (1 - s * t) * y) % m))
    return Biquandle.from_table(table)


def dihedral_switch(n: int) -> Biquandle:
    """D_n: the Alexander switch with s=1, t=-1, i.e. (x,y) -> (y, 2y-x)."""
    return make_bialexander(n, 1, n - 1)


def make_quandle_switch(q: Quandle) -> Biquandle:
    """The switch S(x,y) = (y, x <| y) induced by a quandle."""
    t = PairTable.from_function(q.n, lambda x, y: (y, q.op[x][y]))
    return Biquandle.from_table(t)


def dihedral_quandle(n: int) -> Quandle:
    return Quandle(n, [[(2 * y - x) % n for y in range(n)] for x in range(n)])


def trivial_quandle(n: int) -> Quandle:
    return Quandle(n, [[x for _ in range(n)] for x in range(n)])
