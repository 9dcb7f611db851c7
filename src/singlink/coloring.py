"""Colorings of singular diagrams by a singular pair.

A coloring assigns an element of X to every edge so that at each
crossing (c(out1), c(out2)) = M(c(in1), c(in2)) with M = S, S^-1 or tau
according to the crossing kind.  Loops are unconstrained.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from . import batch
from .diagram import NEG, POS, SING, SingularDiagram
from .pairs import SingularPair

Coloring = dict[str, int]

# partial colorings a block may hold before a seed splits it
_ROWS = 1 << 16


# the (kind, forward) keys of `flat_tables` in the order a plan's ops name
# them by index, and each kind's forward key: its backward key is the next
_KEYS = ((POS, True), (POS, False), (NEG, True), (NEG, False), (SING, True), (SING, False))
_FORWARD_KEY = {kind: _KEYS.index((kind, True)) for kind in (POS, NEG, SING)}


def flat_tables(p: SingularPair) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per (crossing kind, forward) of _KEYS, the read-only tables
    (M1, M2) of the crossing's map M, or of M^-1 when not forward,
    indexed x*n + y.  One inverse per map (`PairTable.inverse`, which
    refuses a map that is not bijective): S^-1's tables are S's read the
    other way round.  A pair builds them at its first search and keeps
    them (`p.derived(flat_tables)`)."""
    out = {}
    for kind, t in ((POS, p.biquandle.table), (SING, p.tau)):
        for forward, m in ((True, t), (False, t.inverse())):
            tabs = np.array([m.t1, m.t2], dtype=np.intp).reshape(2, -1)
            tabs.flags.writeable = False
            out[kind, forward] = tuple(tabs)
    out[NEG, True], out[NEG, False] = out[POS, False], out[POS, True]
    return tuple(map(out.__getitem__, _KEYS))


def _plan(d: SingularDiagram):
    """The search as levels (seed edge, ops) over the ids of d.edges.

    An op (a, b, key, x, x_new, y, y_new) fires a crossing: the colors of
    slots a, b give the other pair (x, y) through the map
    _KEYS[key] = (kind, forward); a new x or y is set, an old one checked.
    Each crossing fires once, when both slots of its in-pair or its
    out-pair are coloured.  A diagram keeps its plan from its first search
    on (`SingularDiagram.derived`), as one flat tuple of ints per op.
    """
    index = dict(zip(d.edges, range(len(d.edges))))
    quads = [tuple(map(index.__getitem__, c.slots)) for c in d.crossings]
    forward_keys = [_FORWARD_KEY[c.kind] for c in d.crossings]
    touching: list[list[int]] = [[] for _ in index]
    for ci, q in enumerate(quads):
        for e in q:                # twice for a kink: the flags make it harmless
            touching[e].append(ci)
    known = [False] * len(index)
    fired = [False] * len(quads)
    queued = [False] * len(quads)
    touched: list[int] = []        # heap of crossings with a coloured edge
    levels = []
    low = 0                        # every edge below it is coloured
    while True:
        # after propagation, a touched crossing that has not fired has a
        # half-known pair: the first in order holds the first such pair
        while touched and fired[touched[0]]:
            heapq.heappop(touched)
        if touched:
            i1, i2, o1, o2 = quads[touched[0]]
            if known[i1] != known[i2]:
                e = i2 if known[i1] else i1
            else:
                e = o2 if known[o1] else o1
        else:
            while low < len(known) and known[low]:
                low += 1
            if low == len(known):
                return tuple(levels)
            e = low
        known[e] = True
        for ci in touching[e]:
            if not queued[ci]:
                queued[ci] = True
                heapq.heappush(touched, ci)
        ops = []
        work = touching[e][:]
        while work:
            ci = work.pop()
            if fired[ci]:
                continue
            i1, i2, o1, o2 = quads[ci]
            if known[i1] and known[i2]:
                key, a, b, x, y = forward_keys[ci], i1, i2, o1, o2
            elif known[o1] and known[o2]:
                key, a, b, x, y = forward_keys[ci] + 1, o1, o2, i1, i2
            else:
                continue
            fired[ci] = True
            op = (a, b, key, x, not known[x], y, not known[y])
            for z in (x, y):
                if not known[z]:
                    known[z] = True
                    for cj in touching[z]:
                        if not fired[cj]:
                            work.append(cj)
                            if not queued[cj]:
                                queued[cj] = True
                                heapq.heappush(touched, cj)
            ops.append(op)
        levels.append((e, tuple(ops)))


def _blocks(d: SingularDiagram, p: SingularPair):
    """The colorings of d as (colorings, edges) arrays from `batch.run`,
    one level per seed of d's plan, compiled by `_plan` at d's first
    search and kept with d, through p's `flat_tables`, built at p's first
    search and kept with p."""
    n = np.intp(p.n)
    dtype = np.min_scalar_type(p.n - 1)
    tabs = p.derived(flat_tables)
    plan = d.derived(_plan)

    def step(level, cols, chosen):
        e, ops = plan[level]
        edge = cols.T
        edge[e] = chosen
        ok = True
        for a, b, key, x, x_new, y, y_new in ops:
            k = edge[a] * n
            k += edge[b]
            t1, t2 = tabs[key]
            if x_new:
                edge[x] = t1.take(k)
            else:
                ok = ok & (edge[x] == t1.take(k))
            if y_new:
                edge[y] = t2.take(k)
            else:
                ok = ok & (edge[y] == t2.take(k))
        return cols if ok is True or ok.all() else cols.compress(ok, axis=0)

    return batch.run(np.zeros((1, len(d.edges)), dtype), len(plan),
                     np.arange(p.n, dtype=dtype), _ROWS, step)


def _sorted_colorings(d: SingularDiagram, p: SingularPair) -> np.ndarray:
    """`coloring_array`'s build: every block of `_blocks`, rows sorted by
    one stable argsort of a fixed-width byte key per row; colors wider
    than a byte (n > 256) are laid out big-endian first, so that the
    bytes compare as the colors do."""
    cols = np.concatenate([*_blocks(d, p),
                           np.zeros((0, len(d.edges)), np.uint8)])
    if cols.shape[1]:
        key = np.ascontiguousarray(cols, cols.dtype.newbyteorder(">"))
        key = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
        cols = cols[np.argsort(key, kind="stable")]
    cols.flags.writeable = False
    return cols


def _last_colorings(d: SingularDiagram) -> dict:
    """`coloring_array`'s slot in d's `derived` store: {pair: array} for
    the last pair d was asked for, or empty."""
    return {}


def coloring_array(d: SingularDiagram, p: SingularPair) -> np.ndarray:
    """All colorings as a read-only (colorings, edges) array over d.edges,
    rows in lexicographic order.

    d keeps the array of the last pair it was asked for in its `derived`
    store, for its lifetime, at one byte per edge per coloring (two for
    n > 256): `nc_invariant`, `state_sum` and `enumerate_colorings` on
    the same (d, p) in a row share one search and sort.  Asking for
    another pair drops it, so d never holds more than one array, however
    many pairs query it.  Equal pairs have equal colorings, so an equal
    but distinct pair object finds the same array; a moved diagram or a
    copy has its own store and searches anew."""
    last = d.derived(_last_colorings)
    if p not in last:
        last.clear()
        last[p] = _sorted_colorings(d, p)
    return last[p]


def enumerate_colorings(d: SingularDiagram, p: SingularPair) -> list[Coloring]:
    """All colorings, deterministically ordered by the value tuple on
    sorted edges.

    The search is compiled into a plan (`_plan`) at a diagram's first
    search, not when it is built or moved, and kept with the diagram for
    its lifetime (its `derived` store); a pair's `flat_tables` are built
    at its first search and kept with it the same way.  Edges get ids in
    sorted-name order; each level of the plan seeds one edge and lists
    the crossings that propagation then fires, forward (ins determine
    outs) or backward (outs determine ins).  Which edges are coloured
    after a seed depends only on which were coloured before it, not on
    their colors, so one plan serves every branch and every pair.  A pair
    whose switch or tau is not bijective is refused with ValueError.  A
    level seeds the missing slot of the first half-known in-pair or
    out-pair in crossing order (in-pair first), where one choice
    determines a whole crossing, found from a heap of the crossings with
    a coloured edge; only when no pair is half-known does it seed the
    first uncoloured edge in sorted-name order.

    `batch.run` runs the plan on arrays of partial colorings, one row per
    branch, at most _ROWS at a time, in the smallest unsigned dtype; a
    level's gathers and comparisons act on all rows at once.  `coloring_array`
    then sorts the rows once, by one byte key per row, and keeps them
    with d (see there).  The dicts returned hold all colorings again,
    O(colorings * edges) objects.
    """
    edges = d.edges
    return [dict(zip(edges, row)) for row in coloring_array(d, p).tolist()]


def count_colorings(d: SingularDiagram, p: SingularPair) -> int:
    """Number of colorings; the plan of `enumerate_colorings`, kept with d
    from its first search, run block by block without keeping or sorting
    the colorings: it neither reads nor fills `coloring_array`'s store."""
    return sum(len(cols) for cols in _blocks(d, p))


def brute_force_colorings(d: SingularDiagram, p: SingularPair) -> list[Coloring]:
    """Oracle: filter all |X|^edges assignments (tests only)."""
    S = p.biquandle.table
    maps = {POS: S, NEG: S.inverse(), SING: p.tau}
    cols = (dict(zip(d.edges, values))
            for values in itertools.product(range(p.n), repeat=len(d.edges)))
    return [col for col in cols if all(
        maps[c.kind].apply(col[c.in1], col[c.in2]) == (col[c.out1], col[c.out2])
        for c in d.crossings)]


def fixed_point_count(word, strands: int, p: SingularPair) -> int:
    """Oracle: colorings of the closure of a braid word (see
    `diagram.braid_closure`) = top colors fixed by the map of X^k that
    applies the word's letters in turn (S, S^-1 or tau per letter)."""
    S = p.biquandle.table
    maps = {POS: S, NEG: S.inverse(), SING: p.tau}
    count = 0
    for top in itertools.product(range(p.n), repeat=strands):
        state = list(top)
        for pos, kind in word:
            state[pos], state[pos + 1] = maps[kind].apply(state[pos], state[pos + 1])
        count += tuple(state) == top
    return count
