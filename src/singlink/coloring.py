"""Colorings of singular diagrams by a singular pair.

A coloring assigns an element of X to every edge so that at each
crossing (c(out1), c(out2)) = M(c(in1), c(in2)) with M = S, S^-1 or tau
according to the crossing kind.  Loops are unconstrained.
"""

from __future__ import annotations

from .diagram import NEG, POS, SING, SingularDiagram
from .pairs import SingularPair

Coloring = dict[str, int]


def _crossing_maps(p: SingularPair):
    S = p.biquandle.table
    return {POS: S, NEG: S.inverse(), SING: p.tau}


def _flat(t) -> tuple[list[int], ...]:
    """Forward and backward tables of a bijective map, indexed x*n + y."""
    inv = t.inverse()
    return tuple([v for row in tab for v in row] for tab in (t.t1, t.t2, inv.t1, inv.t2))


def _search(d: SingularDiagram, p: SingularPair, found: list | None) -> int:
    """Count the colorings of d, appending each as a value tuple on
    d.edges to `found` unless it is None."""
    n = p.n
    edges = d.edges
    index = {e: i for i, e in enumerate(edges)}
    tables = {kind: _flat(m) for kind, m in _crossing_maps(p).items()}
    touching: list[list[int]] = [[] for _ in edges]
    for ci, c in enumerate(d.crossings):
        for e in dict.fromkeys(c.slots):
            touching[index[e]].append(ci)
    quads = [tuple(index[e] for e in c.slots) for c in d.crossings]
    # crossing ci: in1, in2, out1, out2, forward and backward tables, and
    # for each slot the other crossings its edge touches: once ci forces
    # colors, all four of its slots agree and it needs no second look
    cross = []
    for ci, (c, slots) in enumerate(zip(d.crossings, quads)):
        others = tuple([cj for cj in touching[e] if cj != ci] for e in slots)
        cross.append(slots + tables[c.kind] + others)
    col = [-1] * len(edges)
    trail: list[int] = []     # edges in the order they were coloured

    def propagate(work: list[int]) -> bool:
        while work:
            i1, i2, o1, o2, f1, f2, b1, b2, n1, n2, n3, n4 = cross[work.pop()]
            x, y = col[i1], col[i2]
            if x >= 0 and y >= 0:
                k = x * n + y
                forced = ((o1, f1[k], n3), (o2, f2[k], n4))
            else:
                x, y = col[o1], col[o2]
                if x < 0 or y < 0:
                    continue
                k = x * n + y
                forced = ((i1, b1[k], n1), (i2, b2[k], n2))
            for e, v, nbrs in forced:
                have = col[e]
                if have < 0:
                    col[e] = v
                    trail.append(e)
                    work.extend(nbrs)
                elif have != v:
                    return False
        return True

    def seed(low: int) -> tuple[int, int]:
        """The edge to branch on and where the next fallback scan may
        start; every edge below `low` is coloured."""
        for i1, i2, o1, o2 in quads:
            if (col[i1] < 0) != (col[i2] < 0):
                return (i1 if col[i1] < 0 else i2), low
            if (col[o1] < 0) != (col[o2] < 0):
                return (o1 if col[o1] < 0 else o2), low
        for e in range(low, len(col)):
            if col[e] < 0:
                return e, e
        return -1, low

    leaves = 0
    # one frame per open branch point: [seeded edge, trail mark, next
    # color, fallback scan start]; edges below the scan start were
    # coloured before the frame opened and stay so while it is open
    stack: list[list[int]] = []
    work: list[int] = []
    while True:
        if propagate(work):
            e, low = seed(stack[-1][3] if stack else 0)
            if e < 0:
                leaves += 1
                if found is not None:
                    found.append(tuple(col))
            else:
                stack.append([e, len(trail), 0, low])
        while stack:
            frame = stack[-1]
            e, mark, v, _ = frame
            while len(trail) > mark:
                col[trail.pop()] = -1
            if v < n:
                frame[2] = v + 1
                col[e] = v
                trail.append(e)
                work = list(touching[e])
                break
            stack.pop()
        else:
            return leaves


def enumerate_colorings(d: SingularDiagram, p: SingularPair) -> list[Coloring]:
    """All colorings, deterministically ordered by the value tuple on
    sorted edges.

    The diagram is compiled into integer edge ids (in sorted-name order)
    and flat forward/backward tables of S, S^-1 and tau.  Colors are
    propagated incrementally: assigning an edge re-examines only the
    crossings touching it, forward (ins determine outs) and backward
    (outs determine ins), and a trail undoes the assignments on
    backtrack.  When propagation stalls, the search branches on all n
    colors of the missing slot of the first half-known in-pair or
    out-pair in crossing order, where a single choice determines a whole
    crossing; only when no pair is half-known does it fall back to the
    first uncoloured edge in sorted-name order.  That scan resumes at
    the edge where the open branch point's scan stopped, since every
    edge before it stays coloured until that branch point closes, so k
    crossing-free loops cost O(k), not O(k^2).  Open branch points live
    on an explicit stack, so Python's recursion limit does not bound the
    number of seeds.
    """
    found: list[tuple[int, ...]] = []
    _search(d, p, found)
    found.sort()
    edges = d.edges
    return [dict(zip(edges, values)) for values in found]


def count_colorings(d: SingularDiagram, p: SingularPair) -> int:
    """Number of colorings; the search of `enumerate_colorings` without
    building or sorting them."""
    return _search(d, p, None)


def brute_force_colorings(d: SingularDiagram, p: SingularPair) -> list[Coloring]:
    """Oracle: filter all |X|^edges assignments (tests only)."""
    import itertools

    n = p.n
    maps = _crossing_maps(p)
    edges = d.edges
    out = []
    for values in itertools.product(range(n), repeat=len(edges)):
        col = dict(zip(edges, values))
        ok = all(maps[c.kind].apply(col[c.in1], col[c.in2]) == (col[c.out1], col[c.out2])
                 for c in d.crossings)
        if ok:
            out.append(col)
    return out
