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


def enumerate_colorings(d: SingularDiagram, p: SingularPair) -> list[Coloring]:
    """All colorings, deterministically ordered by the value tuple on
    sorted edges.

    Colors are propagated through crossings both forward (ins determine
    outs) and backward (outs determine ins, through the inverse map).
    When propagation stalls, the search branches on all n colors of the
    first uncoloured edge in sorted-name order, so the number of branched
    edges depends on the edge names (up to the edge count), not on the
    cut size.
    """
    n = p.n
    maps = _crossing_maps(p)
    inv_maps = {k: m.inverse() for k, m in maps.items()}
    edges = d.edges
    crossings = d.crossings
    results: list[Coloring] = []

    def propagate(col: Coloring) -> bool:
        changed = True
        while changed:
            changed = False
            for c in crossings:
                i1, i2, o1, o2 = c.slots
                know_in = col.get(i1) is not None and col.get(i2) is not None
                know_out = col.get(o1) is not None and col.get(o2) is not None
                if know_in:
                    a, b = maps[c.kind].apply(col[i1], col[i2])
                    for e, v in ((o1, a), (o2, b)):
                        if col.get(e) is None:
                            col[e] = v
                            changed = True
                        elif col[e] != v:
                            return False
                elif know_out:
                    x, y = inv_maps[c.kind].apply(col[o1], col[o2])
                    for e, v in ((i1, x), (i2, y)):
                        if col.get(e) is None:
                            col[e] = v
                            changed = True
                        elif col[e] != v:
                            return False
        return True

    def search(col: Coloring):
        if not propagate(col):
            return
        free = [e for e in edges if col.get(e) is None]
        if not free:
            results.append(dict(col))
            return
        seed = free[0]
        for v in range(n):
            trial = dict(col)
            trial[seed] = v
            search(trial)

    search({})
    results.sort(key=lambda col: tuple(col[e] for e in edges))
    return results


def count_colorings(d: SingularDiagram, p: SingularPair) -> int:
    return len(enumerate_colorings(d, p))


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
