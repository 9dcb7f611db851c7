"""Seeded singular braid words, their closures, and independent oracles.

A singular braid word on k strands is a list of letters (pos, kind): the
crossing acts on strand positions pos and pos+1 with kind "+", "-" or "s".
Its closure is built through the public `Crossing`/`SingularDiagram` API:
a crossing consumes the edges at positions (pos, pos+1) and produces the
edges that sit at those positions below it, so the strand entering at in1
leaves at out2, as the package's slot convention requires.

The oracles never call `singlink.coloring` or `singlink.invariant`: the
colorings of a closure are the fixed points of the composed map of X^k
that applies S, S^-1 or tau at each letter, so the coloring count is a
fixed-point count of a permutation built from the pair's tables, and the
Boltzmann weights of each coloring can be read off along the word.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import numpy as np

from singlink.diagram import Crossing, SingularDiagram

KINDS = ("+", "-", "s")


def random_word(rng: random.Random, strands: int, length: int,
                kinds=KINDS) -> list[tuple[int, str]]:
    """A word of `length` letters in which every generator position occurs,
    so no strand of the closure is a crossing-free circle."""
    if length < strands - 1:
        raise ValueError("word too short to touch every strand")
    positions = list(range(strands - 1))
    positions += [rng.randrange(strands - 1) for _ in range(length - len(positions))]
    rng.shuffle(positions)
    return [(p, rng.choice(kinds)) for p in positions]


def component_of_top(word, strands: int) -> list[int]:
    """Component index of the strand starting at each top position, numbered
    by their smallest top position."""
    perm = list(range(strands))         # perm[p]: top position of the strand at p
    for p, _ in word:
        perm[p], perm[p + 1] = perm[p + 1], perm[p]
    comp = [-1] * strands
    count = 0
    for s in range(strands):
        if comp[s] < 0:
            while comp[s] < 0:
                comp[s] = count
                s = perm[s]
            count += 1
    return comp


def components(word, strands: int) -> int:
    return max(component_of_top(word, strands)) + 1


def closure_crossings(word, strands: int, names=None) -> tuple[Crossing, ...]:
    """Crossings of the closure of `word`; edge i (in order of creation,
    the k top edges first) is called names[i], or e000, e001, ... ."""
    if names is None:
        names = [f"e{i:03d}" for i in range(2 * len(word))]
    cur = list(range(strands))          # edge id at each position
    fresh = strands
    slots = []
    for p, kind in word:
        slots.append((kind, [cur[p], cur[p + 1], fresh, fresh + 1]))
        cur[p], cur[p + 1] = fresh, fresh + 1
        fresh += 2
    if any(cur[p] == p for p in range(strands)):
        raise ValueError("every strand position needs a crossing")
    # the bottom edge at each position is the top edge at that position
    close = {cur[p]: p for p in range(strands)}
    for _, s in slots:
        s[2], s[3] = close.get(s[2], s[2]), close.get(s[3], s[3])
    used = sorted({e for _, s in slots for e in s})
    rename = {e: names[i] for i, e in enumerate(used)}
    return tuple(Crossing(kind, tuple(rename[e] for e in s)) for kind, s in slots)


def closure(word, strands: int, names=None) -> SingularDiagram:
    return SingularDiagram(closure_crossings(word, strands, names))


def shuffled_names(rng: random.Random, count: int) -> list[str]:
    """Distinct edge names whose sorted order is random.  They sort before
    the n0, n1, ... that rewrites mint, so a move leaves the order of the
    surviving names in front."""
    return [f"e{i}" for i in rng.sample(range(10 * count + 10), count)]


def ladder_closure(kinds) -> SingularDiagram:
    """2-strand closure whose level-i crossing eats (l_i, r_i): the naming
    under which the seeded coloring search branches on every l_i first."""
    k = len(kinds)
    return SingularDiagram(tuple(
        Crossing(kind, (f"l{i}", f"r{i}", f"l{(i + 1) % k}", f"r{(i + 1) % k}"))
        for i, kind in enumerate(kinds)))


def branch_depth(crossings, loops=()) -> int:
    """How many edges a search must seed, in sorted-name order, before
    crossing propagation fixes every color.

    Which edges propagation determines depends only on which edges are
    known, never on their colors, so this is a property of the diagram
    and its edge names alone; such a search visits up to n**depth leaves.
    """
    edges = sorted(set(loops).union(*(c.slots for c in crossings)))
    known: set[str] = set(loops)
    depth = 0
    while True:
        changed = True
        while changed:
            changed = False
            for c in crossings:
                i1, i2, o1, o2 = c.slots
                if i1 in known and i2 in known:
                    new = {o1, o2} - known
                elif o1 in known and o2 in known:
                    new = {i1, i2} - known
                else:
                    continue
                if new:
                    known |= new
                    changed = True
        free = [e for e in edges if e not in known]
        if not free:
            return depth
        known.add(free[0])
        depth += 1


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _tables(pair):
    S = pair.biquandle.table
    return {"+": S, "-": S.inverse(), "s": pair.tau}


def fixed_point_states(word, strands: int, pair) -> np.ndarray:
    """Rows of X^k (top colors, position order) that the word maps to
    themselves: one row per coloring of the closure."""
    maps = {k: (np.array(t.t1), np.array(t.t2)) for k, t in _tables(pair).items()}
    grid = np.indices((pair.n,) * strands).reshape(strands, -1).T.copy()
    state = grid.copy()
    for p, kind in word:
        t1, t2 = maps[kind]
        a, b = state[:, p], state[:, p + 1]
        state[:, p], state[:, p + 1] = t1[a, b], t2[a, b]
    return grid[(state == grid).all(axis=1)]


def oracle_count(word, strands: int, pair) -> int:
    return len(fixed_point_states(word, strands, pair))


def brute_force_count(d: SingularDiagram, pair) -> int:
    """Assignments of X to every edge that satisfy every crossing (small
    diagrams only: n**edges candidates)."""
    maps = _tables(pair)
    edges = d.edges
    count = 0
    for values in itertools.product(range(pair.n), repeat=len(edges)):
        col = dict(zip(edges, values))
        count += all(maps[c.kind].apply(col[c.in1], col[c.in2]) == (col[c.out1], col[c.out2])
                     for c in d.crossings)
    return count


def oracle_invariants(word, strands: int, pair, nc, ab):
    """(multiset of per-coloring component tuples of the nc invariant,
    state sum as {element: coefficient}) of the closure with default
    names, evaluated along the word.

    The targets are abelian, so a component's weight product is the sum
    of the weights it meets: h(x,y) at a singular crossing for each strand
    through it, f(x,y) at a positive crossing for the strand entering at
    in1, f(S^-1(x,y))^-1 at a negative crossing for the strand entering
    at in2.  Components are ordered by their smallest top position, which
    is the order of their smallest edge name.
    """
    maps = _tables(pair)
    comp_of_top = component_of_top(word, strands)
    ncomp = max(comp_of_top) + 1
    g_nc, g_ab = nc.target, ab.target
    per_coloring, total = Counter(), Counter()
    for row in fixed_point_states(word, strands, pair):
        colors = [int(v) for v in row]
        strand = list(range(strands))   # top position of the strand at each position
        vals = [g_nc.identity()] * ncomp
        weight = g_ab.identity()
        for p, kind in word:
            x, y = colors[p], colors[p + 1]
            c1, c2 = comp_of_top[strand[p]], comp_of_top[strand[p + 1]]
            if kind == "s":
                vals[c1] = g_nc.mul(vals[c1], nc.h[x][y])
                vals[c2] = g_nc.mul(vals[c2], nc.h[x][y])
                w = ab.h[x][y]
            elif kind == "+":
                vals[c1] = g_nc.mul(vals[c1], nc.f[x][y])
                w = ab.f[x][y]
            else:
                a, b = maps["-"].apply(x, y)
                vals[c2] = g_nc.mul(vals[c2], g_nc.inv(nc.f[a][b]))
                w = g_ab.inv(ab.f[a][b])
            weight = g_ab.mul(weight, w)
            colors[p], colors[p + 1] = maps[kind].apply(x, y)
            strand[p], strand[p + 1] = strand[p + 1], strand[p]
        per_coloring[tuple(vals)] += 1
        total[weight] += 1
    return per_coloring, dict(total)
