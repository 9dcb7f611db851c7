"""Seeded singular braid closures, the moves drawn on them, and the pairs
and diagrams that the coloring, diagram and invariant tests share."""

import random

from hypothesis import strategies as st

from singlink.diagram import (MOVES, Crossing, MoveSite, SingularDiagram,
                              apply_move, braid_closure, builtin_diagram,
                              find_move_sites, ladder)
from singlink.pairs import SingularPair, make_tau_a, make_tau_phi
from singlink.pairtable import dihedral_switch, make_bialexander


def replace_sing_by_pos(d: SingularDiagram) -> SingularDiagram:
    cs = tuple(Crossing("+" if c.kind == "s" else c.kind, c.slots)
               for c in d.crossings)
    return SingularDiagram(cs, d.loops, d.basepoints)


def random_word(rng: random.Random, strands: int, length: int, kinds="+-s"):
    """Letters (position, kind) acting on strand positions (pos, pos+1);
    every position occurs, so the closure has no crossing-free strand."""
    positions = list(range(strands - 1))
    positions += [rng.randrange(strands - 1) for _ in range(length - strands + 1)]
    rng.shuffle(positions)
    return [(pos, rng.choice(kinds)) for pos in positions]


def shuffled_closure(word, strands: int, rng: random.Random) -> SingularDiagram:
    """Closure of `word` whose edge names sort in a random order."""
    m = 2 * len(word)
    return braid_closure(word, strands, [f"e{v}" for v in rng.sample(range(10 * m), m)])


# pairs whose tau is far from S: a rewrite that mixes up the S and T
# crossings of RIVa or RIVb changes their counts
FAR_PAIRS = {"d5-tau-phi": SingularPair(dihedral_switch(5),
                                        make_tau_phi(5, 1, 4, [0, 2, 4, 1, 3])),
             "bialexander-tau-a": SingularPair(make_bialexander(5, 2, 3),
                                               make_tau_a(5, 2, 3, 2))}

MOVE_PAIRS = (SingularPair(dihedral_switch(3), dihedral_switch(3).table.inverse()),
              FAR_PAIRS["d5-tau-phi"])

COUNT_PRESERVING_MOVES = ("RIII", "RIVa", "RIVb", "RV")

EDGE_CASES = {
    "empty": SingularDiagram(()),
    "loops": SingularDiagram((), ("b", "a", "c")),
    "kink": SingularDiagram((Crossing("s", ("e0", "l", "e0", "l")),)),
    "kinks and a loop": SingularDiagram((Crossing("+", ("a", "k", "b", "k")),
                                         Crossing("-", ("m", "b", "m", "a"))), ("z",)),
    "no colorings": builtin_diagram("sing_hopf"),
}


def drawn_site(draw, d: SingularDiagram, moves):
    """One of the sites of `moves` in d, or None when there is none.  The
    kinks RI_insert could add count as one site, whose edge, sign and shape
    are drawn next."""
    sites = [s for m in moves if m != "RI_insert" for s in find_move_sites(d, m)]
    sites += ["RI_insert"] if "RI_insert" in moves and d.edges else []
    site = draw(st.sampled_from(sites)) if sites else None
    if site == "RI_insert":
        site = MoveSite.make("RI_insert", (), edge=draw(st.sampled_from(d.edges)),
                             sign=draw(st.sampled_from("+-")),
                             shape=draw(st.sampled_from("AB")))
    return site


@st.composite
def moved_closures(draw, moves=COUNT_PRESERVING_MOVES):
    """A word of at most 10 letters on 2-4 strands, its closure with
    shuffled names, and the chain of diagrams after up to 4 moves drawn
    from `moves`."""
    strands = draw(st.integers(2, 4))
    extra = draw(st.lists(st.integers(0, strands - 2), max_size=11 - strands))
    positions = draw(st.permutations(list(range(strands - 1)) + extra))
    word = [(pos, draw(st.sampled_from("+-s"))) for pos in positions]
    chain = [shuffled_closure(word, strands, draw(st.randoms(use_true_random=False)))]
    for _ in range(draw(st.integers(0, 4))):
        site = drawn_site(draw, chain[-1], moves)
        if site is None:
            break
        chain.append(apply_move(chain[-1], site))
    return word, strands, chain


def last_edge_bases(d: SingularDiagram) -> SingularDiagram:
    """d with each basepoint on its component's last edge, not the default
    first one, so that a move's rebuild has basepoints to carry over."""
    return SingularDiagram(d.crossings, d.loops, tuple(c[-1] for c in d.components))


def move_chain(rng: random.Random, d: SingularDiagram, steps: int) -> list[SingularDiagram]:
    """d and the diagrams after each of up to `steps` moves: a move drawn
    among those with a site, then one of its sites."""
    chain = [d]
    for _ in range(steps):
        by_move = [sites for m in MOVES if (sites := find_move_sites(chain[-1], m))]
        if not by_move:
            break
        chain.append(apply_move(chain[-1], rng.choice(rng.choice(by_move))))
    return chain
