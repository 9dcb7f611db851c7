"""Every JSON file format is read and written by its object alone:
`from_dict` of what `to_dict` wrote, through JSON text, is the object
again.  `json.dumps` refuses a numpy integer, so none can leak into a
written file."""

import json
import random

import pytest

from singlink.diagram import builtin_diagram, builtin_names
from singlink.invariant import AB, NC, builtin_cocycle
from singlink.pairs import SingularPair, builtin_pair
from singlink.pairtable import dihedral_switch
from singlink.presentation import (abelianize, build_ab_presentation,
                                   build_unc_presentation)
from tests.closures import move_chain, random_word, shuffled_closure

PAIR_NAMES = ("flip-flip", "flip-i2", "flip-s2", "flip-flip-3", "d3-ss",
              "d3-sinv", "i2-ss", "trivial-1")


def round_trip(x):
    return type(x).from_dict(json.loads(json.dumps(x.to_dict())))


def moved_closures():
    """Seeded 2-4 strand closures with shuffled names, and each diagram
    after up to four moves on them."""
    out = []
    for seed in range(6):
        rng = random.Random(seed)
        strands = 2 + seed % 3
        word = random_word(rng, strands, rng.randrange(strands, 9))
        out += move_chain(rng, shuffled_closure(word, strands, rng), 4)
    return out


def groups():
    """The universal nc and ab groups of flip-flip, flip-i2 (torsion
    (2, 2)) and D3, D4, D5 with tau = S, and the labeled targets of the
    named builtin cocycles."""
    pairs = [builtin_pair("flip-flip"), builtin_pair("flip-i2")]
    pairs += [SingularPair(dihedral_switch(n), dihedral_switch(n).table)
              for n in (3, 4, 5)]
    out = [abelianize(build(p)) for p in pairs
           for build in (build_unc_presentation, build_ab_presentation)]
    return out + [builtin_cocycle(name, kind).target
                  for name in ("flip-i2", "flip-flip") for kind in (NC, AB)]


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_pairs_and_their_tables_round_trip(name):
    p = builtin_pair(name)
    for x in (p, p.biquandle.table, p.tau):
        assert round_trip(x) == x


def test_diagrams_round_trip():
    moved = moved_closures()
    assert len(moved) > 12             # six closures, most of them moved
    for d in [builtin_diagram(name) for name in builtin_names()] + moved:
        assert round_trip(d) == d


def test_groups_round_trip():
    gs = groups()
    assert {(2, 2)} <= {g.torsion for g in gs}
    assert any(g.free_labels[0] == "a" for g in gs)
    for g in gs:
        assert round_trip(g) == g

