"""Shared fixtures: singular pairs, universal cocycles, and hand-built
closed diagrams containing sites for the moves the builtin corpus lacks."""

import pytest

from singlink.diagram import Crossing, SingularDiagram, builtin_names
from singlink.invariant import AB, NC, builtin_cocycle
from singlink.pairs import builtin_pair
from tests.closures import ladder


def riva_closure() -> SingularDiagram:
    # closure of the 3-braid word: positive (1,2), positive (2,3),
    # singular (1,2); contains a left RIVa site
    return SingularDiagram((
        Crossing("+", ("a", "p", "b", "q")),
        Crossing("+", ("q", "z", "r", "z")),
        Crossing("s", ("b", "r", "a", "p")),
    ))


def rivb_closure() -> SingularDiagram:
    # closed diagram with a left RIVb site
    return SingularDiagram((
        Crossing("+", ("P", "Q", "m1", "m2")),
        Crossing("+", ("X", "m1", "P", "m3")),
        Crossing("s", ("m3", "m2", "Q", "X")),
    ))


def poked_trefoil() -> SingularDiagram:
    return ladder("++++-")


def anti_poke() -> SingularDiagram:
    # two circles with an antiparallel RII poke (one strand over at both
    # crossings); removal yields the 2-component unlink
    return SingularDiagram((Crossing("+", ("x0", "ey", "y0", "ex")),
                            Crossing("-", ("y0", "ex", "x0", "ey"))))


def anti_poke_mirror() -> SingularDiagram:
    # the second antiparallel poke pattern
    return SingularDiagram((Crossing("+", ("ey", "x0", "ex", "y0")),
                            Crossing("-", ("ex", "y0", "ey", "x0"))))


def riii_braid() -> SingularDiagram:
    return SingularDiagram((
        Crossing("+", ("m0", "r0", "m1", "r1")),
        Crossing("+", ("l0", "m1", "l1", "m2")),
        Crossing("+", ("m2", "r1", "m3", "r2")),
        Crossing("+", ("l1", "m3", "l2", "m4")),
        Crossing("+", ("l2", "r2", "l0", "r3")),
        Crossing("+", ("m4", "r3", "m0", "r0")),
    ))


def poked_sing_trefoil() -> SingularDiagram:
    # singular trefoil with a trailing +,- poke
    return ladder("s+++-")


EXTRA_DIAGRAMS = {
    "riva_closure": riva_closure,
    "rivb_closure": rivb_closure,
    "poked_trefoil": poked_trefoil,
    "anti_poke": anti_poke,
    "anti_poke_mirror": anti_poke_mirror,
    "riii_braid": riii_braid,
    "poked_sing_trefoil": poked_sing_trefoil,
}


@pytest.fixture(scope="session")
def extra_diagrams():
    return {name: fn() for name, fn in EXTRA_DIAGRAMS.items()}


@pytest.fixture(scope="session")
def all_diagrams(extra_diagrams):
    from singlink.diagram import builtin_diagram
    out = {name: builtin_diagram(name) for name in builtin_names()}
    out.update(extra_diagrams)
    return out


@pytest.fixture(scope="session")
def test_pairs():
    return {name: builtin_pair(name)
            for name in ("flip-i2", "flip-flip", "d3-ss", "d3-sinv", "i2-ss")}


@pytest.fixture(scope="session")
def nc_cocycles(test_pairs):
    return {name: builtin_cocycle(name, NC) for name in test_pairs}


@pytest.fixture(scope="session")
def ab_cocycles(test_pairs):
    return {name: builtin_cocycle(name, AB) for name in test_pairs}
