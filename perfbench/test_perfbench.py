"""Tests of the benchmark's own generator and oracles.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import random
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import braids  # noqa: E402
import child  # noqa: E402
import workloads  # noqa: E402
from singlink import coloring, invariant, pairs, pairtable  # noqa: E402
from singlink.coloring import brute_force_colorings  # noqa: E402
from singlink.pairs import SingularPair  # noqa: E402


def small_pairs():
    D3 = pairtable.dihedral_switch(3)
    return [pairs.builtin_pair("flip-i2"), pairs.builtin_pair("flip-flip"),
            SingularPair(D3, D3.table), SingularPair(D3, D3.table.inverse())]


def test_oracle_count_matches_brute_force_on_small_closures():
    rng = random.Random(0)
    for _ in range(25):
        strands = rng.randint(2, 3)
        word = braids.random_word(rng, strands, rng.randint(strands - 1, 4))
        d = braids.closure(word, strands, braids.shuffled_names(rng, 2 * len(word)))
        for p in small_pairs():
            want = len(brute_force_colorings(d, p))
            assert braids.oracle_count(word, strands, p) == want
            assert braids.brute_force_count(d, p) == want


def test_same_seed_same_diagrams():
    prs = workloads.closure_pairs()
    assert workloads.closure_inputs(prs, 5) == workloads.closure_inputs(prs, 5)
    assert workloads.closure_inputs(prs, 5) != workloads.closure_inputs(prs, 6)


def test_closure_components_and_branch_depth():
    word = [(0, "+"), (0, "s"), (1, "-"), (1, "+")]   # pure braid: 3 strands
    d = braids.closure(word, 3)
    assert len(d.components) == braids.components(word, 3) == 3
    # strand-ordered names: seeding the three top edges fixes everything
    assert braids.branch_depth(d.crossings) == 3


def test_oracle_invariants_match_library():
    p = pairs.builtin_pair("flip-flip")
    nc, ab = invariant.universal_nc_cocycle(p), invariant.universal_ab_cocycle(p)
    rng = random.Random(1)
    for _ in range(5):
        word = braids.random_word(rng, 3, 6)
        d = braids.closure(word, 3)
        per_coloring, total = braids.oracle_invariants(word, 3, p, nc, ab)
        assert Counter(invariant.nc_invariant(d, p, nc).per_coloring) == per_coloring
        assert invariant.state_sum(d, p, ab).terms == total
        assert sum(total.values()) == coloring.count_colorings(d, p)


def test_speed_is_the_median_probe_near_a_call():
    meter = child.Speedometer()
    ms = 1_000_000
    # probes every 10 ms; the host runs at half speed from 200 ms on, and
    # one probe at 120 ms was held up
    meter.samples = [(t * ms, 0.5 if t >= 200 else 1.0) for t in range(0, 400, 10)]
    meter.samples[12] = (120 * ms, 0.01)
    assert meter.speed(100 * ms, 110 * ms) == 1.0
    assert meter.speed(300 * ms, 390 * ms) == 0.5
    assert child.probe_ns() > 0
