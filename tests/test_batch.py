import itertools

import numpy as np
import pytest

from singlink import batch

LEVELS = 4
VALUES = {"colors": np.arange(3, dtype=np.uint8),
          "permutations": np.array(list(itertools.permutations(range(3))),
                                   np.int8)}


def _keep(prefix):
    """An arbitrary rule on a row's first levels, so that some rows
    survive and some do not at every level."""
    flat = prefix.reshape(len(prefix), -1).astype(int)
    return (flat * np.arange(1, flat.shape[1] + 1)).sum(axis=1) % 5 != 0


def _search(values, cap):
    """The blocks of batch.run on rows that hold one value per level,
    and the number of rows each step call got."""
    sizes = []

    def step(level, rows, chosen):
        sizes.append(len(rows))
        rows[:, level] = chosen
        return rows[_keep(rows[:, :level + 1])]

    start = np.zeros((1, LEVELS, *values.shape[1:]), values.dtype)
    return list(batch.run(start, LEVELS, values, cap, step)), sizes


def _oracle(values):
    """The surviving rows of a lexicographic search, one at a time."""
    rows = [np.array(r)[None] for r in itertools.product(values, repeat=LEVELS)]
    return [r[0] for r in rows
            if all(_keep(r[:, :k + 1])[0] for k in range(LEVELS))]


@pytest.mark.parametrize("name", VALUES)
@pytest.mark.parametrize("cap", [1, 2, 3, 7, 1 << 16])
def test_blocks_are_the_rows_in_order(name, cap):
    values = VALUES[name]
    blocks, _ = _search(values, cap)
    want = _oracle(values)
    assert 0 < len(want) < len(values) ** LEVELS
    assert np.array_equal(np.concatenate(blocks), np.array(want))


@pytest.mark.parametrize("name", VALUES)
@pytest.mark.parametrize("cap", [1, 2, 3, 7, 12, 1 << 16])
def test_step_gets_at_most_the_cap(name, cap):
    values = VALUES[name]
    blocks, sizes = _search(values, cap)
    bound = max(1, cap // len(values)) * len(values)
    assert max(sizes) <= bound
    assert all(len(b) <= max(cap, len(values)) for b in blocks)


def test_no_levels_yield_the_start():
    start = np.arange(4).reshape(1, 4)
    blocks = list(batch.run(start, 0, VALUES["colors"], 8, None))
    assert len(blocks) == 1 and blocks[0] is start


def test_a_level_that_drops_every_row_yields_nothing():
    levels = []

    def step(level, rows, chosen):
        levels.append(level)
        return rows[:0] if level == 1 else rows

    assert list(batch.run(np.zeros((1, 3)), 3, VALUES["colors"], 2, step)) == []
    assert set(levels) == {0, 1}


@pytest.mark.parametrize("cap", [1, 2, 5, 1 << 16])
def test_levels_may_have_their_own_values(cap):
    values = [np.arange(k, dtype=np.uint8) for k in (3, 1, 4, 2)]
    sizes = []

    def step(level, rows, chosen):
        sizes.append((level, len(rows)))
        rows[:, level] = chosen
        return rows[_keep(rows[:, :level + 1])]

    start = np.zeros((1, LEVELS), np.uint8)
    blocks = list(batch.run(start, LEVELS, values, cap, step))
    want = [r for r in itertools.product(*values)
            if all(_keep(np.array([r])[:, :k + 1])[0] for k in range(LEVELS))]
    assert 0 < len(want) < 3 * 4 * 2
    assert np.array_equal(np.concatenate(blocks), np.array(want, np.uint8))
    assert all(size <= max(1, cap // len(values[k])) * len(values[k])
               for k, size in sizes)
