"""The depth-first batch search shared by colorings and taus."""

import numpy as np


def run(start: np.ndarray, levels: int, values: np.ndarray, cap: int, step):
    """Yield the rows that pass every level, a block at a time, in row order.

    Rows lie on axis 0, from the one-row block `start`.  Level k gives
    every row each entry of `values` in turn and calls step(k, rows,
    chosen) on a fresh array of the repeated rows, with `chosen` the
    entries tiled to match; `step` returns the survivors.  Blocks run
    depth-first.  One of more than w = max(1, cap // len(values)) rows
    puts all but its first w back on the stack, so `step` gets at most
    w * len(values) rows, and the stack holds at most one pending block
    per level, of at most max(cap, len(values)) rows: O(levels * cap).
    """
    width = max(1, cap // len(values))
    stack = [(0, start)]
    while stack:
        level, rows = stack.pop()
        if level == levels:
            yield rows
            continue
        if len(rows) > width:
            stack.append((level, rows[width:]))
            rows = rows[:width]
        chosen = np.tile(values, (len(rows),) + (1,) * (values.ndim - 1))
        rows = step(level, np.repeat(rows, len(values), axis=0), chosen)
        if len(rows):
            stack.append((level + 1, rows))
