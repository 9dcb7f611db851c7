"""The depth-first batch search shared by colorings and taus."""

import numpy as np


def run(start: np.ndarray, levels: int, values, cap: int, step):
    """Yield the rows that pass every level, a block at a time, in row order.

    Rows lie on axis 0, from the one-row block `start`.  `values` is one
    array of entries for every level, or a list of one array per level.
    Level k gives every row each entry of its values in turn and calls
    step(k, rows, chosen) on a fresh array of the repeated rows, with
    `chosen` the entries tiled to match; `step` returns the survivors.
    Blocks run depth-first.  One of more than w = max(1, cap // len(v))
    rows, v the level's values, puts all but its first w back on the
    stack, so `step` gets at most w * len(v) rows, and the stack holds at
    most one pending block per level, of at most max(cap, len(v)) rows:
    O(levels * cap) for v of at most cap entries.
    """
    if not isinstance(values, list):
        values = [values] * levels
    stack = [(0, start)]
    while stack:
        level, rows = stack.pop()
        if level == levels:
            yield rows
            continue
        entries = values[level]
        width = max(1, cap // len(entries))
        if len(rows) > width:
            stack.append((level, rows[width:]))
            rows = rows[:width]
        chosen = entries[None].repeat(len(rows), axis=0).reshape(-1, *entries.shape[1:])
        rows = step(level, np.repeat(rows, len(entries), axis=0), chosen)
        if len(rows):
            stack.append((level + 1, rows))
