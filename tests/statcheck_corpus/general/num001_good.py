"""GOOD: every constructor states the layout dtype."""

import numpy as np


def make_state(n):
    votes = np.zeros(n, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)
    ones = np.ones((n, 2), dtype=np.float32)
    out = np.full(n, -1, dtype=np.int64)
    return votes, rows, ones, out
