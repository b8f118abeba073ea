"""BAD: literal float64 upcasts inside a float32 package."""

import numpy as np


def widen(values, thresholds):
    v = values.astype(np.float64)  # NUM002
    t = np.zeros(8, dtype=np.float64)  # NUM002 (and explicit-dtype ok)
    s = np.float64(thresholds.sum())  # NUM002
    return v, t, s
