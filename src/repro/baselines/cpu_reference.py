"""CPU reference traversal — the correctness oracle.

Pure NumPy majority-vote classification straight off the
:class:`~repro.forest.tree.DecisionTree` arrays.  Every layout and every
simulated kernel must produce byte-identical predictions to these functions;
the test suite enforces that, which is what makes the simulators' performance
counters trustworthy (they are derived from genuinely correct traversals).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.forest.random_forest import vote_counts
from repro.forest.tree import DecisionTree
from repro.utils.validation import check_array_2d


def reference_votes(trees: Sequence[DecisionTree], X: np.ndarray) -> np.ndarray:
    """Per-class vote counts, shape ``(n_queries, n_classes)``."""
    if len(trees) == 0:
        raise ValueError("need at least one tree")
    X = check_array_2d(X, "X")
    return vote_counts(trees, X, max(t.n_classes for t in trees))


def reference_predict(trees: Sequence[DecisionTree], X: np.ndarray) -> np.ndarray:
    """Majority-vote class labels (ties break toward the lower label)."""
    return reference_votes(trees, X).argmax(axis=1)
