"""CPU reference traversal — the correctness oracle.

Pure NumPy majority-vote classification straight off the
:class:`~repro.forest.tree.DecisionTree` arrays: one lock-step pass over
every (row, tree) lane of the stacked host trees
(:func:`repro.forest.tree.leaf_labels`).  Every layout and every simulated
kernel must produce byte-identical predictions to these functions; the test
suite enforces that, which is what makes the simulators' performance
counters trustworthy (they are derived from genuinely correct traversals).
The oracle reads no layout and shares no code with ``repro.fastpath``, so a
bug there cannot pass its own check.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.forest.random_forest import vote_counts
from repro.forest.tree import DecisionTree, TreeStack, stack_trees
from repro.utils.validation import check_array_2d


def reference_votes(
    trees: Union[Sequence[DecisionTree], TreeStack], X: np.ndarray
) -> np.ndarray:
    """Per-class vote counts, shape ``(n_queries, n_classes)``.

    ``trees`` may be a :class:`~repro.forest.tree.TreeStack` built once by a
    caller that checks many batches against the same trees.
    """
    stack = stack_trees(trees)
    X = check_array_2d(X, "X")
    return vote_counts(stack, X, stack.n_classes)


def reference_predict(
    trees: Union[Sequence[DecisionTree], TreeStack], X: np.ndarray
) -> np.ndarray:
    """Majority-vote class labels (ties break toward the lower label)."""
    return reference_votes(trees, X).argmax(axis=1)
