"""Edge-table lowering of the cuML-FIL packed-node layout.

Stepping rule: inner node ``i`` of tree ``t`` goes to the tree-local node
``left_child[i] + went_right`` — children sit adjacent, so the right child
is ``left + 1``.  The adjacency rule is resolved *once*, at layout build
time, into the flat successor table of an
:class:`~repro.fastpath.engine.EdgeTable`; the shared
:func:`~repro.fastpath.engine.traverse_edges` core then steps every
``(row, tree)`` lane with plain gathers over global slot ids.

The layout is duck-typed (``feature`` / ``value`` / ``left_child`` /
``tree_offset`` / ``n_classes``) so this module never imports
:mod:`repro.baselines.cuml_fil`, which drags in the GPU kernel machinery.
"""

from __future__ import annotations

import numpy as np

from repro.fastpath.engine import (
    EdgeTable,
    edge_table,
    make_stats,
    select_trees,
    traverse_edges,
)


def build_edges(layout) -> EdgeTable:
    """Lower the FIL arrays to flat successor-table form."""
    tree_offset = layout.tree_offset.astype(np.int64)
    n_trees = int(tree_offset.shape[0] - 1)
    inner = layout.feature >= 0
    # left_child is tree-local and meaningless on leaves.
    owner = np.repeat(np.arange(n_trees, dtype=np.int64), np.diff(tree_offset))[inner]
    left = tree_offset[owner] + layout.left_child[inner].astype(np.int64)
    return edge_table(layout, layout.feature, inner, left, left + 1, tree_offset[:-1])


def traverse(layout, X: np.ndarray, trees=None):
    """Predict ``X`` over ``trees`` (default all); ``(predictions, stats)``."""
    table = select_trees(layout._fastpath_edges, trees)
    preds, levels, lane_levels = traverse_edges(table, X)
    stats = make_stats("fil", int(X.shape[0]), table.roots.shape[0], levels, lane_levels)
    return preds, stats
