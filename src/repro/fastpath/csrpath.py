"""Edge-table lowering of the CSR children-array layout.

Stepping rule: inner node ``i`` of tree ``t`` goes to the tree-local node
``children_arr[tree_children_offset[t] + children_arr_idx[i] + went_right]``
— one ``children_arr_idx`` indirection and one ``children_arr`` load per
step.  The double indirection is resolved *once*, at layout build time,
into the flat successor table of an
:class:`~repro.fastpath.engine.EdgeTable`; the shared
:func:`~repro.fastpath.engine.traverse_edges` core then steps every
``(row, tree)`` lane with plain gathers over global slot ids.
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
from repro.layout.csr import CSRForest


def build_edges(layout: CSRForest) -> EdgeTable:
    """Lower the CSR arrays to flat successor-table form."""
    tree_nodes = layout.tree_node_offset.astype(np.int64)
    n_trees = int(tree_nodes.shape[0] - 1)
    inner = layout.feature_id >= 0
    # children_arr positions are gathered on the inner subset only:
    # ``children_arr_idx`` is -1 on leaves, and a leaf-only tree has no
    # children entries at all to index into.
    owner = np.repeat(np.arange(n_trees, dtype=np.int64), np.diff(tree_nodes))[inner]
    tree_children = layout.tree_children_offset.astype(np.int64)
    child_pos = tree_children[owner] + layout.children_arr_idx[inner].astype(np.int64)
    base = tree_nodes[owner]
    return edge_table(
        layout,
        layout.feature_id,
        inner,
        base + layout.children_arr[child_pos],
        base + layout.children_arr[child_pos + 1],
        tree_nodes[:-1],
    )


def traverse(layout: CSRForest, X: np.ndarray, trees=None):
    """Predict ``X`` over ``trees`` (default all); ``(predictions, stats)``."""
    table = select_trees(layout._fastpath_edges, trees)
    preds, levels, lane_levels = traverse_edges(table, X)
    stats = make_stats("csr", int(X.shape[0]), table.roots.shape[0], levels, lane_levels)
    return preds, stats
