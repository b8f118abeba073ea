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

from repro.fastpath.engine import EdgeTable, edge_table, traverse_edges
from repro.layout.csr import CSRForest

#: Stats family name.  ``traverse_edges`` is re-exported because
#: :func:`~repro.fastpath.engine.fastpath_predict` calls it through this
#: module, where the e2e tracer (``benchmarks/e2e/spans.py``) wraps it.
FAMILY = "csr"
__all__ = ["FAMILY", "build_edges", "traverse_edges"]


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
    n_children = layout.children_arr.shape[0]

    def successor(pos):
        # A damaged ``children_arr_idx`` can point outside ``children_arr``.
        # Its successor is then one past the last slot: the walk clamps it,
        # as every index it reads from a table, and a trace kernel's read
        # of the slot fails only if a lane reaches it, as the layout's own
        # children read would.
        inside = (pos >= -n_children) & (pos < n_children)
        child = layout.children_arr[np.where(inside, pos, 0)]
        return np.where(inside, base + child, tree_nodes[-1])

    return edge_table(
        layout,
        layout.feature_id,
        inner,
        successor(child_pos),
        successor(child_pos + 1),
        tree_nodes[:-1],
    )
