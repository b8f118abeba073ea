"""CSR forest layout — the paper's baseline representation (Fig. 2).

Topology is stored with a children-array indirection: for inner node ``i``,
its children ids sit at ``children_arr[children_arr_idx[i]]`` and
``children_arr[children_arr_idx[i] + 1]``.  Node attributes (``feature_id``,
``value``) are directly indexed by node id.  For leaves, ``feature_id`` is
-1 and ``value`` holds the returned class label (paper convention).

All trees of a forest are concatenated into single arrays with per-tree
offsets, matching how a real GPU implementation would ship one buffer to the
device.  Node ids inside ``children_arr`` are *tree-local*; kernels add
``tree_node_offset[t]`` to form global indices (and therefore memory
addresses), exactly as the paper's CUDA code would.  ``from_trees`` also
lowers the layout to the fastpath's edge table (:mod:`repro.fastpath.csrpath`),
the one traversal every inference path runs through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.forest.tree import LEAF, DecisionTree, TreeStack, stack_trees


@dataclass
class CSRForest:
    """Forest of decision trees in CSR form (see module docstring).

    Attributes
    ----------
    feature_id:
        ``int32[total_nodes]``; split feature or -1 for leaves.
    value:
        ``float32[total_nodes]``; split threshold, or leaf class label.
    children_arr_idx:
        ``int64[total_nodes]``; for inner nodes, start of the two children in
        ``children_arr`` (tree-local positions); -1 for leaves.
    children_arr:
        ``int32[2 * total_inner]``; tree-local child node ids.
    tree_node_offset:
        ``int64[n_trees + 1]``; node-id offset of each tree.
    tree_children_offset:
        ``int64[n_trees + 1]``; ``children_arr`` offset of each tree.
    n_classes:
        Class count (majority vote arity).
    """

    feature_id: np.ndarray
    value: np.ndarray
    children_arr_idx: np.ndarray
    children_arr: np.ndarray
    tree_node_offset: np.ndarray
    tree_children_offset: np.ndarray
    n_classes: int
    #: Build-time CRC32 digests of the node buffers (see
    #: :mod:`repro.reliability.integrity`), attached by :meth:`from_trees`.
    integrity: Optional[object] = None
    #: Precision-axis codec this layout was built under; ``value`` already
    #: holds the decoded (round-tripped) float32 channel, so every float32
    #: consumer runs unchanged (see :mod:`repro.layout.codec`).
    codec: str = "float32"
    #: Codec side tables (:class:`~repro.layout.codec.QuantizedValues`);
    #: ``None`` for the float32 identity.
    quant: Optional[object] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_trees(
        cls,
        trees: Union[Sequence[DecisionTree], TreeStack],
        codec: str = "float32",
    ) -> "CSRForest":
        """Build the CSR layout from trained trees (or their stack).

        ``codec`` selects the precision-axis encoding of the value
        channel (:data:`repro.layout.codec.PRECISIONS`); thresholds are
        quantized and immediately decoded so the stored ``value`` array
        is the round-tripped float32 channel.
        """
        stack = stack_trees(trees)
        feature_id = stack.feature.copy()  # the layout owns its buffers
        inner = feature_id != LEAF
        node_off = np.append(stack.roots, feature_id.shape[0])
        tree_ids = np.arange(stack.n_trees, dtype=np.int64)
        owner = np.repeat(tree_ids, np.diff(node_off))
        # Inner nodes before each node, and before each tree's root: a
        # tree's children-array entries start at twice the latter.
        rank = np.cumsum(inner) - inner
        first = np.append(rank[stack.roots], rank[-1] + inner[-1])
        caidx = np.where(inner, 2 * (rank - first[owner]), -1).astype(np.int64)
        # ``child`` holds rebased (global) ids; the CSR arrays are tree-local.
        children = stack.child.reshape(-1, 2)[inner] - stack.roots[owner[inner], None]
        from repro.layout.codec import quantize_layout_values

        # Leaves keep their class label in `value` (paper's Fig. 2c).
        value = np.where(inner, stack.threshold, stack.value.astype(np.float32))
        value, quant = quantize_layout_values(
            codec, value.astype(np.float32), feature_id
        )
        layout = cls(
            feature_id=feature_id,
            value=value,
            children_arr_idx=caidx,
            children_arr=children.ravel().astype(np.int32),
            tree_node_offset=node_off,
            tree_children_offset=2 * first,
            n_classes=stack.n_classes,
            codec=quant.codec if quant is not None else "float32",
            quant=quant,
        )
        from repro.fastpath.engine import lower
        from repro.reliability.integrity import attach_integrity

        attach_integrity(layout)
        lower(layout, stack)
        return layout

    # ------------------------------------------------------------------
    @property
    def n_trees(self) -> int:
        return int(self.tree_node_offset.shape[0] - 1)

    @property
    def total_nodes(self) -> int:
        return int(self.feature_id.shape[0])

    @property
    def total_children_entries(self) -> int:
        return int(self.children_arr.shape[0])

    # ------------------------------------------------------------------
    def validate(self, trees: Sequence[DecisionTree]) -> None:
        """Cross-check the layout against its source trees."""
        if len(trees) != self.n_trees:
            raise ValueError("tree count mismatch")
        for t, tree in enumerate(trees):
            lo, hi = self.tree_node_offset[t], self.tree_node_offset[t + 1]
            if hi - lo != tree.n_nodes:
                raise ValueError(f"tree {t}: node count mismatch")
            if not np.array_equal(self.feature_id[lo:hi], tree.feature):
                raise ValueError(f"tree {t}: feature_id mismatch")
