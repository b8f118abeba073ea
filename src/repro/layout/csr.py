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
from typing import List, Optional, Sequence

import numpy as np

from repro.forest.tree import LEAF, DecisionTree


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
        trees: Sequence[DecisionTree],
        codec: str = "float32",
    ) -> "CSRForest":
        """Build the CSR layout from trained trees.

        ``codec`` selects the precision-axis encoding of the value
        channel (:data:`repro.layout.codec.PRECISIONS`); thresholds are
        quantized and immediately decoded so the stored ``value`` array
        is the round-tripped float32 channel.
        """
        if len(trees) == 0:
            raise ValueError("need at least one tree")
        feature_parts: List[np.ndarray] = []
        value_parts: List[np.ndarray] = []
        caidx_parts: List[np.ndarray] = []
        ca_parts: List[np.ndarray] = []
        node_off = np.zeros(len(trees) + 1, dtype=np.int64)
        child_off = np.zeros(len(trees) + 1, dtype=np.int64)
        for t, tree in enumerate(trees):
            inner = tree.feature != LEAF
            n_inner = int(inner.sum())
            feature_parts.append(tree.feature)
            # Leaves keep their class label in `value` (paper's Fig. 2c).
            val = np.where(inner, tree.threshold, tree.value.astype(np.float32))
            value_parts.append(val.astype(np.float32))
            caidx = np.full(tree.n_nodes, -1, dtype=np.int64)
            caidx[inner] = 2 * np.arange(n_inner, dtype=np.int64)
            caidx_parts.append(caidx)
            ca = np.empty(2 * n_inner, dtype=np.int32)
            ca[0::2] = tree.left_child[inner]
            ca[1::2] = tree.right_child[inner]
            ca_parts.append(ca)
            node_off[t + 1] = node_off[t] + tree.n_nodes
            child_off[t + 1] = child_off[t] + 2 * n_inner
        feature_id = np.concatenate(feature_parts)
        from repro.layout.codec import quantize_layout_values

        value, quant = quantize_layout_values(
            codec, np.concatenate(value_parts), feature_id
        )
        layout = cls(
            feature_id=feature_id,
            value=value,
            children_arr_idx=np.concatenate(caidx_parts),
            children_arr=np.concatenate(ca_parts),
            tree_node_offset=node_off,
            tree_children_offset=child_off,
            n_classes=max(t.n_classes for t in trees),
            codec=quant.codec if quant is not None else "float32",
            quant=quant,
        )
        from repro.fastpath.engine import lower
        from repro.reliability.integrity import attach_integrity

        attach_integrity(layout)
        lower(layout, trees)
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
