"""Hierarchical forest layout — the paper's §3.1 contribution (Fig. 3).

Each decision tree is partitioned into *complete binary subtrees*:

* Splitting starts at the tree root and proceeds recursively; a subtree stops
  growing when it reaches the maximum subtree depth (``SD`` levels; the root
  subtree may use a larger ``RSD``) or when no node exists at the next level.
* Each subtree is stored as the array prefix of a complete binary tree:
  node at local slot ``n`` has children at slots ``2n+1`` / ``2n+2``; holes
  (missing siblings) are padded with null nodes (``feature_id == EMPTY``) and
  the array is truncated after the last real node — exactly the "complete
  binary tree" arrangement the paper describes.
* Children of inner nodes on a subtree's deepest level ("frontier") become
  the roots of new subtrees; those links are stored CSR-style in
  ``subtree_connection`` / ``connection_offset``.  These are the *only*
  indirect accesses left in a traversal — everything inside a subtree is
  arithmetic indexing, which is the paper's key idea.

All subtrees of all trees are concatenated into flat arrays so the simulated
kernels can map slot indices to byte addresses.

The build is one level-wise pass over all trees at once
(:func:`_pack_subtrees`).  Subtree roots sit at fixed tree depths (0, RSD,
RSD + SD, ...), so each depth level either roots new subtrees or extends
its parents' with the arithmetic above; ids, sizes, depths and the
trimmed connection lists then follow from a stable sort and scatter-max
reductions, with no per-tree or per-subtree Python loop.  ``from_trees``
then quantizes the value channel, attaches the integrity digests and
lowers the layout to the fastpath's edge table
(:mod:`repro.fastpath.hierpath`), the one traversal every inference path
runs through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.forest.tree import (
    EMPTY,
    LEAF,
    DecisionTree,
    TreeStack,
    breadth_first_levels,
    stack_trees,
)
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class LayoutParams:
    """Tuning parameters of the hierarchical layout.

    ``subtree_depth`` is the paper's *SD* (maximum number of levels per
    subtree); ``root_subtree_depth`` is *RSD*, the (usually larger) depth of
    each tree's first subtree used by the hybrid kernel's on-chip stage.
    ``RSD = None`` means "same as SD".
    """

    subtree_depth: int = 6
    root_subtree_depth: int = None

    def __post_init__(self):
        check_positive_int(self.subtree_depth, "subtree_depth")
        if self.root_subtree_depth is not None:
            check_positive_int(self.root_subtree_depth, "root_subtree_depth")

    @property
    def rsd(self) -> int:
        """Effective root subtree depth."""
        return (
            self.subtree_depth
            if self.root_subtree_depth is None
            else self.root_subtree_depth
        )

    @property
    def sd(self) -> int:
        return self.subtree_depth


@dataclass
class HierarchicalForest:
    """Forest in the hierarchical subtree layout (see module docstring).

    Attributes
    ----------
    feature_id:
        ``int32[total_slots]``; split feature, :data:`LEAF` (-1) for tree
        leaves, :data:`EMPTY` (-2) for padding slots.
    value:
        ``float32[total_slots]``; threshold, or class label for leaves.
    subtree_node_offset:
        ``int64[n_subtrees + 1]``; slot offset of each subtree's local root.
    subtree_depth:
        ``int32[n_subtrees]``; number of levels actually stored (>= 1).
    connection_offset:
        ``int64[n_subtrees + 1]``; offset into ``subtree_connection``.
    subtree_connection:
        ``int32[...]``; two entries (left, right child subtree id, -1 if
        absent) per frontier slot, trailing all-(-1) pairs trimmed.
    tree_root_subtree:
        ``int32[n_trees]``; the root subtree id of each tree.
    subtree_tree:
        ``int32[n_subtrees]``; owning tree of each subtree.
    params:
        The :class:`LayoutParams` used to build the layout.
    """

    feature_id: np.ndarray
    value: np.ndarray
    subtree_node_offset: np.ndarray
    subtree_depth: np.ndarray
    connection_offset: np.ndarray
    subtree_connection: np.ndarray
    tree_root_subtree: np.ndarray
    subtree_tree: np.ndarray
    params: LayoutParams
    n_classes: int
    #: Build-time CRC32 digests of the node buffers (see
    #: :mod:`repro.reliability.integrity`); ``None`` when built with
    #: ``with_integrity=False``.
    integrity: Optional[object] = None
    #: Precision-axis codec this layout was built under; ``value`` already
    #: holds the decoded (round-tripped) float32 channel, so every float32
    #: consumer runs unchanged (see :mod:`repro.layout.codec`).
    codec: str = "float32"
    #: Codec side tables (:class:`~repro.layout.codec.QuantizedValues`);
    #: ``None`` for the float32 identity.
    quant: Optional[object] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_trees(
        cls,
        trees: Sequence[DecisionTree],
        params: LayoutParams = LayoutParams(),
        with_integrity: bool = True,
        codec: str = "float32",
    ) -> "HierarchicalForest":
        """Partition ``trees`` into complete subtrees and pack the arrays.

        ``codec`` selects the precision-axis encoding of the value channel
        (:data:`repro.layout.codec.PRECISIONS`); thresholds are quantized
        and immediately decoded so the stored ``value`` array is the
        round-tripped float32 channel.
        """
        from repro.layout.codec import quantize_layout_values

        stack = stack_trees(trees)
        arrays = _pack_subtrees(stack, params)
        value, quant = quantize_layout_values(
            codec, arrays.pop("value"), arrays["feature_id"]
        )
        layout = cls(
            value=value,
            params=params,
            n_classes=stack.n_classes,
            codec=quant.codec if quant is not None else "float32",
            quant=quant,
            **arrays,
        )
        if with_integrity:
            from repro.reliability.integrity import attach_integrity

            attach_integrity(layout)
        from repro.fastpath.engine import lower

        lower(layout)
        return layout

    # ------------------------------------------------------------------
    # Properties / stats
    # ------------------------------------------------------------------
    @property
    def n_trees(self) -> int:
        return int(self.tree_root_subtree.shape[0])

    @property
    def n_subtrees(self) -> int:
        return int(self.subtree_depth.shape[0])

    @property
    def total_slots(self) -> int:
        """Total stored node slots, including padding."""
        return int(self.feature_id.shape[0])

    @property
    def total_real_nodes(self) -> int:
        """Stored slots holding real tree nodes."""
        return int(np.count_nonzero(self.feature_id != EMPTY))

    @property
    def padding_fraction(self) -> float:
        """Fraction of stored slots that are padding (Fig. 6 driver)."""
        return 1.0 - self.total_real_nodes / max(1, self.total_slots)

    def subtree_size(self, st: int) -> int:
        return int(self.subtree_node_offset[st + 1] - self.subtree_node_offset[st])

    def root_subtree_slots(self, tree: int) -> Tuple[int, int]:
        """(offset, size) of a tree's root subtree — the hybrid kernel's
        shared-memory resident block."""
        st = int(self.tree_root_subtree[tree])
        off = int(self.subtree_node_offset[st])
        return off, self.subtree_size(st)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check layout invariants; raise ``ValueError`` on violation."""
        if self.subtree_node_offset[0] != 0 or self.connection_offset[0] != 0:
            raise ValueError("offset arrays must start at 0")
        if self.subtree_node_offset[-1] != self.total_slots:
            raise ValueError("subtree_node_offset does not cover feature_id")
        if self.connection_offset[-1] != self.subtree_connection.shape[0]:
            raise ValueError("connection_offset does not cover subtree_connection")
        sizes = np.diff(self.subtree_node_offset)
        if np.any(sizes < 1):
            raise ValueError("empty subtree")
        # Tree-root subtrees hold up to RSD levels, all others up to SD.
        levels = np.full(self.n_subtrees, self.params.sd, dtype=np.int64)
        levels[self.tree_root_subtree] = self.params.rsd
        if np.any(sizes > (1 << levels) - 1):
            raise ValueError("subtree larger than 2^RSD - 1 (root) / 2^SD - 1 slots")
        # Depths consistent with sizes: a subtree of depth d needs at least
        # 2^(d-1) slots (root chain) and at most 2^d - 1.
        d = self.subtree_depth.astype(np.int64)
        if np.any(sizes < (1 << (d - 1))) or np.any(sizes > (1 << d) - 1):
            raise ValueError("subtree size inconsistent with its depth")
        # Every subtree root slot must hold a real node.
        roots = self.feature_id[self.subtree_node_offset[:-1]]
        if np.any(roots == EMPTY):
            raise ValueError("subtree root slot is padding")
        # Connections reference valid subtrees of the same tree.
        conn = self.subtree_connection
        valid = conn >= 0
        if np.any(conn[valid] >= self.n_subtrees):
            raise ValueError("connection to nonexistent subtree")
        # Each subtree (except tree roots) referenced exactly once.
        refs = np.bincount(conn[valid], minlength=self.n_subtrees)
        is_tree_root = np.zeros(self.n_subtrees, dtype=bool)
        is_tree_root[self.tree_root_subtree] = True
        if np.any(refs[is_tree_root] != 0):
            raise ValueError("tree-root subtree referenced by a connection")
        if np.any(refs[~is_tree_root] != 1):
            raise ValueError("non-root subtree not referenced exactly once")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HierarchicalForest(n_trees={self.n_trees}, "
            f"n_subtrees={self.n_subtrees}, slots={self.total_slots}, "
            f"padding={self.padding_fraction:.1%}, SD={self.params.sd}, "
            f"RSD={self.params.rsd})"
        )


def _pack_subtrees(stack: TreeStack, params: LayoutParams) -> Dict[str, np.ndarray]:
    """Partition every stacked tree into complete subtrees in one pass.

    Walks all trees together one depth level at a time
    (:func:`~repro.forest.tree.breadth_first_levels`).  Subtree roots sit at
    fixed depths (0, RSD, RSD + SD, ...), so each level either roots new
    subtrees (local slot 0) or extends its parents' (slot ``2s + 1 +
    went_right``).  Subtrees get generation-major ids in level order, which
    orders each generation by (parent subtree, frontier slot, side); a
    stable sort by owning tree turns that into per-tree breadth-first ids.
    Returns the layout's arrays, with ``value`` not yet quantized.
    """
    rsd, sd = params.rsd, params.sd
    n_trees = stack.n_trees
    nodes, subs, slots, owners = [], [], [], []
    # Per non-root subtree, in generation-major order: its parent subtree
    # and its entry in the parent's connection list.
    link_parent = [np.empty(0, dtype=np.int64)]
    link_entry = [np.empty(0, dtype=np.int64)]
    n_sub = 0
    for depth, (node, parent) in enumerate(breadth_first_levels(stack)):
        if depth == 0:
            tree = np.arange(n_trees, dtype=np.int32)
        else:
            side = np.arange(node.shape[0], dtype=np.int64) & 1
            tree, sub, slot = tree[parent], sub[parent], 2 * slot[parent] + 1 + side
        if depth == 0 or depth == rsd or (depth > rsd and (depth - rsd) % sd == 0):
            if depth:
                # ``slot`` is where the child would sit one level below the
                # parent subtree's frontier; that level is the connection
                # list, so pairs are (left, right) per frontier slot and the
                # list ends at the last frontier node with children.
                link_parent.append(sub)
                link_entry.append(slot - ((1 << (rsd if depth == rsd else sd)) - 1))
            sub = np.arange(n_sub, n_sub + node.shape[0], dtype=np.int64)
            slot = np.zeros(node.shape[0], dtype=np.int64)
            owners.append(tree)
            n_sub += node.shape[0]
        nodes.append(node)
        subs.append(sub)
        slots.append(slot)
    node, sub, slot = np.concatenate(nodes), np.concatenate(subs), np.concatenate(slots)
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")  # final id -> generation-major id
    rank = np.empty_like(order)
    rank[order] = np.arange(n_sub, dtype=np.int64)

    size = np.zeros(n_sub, dtype=np.int64)
    np.maximum.at(size, sub, slot + 1)
    size = size[order]
    node_offset = np.concatenate(([0], np.cumsum(size)))
    pos = node_offset[rank[sub]] + slot
    feature_id = np.full(int(node_offset[-1]), EMPTY, dtype=np.int32)
    feature_id[pos] = stack.feature[node]
    value = np.zeros(feature_id.shape[0], dtype=np.float32)
    value[pos] = np.where(
        stack.feature[node] != LEAF,
        stack.threshold[node],
        stack.value[node].astype(np.float32),
    )

    parent, entry = np.concatenate(link_parent), np.concatenate(link_entry)
    conn_len = np.zeros(n_sub, dtype=np.int64)
    np.maximum.at(conn_len, parent, (entry | 1) + 1)
    conn_offset = np.concatenate(([0], np.cumsum(conn_len[order])))
    connection = np.full(int(conn_offset[-1]), -1, dtype=np.int32)
    connection[conn_offset[rank[parent]] + entry] = rank[n_trees:]
    return {
        "feature_id": feature_id,
        "value": value,
        "subtree_node_offset": node_offset,
        # Level d holds slots 2^(d-1) - 1 .. 2^d - 2, so a subtree's level
        # count is the bit length of its size.
        "subtree_depth": np.frexp(size)[1].astype(np.int32),
        "connection_offset": conn_offset,
        "subtree_connection": connection,
        "tree_root_subtree": rank[:n_trees].astype(np.int32),
        "subtree_tree": owner[order],
    }
