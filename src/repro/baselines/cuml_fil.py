"""cuML Forest Inference Library (FIL)-style GPU baseline.

The paper compares against Nvidia's cuML forest inference (Fig. 7, Table 2),
reporting cuML at roughly 4-5x over CSR — better than the independent
variant, generally below the hybrid one at larger subtree depths.  cuML FIL's
performance comes from its storage format, which this module reproduces:

* one *packed node record* per node (feature id, leaf flag and left-child
  index packed with the float threshold/output into 16 bytes, FIL's
  "sparse16" format), so a traversal step issues a **single** global load —
  versus CSR's four;
* children stored adjacently (``right = left + 1``), removing the second
  level of indirection;
* nodes stored in breadth-first order per tree, giving good locality for the
  hot top-of-tree.

The kernel maps one query per thread and runs on the same simulated device
and timing model as the paper's variants, so Fig. 7's three-way comparison
(CSR / ours / cuML) is apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.fastpath.engine import lower
from repro.forest.tree import LEAF, DecisionTree, breadth_first_levels, stack_trees
from repro.gpusim.engine import WarpGrid
from repro.gpusim.memory import CoalescingTracker, record_levels
from repro.kernels.base import AddressSpace, GPUKernel
from repro.kernels.traversal_stats import accumulate_votes, current_table, tree_levels


@dataclass
class FILForest:
    """Forest in FIL sparse16-style storage (see module docstring).

    Attributes
    ----------
    feature:
        ``int32[total_nodes]``; split feature, -1 for leaves.
    value:
        ``float32[total_nodes]``; threshold, or leaf class label.
    left_child:
        ``int32[total_nodes]``; tree-local left-child index (right child is
        ``left_child + 1``); -1 for leaves.
    tree_offset:
        ``int64[n_trees + 1]``.
    """

    feature: np.ndarray
    value: np.ndarray
    left_child: np.ndarray
    tree_offset: np.ndarray
    n_classes: int
    #: Build-time CRC32 digests of the node buffers (see
    #: :mod:`repro.reliability.integrity`).
    integrity: Optional[object] = None
    #: Bytes per packed node record (FIL sparse16).
    NODE_BYTES = 16

    @classmethod
    def from_trees(cls, trees: Sequence[DecisionTree]) -> "FILForest":
        """Re-order every tree breadth-first with adjacent siblings."""
        stack = stack_trees(trees)
        # All trees' nodes in level order; a stable sort by owning tree
        # gives each tree's breadth-first order.
        node = np.concatenate([n for n, _ in breadth_first_levels(stack)])
        tree = np.searchsorted(stack.roots, node, side="right") - 1
        offsets = np.append(stack.roots, stack.feature.shape[0])
        reached = np.bincount(tree, minlength=stack.n_trees)
        if not np.array_equal(reached, np.diff(offsets)):
            raise ValueError("tree has unreachable nodes")
        by_tree = np.argsort(tree, kind="stable")
        order = node[by_tree]  # new idx -> old node
        new_of = np.empty_like(order)  # old node -> tree-local new idx
        new_of[order] = (
            np.arange(order.shape[0], dtype=np.int64) - stack.roots[tree[by_tree]]
        )
        f = stack.feature[order]
        inner = f != LEAF
        layout = cls(
            feature=f.astype(np.int32),
            value=np.where(
                inner, stack.threshold[order], stack.value[order].astype(np.float32)
            ).astype(np.float32),
            left_child=np.where(inner, new_of[stack.child[2 * order]], -1).astype(
                np.int32
            ),
            tree_offset=offsets,
            n_classes=stack.n_classes,
        )
        from repro.reliability.integrity import attach_integrity

        attach_integrity(layout)
        lower(layout, stack)
        return layout

    @property
    def n_trees(self) -> int:
        return int(self.tree_offset.shape[0] - 1)

    @property
    def total_nodes(self) -> int:
        return int(self.feature.shape[0])


class CuMLFILKernel(GPUKernel):
    """One-query-per-thread traversal of the FIL layout."""

    name = "cuml-fil"
    #: Single packed load + compare + adjacency arithmetic: a tight loop.
    INSTR_PER_STEP = 8

    def _run(self, layout: FILForest, X, grid: WarpGrid, metrics, votes):
        if not isinstance(layout, FILForest):
            raise TypeError("CuMLFILKernel expects a FILForest layout")
        n, n_features = X.shape
        space = AddressSpace()
        space.alloc("nodes", layout.total_nodes, layout.NODE_BYTES)
        space.alloc("X", n * n_features, 4)
        tr_nodes = CoalescingTracker(
            "nodes",
            metrics,
            element_bytes=layout.NODE_BYTES,
            issue_cost=1.2,  # 16 B records straddle transaction boundaries
        )
        tr_x = CoalescingTracker("X", metrics, l1_resident=True)
        self._register_sites([tr_nodes, tr_x])
        table = current_table(layout)
        queries = np.arange(n, dtype=np.int64)
        for t in range(layout.n_trees):
            levels = tree_levels(table, X, t, layout.feature, layout.value)
            record_levels([
                (tr_nodes, space.addr("nodes", levels.slot), levels.walking),
                (
                    tr_x,
                    self._query_addresses(space, levels.feature, queries, n_features),
                    levels.inner,
                ),
            ])
            grid.record_step(metrics, levels.walking, self.INSTR_PER_STEP)
            grid.record_loop_branch(metrics, levels.walking, levels.inner)
            accumulate_votes(votes, levels.labels)
