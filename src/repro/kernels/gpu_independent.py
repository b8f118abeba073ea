"""GPU independent kernel on the hierarchical layout (paper §3.2).

One thread per query; threads traverse subtrees iteratively.  Inside a
subtree the child index is arithmetic (``2n+1`` / ``2n+2``) so a step loads
only the node attributes (``feature_id`` + ``value``, contiguous within the
subtree) and the query feature.  Only when a thread crosses from one subtree
to the next does it touch the CSR-style connection arrays — the paper's key
reduction of irregular accesses versus CSR (one indirection per *subtree*
instead of two per *node*).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.gpusim.engine import WarpGrid
from repro.gpusim.memory import CoalescingTracker, record_levels
from repro.kernels.base import AddressSpace, GPUKernel
from repro.kernels.traversal_stats import (
    TreeLevels,
    accumulate_votes,
    current_table,
    tree_levels,
)
from repro.layout.hierarchical import HierarchicalForest


class GPUIndependentKernel(GPUKernel):
    """Per-thread traversal of the hierarchical layout."""

    name = "gpu-independent"
    #: Warp instructions per in-subtree step (2 attribute loads + query
    #: load + compare + arithmetic child indexing + loop bookkeeping).
    INSTR_PER_STEP = 11
    #: Extra warp instructions on a subtree crossing (connection lookups).
    INSTR_PER_CROSS = 8
    #: L1 hit rate on node/connection loads (see CoalescingTracker): the
    #: independent kernel's warps drift across trees, thrashing L1.
    NODE_L1_HIT = 0.15
    #: Bytes per feature-id element.  The paper's packed format stores node
    #: attributes in 48 bits (16-bit feature id + 32-bit value); the packed
    #: kernel variant in repro.extensions overrides this to 2.
    FEATURE_BYTES = 4

    def _make_space(self, layout: HierarchicalForest, n, n_features) -> AddressSpace:
        space = AddressSpace()
        space.alloc("feature_id", layout.total_slots, self.FEATURE_BYTES)
        space.alloc("value", layout.total_slots, 4)
        space.alloc("subtree_node_offset", layout.n_subtrees + 1, 8)
        space.alloc("subtree_depth", layout.n_subtrees, 4)
        space.alloc("connection_offset", layout.n_subtrees + 1, 8)
        space.alloc(
            "subtree_connection", max(1, layout.subtree_connection.shape[0]), 4
        )
        space.alloc("X", n * n_features, 4)
        return space

    def _make_trackers(self, metrics) -> Dict[str, CoalescingTracker]:
        sites = ("feature_id", "value", "subtree_node_offset", "subtree_depth")
        sites += ("connection_offset", "subtree_connection", "X")
        return {
            name: CoalescingTracker(
                name,
                metrics,
                l1_resident=(name == "X"),
                l1_hit_rate=0.0 if name == "X" else self.NODE_L1_HIT,
            )
            for name in sites
        }

    def _run(self, layout: HierarchicalForest, X, grid: WarpGrid, metrics, votes):
        if not isinstance(layout, HierarchicalForest):
            raise TypeError("GPUIndependentKernel expects a HierarchicalForest")
        space = self._make_space(layout, *X.shape)
        trackers = self._make_trackers(metrics)
        self._register_sites(trackers)
        table = current_table(layout)
        for t in range(layout.n_trees):
            levels = tree_levels(table, X, t, layout.feature_id, layout.value)
            self._count_global_levels(
                layout, X, levels, slice(None), grid, metrics, space, trackers
            )
            accumulate_votes(votes, levels.labels)

    # ------------------------------------------------------------------
    @staticmethod
    def _crossings(layout, X, levels: TreeLevels, rows: slice):
        """Subtree crossings on the levels ``rows`` of one tree's walk.

        Returns ``(crossing, st, cidx, nxt)``: whether each lane leaves its
        subtree on that level and, for crossing lanes (0 elsewhere), its
        subtree, the ``subtree_connection`` index it reads and the child
        subtree it lands in.  Subtree roots sit at depths 0, RSD, RSD + SD,
        ..., so an inner lane crosses exactly on the level above the next
        of them, from its subtree's frontier (the lowering checks every
        subtree's depth against the layout's RSD and SD).
        """
        rsd, sd = layout.params.rsd, layout.params.sd
        depth = np.arange(levels.slot.shape[0], dtype=np.int64)[rows]
        hops = np.where(depth < rsd, depth == rsd - 1, (depth - rsd) % sd == sd - 1)
        crossing = levels.inner[rows] & hops[:, None]
        g = levels.slot[rows][crossing]
        node_off = layout.subtree_node_offset
        st = np.searchsorted(node_off, g, side="right") - 1
        frontier_start = (np.int64(1) << (layout.subtree_depth[st].astype(np.int64) - 1)) - 1
        q = crossing.nonzero()[1]
        go_right = X[q, levels.feature[rows][crossing]] >= layout.value[g]
        cidx = layout.connection_offset[st] + 2 * (g - node_off[st] - frontier_start) + go_right
        out = np.zeros((3,) + crossing.shape, dtype=np.int64)
        out[:, crossing] = st, cidx, layout.subtree_connection[cidx]
        return (crossing, *out)

    def _record_loads(self, layout, X, levels, rows, space, trackers, nodes=True):
        """Record the global loads of the levels ``rows`` of one tree's walk.

        Per level, every walking lane loads its node's attributes (unless
        ``nodes`` is false: the hybrid's stage 1 reads them from shared
        memory), an inner lane its query feature, and a lane leaving its
        subtree the connection arrays and then the new subtree's base
        offset and depth.  Returns the crossing mask.
        """
        crossing, st, cidx, nxt = self._crossings(layout, X, levels, rows)
        walking, inner = levels.walking[rows], levels.inner[rows]
        streams = {
            "feature_id": (levels.slot[rows], walking),
            "value": (levels.slot[rows], walking),
            "X": (np.arange(X.shape[0], dtype=np.int64) * X.shape[1] + levels.feature[rows], inner),
            "connection_offset": (st, crossing),
            "subtree_connection": (cidx, crossing),
            "subtree_node_offset": (nxt, crossing),
            "subtree_depth": (nxt, crossing),
        }
        order = list(streams)[0 if nodes else 2 :]
        record_levels(
            [(trackers[k], space.addr(k, streams[k][0]), streams[k][1]) for k in order]
        )
        return crossing

    def _count_global_levels(self, layout, X, levels, rows, grid, metrics, space, trackers):
        """Count the levels ``rows`` of one tree's walk through global memory
        (the whole walk; the hybrid's stage 2).  The crossing check is a
        branch (divergent when some lanes cross and others stay); the
        left/right select compiles to predication on real hardware, so it is
        not counted as one (nvprof's branch_efficiency only sees divergent
        control flow)."""
        crossing = self._record_loads(layout, X, levels, rows, space, trackers)
        walking, inner = levels.walking[rows], levels.inner[rows]
        grid.record_step(metrics, crossing, self.INSTR_PER_CROSS)
        grid.record_branch(metrics, inner, crossing)
        grid.record_step(metrics, walking, self.INSTR_PER_STEP)
        grid.record_loop_branch(metrics, walking, inner)
