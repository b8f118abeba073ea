"""Greedy per-lane query refill (related work declined — §5, Wu & Becchi).

Wu & Becchi's greedy variant lets a GPU lane fetch a *new* query the moment
its current one finishes, instead of idling until the whole warp's queries
complete.  The paper cites their profiling — less divergence, but more
uncoalesced accesses — and declines the technique for decision trees.

This kernel reproduces the tradeoff:

* Lanes never idle: when a lane's query reaches a leaf it immediately pops
  the next query from a global work queue, so warp efficiency approaches
  1.0 (the divergence win).
* But lanes in a warp now hold queries of *unrelated* progress and take
  node loads from unrelated tree regions, and their query-row loads lose
  the adjacent-lane pattern — both reduce coalescing (the memory loss).

The net effect in the model matches the paper's expectation: warp
efficiency rises, coalescing degrades, and total time is not better than
the plain independent kernel on tree workloads.

Refilled lanes hold queries at unrelated depths, so the lanes do not walk
in lock-step and no per-level fastpath walk describes them: this kernel
keeps its own step loop and records one level per call, the one-row case
of :meth:`~repro.gpusim.memory.CoalescingTracker.record`.
"""

from __future__ import annotations

import numpy as np

from repro.forest.tree import EMPTY, LEAF
from repro.gpusim.engine import WarpGrid
from repro.kernels.gpu_independent import GPUIndependentKernel
from repro.kernels.traversal_stats import accumulate_votes
from repro.layout.hierarchical import HierarchicalForest


class GPUGreedyKernel(GPUIndependentKernel):
    """Independent traversal with per-lane greedy query refill."""

    name = "gpu-greedy"
    #: Queue-pop + state-swap instructions per refill.
    INSTR_PER_REFILL = 6

    def _run(self, layout: HierarchicalForest, X, grid: WarpGrid, metrics, votes):
        if not isinstance(layout, HierarchicalForest):
            raise TypeError("GPUGreedyKernel expects a HierarchicalForest")
        n, n_features = X.shape
        space = self._make_space(layout, n, n_features)
        trackers = self._make_trackers(metrics)
        self._register_sites(trackers)
        tr = trackers
        # Persistent-threads launch: far fewer lanes than queries, each lane
        # draining the work queue (Wu & Becchi's organisation).  Fill the
        # device (2048 threads x n_sms) but stay well below the query count
        # so refills actually happen.
        device_lanes = self.spec.n_sms * 2048
        n_lanes = min(device_lanes, max(32, n // 8))
        n_lanes = -(-n_lanes // 32) * 32

        for t in range(layout.n_trees):
            out = np.full(n, -1, dtype=np.int64)
            # Lane state: which query a lane currently holds (-1 = drained).
            lane_q = np.full(n_lanes, -1, dtype=np.int64)
            first = min(n, n_lanes)
            lane_q[:first] = np.arange(first, dtype=np.int64)
            next_q = first
            st = np.zeros(n_lanes, dtype=np.int64)
            st[:] = layout.tree_root_subtree[t]
            local = np.zeros(n_lanes, dtype=np.int64)

            while True:
                active = lane_q >= 0
                if not np.any(active):
                    break
                q = np.where(active, lane_q, 0)
                g = layout.subtree_node_offset[st] + local
                # Node loads at LANE-ordered addresses: lanes now hold
                # unrelated queries, so these are the degraded accesses.
                tr["feature_id"].record(space.addr("feature_id", g), active)
                tr["value"].record(space.addr("value", g), active)
                feats = np.where(active, layout.feature_id[g], EMPTY)
                is_leaf = active & (feats == LEAF)
                inner = active & ~is_leaf

                if np.any(inner):
                    f_safe = np.where(inner, feats, 0).astype(np.int64)
                    tr["X"].record(
                        space.addr("X", q * np.int64(n_features) + f_safe),
                        inner,
                    )
                go_right = np.zeros(n_lanes, dtype=bool)
                if np.any(inner):
                    gi = g[inner]
                    go_right[inner] = (
                        X[q[inner], feats[inner]] >= layout.value[gi]
                    )

                sd = layout.subtree_depth[st]
                frontier = (np.int64(1) << (sd - 1).astype(np.int64)) - 1
                crossing = inner & (local >= frontier)
                stay = inner & ~crossing
                local[stay] = 2 * local[stay] + 1 + go_right[stay]
                if np.any(crossing):
                    rank = local[crossing] - frontier[crossing]
                    cidx = np.zeros(n_lanes, dtype=np.int64)
                    cidx[crossing] = (
                        layout.connection_offset[st[crossing]]
                        + 2 * rank
                        + go_right[crossing]
                    )
                    tr["connection_offset"].record(
                        space.addr("connection_offset", st), crossing
                    )
                    tr["subtree_connection"].record(
                        space.addr("subtree_connection", cidx), crossing
                    )
                    st[crossing] = layout.subtree_connection[
                        cidx[crossing]
                    ].astype(np.int64)
                    local[crossing] = 0
                    grid_active = crossing[: n_lanes]
                    metrics.warp_instructions += self.INSTR_PER_CROSS * max(
                        1, int(np.count_nonzero(grid_active)) // 32
                    )

                # Leaf lanes: record the answer, greedily refill.
                if np.any(is_leaf):
                    done_q = q[is_leaf]
                    out[done_q] = layout.value[g[is_leaf]].astype(np.int64)
                    refill = np.flatnonzero(is_leaf)
                    for lane in refill:
                        if next_q < n:
                            lane_q[lane] = next_q
                            st[lane] = layout.tree_root_subtree[t]
                            local[lane] = 0
                            next_q += 1
                        else:
                            lane_q[lane] = -1
                    metrics.warp_instructions += self.INSTR_PER_REFILL * max(
                        1, int(is_leaf.sum()) // 32
                    )

                # Step accounting over lanes (greedy: almost all active).
                self._record_lane_step(grid, metrics, active)
                # The refill check is a divergent branch.
                pad_active = active.copy()
                pad_leaf = is_leaf.copy()
                metrics.branches += grid.n_warps
                uniform = 0
                A = pad_active.reshape(-1, 32)
                T = pad_leaf.reshape(-1, 32)
                warp_any = A.any(axis=1)
                all_t = (T | ~A).all(axis=1)
                none_t = (~T | ~A).all(axis=1)
                uniform = int((warp_any & (all_t | none_t)).sum())
                metrics.branches += int(warp_any.sum()) - grid.n_warps
                metrics.uniform_branches += uniform
            accumulate_votes(votes, out)

    def _record_lane_step(self, grid, metrics, active):
        """Step accounting over the lane array (not the query array)."""
        A = active.reshape(-1, 32)
        warps = int(A.any(axis=1).sum())
        if warps == 0:
            return
        metrics.warp_instructions += self.INSTR_PER_STEP * warps
        metrics.active_lanes += int(np.count_nonzero(active))
        metrics.lane_slots += warps * 32
