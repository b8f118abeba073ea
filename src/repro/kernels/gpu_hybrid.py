"""GPU hybrid kernel (paper §3.2, the best-performing GPU variant).

Two stages per tree:

* **Stage 1** — the tree's *root subtree* (depth ``RSD``) is cooperatively
  staged into shared memory by each thread block (adjacent threads load
  adjacent elements, so the global loads are perfectly coalesced), then all
  queries traverse it lock-step with shared-memory node accesses and a
  fixed-trip-count level loop (uniform loop branches).
* **Stage 2** — queries that leave the root subtree continue exactly like
  the independent kernel through the remaining subtrees in global memory.

This reproduces the paper's two claimed advantages: coalesced/shared node
accesses for the hot top-of-tree, and reduced branch divergence because the
stage-1 loop is uniform.
"""

from __future__ import annotations

import numpy as np

from repro.forest.tree import EMPTY, LEAF
from repro.gpusim.engine import WarpGrid
from repro.gpusim.memory import CoalescingTracker
from repro.kernels.base import AddressSpace
from repro.kernels.gpu_independent import GPUIndependentKernel
from repro.kernels.traversal_stats import accumulate_votes
from repro.layout.hierarchical import HierarchicalForest


class GPUHybridKernel(GPUIndependentKernel):
    """Root subtree in shared memory, independent traversal below."""

    name = "gpu-hybrid"
    #: Stage-1 per-step warp instructions (shared loads are cheaper to
    #: address than global ones).
    INSTR_PER_STEP_S1 = 9
    #: Instructions per cooperative-staging load iteration.
    INSTR_PER_STAGE_ITER = 4
    #: Block-synchronised per-tree traversal keeps the L1 hot on the
    #: current tree's lower subtrees (paper §3.2.1).
    NODE_L1_HIT = 0.55

    def _run(self, layout: HierarchicalForest, X, grid: WarpGrid, metrics, votes):
        if not isinstance(layout, HierarchicalForest):
            raise TypeError("GPUHybridKernel expects a HierarchicalForest")
        n, n_features = X.shape
        space = self._make_space(layout, n, n_features)
        trackers = {
            name: CoalescingTracker(
                name,
                metrics,
                l1_resident=(name == "X"),
                l1_hit_rate=0.0 if name == "X" else self.NODE_L1_HIT,
            )
            for name in (
                "feature_id",
                "value",
                "subtree_node_offset",
                "subtree_depth",
                "connection_offset",
                "subtree_connection",
                "X",
            )
        }
        self._register_sites(trackers)
        rows = np.arange(n, dtype=np.int64)
        shared_limit = self.spec.shared_mem_per_sm
        for t in range(layout.n_trees):
            off, size = layout.root_subtree_slots(t)
            root_bytes = size * 8  # feature_id + value copies
            if root_bytes > shared_limit:
                raise ValueError(
                    f"root subtree of tree {t} needs {root_bytes} B of shared "
                    f"memory but the device has {shared_limit} B; reduce RSD"
                )
            self._stage_root_subtree(layout, grid, metrics, space, trackers, t)
            out, st, local, active = self._stage1(
                layout, X, t, grid, metrics, space, trackers, rows
            )
            if np.any(active):
                out = self._traverse_tree(
                    layout, X, t, grid, metrics, space, trackers, rows,
                    start_st=st, start_local=local, start_active=active, out=out,
                )
            accumulate_votes(votes, out)

    # ------------------------------------------------------------------
    def _stage_root_subtree(self, layout, grid, metrics, space, trackers, t):
        """Account the cooperative load of tree ``t``'s root subtree.

        Every block stages its own copy: the loads are perfectly coalesced
        (adjacent lanes -> adjacent elements), the first block's traffic is
        cold (DRAM), the remaining blocks hit L2.
        """
        off, size = layout.root_subtree_slots(t)
        txn_bytes = self.spec.transaction_bytes
        n_blocks = grid.n_blocks
        for name in ("feature_id", "value"):
            region_txns = -(-size * 4 // txn_bytes)
            requests = -(-size // self.spec.warp_size)
            metrics.global_load_requests += requests * n_blocks
            metrics.global_load_transactions += region_txns * n_blocks
            metrics.dram_transactions += region_txns  # first block only
            metrics.issue_weighted_transactions += region_txns * n_blocks
            metrics.footprint_bytes += region_txns * txn_bytes
        metrics.bytes_staged_shared += size * 8 * n_blocks
        stage_iters = -(-size // self.spec.threads_per_block)
        metrics.warp_instructions += (
            self.INSTR_PER_STAGE_ITER
            * stage_iters
            * grid.n_warps  # every warp participates in staging
        )
        # Block barrier fencing the staged nodes before stage 1 reads them
        # from shared memory (the __syncthreads after the cooperative load).
        grid.record_sync(metrics)

    # ------------------------------------------------------------------
    def _stage1(self, layout, X, t, grid, metrics, space, trackers, rows):
        """Lock-step traversal of the root subtree out of shared memory.

        Returns ``(out, st, local, active)`` where ``active`` marks queries
        that crossed into stage 2 with their start states.
        """
        n, n_features = X.shape
        st_root = int(layout.tree_root_subtree[t])
        base = int(layout.subtree_node_offset[st_root])
        sd = int(layout.subtree_depth[st_root])
        frontier_start = (1 << (sd - 1)) - 1

        local = np.zeros(n, dtype=np.int64)
        out = np.full(n, -1, dtype=np.int64)
        in_stage1 = np.ones(n, dtype=bool)
        next_st = np.zeros(n, dtype=np.int64)
        crossed = np.zeros(n, dtype=bool)

        for _level in range(sd):
            if not np.any(in_stage1):
                break
            g = base + local
            # Two shared-memory node loads per active warp-step.
            metrics.shared_load_requests += 2 * grid.active_warps(in_stage1)
            feats = np.where(in_stage1, layout.feature_id[g], EMPTY)
            is_leaf = in_stage1 & (feats == LEAF)
            inner = in_stage1 & ~is_leaf
            if np.any(is_leaf):
                out[is_leaf] = layout.value[g[is_leaf]].astype(np.int64)
            go_right = np.zeros(n, dtype=bool)
            if np.any(inner):
                f_safe = np.where(inner, feats, 0).astype(np.int64)
                trackers["X"].record(
                    self._query_addresses(space, f_safe, rows, n_features), inner
                )
                gi = g[inner]
                go_right[inner] = X[rows[inner], feats[inner]] >= layout.value[gi]
            # Frontier inner lanes cross to stage 2 (connection arrays are
            # in global memory, as in the independent kernel).
            crossing = inner & (local >= frontier_start)
            stay = inner & ~crossing
            if np.any(crossing):
                rank = local[crossing] - frontier_start
                cidx = np.zeros(n, dtype=np.int64)
                cidx[crossing] = (
                    layout.connection_offset[st_root]
                    + 2 * rank
                    + go_right[crossing]
                )
                trackers["connection_offset"].record(
                    space.addr(
                        "connection_offset", np.full(n, st_root, dtype=np.int64)
                    ),
                    crossing,
                )
                trackers["subtree_connection"].record(
                    space.addr("subtree_connection", cidx), crossing
                )
                nxt = layout.subtree_connection[cidx[crossing]].astype(np.int64)
                next_st[crossing] = nxt
                crossed |= crossing
                trackers["subtree_node_offset"].record(
                    space.addr("subtree_node_offset", next_st), crossing
                )
                trackers["subtree_depth"].record(
                    space.addr("subtree_depth", next_st), crossing
                )
                grid.record_step(metrics, crossing, self.INSTR_PER_CROSS)
            local[stay] = 2 * local[stay] + 1 + go_right[stay]
            grid.record_step(metrics, in_stage1, self.INSTR_PER_STEP_S1)
            # Fixed-trip-count level loop -> uniform loop branch.
            warps = grid.active_warps(in_stage1)
            metrics.branches += warps
            metrics.uniform_branches += warps
            in_stage1 = stay

        st = np.where(crossed, next_st, 0).astype(np.int64)
        local_out = np.zeros(n, dtype=np.int64)
        return out, st, local_out, crossed
