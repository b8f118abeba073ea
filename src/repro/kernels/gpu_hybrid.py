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

from repro.gpusim.engine import WarpGrid
from repro.kernels.gpu_independent import GPUIndependentKernel
from repro.kernels.traversal_stats import accumulate_votes, current_table, tree_levels
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
        space = self._make_space(layout, *X.shape)
        trackers = self._make_trackers(metrics)
        self._register_sites(trackers)
        table = current_table(layout)
        shared_limit = self.spec.shared_mem_per_sm
        stage1 = slice(None, layout.params.rsd)
        stage2 = slice(layout.params.rsd, None)
        for t in range(layout.n_trees):
            _, size = layout.root_subtree_slots(t)
            root_bytes = size * 8  # feature_id + value copies
            if root_bytes > shared_limit:
                raise ValueError(
                    f"root subtree of tree {t} needs {root_bytes} B of shared "
                    f"memory but the device has {shared_limit} B; reduce RSD"
                )
            levels = tree_levels(table, X, t, layout.feature_id, layout.value)
            self._stage_root_subtree(grid, metrics, size)
            self._count_stage1(layout, X, levels, stage1, grid, metrics, space, trackers)
            self._count_global_levels(layout, X, levels, stage2, grid, metrics, space, trackers)
            accumulate_votes(votes, levels.labels)

    # ------------------------------------------------------------------
    def _stage_root_subtree(self, grid, metrics, size):
        """Account the cooperative load of a root subtree of ``size`` slots.

        Every block stages its own copy: the loads are perfectly coalesced
        (adjacent lanes -> adjacent elements), the first block's traffic is
        cold (DRAM), the remaining blocks hit L2.
        """
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
    def _count_stage1(self, layout, X, levels, rows, grid, metrics, space, trackers):
        """Count the root-subtree levels ``rows`` of one tree's walk: node
        attributes come from shared memory (two shared load requests per
        active warp-level), the rest as in the independent kernel.  The
        level loop has a fixed trip count, so its branch is uniform, and no
        crossing check diverges."""
        walking = levels.walking[rows]
        warps = grid.active_warps(walking)
        metrics.shared_load_requests += 2 * warps
        crossing = self._record_loads(layout, X, levels, rows, space, trackers, nodes=False)
        grid.record_step(metrics, crossing, self.INSTR_PER_CROSS)
        grid.record_step(metrics, walking, self.INSTR_PER_STEP_S1)
        metrics.branches += warps
        metrics.uniform_branches += warps
