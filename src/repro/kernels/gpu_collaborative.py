"""GPU collaborative kernel (paper §3.2).

Subtrees are batch-loaded into shared memory and *every* query is pushed
through *every* subtree, with a presence check guarding actual work.  The
paper keeps this variant for analysis: it is consistently 10-20x slower than
the independent variant on GPU because

* each thread block stages every subtree of every tree into its own shared
  memory (staging traffic proportional to ``n_blocks``),
* queries burn presence-check cycles on subtrees they never visit
  (starvation), which grows with tree depth since deeper subtrees hold
  exponentially fewer queries, and
* the per-subtree block barrier plus the full-48 KB shared-memory batches
  (one resident block per SM) make each block's subtree sequence a serial
  critical path that other blocks cannot hide.

All three effects fall out of the cost accounting here.

Unlike the other GPU kernels, which count a whole tree from one fastpath
walk, this one keeps its block-serial step loop over the subtree batches:
it records one level per call, the one-row case of
:meth:`~repro.gpusim.memory.CoalescingTracker.record` and the
:class:`~repro.gpusim.engine.WarpGrid` counters.
"""

from __future__ import annotations

import numpy as np

from repro.forest.tree import EMPTY, LEAF
from repro.gpusim.engine import WarpGrid
from repro.gpusim.memory import CoalescingTracker
from repro.gpusim.timing import KernelTiming
from repro.kernels.base import AddressSpace, GPUKernel
from repro.kernels.traversal_stats import accumulate_votes
from repro.layout.hierarchical import HierarchicalForest


class GPUCollaborativeKernel(GPUKernel):
    """Shared-memory subtree batches; all queries visit all subtrees."""

    name = "gpu-collaborative"
    INSTR_PER_STEP = 10
    #: Presence-check instructions per warp per subtree.
    INSTR_PRESENCE = 2
    INSTR_PER_STAGE_ITER = 4
    #: Bytes of shared memory per stored slot (feature_id + value).
    BYTES_PER_SLOT = 8
    #: Block-serial critical-path costs: every subtree ends in a block-wide
    #: __syncthreads (SYNC_CYCLES); every traversal level inside a subtree
    #: is a lock-step shared-load + compare round (LEVEL_CYCLES); each
    #: staging iteration moves one element per thread (STAGE_CYCLES).  The
    #: kernel's 48 KB shared-memory batches limit residency to one block
    #: per SM, so this path cannot be hidden by other blocks — the
    #: structural reason the paper finds this variant 10-20x slower.
    SYNC_CYCLES = 40
    LEVEL_CYCLES = 30
    STAGE_CYCLES = 8

    def _run(self, layout: HierarchicalForest, X, grid: WarpGrid, metrics, votes):
        if not isinstance(layout, HierarchicalForest):
            raise TypeError("GPUCollaborativeKernel expects a HierarchicalForest")
        self._serial_cycles = 0.0
        self._max_batch_bytes = 0
        n, n_features = X.shape
        space = AddressSpace()
        space.alloc("feature_id", layout.total_slots, 4)
        space.alloc("value", layout.total_slots, 4)
        space.alloc("connection_offset", layout.n_subtrees + 1, 8)
        space.alloc(
            "subtree_connection", max(1, layout.subtree_connection.shape[0]), 4
        )
        space.alloc("X", n * n_features, 4)
        tr_conn_off = CoalescingTracker("connection_offset", metrics, element_bytes=8)
        tr_conn = CoalescingTracker("subtree_connection", metrics)
        tr_x = CoalescingTracker("X", metrics, l1_resident=True)
        self._register_sites([tr_conn_off, tr_conn, tr_x])
        rows = np.arange(n, dtype=np.int64)

        capacity_slots = self.spec.shared_mem_per_sm // self.BYTES_PER_SLOT
        for t in range(layout.n_trees):
            first, last = layout.tree_subtrees(t)
            st = np.full(n, first, dtype=np.int64)
            local = np.zeros(n, dtype=np.int64)
            out = np.full(n, -1, dtype=np.int64)
            active = np.ones(n, dtype=bool)

            batch_start = first
            while batch_start < last:
                batch_end, batch_slots = self._plan_batch(
                    layout, batch_start, last, capacity_slots
                )
                self._stage_batch(grid, metrics, batch_slots)
                for s in range(batch_start, batch_end):
                    present = active & (st == s)
                    # Every warp evaluates the presence check for every
                    # subtree in the batch — the starvation cost — and the
                    # block barrier after each subtree is serial.
                    metrics.warp_instructions += self.INSTR_PRESENCE * grid.n_warps
                    self._serial_cycles += self.SYNC_CYCLES
                    grid.record_branch(metrics, active, present)
                    if not np.any(present):
                        continue
                    self._process_subtree(
                        layout, X, s, present, st, local, out, active,
                        grid, metrics, space, tr_x, tr_conn_off, tr_conn, rows,
                        n_features,
                    )
                batch_start = batch_end
            accumulate_votes(votes, out)

    # ------------------------------------------------------------------
    def _plan_batch(self, layout, start, last, capacity_slots):
        """Greedy consecutive-subtree packing under the shared-mem limit."""
        end = start
        slots = 0
        while end < last:
            size = layout.subtree_size(end)
            if slots + size > capacity_slots and end > start:
                break
            slots += size
            end += 1
            if slots >= capacity_slots:
                break
        return end, slots

    def _stage_batch(self, grid, metrics, batch_slots):
        """Cooperative staging of one subtree batch by every block."""
        txn_bytes = self.spec.transaction_bytes
        n_blocks = grid.n_blocks
        for _ in ("feature_id", "value"):
            region_txns = -(-batch_slots * 4 // txn_bytes)
            requests = -(-batch_slots // self.spec.warp_size)
            metrics.global_load_requests += requests * n_blocks
            metrics.global_load_transactions += region_txns * n_blocks
            metrics.dram_transactions += region_txns
            metrics.issue_weighted_transactions += region_txns * n_blocks
            metrics.footprint_bytes += region_txns * txn_bytes
        metrics.bytes_staged_shared += batch_slots * self.BYTES_PER_SLOT * n_blocks
        self._max_batch_bytes = max(
            self._max_batch_bytes, batch_slots * self.BYTES_PER_SLOT
        )
        stage_iters = -(-batch_slots // self.spec.threads_per_block)
        metrics.warp_instructions += (
            self.INSTR_PER_STAGE_ITER * stage_iters * grid.n_warps
        )
        self._serial_cycles += self.STAGE_CYCLES * stage_iters
        # Barrier between the cooperative batch load and the presence-check
        # traversal reads of the staged subtrees.
        grid.record_sync(metrics)
        self._serial_cycles += self.SYNC_CYCLES

    def _process_subtree(
        self, layout, X, s, present, st, local, out, active,
        grid, metrics, space, tr_x, tr_conn_off, tr_conn, rows, n_features,
    ):
        """Lock-step traversal of subtree ``s`` for its present queries."""
        n = X.shape[0]
        base = int(layout.subtree_node_offset[s])
        sd = int(layout.subtree_depth[s])
        frontier_start = (1 << (sd - 1)) - 1
        walking = present.copy()
        # A walk inside one subtree visits at most its slots (see
        # accumulate_votes); a longer one loops.
        for _ in range(layout.subtree_size(s)):
            if not np.any(walking):
                break
            self._serial_cycles += self.LEVEL_CYCLES
            # Stale lanes (parked in other subtrees) must not index out of
            # this subtree's slot range.
            g = base + np.where(walking, local, 0)
            metrics.shared_load_requests += 2 * grid.active_warps(walking)
            feats = np.where(walking, layout.feature_id[g], EMPTY)
            is_leaf = walking & (feats == LEAF)
            inner = walking & ~is_leaf
            if np.any(is_leaf):
                out[is_leaf] = layout.value[g[is_leaf]].astype(np.int64)
                active[is_leaf] = False
            go_right = np.zeros(n, dtype=bool)
            if np.any(inner):
                f_safe = np.where(inner, feats, 0).astype(np.int64)
                tr_x.record(
                    space.addr("X", rows * np.int64(n_features) + f_safe), inner
                )
                gi = g[inner]
                go_right[inner] = X[rows[inner], feats[inner]] >= layout.value[gi]
            crossing = inner & (local >= frontier_start)
            stay = inner & ~crossing
            if np.any(crossing):
                rank = local[crossing] - frontier_start
                cidx = np.zeros(n, dtype=np.int64)
                cidx[crossing] = (
                    layout.connection_offset[s] + 2 * rank + go_right[crossing]
                )
                tr_conn_off.record(
                    space.addr(
                        "connection_offset", np.full(n, s, dtype=np.int64)
                    ),
                    crossing,
                )
                tr_conn.record(space.addr("subtree_connection", cidx), crossing)
                st[crossing] = layout.subtree_connection[
                    cidx[crossing]
                ].astype(np.int64)
                local[crossing] = 0
            local[stay] = 2 * local[stay] + 1 + go_right[stay]
            # Block-wide synchronisation: every warp of a block with any
            # walking lane is held at the barrier for the whole level — the
            # paper's starvation effect ("cannot advance until all threads
            # in the block have completed the tree").
            grid.record_blocked_step(metrics, walking, self.INSTR_PER_STEP)
            grid.record_loop_branch(metrics, walking, stay)
            walking = stay

    def _finalize_timing(self, timing, grid, metrics):
        """Apply the block-serial critical-path floor: the shared-memory
        batches cap residency at 1-2 blocks per SM, so each block's serial
        subtree sequence is barely hidden by other blocks."""
        from repro.gpusim.occupancy import occupancy

        occ = occupancy(self.spec, shared_bytes_per_block=self._max_batch_bytes)
        waves = occ.waves(grid.n_blocks, self.spec)
        serial_s = waves * self._serial_cycles / (self.spec.clock_ghz * 1e9)
        if serial_s <= timing.seconds:
            return timing
        return KernelTiming(
            seconds=serial_s + timing.overhead_s,
            compute_s=timing.compute_s,
            dram_s=timing.dram_s,
            l2_s=timing.l2_s,
            txn_s=timing.txn_s,
            shared_s=timing.shared_s,
            overhead_s=timing.overhead_s,
            bound_by="block-serial",
        )
