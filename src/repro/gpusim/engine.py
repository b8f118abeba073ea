"""Warp-lockstep execution helpers shared by the simulated GPU kernels.

A :class:`WarpGrid` fixes the query -> thread -> warp -> block mapping (query
``i`` is lane ``i % 32`` of warp ``i // 32``, matching the natural CUDA
launch the paper uses) and provides vectorised per-step accounting of
divergence, branches and instruction issue over the whole grid at once.

Kernels drive it level-synchronously: they compute per-query addresses /
branch directions with NumPy and call :meth:`record_step` /
:meth:`record_branch` so the counters reflect exactly what a lock-step SIMT
execution of those levels would do.  A mask is one level's lane vector or a
(levels x lanes) matrix of a run of levels; every counter is a sum over
warp-levels, so a matrix counts the same as its rows one by one.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import GPUSpec
from repro.gpusim.metrics import KernelMetrics


class WarpGrid:
    """Query-to-lane mapping plus vectorised divergence accounting."""

    def __init__(self, n_queries: int, spec: GPUSpec):
        if n_queries <= 0:
            raise ValueError("n_queries must be positive")
        self.n = int(n_queries)
        self.spec = spec
        self.warp_size = spec.warp_size
        self.n_warps = -(-self.n // self.warp_size)
        self.n_blocks = -(-self.n // spec.threads_per_block)
        self._pad = self.n_warps * self.warp_size - self.n

    # ------------------------------------------------------------------
    def _grid(self, arr: np.ndarray, fill) -> np.ndarray:
        """Pad per-query arrays (the last axis) to full warps and reshape
        to ``(..., n_warps, 32)``."""
        arr = np.asarray(arr)
        if arr.shape[-1] != self.n:
            raise ValueError(f"expected length {self.n}, got {arr.shape[-1]}")
        if self._pad:
            pad = np.full(arr.shape[:-1] + (self._pad,), fill, dtype=arr.dtype)
            arr = np.concatenate([arr, pad], axis=-1)
        return arr.reshape(arr.shape[:-1] + (self.n_warps, self.warp_size))

    def launch_dims(self) -> dict:
        """Launch geometry as flat span/report args (obs timeline export)."""
        return {
            "n_queries": self.n,
            "n_warps": self.n_warps,
            "n_blocks": self.n_blocks,
            "warp_size": self.warp_size,
        }

    # ------------------------------------------------------------------
    def active_warps(self, active: np.ndarray) -> int:
        """Number of warp-levels with at least one active lane."""
        return int(np.count_nonzero(self._grid(active, False).any(axis=-1)))

    def warps_in_active_blocks(self, active: np.ndarray) -> int:
        """Warps belonging to blocks with at least one active lane.

        Models block-synchronised kernels (the collaborative variant): while
        any lane of a block walks a subtree, every warp of that block is
        held at the block barrier and burns issue slots.
        """
        active = np.asarray(active, dtype=bool)
        if active.shape[0] != self.n:
            raise ValueError(f"expected length {self.n}, got {active.shape[0]}")
        idx = np.flatnonzero(active)
        if idx.size == 0:
            return 0
        blocks = np.unique(idx // self.spec.threads_per_block)
        return int(blocks.size) * self.spec.warps_per_block

    def record_blocked_step(
        self,
        metrics: KernelMetrics,
        active: np.ndarray,
        instructions: int = 1,
    ) -> None:
        """Like :meth:`record_step` but block-granular (see above)."""
        warps = self.warps_in_active_blocks(active)
        if warps == 0:
            return
        metrics.warp_instructions += instructions * warps
        metrics.active_lanes += int(np.count_nonzero(active))
        metrics.lane_slots += warps * self.warp_size

    def record_step(
        self,
        metrics: KernelMetrics,
        active: np.ndarray,
        instructions: int = 1,
    ) -> None:
        """Account lock-step rounds: instruction issue + lane occupancy.

        ``instructions`` is the per-warp instruction cost of the loop body at
        these steps (a kernel-specific constant; inactive lanes still occupy
        their warp's issue slots — that is the divergence penalty).
        """
        warps = self.active_warps(active)
        if warps == 0:
            return
        metrics.warp_instructions += instructions * warps
        metrics.active_lanes += int(np.count_nonzero(active))
        metrics.lane_slots += warps * self.warp_size

    def record_sync(self, metrics: KernelMetrics, instructions: int = 1) -> None:
        """Account one block-wide barrier (``__syncthreads`` analogue).

        Kernels must call this between cooperatively staging shared memory
        and the first shared-memory read; source rule KRN003
        (``tests/test_source_rules.py``) verifies the ordering statically.
        The barrier issues one instruction per warp; its serialisation cost
        is modelled by the kernels' own critical-path accounting (e.g.
        SYNC_CYCLES).
        """
        metrics.block_syncs += 1
        metrics.warp_instructions += instructions * self.n_warps

    def record_branch(
        self,
        metrics: KernelMetrics,
        active: np.ndarray,
        taken: np.ndarray,
    ) -> None:
        """Account one branch per level: uniform iff all *active* lanes agree.

        This is nvprof's branch-efficiency notion: a warp-level branch
        instruction counts as divergent when its active lanes split.
        """
        A = self._grid(active, False)
        T = self._grid(taken, False)
        warp_any = A.any(axis=-1)
        n_warps = int(np.count_nonzero(warp_any))
        if n_warps == 0:
            return
        all_taken = (T | ~A).all(axis=-1)
        none_taken = (~T | ~A).all(axis=-1)
        uniform = warp_any & (all_taken | none_taken)
        metrics.branches += n_warps
        metrics.uniform_branches += int(np.count_nonzero(uniform))

    def record_loop_branch(
        self,
        metrics: KernelMetrics,
        active_before: np.ndarray,
        active_after: np.ndarray,
    ) -> None:
        """Account a loop exit-condition branch.

        Uniform iff, per warp, either every previously active lane continues
        or every one exits — partial exits serialise the warp.
        """
        self.record_branch(metrics, active_before, np.asarray(active_after, dtype=bool))
