"""One-tree-per-thread-block kernel (paper §3.2.1, optimisation 2).

The paper tested "assigning each thread-block one tree to traverse for all
queries", hoping for node-data reuse within the block, and measured a
2-10x *slowdown* versus the independent variant.  The structural reasons,
which this instrumented reproduction exposes:

* Parallelism collapses from ``queries`` threads to ``trees x block``
  threads: with tens of trees the grid cannot fill 30 SMs, and each block
  must loop over the whole query set serially
  (``queries / threads_per_block`` iterations per tree level).
* Every block streams the entire query matrix, multiplying query traffic by
  the number of trees instead of the number of levels.

The kernel still classifies correctly (per-tree votes are identical); only
the execution organisation differs.
"""

from __future__ import annotations

from repro.gpusim.engine import WarpGrid
from repro.gpusim.timing import KernelTiming
from repro.kernels.gpu_independent import GPUIndependentKernel
from repro.layout.hierarchical import HierarchicalForest


class GPUBlockPerTreeKernel(GPUIndependentKernel):
    """Each block owns one tree and sweeps all queries through it."""

    name = "gpu-block-per-tree"

    def _run(self, layout: HierarchicalForest, X, grid: WarpGrid, metrics, votes):
        if not isinstance(layout, HierarchicalForest):
            raise TypeError("GPUBlockPerTreeKernel expects a HierarchicalForest")
        # Functional execution and address traffic are the independent
        # kernel's (same loads happen, differently scheduled)...
        super()._run(layout, X, grid, metrics, votes)
        # ...but the schedule changes the exposed parallelism: remember the
        # occupancy facts _finalize_timing needs.
        self._n_trees = layout.n_trees
        self._n_queries = X.shape[0]

    def _finalize_timing(self, timing, grid, metrics):
        """Apply the occupancy collapse of one-block-per-tree scheduling.

        Only ``n_trees`` blocks exist.  The device runs
        ``min(n_trees, n_sms)`` of them concurrently, so the kernel's
        achievable throughput shrinks by the unused-SM fraction, and each
        block serially iterates over ``queries/threads_per_block`` chunks.
        """
        spec = self.spec
        concurrent = min(self._n_trees, spec.n_sms)
        occupancy = concurrent / spec.n_sms
        # Issue-bound work is spread over fewer SMs; memory-bound work is
        # still device-wide but loses latency-hiding warps, modelled as the
        # same occupancy derating (conservative: the paper measured 2-10x).
        slowdown = 1.0 / max(occupancy, 1e-9)
        chunks = -(-self._n_queries // spec.threads_per_block)
        # Per-chunk relaunch/drain overhead inside each block's query loop.
        serial_s = (
            self._n_trees
            / concurrent
            * chunks
            * 200  # cycles per chunk iteration (loop + barrier)
            / (spec.clock_ghz * 1e9)
        )
        seconds = timing.seconds * slowdown + serial_s
        return KernelTiming(
            seconds=seconds,
            compute_s=timing.compute_s,
            dram_s=timing.dram_s,
            l2_s=timing.l2_s,
            txn_s=timing.txn_s,
            shared_s=timing.shared_s,
            overhead_s=timing.overhead_s,
            bound_by="occupancy" if slowdown > 1.0 else timing.bound_by,
        )
