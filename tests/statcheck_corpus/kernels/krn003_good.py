"""GOOD: a block barrier fences staging from the shared-memory reads."""


class Kernel:
    BYTES_PER_SLOT = 8

    def _stage(self, grid, metrics, slots):
        metrics.bytes_staged_shared += slots * self.BYTES_PER_SLOT

    def _walk(self, grid, metrics, active):
        metrics.shared_load_requests += 2 * grid.active_warps(active)

    def _run(self, grid, metrics, slots, active):
        self._stage(grid, metrics, slots)
        grid.record_sync(metrics)
        self._walk(grid, metrics, active)


class DeepKernel:
    """v2: the fence lives inside a helper; recursive inlining must see
    it clear the pending staging write before the deep read."""

    BYTES_PER_SLOT = 8

    def _stage(self, grid, metrics, slots):
        metrics.bytes_staged_shared += slots * self.BYTES_PER_SLOT

    def _walk_inner(self, grid, metrics, active):
        metrics.shared_load_requests += grid.active_warps(active)

    def _walk_outer(self, grid, metrics, active):
        grid.record_sync(metrics)
        self._walk_inner(grid, metrics, active)

    def _run(self, grid, metrics, slots, active):
        self._stage(grid, metrics, slots)
        self._walk_outer(grid, metrics, active)


class LoopKernel:
    """The fence sits between the staging helper and the lock-step loop."""

    BYTES_PER_SLOT = 8

    def _stage_batch(self, grid, metrics, slots):
        metrics.bytes_staged_shared += slots * self.BYTES_PER_SLOT

    def _run(self, grid, metrics, active):
        self._stage_batch(grid, metrics, 512)
        grid.record_sync(metrics)
        while active.any():
            metrics.shared_load_requests += grid.active_warps(active)
            active = active[1:]
