"""BAD: shared-memory staging is read back with no block sync between."""


class Kernel:
    BYTES_PER_SLOT = 8

    def _stage(self, grid, metrics, slots):
        metrics.bytes_staged_shared += slots * self.BYTES_PER_SLOT

    def _walk(self, grid, metrics, active):
        metrics.shared_load_requests += 2 * grid.active_warps(active)

    def _run(self, grid, metrics, slots, active):
        self._stage(grid, metrics, slots)
        self._walk(grid, metrics, active)  # KRN003: no sync since staging


class DeepKernel:
    """v2: the unfenced read sits two helper levels below the staging
    write — only recursive call-graph inlining can order the events."""

    BYTES_PER_SLOT = 8

    def _stage(self, grid, metrics, slots):
        metrics.bytes_staged_shared += slots * self.BYTES_PER_SLOT

    def _walk_inner(self, grid, metrics, active):
        metrics.shared_load_requests += grid.active_warps(active)

    def _walk_outer(self, grid, metrics, active):
        self._walk_inner(grid, metrics, active)

    def _run(self, grid, metrics, slots, active):
        self._stage(grid, metrics, slots)
        self._walk_outer(grid, metrics, active)  # KRN003: two levels deep


class LoopKernel:
    """The unfenced read sits directly in the lock-step loop body, after
    a staging helper called before the loop."""

    BYTES_PER_SLOT = 8

    def _stage_batch(self, grid, metrics, slots):
        metrics.bytes_staged_shared += slots * self.BYTES_PER_SLOT

    def _run(self, grid, metrics, active):
        self._stage_batch(grid, metrics, 512)
        while active.any():
            metrics.shared_load_requests += grid.active_warps(active)  # KRN003
            active = active[1:]


# Mutual recursion: inlining stops at the visited-set guard, and the read
# in the callee still orders after the caller's staging write.
def stage_then_walk(grid, metrics):
    metrics.bytes_staged_shared += 8
    return walk_then_stage(grid, metrics)  # KRN003: read inside the callee


def walk_then_stage(grid, metrics):
    metrics.shared_load_requests += 1
    return stage_then_walk(grid, metrics)
