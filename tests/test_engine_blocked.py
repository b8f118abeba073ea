"""Tests for block-granular accounting and hybrid kernel internals."""

import numpy as np
import pytest

from repro.gpusim.device import TITAN_XP
from repro.gpusim.engine import WarpGrid
from repro.gpusim.metrics import KernelMetrics
from repro.kernels import GPUHybridKernel, GPUIndependentKernel
from repro.layout.hierarchical import HierarchicalForest, LayoutParams


class TestBlockedStep:
    def test_warps_in_active_blocks(self):
        g = WarpGrid(1024, TITAN_XP)  # 4 blocks of 256 threads
        active = np.zeros(1024, bool)
        active[0] = True  # block 0
        assert g.warps_in_active_blocks(active) == 8
        active[300] = True  # block 1 too
        assert g.warps_in_active_blocks(active) == 16

    def test_no_active(self):
        g = WarpGrid(512, TITAN_XP)
        assert g.warps_in_active_blocks(np.zeros(512, bool)) == 0

    def test_record_blocked_step_charges_whole_block(self):
        g = WarpGrid(512, TITAN_XP)
        m = KernelMetrics()
        active = np.zeros(512, bool)
        active[5] = True  # one lane -> whole block of 8 warps charged
        g.record_blocked_step(m, active, instructions=3)
        assert m.warp_instructions == 3 * 8
        assert m.active_lanes == 1
        assert m.lane_slots == 8 * 32
        assert m.warp_efficiency == pytest.approx(1 / 256)

    def test_blocked_vs_plain_step(self):
        """Blocked accounting is always >= warp-level accounting."""
        g = WarpGrid(2048, TITAN_XP)
        rng = np.random.default_rng(0)
        active = rng.random(2048) < 0.05
        m_plain, m_blocked = KernelMetrics(), KernelMetrics()
        g.record_step(m_plain, active)
        g.record_blocked_step(m_blocked, active)
        assert m_blocked.warp_instructions >= m_plain.warp_instructions

    def test_length_checked(self):
        g = WarpGrid(64, TITAN_XP)
        with pytest.raises(ValueError):
            g.warps_in_active_blocks(np.zeros(63, bool))


class TestHybridInternals:
    @pytest.fixture(scope="class")
    def hier(self, small_trees):
        return HierarchicalForest.from_trees(small_trees, LayoutParams(4, 6))

    def test_stage1_covers_root_subtree_depth(self, hier, queries):
        """Stage-1 items never exceed RSD levels per query-tree."""
        from repro.kernels.traversal_stats import profile_workload

        _, counts = profile_workload(hier, queries)
        lanes = queries.shape[0] * hier.n_trees
        assert counts.stage1 <= hier.params.rsd * lanes

    def test_hybrid_stages_root_bytes(self, hier, queries):
        result = GPUHybridKernel().run(hier, queries)
        total_root_bytes = sum(
            hier.root_subtree_slots(t)[1] * 8 for t in range(hier.n_trees)
        )
        grid_blocks = -(-queries.shape[0] // TITAN_XP.threads_per_block)
        assert (
            result.metrics.bytes_staged_shared
            == total_root_bytes * grid_blocks
        )

    def test_hybrid_shared_loads_bounded_by_stage1_steps(self, hier, queries):
        from repro.kernels.traversal_stats import profile_workload

        result = GPUHybridKernel().run(hier, queries)
        # 2 shared loads per active warp-step; warp-steps <= lane-steps.
        stage1_lane_steps = profile_workload(hier, queries)[1].stage1
        assert result.metrics.shared_load_requests <= 2 * stage1_lane_steps

    def test_larger_rsd_shifts_loads_to_shared(self, small_trees, queries):
        h_small = HierarchicalForest.from_trees(small_trees, LayoutParams(4, 4))
        h_big = HierarchicalForest.from_trees(small_trees, LayoutParams(4, 8))
        r_small = GPUHybridKernel().run(h_small, queries)
        r_big = GPUHybridKernel().run(h_big, queries)
        assert (
            r_big.metrics.shared_load_requests
            > r_small.metrics.shared_load_requests
        )
        assert (
            r_big.metrics.global_load_requests
            < r_small.metrics.global_load_requests
        )
