"""Tests for the FPGA pipeline model, II derivation and replication."""

import pytest

from repro.fpgasim.device import ALVEO_U250
from repro.fpgasim.pipeline import PipelineTimer, derive_ii
from repro.fpgasim.replication import (
    FULL_4S12C,
    HYBRID_SPLIT_4S10C,
    Replication,
    SINGLE_CU,
)
from repro.kernels.fpga_csr import FPGACSRKernel
from repro.kernels.fpga_collaborative import FPGACollaborativeKernel
from repro.kernels.fpga_hybrid import FPGAHybridKernel
from repro.kernels.fpga_independent import FPGAIndependentKernel


class TestDeviceSpec:
    def test_paper_constants(self):
        """§2.2/§4: 4 SLRs, 13.5 MB/SLR on-chip, ~77 GB/s aggregate."""
        assert ALVEO_U250.n_slrs == 4
        assert ALVEO_U250.onchip_bytes_per_slr == int(13.5 * 1024 * 1024)
        assert ALVEO_U250.total_ext_bandwidth == pytest.approx(76.8e9)
        assert ALVEO_U250.clock_mhz == 300.0


class TestDeriveII:
    def test_paper_csr_ii_292(self):
        """Table 3: the CSR pipeline's II is 292 cycles."""
        assert derive_ii(FPGACSRKernel.II_CHAIN, ALVEO_U250) == 292

    def test_paper_independent_ii_76(self):
        """Table 3 / §3.2.2: II 76 after moving features to BRAM."""
        assert derive_ii(FPGAIndependentKernel.II_CHAIN, ALVEO_U250) == 76

    def test_paper_onchip_ii_3(self):
        """Table 3: collaborative / hybrid stage 1 at II 3."""
        assert derive_ii(FPGACollaborativeKernel.II_CHAIN, ALVEO_U250) == 3
        assert derive_ii(FPGAHybridKernel.II_CHAIN_S1, ALVEO_U250) == 3

    def test_paper_147_before_bram_features(self):
        """§3.2.2: with features still in external memory the II was 147."""
        ii = derive_ii(
            ("ext_load", "ext_load", "compare", "arith", "select"), ALVEO_U250
        )
        assert ii == 147

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            derive_ii(("teleport",), ALVEO_U250)

    def test_minimum_one(self):
        assert derive_ii((), ALVEO_U250) == 1


class TestReplication:
    def test_labels(self):
        assert SINGLE_CU.label == "1CU"
        assert FULL_4S12C.label == "4S12C"
        assert HYBRID_SPLIT_4S10C.label == "4S10C split"

    def test_total_cus(self):
        assert FULL_4S12C.total_cus == 48

    def test_validation(self):
        with pytest.raises(ValueError):
            Replication(0, 1)
        with pytest.raises(ValueError):
            Replication(1, 1, freq_mhz=-5)


class TestPipelineTimer:
    def test_basic_time(self):
        t = PipelineTimer(ALVEO_U250)
        r = t.time(work_items=300_000_000, ii=76)
        # 300M items x 76 cycles at 300 MHz / (1 - base stall) = ~85 s.
        assert r.seconds == pytest.approx(
            300e6 * 76 / 300e6 / (1 - ALVEO_U250.base_stall), rel=0.01
        )
        assert r.stall_pct == pytest.approx(ALVEO_U250.base_stall, abs=0.01)

    def test_replication_divides_work(self):
        t = PipelineTimer(ALVEO_U250)
        r1 = t.time(work_items=1_000_000, ii=76)
        r4 = t.time(work_items=1_000_000, ii=76, replication=Replication(4, 1))
        assert r4.seconds < r1.seconds
        assert r4.seconds == pytest.approx(r1.seconds / 4, rel=0.05)

    def test_contention_saturates(self):
        """Demand beyond the channel turns throughput-bound."""
        t = PipelineTimer(ALVEO_U250)
        light = t.time(
            1_000_000, ii=76, replication=Replication(1, 12),
            random_accesses_per_item=0.1,
        )
        heavy = t.time(
            1_000_000, ii=76, replication=Replication(1, 12),
            random_accesses_per_item=20.0,
        )
        assert heavy.seconds > light.seconds
        assert heavy.stall_pct > light.stall_pct

    def test_extra_serial_cycles(self):
        t = PipelineTimer(ALVEO_U250)
        a = t.time(1000, ii=3)
        b = t.time(1000, ii=3, extra_stall_cycles_per_item=144)
        assert b.seconds > a.seconds
        assert b.stall_pct > 0.8  # the collaborative kernel's regime

    def test_freq_override(self):
        t = PipelineTimer(ALVEO_U250)
        slow = t.time(1_000_000, ii=76, replication=Replication(1, 1, freq_mhz=150))
        fast = t.time(1_000_000, ii=76)
        assert slow.seconds == pytest.approx(2 * fast.seconds, rel=0.01)

    def test_too_many_slrs(self):
        with pytest.raises(ValueError):
            PipelineTimer(ALVEO_U250).time(1, ii=1, replication=Replication(5, 1))

    def test_negative_work(self):
        with pytest.raises(ValueError):
            PipelineTimer(ALVEO_U250).time(-1, ii=1)
