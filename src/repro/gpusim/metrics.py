"""Kernel counter set — the simulated analogue of an nvprof profile.

Kernels accumulate these counters while executing functionally.  Names match
the nvprof metrics the paper reports in Fig. 8 where applicable
(``gld_transactions`` / global load requests, ``branch_efficiency``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


#: Monotonic accumulator fields (merge() sums these; the obs bridge
#: ingests them as registry counters under ``gpu.kernel.<field>``).
COUNTER_FIELDS = (
    "global_load_requests",
    "global_load_transactions",
    "dram_transactions",
    "l1_transactions",
    "issue_weighted_transactions",
    "shared_load_requests",
    "branches",
    "uniform_branches",
    "warp_instructions",
    "active_lanes",
    "lane_slots",
    "bytes_staged_shared",
    "block_syncs",
    "footprint_bytes",
    "launches",
)

#: Derived ratio properties (registry gauges under ``gpu.kernel.<name>``).
GAUGE_FIELDS = (
    "branch_efficiency",
    "warp_efficiency",
    "coalescing_ratio",
)


@dataclass
class KernelMetrics:
    """Aggregated execution counters for one simulated kernel launch."""

    #: Warp-level global load instructions issued (nvprof: global load
    #: requests).  One per warp per load site with >= 1 active lane.
    global_load_requests: int = 0
    #: 128-byte global memory transactions after coalescing.
    global_load_transactions: int = 0
    #: Transactions that are cold/first-touch within their step window and
    #: therefore charged to DRAM by the analytic cache model.
    dram_transactions: int = 0
    #: Reuse transactions served by per-SM L1 (thread-private data such as
    #: query rows; see CoalescingTracker(l1_resident=True)).
    l1_transactions: int = 0
    #: Issue-cost-weighted transactions: each site weights its transactions
    #: by how much memory-level parallelism it permits (dependent pointer-
    #: chase loads cost more, L1-resident loads almost nothing).  This is
    #: the quantity the timing model's transaction roof consumes.
    issue_weighted_transactions: float = 0.0
    #: Warp-level shared-memory load instructions.
    shared_load_requests: int = 0
    #: Warp-level branch instructions executed.
    branches: int = 0
    #: Branches where every active lane took the same direction.
    uniform_branches: int = 0
    #: Total warp instructions issued (all types).
    warp_instructions: int = 0
    #: Sum over warp-steps of active lane count (for warp efficiency).
    active_lanes: int = 0
    #: Sum over warp-steps of warp_size (denominator of warp efficiency).
    lane_slots: int = 0
    #: Bytes cooperatively staged into shared memory (hybrid stage 1 /
    #: collaborative batches).
    bytes_staged_shared: int = 0
    #: Block-wide barriers executed (__syncthreads analogue).  Every
    #: staging-write -> shared-read path must cross one; source rule
    #: KRN003 (tests/test_source_rules.py) enforces this statically.
    block_syncs: int = 0
    #: Distinct global bytes touched (segment granularity); drives the
    #: timing model's L2 capacity correction.
    footprint_bytes: int = 0
    #: Kernel launches performed (timing adds per-launch overhead).
    launches: int = 1
    #: Optional address-trace log (set by GPUKernel(record_trace=True));
    #: trackers append their per-step segments here for exact cache replay.
    trace: Optional[object] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def branch_efficiency(self) -> float:
        """Fraction of uniform branches (nvprof's branch_efficiency)."""
        return self.uniform_branches / self.branches if self.branches else 1.0

    @property
    def warp_efficiency(self) -> float:
        """Mean fraction of active lanes per executed warp-step."""
        return self.active_lanes / self.lane_slots if self.lane_slots else 1.0

    @property
    def l2_transactions(self) -> int:
        """Transactions served on-chip by the analytic cache model."""
        return self.global_load_transactions - self.dram_transactions

    @property
    def coalescing_ratio(self) -> float:
        """Transactions per request; 1.0 = perfectly coalesced, up to 32."""
        if not self.global_load_requests:
            return 0.0
        return self.global_load_transactions / self.global_load_requests

    # ------------------------------------------------------------------
    def merge(self, other: "KernelMetrics") -> "KernelMetrics":
        """Accumulate ``other`` into self (e.g. per-tree sub-launches)."""
        for f in COUNTER_FIELDS:
            setattr(self, f, getattr(self, f) + getattr(other, f))
        return self

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for reports (includes derived ratios)."""
        return {
            "global_load_requests": self.global_load_requests,
            "global_load_transactions": self.global_load_transactions,
            "dram_transactions": self.dram_transactions,
            "l1_transactions": self.l1_transactions,
            "issue_weighted_transactions": self.issue_weighted_transactions,
            "l2_transactions": self.l2_transactions,
            "shared_load_requests": self.shared_load_requests,
            "branches": self.branches,
            "uniform_branches": self.uniform_branches,
            "branch_efficiency": self.branch_efficiency,
            "warp_instructions": self.warp_instructions,
            "warp_efficiency": self.warp_efficiency,
            "bytes_staged_shared": self.bytes_staged_shared,
            "block_syncs": self.block_syncs,
            "footprint_bytes": self.footprint_bytes,
            "coalescing_ratio": self.coalescing_ratio,
            "launches": self.launches,
        }

    def validate(self) -> None:
        """Sanity-check counter relationships."""
        if self.uniform_branches > self.branches:
            raise ValueError("uniform_branches exceeds branches")
        if self.dram_transactions > self.global_load_transactions:
            raise ValueError("dram_transactions exceeds total transactions")
        if self.active_lanes > self.lane_slots:
            raise ValueError("active_lanes exceeds lane_slots")
        for name in ("global_load_requests", "global_load_transactions"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} is negative")
