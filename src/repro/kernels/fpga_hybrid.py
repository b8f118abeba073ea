"""FPGA hybrid kernel (paper Table 3 "Hybrid" and "Hybrid Split").

Two sequential pipeline stages per run:

* **Stage 1** — the root subtree sits in BRAM/URAM; every query streams
  through it at II 3.  The stage keeps the pipeline fully utilised (every
  query must traverse the root subtree) but streams query state + features
  from external memory, which is what limits its replication: the paper
  found replicating stage 1 stalls external memory at ~70%, motivating the
  *split* configuration (one stage-1 CU per SLR, stage 2 replicated).
* **Stage 2** — remaining subtrees traversed from external memory at the
  independent kernel's II of 76.

Average stage-2 utilisation drops to ``2^-s`` of the queries (paper
§3.2.2), which falls out of the work-item counting here.
"""

from __future__ import annotations

from repro.fpgasim.pipeline import PipelineResult, derive_ii
from repro.kernels.fpga_base import FPGAKernel


class FPGAHybridKernel(FPGAKernel):
    """On-chip root subtree stage + external-memory stage."""

    name = "fpga-hybrid"
    II_CHAIN_S1 = ("bram_load", "compare")
    II_CHAIN_S2 = ("ext_load", "bram_load", "compare", "arith")
    #: Query state + feature bytes streamed from external memory per
    #: stage-1 item; the contention driver when stage 1 is replicated
    #: (the paper saw ~70% external-memory stall at 12 stage-1 CUs/SLR).
    S1_STREAM_BYTES = 32.0
    #: Serial stage-1 cycles per item beyond the pipelined II: query-state
    #: housekeeping between levels (paper reports stage-1 II "between 1 and
    #: 3" but its measured stage-1 throughput corresponds to ~11 cycles).
    S1_SERIAL_CYCLES = 8.0
    #: Random external accesses per stage-1 item when stage-1 streams from
    #: multiple CUs interleave on one channel (state + feature reads).
    S1_RANDOM_ACCESSES = 3.5
    CROSS_ACCESSES = 2.0

    @classmethod
    def _timing(cls, counts, layout, replication, spec):
        s1_items = counts.stage1
        s2_items = counts.visits - counts.stage1
        crossings = counts.crossings
        stage_bytes = sum(
            layout.root_subtree_slots(t)[1] * 8 for t in range(layout.n_trees)
        )

        ii1 = derive_ii(cls.II_CHAIN_S1, spec)
        ii2 = derive_ii(cls.II_CHAIN_S2, spec)

        freq_mhz = replication.freq_mhz or spec.clock_mhz
        freq_hz = freq_mhz * 1e6
        cus = replication.total_cus
        n_slrs = replication.n_slrs
        s1_cus = n_slrs if replication.split_stage1 else cus

        rand_per_item = 1.0
        if s2_items:
            rand_per_item += cls.CROSS_ACCESSES * crossings / s2_items

        # Per-CU pipeline cycles of the two (sequential) stages.
        depth = spec.pipeline_depth * layout.n_trees
        c1 = s1_items / s1_cus * (ii1 + cls.S1_SERIAL_CYCLES) + depth
        c2 = s2_items / cus * ii2 + depth
        pipeline_cycles = c1 + c2

        # Per-SLR external-memory channel service cycles.  A single stage-1
        # CU per SLR reads query state/features as long prefetchable bursts;
        # multiple stage-1 CUs interleave their streams and destroy DRAM row
        # locality, degrading every access to a random one — the paper's
        # "replicating stage one caused ~70% external memory stalling"
        # observation, and the reason its split configuration exists.
        bytes_per_cycle = spec.ext_bandwidth_per_slr / freq_hz
        s1_stream_total = s1_items * cls.S1_STREAM_BYTES + stage_bytes
        if not replication.split_stage1 and replication.cus_per_slr > 1:
            channel = s1_items * cls.S1_RANDOM_ACCESSES * spec.ext_random_service
        else:
            channel = s1_stream_total / bytes_per_cycle
        channel += s2_items * rand_per_item * spec.ext_random_service
        channel /= n_slrs

        # Roofline of pipeline compute vs channel service, with a soft
        # overlap penalty, then the device's baseline stall.
        total = max(pipeline_cycles, channel) + 0.3 * min(pipeline_cycles, channel)
        total /= 1.0 - spec.base_stall
        stall_pct = 1.0 - pipeline_cycles / total if total > 0 else 0.0
        return PipelineResult(
            seconds=total / freq_hz,
            cycles_per_cu=total,
            stall_pct=stall_pct,
            ii=float(ii2),
            freq_mhz=freq_mhz,
            work_items=s1_items + s2_items,
        )
