"""II derivation and pipeline/stall timing (paper §2.2, §3.2.2, Table 3).

**Initiation interval.**  Vitis HLS pipelines a loop at the smallest II that
respects its loop-carried dependency chain.  For the traversal loops here the
chain is a sequence of loads and compares that produce the *next node index*;
:func:`derive_ii` sums their latencies.  With the Alveo constants this
reproduces the paper's measured IIs exactly:

* CSR: node-attribute load + query-feature load + ``children_arr_idx`` +
  ``children_arr`` (4 dependent external loads) + compare/address arithmetic
  -> ``4*72 + 4 = 292``.
* Independent: node-attribute load (external) + query feature from BRAM +
  compare/arith -> ``72 + 2 + 2 = 76`` (the paper's "moving features to BRAM
  reduced II from 147 to 76").
* Collaborative / hybrid stage 1: everything on-chip -> ``2 + 1 = 3``.

**Stall / contention.**  One work item enters the pipeline every II cycles;
total ideal cycles = ``items * II + depth``.  Each CU additionally presents
its SLR's memory channel with a load: random single-beat accesses (service
time ``ext_random_service`` cycles each) and burst streams (bandwidth
bytes).  When the per-SLR demand exceeds what the channel can serve, CUs
stall; a queueing term degrades throughput smoothly before saturation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.fpgasim.device import FPGASpec
from repro.fpgasim.replication import Replication

#: Latency (cycles) of each dependency-chain operation; external and BRAM
#: load latencies come from the device spec at derivation time.
OP_LATENCIES: Dict[str, int] = {
    "compare": 1,
    "arith": 1,
    "select": 1,
}


def derive_ii(chain: Sequence[str], spec: FPGASpec) -> int:
    """Sum the loop-carried dependency chain into an initiation interval.

    ``chain`` elements are op names: ``ext_load``, ``bram_load`` or any key
    of :data:`OP_LATENCIES`.
    """
    total = 0
    for op in chain:
        if op == "ext_load":
            total += spec.ext_load_latency
        elif op == "bram_load":
            total += spec.bram_load_latency
        elif op in OP_LATENCIES:
            total += OP_LATENCIES[op]
        else:
            raise ValueError(f"unknown dependency-chain op {op!r}")
    return max(1, total)


def check_replication(replication: Replication, spec: FPGASpec) -> None:
    """Refuse a replication that asks for more SLRs than the device has."""
    if replication.n_slrs > spec.n_slrs:
        raise ValueError(
            f"{replication.n_slrs} SLRs requested, device has {spec.n_slrs}"
        )


@dataclass(frozen=True)
class PipelineResult:
    """Timing of one pipelined loop under a replication config."""

    seconds: float
    cycles_per_cu: float
    stall_pct: float
    ii: float
    freq_mhz: float
    work_items: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "seconds": self.seconds,
            "cycles_per_cu": self.cycles_per_cu,
            "stall_pct": self.stall_pct,
            "ii": self.ii,
            "freq_mhz": self.freq_mhz,
            "work_items": self.work_items,
        }


class PipelineTimer:
    """Times pipelined loops with external-memory contention."""

    def __init__(self, spec: FPGASpec):
        self.spec = spec

    # ------------------------------------------------------------------
    def time(
        self,
        work_items: int,
        ii: float,
        replication: Replication = Replication(),
        random_accesses_per_item: float = 0.0,
        stream_bytes_per_item: float = 0.0,
        extra_stall_cycles_per_item: float = 0.0,
        launches: int = 1,
    ) -> PipelineResult:
        """Time one loop.

        Parameters
        ----------
        work_items:
            Total items across all CUs (split evenly).
        ii:
            Initiation interval of the loop, cycles.
        replication:
            CU/SLR configuration; CUs in an SLR share its memory channel.
        random_accesses_per_item:
            Single-beat external accesses per item (node fetches along an
            unpredictable path) — these contend at ``ext_random_service``.
        stream_bytes_per_item:
            Burst-stream external bytes per item (staging, feature streams)
            — these consume channel bandwidth.
        extra_stall_cycles_per_item:
            Additional serial cycles per item outside the pipelined II (e.g.
            the collaborative kernel's query-state round trip).
        launches:
            Pipeline fill/drain events (per tree or per subtree batch).
        """
        if work_items < 0:
            raise ValueError("work_items must be non-negative")
        spec = self.spec
        check_replication(replication, spec)
        freq_hz = (replication.freq_mhz or spec.clock_mhz) * 1e6
        cus = replication.total_cus
        items_per_cu = work_items / cus

        ideal = items_per_cu * ii + launches * spec.pipeline_depth

        # --- per-SLR memory contention ---------------------------------
        k = replication.cus_per_slr
        # Demand of one SLR, in channel-cycles per kernel-cycle:
        # random accesses each occupy the channel for ext_random_service
        # cycles; streams occupy bandwidth.
        rand_rate = (
            k * random_accesses_per_item / ii * spec.ext_random_service
            if ii > 0
            else 0.0
        )
        bytes_per_cycle = spec.ext_bandwidth_per_slr / freq_hz
        stream_rate = (
            k * stream_bytes_per_item / ii / bytes_per_cycle if ii > 0 else 0.0
        )
        rho = rand_rate + stream_rate
        # Saturated (rho >= 1): throughput capped by the channel, so time
        # scales with demand.  Below saturation a mild quadratic queueing
        # term models controller arbitration (calibrated so 12 CUs at
        # II 76 land near the paper's ~30% stall).
        contention = max(1.0, rho) + 0.45 * min(rho, 1.0) ** 2

        serial = items_per_cu * extra_stall_cycles_per_item
        cycles = ideal * contention + serial
        cycles /= 1.0 - spec.base_stall
        stall_pct = 1.0 - ideal / cycles if cycles > 0 else 0.0
        return PipelineResult(
            seconds=cycles / freq_hz,
            cycles_per_cu=cycles,
            stall_pct=stall_pct,
            ii=ii,
            freq_mhz=freq_hz / 1e6,
            work_items=work_items,
        )
