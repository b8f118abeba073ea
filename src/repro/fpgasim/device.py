"""FPGA hardware specification (Xilinx Alveo U250).

Constants follow the paper's §2.2/§4: four super logic regions (SLRs), each
with its own DDR4 channel (4 x 16 GB at 2400 MHz -> ~19.2 GB/s per channel,
~77 GB/s aggregate, the figure quoted in §4.5), ~13.5 MB of combined
BRAM+URAM per SLR, and a 300 MHz kernel clock target.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FPGASpec:
    """Hardware constants consumed by the pipeline and contention models."""

    name: str
    n_slrs: int
    #: Combined BRAM + URAM usable per SLR, bytes (paper: 13.5 MB).
    onchip_bytes_per_slr: int
    #: Streaming (burst) bandwidth of one SLR's DDR channel, bytes/s.
    ext_bandwidth_per_slr: float
    #: Kernel clock target, MHz.
    clock_mhz: float
    #: Latency of a dependent external-memory load, cycles at clock_mhz.
    #: Chosen so the paper's IIs come out exactly (see pipeline.derive_ii).
    ext_load_latency: int
    #: Latency of an on-chip (BRAM/URAM) load, cycles.
    bram_load_latency: int
    #: Average service time of one *random* external access at the memory
    #: controller, cycles (row-miss mix on DDR4); drives CU contention.
    ext_random_service: float
    #: Pipeline depth (drain/fill cycles per loop execution).
    pipeline_depth: int
    #: Fraction of cycles lost to DRAM refresh/arbitration even with a
    #: single CU (paper's Table 3 reports ~11% baseline stall).
    base_stall: float

    def __post_init__(self):
        if self.n_slrs <= 0:
            raise ValueError("n_slrs must be positive")
        if not 0.0 <= self.base_stall < 1.0:
            raise ValueError("base_stall must be in [0, 1)")

    @property
    def total_ext_bandwidth(self) -> float:
        return self.n_slrs * self.ext_bandwidth_per_slr


#: The paper's evaluation card.  ``ext_load_latency=72`` reproduces the
#: paper's measured IIs: CSR chain = 4 dependent external loads + 4 cycles of
#: compare/address arithmetic = 292; independent = 1 external load + BRAM
#: feature + compare = 76; on-chip chain = 3.
ALVEO_U250 = FPGASpec(
    name="Alveo U250",
    n_slrs=4,
    onchip_bytes_per_slr=int(13.5 * 1024 * 1024),
    ext_bandwidth_per_slr=19.2e9,
    clock_mhz=300.0,
    ext_load_latency=72,
    bram_load_latency=2,
    ext_random_service=4.8,
    pipeline_depth=120,
    base_stall=0.108,
)
