"""FPGA independent kernel (paper Table 3 "Independent", §3.2.2).

Query features are staged into BRAM (the optimisation the paper credits with
reducing the II from 147 to 76 cycles); the remaining loop-carried external
load is the node-attribute fetch, so ``II = 72 + 2 + 2 = 76``.  Work items
are node visits; subtree crossings add two extra random external accesses
(connection arrays).  This is the paper's most *scalable* variant under CU
replication because its only external traffic is one small random access per
item.
"""

from __future__ import annotations

from repro.fpgasim.pipeline import PipelineTimer, derive_ii
from repro.kernels.fpga_base import FPGAKernel


class FPGAIndependentKernel(FPGAKernel):
    """Hierarchical layout, per-query sequential traversal, pipelined."""

    name = "fpga-independent"
    #: node attributes (ext) + query feature (BRAM) + compare + arith = 76.
    II_CHAIN = ("ext_load", "bram_load", "compare", "arith")
    #: Extra random accesses per subtree crossing (connection offset + id).
    CROSS_ACCESSES = 2.0

    @classmethod
    def _timing(cls, counts, layout, replication, spec):
        rand_per_item = 1.0
        if counts.visits:
            rand_per_item += cls.CROSS_ACCESSES * counts.crossings / counts.visits
        return PipelineTimer(spec).time(
            work_items=counts.visits,
            ii=derive_ii(cls.II_CHAIN, spec),
            replication=replication,
            random_accesses_per_item=rand_per_item,
            launches=layout.n_trees,
        )
