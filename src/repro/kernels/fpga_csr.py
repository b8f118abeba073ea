"""FPGA CSR baseline kernel (paper Table 3, "Baseline (CSR)").

The traversal loop's carried dependency chain runs through four external
loads (node attributes, the query feature, ``children_arr_idx`` and
``children_arr``) before the next node index is known, giving the paper's
II of 292 cycles.  Work items are node visits; every item presents the SLR
channel with four random external accesses.
"""

from __future__ import annotations

from repro.fpgasim.pipeline import PipelineTimer, derive_ii
from repro.kernels.fpga_base import FPGAKernel
from repro.layout.csr import CSRForest


class FPGACSRKernel(FPGAKernel):
    """Baseline CSR pipeline."""

    name = "fpga-csr"
    #: Loop-carried dependency chain (see module docstring): 4*72 + 4 = 292.
    II_CHAIN = (
        "ext_load",  # node attributes
        "ext_load",  # query feature
        "ext_load",  # children_arr_idx
        "ext_load",  # children_arr
        "compare",
        "arith",
        "select",
        "arith",
    )
    RANDOM_ACCESSES_PER_ITEM = 4.0
    LAYOUT = CSRForest

    @classmethod
    def _timing(cls, counts, layout, replication, spec):
        return PipelineTimer(spec).time(
            work_items=counts.visits,
            ii=derive_ii(cls.II_CHAIN, spec),
            replication=replication,
            random_accesses_per_item=cls.RANDOM_ACCESSES_PER_ITEM,
            launches=layout.n_trees,
        )
