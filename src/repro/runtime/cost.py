"""Analytic cost model used by the autotuning planner.

The planner cannot afford to run every candidate plan through the full
simulators, so this module scores candidates from a *probe sample*: one
walk of the fastpath core over a few hundred queries
(:func:`repro.kernels.traversal_stats.level_counts`) counts the lanes on
each tree level, and every candidate layout's work-item counts (node
visits, subtree crossings, stage-1 levels) that both device models are
driven by are sums over that one vector
(:meth:`~repro.kernels.traversal_stats.WorkloadProfile.from_levels`),
scaled to the workload's query count.  The FPGA estimate
is the simulator's own pricing call (:meth:`repro.kernels.fpga_base.
FPGAKernel.timing`) on those counts, so it differs from a simulated run
only by the probe's sampling error.  The GPU estimate is a coarse
transaction count (:mod:`repro.layout.footprint` supplies the bytes that
determine L2 behaviour), mirroring how the paper reasons about the GPU
variants.
"""

from __future__ import annotations

from repro.core.config import TRACE_OFF
from repro.fpgasim.device import FPGASpec
from repro.gpusim.cache import capacity_miss_fraction
from repro.gpusim.device import GPUSpec
from repro.kernels import kernel_for
from repro.kernels.traversal_stats import WorkloadProfile
from repro.layout.footprint import csr_bytes, edge_table_bytes, hierarchical_bytes
from repro.runtime.plan import ExecutionPlan, PlanError

#: Global-memory transactions per work item, by GPU variant.  CSR touches
#: node attributes, the query feature, and both children arrays (4 loads);
#: the hierarchical variants load a (feature, value) pair per visit plus a
#: connection pair per crossing; cuML's 16-byte packed node is one load;
#: hybrid's stage-1 visits run from shared memory (a small residual covers
#: the staging traffic).
GPU_TXN_PER_VISIT = {"csr": 4.0, "independent": 2.0, "hybrid": 2.0, "cuml": 1.0}
GPU_TXN_PER_CROSSING = 2.0
GPU_HYBRID_STAGE1_TXN = 0.125

#: Per-visit transaction scaling on the precision axis.  A visit's loads
#: split roughly evenly between the node record and topology/query data;
#: narrowing the value channel shrinks only the node-record half (float16
#: halves it, int8 quarters it), while the ``packed`` record collapses the
#: whole visit into one coalesced 8-byte load.  The FPGA model is
#: codec-neutral: its initiation intervals are pipeline-depth bound, not
#: bandwidth bound, so narrowing words does not shorten the IIs.
CODEC_TXN_FACTOR = {
    "float32": 1.0,
    "float16": 0.875,
    "int8": 0.8125,
    "packed": 0.5,
}


def plan_footprint_bytes(plan: ExecutionPlan, layout, trees) -> int:
    """Device-resident bytes of the plan: its served edge table under
    ``trace="off"``, else its layout's arrays (GPU cache pressure)."""
    if plan.trace == TRACE_OFF:
        return edge_table_bytes(layout._fastpath_edges)
    if plan.variant == "csr":
        return csr_bytes(layout)
    if plan.variant == "cuml":
        from repro.baselines.cuml_fil import FILForest

        nodes = sum(int(t.feature.shape[0]) for t in trees)
        return nodes * FILForest.NODE_BYTES
    return hierarchical_bytes(layout)


def gpu_plan_cost(
    plan: ExecutionPlan,
    counts: WorkloadProfile,
    footprint_bytes: int,
    spec: GPUSpec,
) -> float:
    """Transaction-throughput estimate of one GPU plan, seconds."""
    if plan.variant == "collaborative":
        # Every query occupies every level of every subtree (paper §3.2.2).
        txns = 2.0 * counts.n_queries * counts.sum_levels
    elif plan.variant in ("csr", "cuml"):
        txns = GPU_TXN_PER_VISIT[plan.variant] * counts.visits
    elif plan.variant == "independent":
        txns = GPU_TXN_PER_VISIT["independent"] * counts.visits
        txns += GPU_TXN_PER_CROSSING * counts.crossings
    elif plan.variant == "hybrid":
        txns = GPU_TXN_PER_VISIT["hybrid"] * (counts.visits - counts.stage1)
        txns += GPU_TXN_PER_CROSSING * counts.crossings
        txns += GPU_HYBRID_STAGE1_TXN * counts.stage1
    else:
        raise PlanError(f"no GPU cost model for variant {plan.variant!r}")
    txns *= CODEC_TXN_FACTOR[plan.precision]
    p_miss = capacity_miss_fraction(footprint_bytes, spec.l2_bytes)
    seconds = txns * (1.0 + p_miss) / spec.mem_transactions_per_s
    return seconds + spec.launch_overhead_s


def fpga_plan_cost(
    plan: ExecutionPlan, counts: WorkloadProfile, layout, spec: FPGASpec
) -> float:
    """The simulator's pricing of ``counts`` under the plan, seconds."""
    kernel_cls = kernel_for("fpga", plan.variant)
    return kernel_cls.timing(counts, layout, plan.replication, spec).seconds


def estimate_plan_cost(
    plan: ExecutionPlan,
    counts: WorkloadProfile,
    layout,
    footprint_bytes: int,
    gpu_spec: GPUSpec,
    fpga_spec: FPGASpec,
) -> float:
    """Dispatch to the plan's platform cost model.

    ``counts`` are the workload's (a probe's, already scaled), and
    ``layout`` is the plan's own.
    """
    if plan.platform == "gpu":
        return gpu_plan_cost(plan, counts, footprint_bytes, gpu_spec)
    if plan.platform == "fpga":
        return fpga_plan_cost(plan, counts, layout, fpga_spec)
    raise PlanError(f"no cost model for platform {plan.platform!r}")
