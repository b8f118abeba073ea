"""Cheap analytic cost model used by the autotuning planner.

The planner cannot afford to run every candidate plan through the full
simulators, so this module scores candidates from a *probe sample*: one
vectorised traversal pass (:func:`repro.kernels.traversal_stats.
traverse_tree_stats`) over a few hundred queries yields the work-item
counts (node visits, subtree crossings, stage-1 levels) that both device
models are driven by, and :mod:`repro.layout.footprint` supplies the
bytes that determine GPU L2 behaviour.  The estimates are deliberately
coarse — their job is *ranking* candidates so only the top-k get a real
probe run, mirroring how the paper's own evaluation reasons about the
variants (transactions per visit on GPU, initiation intervals on FPGA).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import TRACE_OFF
from repro.fpgasim.device import FPGASpec
from repro.fpgasim.pipeline import derive_ii
from repro.gpusim.cache import capacity_miss_fraction
from repro.gpusim.device import GPUSpec
from repro.kernels import kernel_for
from repro.kernels.traversal_stats import subtree_level_totals, traverse_tree_stats
from repro.layout.footprint import csr_bytes, hierarchical_bytes
from repro.layout.hierarchical import HierarchicalForest
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


@dataclass(frozen=True)
class WorkloadProfile:
    """Work-item counts from one probe traversal of one layout."""

    probe_queries: int
    #: Total node visits across all trees (layout-independent).
    visits: int
    #: Subtree-to-subtree crossings (depends on SD/RSD).
    crossings: int
    #: Levels walked inside root subtrees (hybrid stage-1 items).
    stage1: int
    #: Sum of subtree levels over the forest (collaborative occupancy,
    #: per query; *not* scaled by the probe count).
    sum_levels: int


def profile_workload(layout: HierarchicalForest, X: np.ndarray) -> WorkloadProfile:
    """One probe pass: traverse every tree for the sample queries."""
    visits = 0
    crossings = 0
    stage1 = 0
    sum_levels = 0
    for t in range(layout.n_trees):
        stats = traverse_tree_stats(layout, X, t)
        visits += stats.total_visits
        crossings += stats.total_crossings
        stage1 += stats.total_stage1
        sum_levels += subtree_level_totals(layout, t)
    return WorkloadProfile(
        probe_queries=int(X.shape[0]),
        visits=visits,
        crossings=crossings,
        stage1=stage1,
        sum_levels=sum_levels,
    )


def plan_footprint_bytes(plan: ExecutionPlan, layout, trees) -> int:
    """Device-resident bytes of the plan's layout (GPU cache pressure)."""
    if plan.variant == "csr":
        return csr_bytes(layout)
    if plan.variant == "cuml":
        from repro.baselines.cuml_fil import FILForest

        nodes = sum(int(t.feature.shape[0]) for t in trees)
        return nodes * FILForest.NODE_BYTES
    return hierarchical_bytes(layout)


def gpu_plan_cost(
    plan: ExecutionPlan,
    profile: WorkloadProfile,
    n_queries: int,
    footprint_bytes: int,
    spec: GPUSpec,
) -> float:
    """Transaction-throughput estimate of one GPU plan, seconds."""
    scale = n_queries / max(1, profile.probe_queries)
    visits = profile.visits * scale
    crossings = profile.crossings * scale
    stage1 = profile.stage1 * scale
    if plan.variant == "collaborative":
        # Every query occupies every level of every subtree (paper §3.2.2).
        txns = 2.0 * n_queries * profile.sum_levels
    elif plan.variant in ("csr", "cuml"):
        txns = GPU_TXN_PER_VISIT[plan.variant] * visits
    elif plan.variant == "independent":
        txns = GPU_TXN_PER_VISIT["independent"] * visits
        txns += GPU_TXN_PER_CROSSING * crossings
    elif plan.variant == "hybrid":
        txns = GPU_TXN_PER_VISIT["hybrid"] * (visits - stage1)
        txns += GPU_TXN_PER_CROSSING * crossings
        txns += GPU_HYBRID_STAGE1_TXN * stage1
    else:
        raise PlanError(f"no GPU cost model for variant {plan.variant!r}")
    txns *= CODEC_TXN_FACTOR[plan.precision]
    p_miss = capacity_miss_fraction(footprint_bytes, spec.l2_bytes)
    seconds = txns * (1.0 + p_miss) / spec.mem_transactions_per_s
    return seconds + spec.launch_overhead_s


def fpga_plan_cost(
    plan: ExecutionPlan,
    profile: WorkloadProfile,
    n_queries: int,
    spec: FPGASpec,
) -> float:
    """Initiation-interval estimate of one FPGA plan, seconds.

    IIs are derived from the registered kernel classes' dependency chains
    so the estimate tracks the device constants (292 / 76 / 3 on the
    Alveo defaults).
    """
    scale = n_queries / max(1, profile.probe_queries)
    visits = profile.visits * scale
    stage1 = profile.stage1 * scale
    repl = plan.replication
    cus = repl.total_cus
    kernel_cls = kernel_for("fpga", plan.variant)
    if plan.variant == "hybrid":
        ii1 = derive_ii(kernel_cls.II_CHAIN_S1, spec)
        ii2 = derive_ii(kernel_cls.II_CHAIN_S2, spec)
        s1_cus = repl.n_slrs if repl.split_stage1 else cus
        cycles = stage1 * (ii1 + kernel_cls.S1_SERIAL_CYCLES) / s1_cus
        cycles += (visits - stage1) * ii2 / cus
    elif plan.variant == "collaborative":
        ii = derive_ii(kernel_cls.II_CHAIN, spec)
        cycles = n_queries * profile.sum_levels * ii / cus
    elif plan.variant in ("csr", "independent"):
        ii = derive_ii(kernel_cls.II_CHAIN, spec)
        cycles = visits * ii / cus
    else:
        raise PlanError(f"no FPGA cost model for variant {plan.variant!r}")
    freq_hz = (repl.freq_mhz or spec.clock_mhz) * 1e6
    return cycles / (1.0 - spec.base_stall) / freq_hz


def fastpath_plan_cost(profile: WorkloadProfile, n_queries: int) -> float:
    """Latency estimate of one trace-off (fastpath) plan, seconds.

    The fast path charges per active lane-level; the probe's total node
    visits *are* the lane-levels a traversal of the probe sample executes
    (one visit = one lane advanced one level), so scaling by the query
    ratio gives the expected work directly.  Same constants as
    :func:`repro.fastpath.fastpath_seconds`, so the estimate and the
    simulated launch agree by construction.  Every codec compares the
    decoded float32 threshold channel, so no plan field changes the
    estimate.
    """
    from repro.fastpath import fastpath_seconds

    scale = n_queries / max(1, profile.probe_queries)
    lane_levels = profile.visits * scale
    return fastpath_seconds(lane_levels)


def estimate_plan_cost(
    plan: ExecutionPlan,
    profile: WorkloadProfile,
    n_queries: int,
    footprint_bytes: int,
    gpu_spec: GPUSpec,
    fpga_spec: FPGASpec,
) -> float:
    """Dispatch to the plan's execution mode / platform cost model."""
    if plan.trace == TRACE_OFF:
        return fastpath_plan_cost(profile, n_queries)
    if plan.platform == "gpu":
        return gpu_plan_cost(plan, profile, n_queries, footprint_bytes, gpu_spec)
    if plan.platform == "fpga":
        return fpga_plan_cost(plan, profile, n_queries, fpga_spec)
    raise PlanError(f"no cost model for platform {plan.platform!r}")
