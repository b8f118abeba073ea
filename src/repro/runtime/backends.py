"""Backend protocol: one adapter per execution target.

A :class:`Backend` owns everything device-specific — the hardware spec,
layout construction for a plan, kernel instantiation from the shared
registry (:data:`repro.kernels.KERNEL_REGISTRY`), and observer wiring —
so :class:`~repro.runtime.session.RuntimeSession` and the planner stay
device-agnostic.  Adding an execution target means adding one adapter
here; adding a kernel variant means one registry entry.

:class:`CPUBackend` serves the reliability ladder's bottom rung: the
authoritative host trees through the reference oracle.  It has no device
model, so its "seconds" come from the same crude host-traversal constant
the guard has always used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.cpu_reference import reference_predict
from repro.core.config import TRACE_OFF
from repro.fastpath import fastpath_predict, fastpath_seconds
from repro.forest.tree import TreeStack, stack_trees
from repro.fpgasim.device import ALVEO_U250, FPGASpec
from repro.gpusim.device import GPUSpec, TITAN_XP
from repro.kernels import kernel_for
from repro.layout.csr import CSRForest
from repro.layout.hierarchical import HierarchicalForest
from repro.obs.protocol import ensure_observer
from repro.runtime.plan import CPU_PLATFORM, ExecutionPlan, PlanError


@dataclass
class BackendOutput:
    """What one backend execution produced (one launch)."""

    predictions: np.ndarray
    seconds: float
    details: Dict[str, object]


class Backend:
    """Protocol: adapt one execution target to the runtime session."""

    #: Platform string this backend serves ("gpu" / "fpga" / "cpu").
    platform: str = ""

    def layout_key(self, plan: ExecutionPlan) -> Tuple:
        """Cache key of the layout ``plan`` needs (shared across plans)."""
        raise NotImplementedError

    def build_layout(self, trees: Sequence, plan: ExecutionPlan):
        """Construct the device-resident representation for ``plan``."""
        raise NotImplementedError

    def run(
        self,
        plan: ExecutionPlan,
        layout,
        X: np.ndarray,
        launch_gate: Optional[Callable[[], float]] = None,
        observer=None,
        leaves: Optional[np.ndarray] = None,
    ) -> BackendOutput:
        """Execute ``plan`` over ``X`` against a prebuilt ``layout``.

        ``leaves`` (trace-off plans only) receives the host leaf each
        ``(row, tree)`` lane reached, for the session's certificate.
        """
        raise NotImplementedError


def _accelerator_layout_key(plan: ExecutionPlan) -> Tuple:
    # Key scheme shared with the classifier's historical layout cache
    # (tests and benchmarks inject entries under these exact keys).
    # Quantized plans append the codec so a float32 layout is never
    # served to a quantized plan or vice versa; float32 keys stay the
    # historical tuples.
    if plan.variant == "csr":
        key: Tuple = ("csr",)
    elif plan.variant == "cuml":
        key = ("fil",)
    else:
        key = ("hier", plan.layout.sd, plan.layout.rsd)
    if plan.precision != "float32":
        key = key + (plan.precision,)
    return key


def _build_accelerator_layout(trees: Sequence, plan: ExecutionPlan):
    if plan.variant == "csr":
        return CSRForest.from_trees(list(trees), codec=plan.precision)
    if plan.variant == "cuml":
        from repro.baselines.cuml_fil import FILForest

        # ExecutionPlan rejects cuml+quantized, so no codec to thread.
        return FILForest.from_trees(list(trees))
    return HierarchicalForest.from_trees(
        list(trees), plan.layout, codec=plan.precision
    )


def _run_fastpath(plan, layout, X, launch_gate, observer, leaves) -> BackendOutput:
    """Shared trace-off execution for the accelerator backends.

    Mirrors the trace kernels' launch contract — the gate fires first (a
    fault plan may raise or charge hang seconds), then the optional
    pre-launch integrity re-verification — but the traversal itself is the
    vectorized :mod:`repro.fastpath` engine, and the reported ``seconds``
    come from its deterministic latency model (plus any gate hang), so
    chaos-soak replays stay byte-identical.  The engine reads only the
    layout's lowered edge table, so that table is what the pre-launch
    check hashes.
    """
    hang_s = 0.0
    if launch_gate is not None:
        hang_s = float(launch_gate() or 0.0)
    if plan.verify_integrity:
        from repro.reliability.integrity import served_image

        table, integrity = served_image(layout, table=True)
        integrity.check(table)
    preds, stats = fastpath_predict(layout, X, leaves=leaves)
    seconds = fastpath_seconds(stats.lane_levels) + hang_s
    if observer is not None:
        ensure_observer(observer).on_fastpath(plan, stats, seconds)
    return BackendOutput(
        predictions=preds,
        seconds=seconds,
        details={
            "mode": "fastpath",
            "family": stats.family,
            "levels_executed": stats.levels,
            "lane_levels": stats.lane_levels,
            "frontier_occupancy": stats.frontier_occupancy,
        },
    )


class GPUBackend(Backend):
    """Simulated-GPU target (:mod:`repro.gpusim`)."""

    platform = "gpu"

    def __init__(self, spec: GPUSpec = TITAN_XP):
        self.spec = spec

    def layout_key(self, plan: ExecutionPlan) -> Tuple:
        return _accelerator_layout_key(plan)

    def build_layout(self, trees: Sequence, plan: ExecutionPlan):
        return _build_accelerator_layout(trees, plan)

    def run(
        self, plan, layout, X, launch_gate=None, observer=None, leaves=None
    ) -> BackendOutput:
        if plan.trace == TRACE_OFF:
            return _run_fastpath(plan, layout, X, launch_gate, observer, leaves)
        kernel = kernel_for("gpu", plan.variant)(
            spec=self.spec,
            launch_gate=launch_gate,
            verify_layout=plan.verify_integrity,
            observer=observer,
        )
        out = kernel.run(layout, X)
        return BackendOutput(out.predictions, out.seconds, out.summary())


class FPGABackend(Backend):
    """Simulated-FPGA target (:mod:`repro.fpgasim`)."""

    platform = "fpga"

    def __init__(self, spec: FPGASpec = ALVEO_U250):
        self.spec = spec

    def layout_key(self, plan: ExecutionPlan) -> Tuple:
        return _accelerator_layout_key(plan)

    def build_layout(self, trees: Sequence, plan: ExecutionPlan):
        return _build_accelerator_layout(trees, plan)

    def run(
        self, plan, layout, X, launch_gate=None, observer=None, leaves=None
    ) -> BackendOutput:
        if plan.trace == TRACE_OFF:
            # Replication is an FPGA device-model concern; the fast path is
            # host execution of the same layout, so it is ignored here.
            return _run_fastpath(plan, layout, X, launch_gate, observer, leaves)
        kernel = kernel_for("fpga", plan.variant)(
            spec=self.spec,
            launch_gate=launch_gate,
            verify_layout=plan.verify_integrity,
            observer=observer,
        )
        out = kernel.run(layout, X, replication=plan.replication)
        return BackendOutput(out.predictions, out.seconds, out.summary())


class CPUBackend(Backend):
    """Host-trees reference oracle — the ladder's always-answers rung."""

    platform = CPU_PLATFORM

    #: Crude host-traversal cost: simulated seconds per (query, tree-level)
    #: step.  Shared with the reliability guard's degraded-voting accounting
    #: so every rung's ``seconds`` stay deterministic and comparable.
    SECONDS_PER_NODE = 5e-9

    def layout_key(self, plan: ExecutionPlan) -> Tuple:
        return ("host-trees",)

    def build_layout(self, trees: Sequence, plan: ExecutionPlan) -> TreeStack:
        # Stacked once per layout cache, not once per call.
        return stack_trees(trees)

    @classmethod
    def seconds_for(cls, n_queries: int, stack: TreeStack) -> float:
        return n_queries * stack.levels * cls.SECONDS_PER_NODE

    def run(
        self, plan, layout, X, launch_gate=None, observer=None, leaves=None
    ) -> BackendOutput:
        # launch_gate models *device* launch faults and does not apply to
        # the host rung; the authoritative trees always answer.
        preds = reference_predict(layout, X)
        return BackendOutput(
            predictions=preds,
            seconds=self.seconds_for(X.shape[0], layout),
            details={"mode": "cpu-fallback"},
        )


def default_backends(
    gpu: GPUSpec = TITAN_XP, fpga: FPGASpec = ALVEO_U250
) -> Dict[str, Backend]:
    """The standard backend set keyed by platform string."""
    return {"gpu": GPUBackend(gpu), "fpga": FPGABackend(fpga), "cpu": CPUBackend()}


def backend_for(backends: Dict[str, Backend], plan: ExecutionPlan) -> Backend:
    try:
        return backends[plan.platform]
    except KeyError:
        raise PlanError(
            f"no backend for platform {plan.platform!r}; "
            f"available: {sorted(backends)}"
        ) from None
