"""RuntimeSession: execute ExecutionPlans.

The session owns the trees, the backend set, and the layout cache; it is
the one place where a plan meets data.  Each :meth:`RuntimeSession.run`
is one backend launch over the whole query matrix, checked against the
CPU oracle: a trace-off launch reports the host leaf of every (row, tree)
lane, and :func:`~repro.baselines.cpu_reference.certify_votes` checks each
against its leaf box; a trace-model launch is checked against a full walk
of the host trees.  Either check that fails raises
:class:`~repro.baselines.cpu_reference.CertificateError`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.cpu_reference import (
    CertificateError,
    LeafBoxes,
    certify_votes,
    leaf_boxes,
    reference_predict,
)
from repro.core.config import TRACE_OFF, RunConfig
from repro.core.results import RunResult
from repro.forest.metrics import accuracy_score
from repro.forest.tree import TreeStack, max_split_feature, stack_trees
from repro.fpgasim.device import ALVEO_U250, FPGASpec
from repro.gpusim.device import GPUSpec, TITAN_XP
from repro.layout.codec import quantize_trees
from repro.obs.protocol import ensure_observer
from repro.runtime.backends import Backend, backend_for, default_backends
from repro.runtime.plan import CPU_PLATFORM, ExecutionPlan, PlanError, check_pair


class ExecutionError(RuntimeError):
    """A backend raised while executing a plan; says exactly where.

    Carries the failing :class:`ExecutionPlan`, so a caller (the
    reliability guard, a serving layer, a log line) knows *which*
    platform/variant failed without parsing the message.  The original
    backend exception is chained as ``__cause__`` — dispatch on
    ``type(err.__cause__)`` to distinguish a retryable
    :class:`~repro.reliability.faults.TransientKernelError` from
    persistent corruption.
    """

    def __init__(self, plan: ExecutionPlan, cause: BaseException):
        super().__init__(
            f"plan {plan.label} failed: {type(cause).__name__}: {cause}"
        )
        self.plan = plan
        self.platform = plan.platform
        self.variant = plan.variant
        self.__cause__ = cause


class RuntimeSession:
    """Executes plans for one fixed set of trees.

    Parameters
    ----------
    trees:
        The fitted forest's :class:`~repro.forest.tree.DecisionTree` list.
    gpu, fpga:
        Device specs handed to the backend adapters.
    verify_against_reference:
        Check every prediction vector against the CPU oracle (trace-off
        plans by certifying every lane's leaf, trace-model plans by a
        full host walk).
    observer:
        Default observability sink for runs (a per-run ``observer=``
        overrides it).
    layout_cache:
        Optional externally-owned cache dict; the classifier front door
        shares its historical ``_layout_cache`` this way so tests and
        benchmarks that seed or inspect it keep working.
    """

    def __init__(
        self,
        trees: Sequence,
        gpu: GPUSpec = TITAN_XP,
        fpga: FPGASpec = ALVEO_U250,
        verify_against_reference: bool = True,
        observer=None,
        layout_cache: Optional[Dict[Tuple, object]] = None,
    ):
        self.trees = list(trees)
        if not self.trees:
            raise PlanError("RuntimeSession needs at least one tree")
        #: Largest split feature over the trees; queries must be wider.
        self.max_feature = max_split_feature(self.trees)
        self.gpu = gpu
        self.fpga = fpga
        self.verify_against_reference = verify_against_reference
        self.observer = observer
        self.backends: Dict[str, Backend] = default_backends(gpu, fpga)
        self._layout_cache: Dict[Tuple, object] = (
            layout_cache if layout_cache is not None else {}
        )
        self._oracle_stacks: Dict[str, TreeStack] = {}
        self._oracle_boxes: Dict[str, LeafBoxes] = {}
        #: The last ``(plan, backend, layout key)`` :meth:`layout_for`
        #: resolved.  A served stream runs one plan object again and again;
        #: an identity test spares it the key's rebuild.
        self._last_key: Optional[Tuple[ExecutionPlan, Backend, Tuple]] = None

    @classmethod
    def from_forest(cls, forest, **kwargs) -> "RuntimeSession":
        """Adopt a fitted :class:`~repro.forest.random_forest.RandomForestClassifier`."""
        forest._check_fitted()
        return cls(forest.trees_, **kwargs)

    # ------------------------------------------------------------------
    # Layouts
    # ------------------------------------------------------------------
    def layout_for(self, plan: ExecutionPlan):
        """Build (or fetch from the shared cache) the layout ``plan`` needs."""
        backend = backend_for(self.backends, plan)
        last = self._last_key
        if last is None or last[0] is not plan or last[1] is not backend:
            last = self._last_key = (plan, backend, backend.layout_key(plan))
        key = last[2]
        if key not in self._layout_cache:
            self._layout_cache[key] = backend.build_layout(self.trees, plan)
        return self._layout_cache[key]

    def oracle_trees(self, precision: str) -> TreeStack:
        """Host trees the CPU oracle checks a ``precision`` plan against.

        A quantized plan moved its thresholds at build time; the same
        codec round trip applied to the host trees gives the oracle,
        independent of the layout it checks.  Host trees never change
        during a session, so each precision's trees are stacked once.
        """
        if precision not in self._oracle_stacks:
            trees = self.trees
            if precision != "float32":
                trees = quantize_trees(trees, precision)
            self._oracle_stacks[precision] = stack_trees(trees)
        return self._oracle_stacks[precision]

    def oracle_boxes(self, precision: str) -> LeafBoxes:
        """Leaf boxes of :meth:`oracle_trees`, built once per precision."""
        if precision not in self._oracle_boxes:
            self._oracle_boxes[precision] = leaf_boxes(self.oracle_trees(precision))
        return self._oracle_boxes[precision]

    def invalidate_layouts(self) -> None:
        """Drop every cached layout (host trees stay authoritative)."""
        self._layout_cache.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        plan: ExecutionPlan,
        X: np.ndarray,
        y_true: Optional[np.ndarray] = None,
        include_transfer: bool = False,
        launch_gate: Optional[Callable[[], float]] = None,
        observer=None,
        config: Optional[RunConfig] = None,
    ) -> RunResult:
        """Execute ``plan`` over ``X`` as one launch; return its :class:`RunResult`.

        ``config`` sets the result's attached :class:`RunConfig`; when
        omitted it is recovered from the plan (accelerator plans only —
        the CPU rung has no config equivalent, so the caller must pass
        one).  All other keyword arguments mean what they mean for
        :meth:`HierarchicalForestClassifier.classify
        <repro.core.classifier.HierarchicalForestClassifier.classify>`.
        """
        if not isinstance(plan, ExecutionPlan):
            raise PlanError(
                f"run() takes an ExecutionPlan, got {type(plan).__name__} "
                "(compile one with repro.runtime.compile_plan)"
            )
        check_pair(plan.platform, plan.variant)
        backend = backend_for(self.backends, plan)
        if observer is None:
            observer = self.observer
        if observer is not None:
            observer = ensure_observer(observer)
        if config is None:
            config = plan.to_run_config()  # raises PlanError for cpu plans

        layout = self.layout_for(plan)
        verify = self.verify_against_reference and plan.platform != CPU_PLATFORM
        leaves = None
        if verify and plan.trace == TRACE_OFF:
            leaves = np.empty(X.shape[0] * len(self.trees), dtype=np.int32)
        try:
            out = backend.run(
                plan,
                layout,
                X,
                launch_gate=launch_gate,
                observer=observer,
                leaves=leaves,
            )
        except Exception as exc:
            raise ExecutionError(plan, exc) from exc
        predictions, seconds, details = out.predictions, out.seconds, out.details

        if verify:
            if leaves is None:
                ref = reference_predict(self.oracle_trees(plan.precision), X)
            else:
                boxes = self.oracle_boxes(plan.precision)
                ref = certify_votes(boxes, X, leaves).argmax(axis=1)
            if not np.array_equal(predictions, ref):
                raise CertificateError(
                    f"simulated kernel {plan.label} disagrees with the "
                    "CPU reference — layout or kernel bug"
                )

        if include_transfer:
            from repro.core.transfer import TransferModel

            tm = TransferModel()
            roundtrip = tm.query_roundtrip_seconds(X.shape[0], X.shape[1])
            details["transfer_query_roundtrip_s"] = roundtrip
            details["transfer_layout_upload_s"] = tm.upload_layout_seconds(layout)
            seconds = seconds + roundtrip
            if observer is not None:
                observer.on_transfer(
                    "query-roundtrip",
                    roundtrip,
                    nbytes=X.shape[0] * X.shape[1] * 4,
                )

        accuracy = None
        if y_true is not None:
            accuracy = accuracy_score(y_true, predictions)
        return RunResult(
            config=config,
            predictions=predictions,
            seconds=seconds,
            details=details,
            accuracy=accuracy,
        )
