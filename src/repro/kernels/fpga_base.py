"""Common infrastructure for the simulated FPGA kernels.

Each FPGA kernel classifies the queries functionally and produces a
:class:`FPGAKernelResult` holding the pipeline timing under a given
:class:`~repro.fpgasim.replication.Replication` configuration.  Every
variant shares one walk, :func:`~repro.kernels.traversal_stats.
profile_workload`: the fastpath core classifies the queries over the
layout's current buffers and counts the work items as it goes.

The timing is one pricing call per kernel class,
:meth:`FPGAKernel.timing`, from work counts and layout constants alone:
a run prices the counts of the walk it just did, and the planner's cost
model (:func:`repro.runtime.cost.fpga_plan_cost`) prices a probe
sample's counts scaled to the workload, so both read one formula.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.fpgasim.device import ALVEO_U250, FPGASpec
from repro.fpgasim.pipeline import PipelineResult, check_replication
from repro.fpgasim.replication import Replication
from repro.kernels.traversal_stats import WorkloadProfile, profile_workload
from repro.layout.hierarchical import HierarchicalForest
from repro.utils.validation import check_array_2d


@dataclass
class FPGAKernelResult:
    """Outcome of one simulated FPGA kernel run."""

    predictions: np.ndarray
    pipeline: PipelineResult
    #: Extra simulated seconds from an injected hang (reliability testing).
    penalty_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.pipeline.seconds + self.penalty_s

    @property
    def stall_pct(self) -> float:
        return self.pipeline.stall_pct

    def summary(self) -> Dict[str, float]:
        return self.pipeline.as_dict()


class FPGAKernel(ABC):
    """Base class for the FPGA code variants."""

    name: str = "fpga-base"
    #: The layout family the kernel walks.
    LAYOUT: type = HierarchicalForest

    def __init__(
        self,
        spec: FPGASpec = ALVEO_U250,
        launch_gate: Optional[Callable[[], float]] = None,
        observer=None,
    ):
        self.spec = spec
        #: Called at launch; may raise (failed launch) or return simulated
        #: hang seconds.  Wired up by the reliability guard / fault plans.
        self.launch_gate = launch_gate
        #: Observability sink (duck-typed, e.g. repro.obs.ObsSession); its
        #: ``on_fpga_kernel(kernel, result, replication)`` fires per run.
        self.observer = observer

    def run(
        self,
        layout,
        X: np.ndarray,
        replication: Replication = Replication(),
    ) -> FPGAKernelResult:
        """Classify ``X`` and time the pipeline under ``replication``."""
        X = check_array_2d(X, "X")
        hang_s = 0.0
        if self.launch_gate is not None:
            hang_s = float(self.launch_gate() or 0.0)
        if not isinstance(layout, self.LAYOUT):
            raise TypeError(
                f"{type(self).__name__} expects a {self.LAYOUT.__name__}"
            )
        predictions, counts = profile_workload(layout, X)
        pipeline = self.timing(counts, layout, replication, self.spec)
        result = FPGAKernelResult(
            predictions=predictions, pipeline=pipeline, penalty_s=hang_s
        )
        if self.observer is not None:
            self.observer.on_fpga_kernel(self, result, replication)
        return result

    @classmethod
    def timing(
        cls,
        counts: WorkloadProfile,
        layout,
        replication: Replication,
        spec: FPGASpec,
    ) -> PipelineResult:
        """Price ``counts`` on ``spec`` under ``replication``.

        ``layout`` supplies only constants (tree, subtree and slot
        counts), so any query set's counts price against it.
        """
        check_replication(replication, spec)
        return cls._timing(counts, layout, replication, spec)

    @classmethod
    @abstractmethod
    def _timing(
        cls,
        counts: WorkloadProfile,
        layout,
        replication: Replication,
        spec: FPGASpec,
    ) -> PipelineResult:
        """The variant's pipeline algebra (paper Table 3)."""
