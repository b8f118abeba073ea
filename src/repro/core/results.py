"""Result containers shared by the classifier API and experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.core.config import RunConfig
from repro.utils.tables import format_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.reliability.guard import ReliabilityReport


@dataclass
class RunResult:
    """Outcome of one simulated classification run."""

    config: RunConfig
    predictions: np.ndarray
    #: Simulated device seconds (the paper's reported quantity).
    seconds: float
    #: Flat counter/timing details (kernel-specific keys).
    details: Dict[str, float] = field(default_factory=dict)
    #: Accuracy against ground truth, when labels were supplied.
    accuracy: Optional[float] = None
    #: Guard accounting (retries, breaker trips, fallback depth) when the
    #: run went through :class:`~repro.reliability.guard.ResilientClassifier`.
    reliability: Optional["ReliabilityReport"] = None

    @property
    def label(self) -> str:
        return self.config.label

    def speedup_over(self, baseline: "RunResult") -> float:
        """Baseline seconds / own seconds (the paper's speedup metric)."""
        if self.seconds <= 0:
            raise ValueError("non-positive run time")
        return baseline.seconds / self.seconds


@dataclass
class ComparisonTable:
    """A set of runs over the same queries, printable like a paper table."""

    rows: List[RunResult] = field(default_factory=list)
    baseline_label: Optional[str] = None

    def add(self, result: RunResult) -> None:
        self.rows.append(result)

    def baseline(self) -> RunResult:
        """The row used as the speedup denominator (default: first)."""
        if not self.rows:
            raise ValueError("empty comparison table")
        if self.baseline_label is None:
            return self.rows[0]
        for r in self.rows:
            if r.label == self.baseline_label:
                return r
        raise KeyError(f"no run labelled {self.baseline_label!r}")

    def render(self, title: Optional[str] = None) -> str:
        """Format as an aligned text table with speedups vs the baseline."""
        base = self.baseline()
        body = []
        for r in self.rows:
            body.append(
                [
                    r.label,
                    r.seconds,
                    r.speedup_over(base),
                    "-" if r.accuracy is None else f"{r.accuracy:.4f}",
                ]
            )
        return format_table(
            ["variant", "seconds", "vs baseline", "accuracy"],
            body,
            title=title,
            float_digits=4,
        )
