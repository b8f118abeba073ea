"""Cost-model drift monitor: predicted vs observed seconds, per plan.

The planner's analytic cost model (:mod:`repro.runtime.cost`) steers
``variant="auto"`` and the front door's micro-batch sizing.  Nothing in
the original runtime checked that the model still predicts reality — a
drifted model silently mis-sizes batches and mis-ranks candidates.

:class:`CostDriftMonitor` closes the loop: every executed plan records
``(predicted_s, observed_s)``; the monitor maintains per-(platform,
variant) calibration-error gauges in the metrics registry (mean absolute
log2 error — symmetric in over/under-prediction) and, once a key's mean
error crosses ``threshold_log2`` with enough samples, flags it **once**
for a re-probe (the caller recalibrates its latency models; the
``costmodel.reprobes`` counter and the SLO report record that it
happened).

Determinism: the monitor only aggregates numbers handed to it — no clock,
no RNG — so a seeded chaos replay produces identical drift accounting.

``miscalibration`` multiplies every prediction before comparison; it
exists to *inject* a known model error (the SLO gate's acceptance test
drives a 2x miscalibration through the soak and asserts the CI verdict
flips and a re-probe is recorded).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set, Tuple

from repro.obs.registry import MetricsRegistry


class CostDriftMonitor:
    """Aggregates predicted-vs-observed plan cost into the registry."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        threshold_log2: float = 1.0,
        min_samples: int = 4,
        miscalibration: float = 1.0,
    ):
        if threshold_log2 <= 0:
            raise ValueError("threshold_log2 must be positive")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.threshold_log2 = float(threshold_log2)
        self.min_samples = int(min_samples)
        self.miscalibration = float(miscalibration)
        # (platform, variant) -> [n, sum_log2, sum_abs_log2]
        self._stats: Dict[Tuple[str, str], list] = {}
        self._flagged: Set[Tuple[str, str]] = set()

    # ------------------------------------------------------------------
    def record(
        self,
        platform: str,
        variant: str,
        predicted_s: float,
        observed_s: float,
    ) -> bool:
        """Record one executed plan's prediction error.

        Returns True exactly once per (platform, variant): the first time
        its mean absolute log2 error crosses the threshold with at least
        ``min_samples`` samples — the caller's cue to re-probe.
        """
        predicted = float(predicted_s) * self.miscalibration
        observed = float(observed_s)
        if predicted <= 0.0 or observed <= 0.0:
            return False  # degenerate sample: nothing to calibrate against
        err = math.log2(observed / predicted)
        key = (str(platform), str(variant))
        row = self._stats.setdefault(key, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += err
        row[2] += abs(err)

        labels = {"platform": key[0], "variant": key[1]}
        self.registry.counter(
            "costmodel.samples", "executed plans with a cost prediction"
        ).inc(1.0, **labels)
        self.registry.counter(
            "costmodel.predicted_seconds", "sum of predicted plan seconds"
        ).inc(predicted, **labels)
        self.registry.counter(
            "costmodel.observed_seconds", "sum of observed plan seconds"
        ).inc(observed, **labels)
        self.registry.gauge(
            "costmodel.calibration_error",
            "mean |log2(observed/predicted)| per plan key",
        ).set(row[2] / row[0], **labels)
        self.registry.gauge(
            "costmodel.bias_log2",
            "mean log2(observed/predicted): + means model underestimates",
        ).set(row[1] / row[0], **labels)

        if (
            key not in self._flagged
            and row[0] >= self.min_samples
            and row[2] / row[0] >= self.threshold_log2
        ):
            self._flagged.add(key)
            self.registry.counter(
                "costmodel.reprobes",
                "latency-model re-probes triggered by calibration drift",
            ).inc(1.0, **labels)
            return True
        return False

    # ------------------------------------------------------------------
    @property
    def reprobes(self) -> int:
        """Distinct (platform, variant) keys that triggered a re-probe."""
        return len(self._flagged)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic per-key summary for the SLO report."""
        out: Dict[str, Dict[str, object]] = {}
        for key in sorted(self._stats):
            n, total, total_abs = self._stats[key]
            out["/".join(key)] = {
                "samples": n,
                "mean_log2_error": float(round(total / n, 9)),
                "mean_abs_log2_error": float(round(total_abs / n, 9)),
                "reprobes": 1 if key in self._flagged else 0,
            }
        return out
