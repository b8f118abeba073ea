"""Declarative SLOs evaluated with multi-window burn-rate logic.

The chaos harness produces a terminal :class:`Response` per request; this
module turns that stream into service-level verdicts:

* an :class:`SLOEvent` is one request's contribution to the SLIs
  (finish time, latency, served/shed, wrong/correct, exemplar trace id);
* an :class:`SLObjective` declares a target over one SLI kind —
  ``availability`` (served fraction), ``latency`` (fraction served under
  a threshold) or ``correctness`` (wrong-answer rate, budget usually 0);
* :func:`evaluate_objective` applies Google-SRE-style multi-window
  burn-rate alerting: the error budget is ``1 - target``, the burn rate
  is ``error_rate / budget``, and an alert window *breaches* when both
  its long and short window burn above the window's threshold (the short
  window is the "is it still happening" guard against stale alerts);
* :func:`check_slo_report` is the CI gate: newly-violated objectives,
  survivability regressions (p99 latency, shed rate) and calibration-error
  growth against a checked-in baseline fail the build.

Everything is a pure function of its inputs and every float is rounded
to 9 decimals, so a seeded soak emits a byte-identical ``slo_report.json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Burn rate reported for a zero-budget objective with errors (stands in
#: for "infinite"; JSON-safe and unmistakably over any threshold).
ZERO_BUDGET_BURN = 1e9

#: Calibration gate: a scenario's per-(platform, variant) mean absolute
#: log2 cost-model error may exceed the baseline's by at most this much
#: (0.5 in log2 ≈ a 1.41x multiplicative drift) before CI fails.
CALIBRATION_TOLERANCE_LOG2 = 0.5

#: Survivability gates: a scenario's p99 latency may be at most
#: ``P99_TOLERANCE`` x the baseline's, and its shed rate at most
#: ``SHED_TOLERANCE`` (5 points) above the baseline's.
P99_TOLERANCE = 1.25
SHED_TOLERANCE = 0.05


def _round(x: float) -> float:
    """Stable decimal rounding so report JSON is byte-reproducible."""
    return float(round(float(x), 9))


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SLOEvent:
    """One request's terminal contribution to the SLIs."""

    ts_s: float  # finish time on the serving clock
    latency_s: float
    served: bool
    wrong: bool = False
    trace_id: str = ""  # exemplar (hex) back into the Chrome trace


def events_from_responses(responses, wrong_ids=()) -> List[SLOEvent]:
    """Map serving :class:`Response` objects onto :class:`SLOEvent`.

    ``wrong_ids`` is the set of request ids whose served predictions
    diverged from the authoritative host trees (the survivability
    report's wrong-answer set).
    """
    wrong_ids = set(wrong_ids)
    events = []
    for resp in responses:
        ctx = getattr(resp, "trace", None)
        events.append(
            SLOEvent(
                ts_s=float(resp.finish_s),
                latency_s=float(resp.latency_s),
                served=bool(resp.ok),
                wrong=resp.request_id in wrong_ids,
                trace_id=ctx.trace_hex if ctx is not None else "",
            )
        )
    return events


# ----------------------------------------------------------------------
# Objectives
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BurnWindow:
    """One multi-window alert rule, sized as fractions of the horizon.

    Real fleets use wall-clock windows (1 h long / 5 m short); a chaos
    replay lasts a fraction of a simulated second, so windows scale with
    the scenario horizon instead.  A window breaches when **both** the
    long and the short window burn above ``max_burn``.
    """

    name: str
    long_frac: float
    short_frac: float
    max_burn: float


#: Fast burn (page now) + slow burn (budget bleeding) — the classic pair.
DEFAULT_WINDOWS = (
    BurnWindow("fast", long_frac=1 / 12, short_frac=1 / 48, max_burn=8.0),
    BurnWindow("slow", long_frac=1 / 2, short_frac=1 / 12, max_burn=2.0),
)


@dataclass(frozen=True)
class SLObjective:
    """A declarative objective over one SLI kind."""

    name: str
    kind: str  # "availability" | "latency" | "correctness"
    target: float  # good fraction, e.g. 0.95 -> 5% error budget
    threshold_s: float = 0.0  # latency kind: served faster than this
    windows: Tuple[BurnWindow, ...] = DEFAULT_WINDOWS
    max_exemplars: int = 3

    def __post_init__(self):
        if self.kind not in ("availability", "latency", "correctness"):
            raise ValueError(f"unknown SLI kind {self.kind!r}")
        if not 0.0 < self.target <= 1.0:
            raise ValueError("target must be in (0, 1]")
        if self.kind == "latency" and self.threshold_s <= 0:
            raise ValueError("latency objectives need threshold_s > 0")

    def is_bad(self, event: SLOEvent) -> bool:
        if self.kind == "availability":
            return not event.served
        if self.kind == "latency":
            return (not event.served) or event.latency_s > self.threshold_s
        return event.wrong


def default_objectives(latency_threshold_s: float = 0.05):
    """The chaos-soak objective set (availability, tail latency, truth)."""
    return (
        SLObjective(name="availability", kind="availability", target=0.90),
        SLObjective(
            name="latency-p99",
            kind="latency",
            target=0.99,
            threshold_s=latency_threshold_s,
        ),
        # Zero error budget: one wrong answer exhausts it instantly.
        SLObjective(name="correctness", kind="correctness", target=1.0),
    )


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
def _burn(bad: int, total: int, budget: float) -> float:
    if total == 0:
        return 0.0
    error_rate = bad / total
    if budget <= 0.0:
        return ZERO_BUDGET_BURN if error_rate > 0 else 0.0
    return error_rate / budget


def evaluate_objective(
    objective: SLObjective,
    events: Sequence[SLOEvent],
    horizon_s: float,
) -> Dict[str, object]:
    """One objective's verdict over one replay's event stream.

    The objective is *violated* when the whole-run burn exceeds 1.0 (the
    budget is spent) or any alert window breaches.  The verdict carries
    exemplar trace ids of the worst offending events so a violated SLO
    links straight into the Chrome trace.
    """
    budget = 1.0 - objective.target
    bad_events = [e for e in events if objective.is_bad(e)]
    total = len(events)
    overall_burn = _burn(len(bad_events), total, budget)

    windows = []
    breached_any = False
    for w in objective.windows:
        row = {"window": w.name, "max_burn": _round(w.max_burn)}
        for side, frac in (("long", w.long_frac), ("short", w.short_frac)):
            span = horizon_s * frac
            lo = horizon_s - span
            inside = [e for e in events if e.ts_s > lo]
            bad = sum(1 for e in inside if objective.is_bad(e))
            row[f"{side}_s"] = _round(span)
            row[f"{side}_events"] = len(inside)
            row[f"{side}_burn"] = _round(_burn(bad, len(inside), budget))
        row["breached"] = (
            row["long_burn"] > w.max_burn and row["short_burn"] > w.max_burn
        )
        breached_any = breached_any or row["breached"]
        windows.append(row)

    worst = sorted(
        (e for e in bad_events if e.trace_id),
        key=lambda e: (-e.latency_s, e.trace_id),
    )[: objective.max_exemplars]
    return {
        "name": objective.name,
        "kind": objective.kind,
        "target": _round(objective.target),
        "events": total,
        "bad_events": len(bad_events),
        "error_rate": _round(len(bad_events) / total) if total else 0.0,
        "burn_rate": _round(overall_burn),
        "windows": windows,
        "violated": bool(overall_burn > 1.0 or breached_any),
        "exemplars": [e.trace_id for e in worst],
    }


def evaluate_objectives(
    objectives: Sequence[SLObjective],
    events: Sequence[SLOEvent],
    horizon_s: float,
) -> List[Dict[str, object]]:
    return [evaluate_objective(o, events, horizon_s) for o in objectives]


# ----------------------------------------------------------------------
# Report plumbing + the CI gate
# ----------------------------------------------------------------------
def render_slo_report(report: Dict[str, object]) -> str:
    """Canonical byte-stable JSON rendering (golden tests compare it)."""
    return json.dumps(report, indent=1, sort_keys=True) + "\n"


def write_slo_report(path: str, report: Dict[str, object]) -> str:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(render_slo_report(report))
    return path


def read_slo_report(path: str) -> Dict[str, object]:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def check_slo_report(
    report: Dict[str, object], baseline: Dict[str, object]
) -> List[str]:
    """CI gate: the report may not be worse than the checked-in baseline.

    * a **correctness** objective violation fails outright (zero
      tolerance, baseline or not — wrong answers are never acceptable);
    * any objective violated now but not in the baseline fails
      (burn-rate regression);
    * a survivability p99 latency above ``P99_TOLERANCE`` x the
      baseline's, or a shed rate more than ``SHED_TOLERANCE`` above the
      baseline's, fails;
    * any per-(platform, variant) cost-model calibration error more than
      ``CALIBRATION_TOLERANCE_LOG2`` above the baseline's fails (the
      drift monitor's re-probes are recorded, not forgiven).
    """
    failures: List[str] = []
    base_by_name = {s["scenario"]: s for s in baseline.get("scenarios", [])}
    for scenario in report.get("scenarios", []):
        name = scenario["scenario"]
        base = base_by_name.get(name)
        if base is None:
            failures.append(f"{name}: no baseline entry (regenerate it)")
            continue
        base_objectives = {o["name"]: o for o in base["objectives"]}
        for obj in scenario["objectives"]:
            if not obj["violated"]:
                continue
            if obj["kind"] == "correctness":
                failures.append(
                    f"{name}/{obj['name']}: {obj['bad_events']} wrong "
                    "answers (zero tolerance)"
                )
                continue
            base_obj = base_objectives.get(obj["name"])
            if base_obj is None or not base_obj["violated"]:
                failures.append(
                    f"{name}/{obj['name']}: burn rate "
                    f"{obj['burn_rate']:.3f} newly violates the objective "
                    "(baseline was healthy)"
                )
        surv, base_surv = scenario["survivability"], base["survivability"]
        p99, base_p99 = surv["latency_s"]["p99"], base_surv["latency_s"]["p99"]
        if base_p99 > 0 and p99 > base_p99 * P99_TOLERANCE:
            failures.append(
                f"{name}: p99 {p99:.6f}s exceeds baseline "
                f"{base_p99:.6f}s x {P99_TOLERANCE}"
            )
        shed, base_shed = surv["rates"]["shed"], base_surv["rates"]["shed"]
        if shed > base_shed + SHED_TOLERANCE:
            failures.append(
                f"{name}: shed rate {shed:.3f} exceeds baseline "
                f"{base_shed:.3f} + {SHED_TOLERANCE}"
            )
        base_cal = base.get("calibration", {})
        for key, row in scenario.get("calibration", {}).items():
            base_err = base_cal.get(key, {}).get("mean_abs_log2_error", 0.0)
            err = row["mean_abs_log2_error"]
            if err > base_err + CALIBRATION_TOLERANCE_LOG2:
                failures.append(
                    f"{name}: cost-model calibration error for {key} is "
                    f"{err:.3f} log2 (baseline {base_err:.3f} + "
                    f"{CALIBRATION_TOLERANCE_LOG2} allowed) — "
                    f"{row['reprobes']} latency-model re-probe(s) recorded"
                )
    return failures
