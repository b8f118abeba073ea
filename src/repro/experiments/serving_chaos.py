"""Serving chaos soak — the fault-tolerant serving layer under fire.

Not a paper artifact: this experiment drives the :mod:`repro.serving`
pipeline through the canonical chaos grid
(:func:`repro.serving.chaos.default_scenarios`): seeded diurnal / bursty /
multi-tenant traffic crossed with seeded fault injection (corrupted
layouts, transient launch failures, hangs) on every backend of the
fallback ladder.  Per scenario it reports the survivability numbers an
operator would ask for after a bad day — p50/p99 latency, shed and
rejection rates, degraded fraction, platform histogram — and the one
number that must always be zero: **wrong answers** (served, non-degraded
predictions that differ from the authoritative host trees).

Everything runs on a simulated clock with seeded generators, so the whole
soak is byte-deterministic: ``--scale smoke`` in CI replays the exact
history every time, and :func:`soak` diffs it against the checked-in
baseline (``results/serving_chaos_baseline.json``), failing on any wrong
answer or on p99/shed-rate regressions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.core.classifier import HierarchicalForestClassifier
from repro.experiments.common import (
    band_depths,
    get_dataset,
    get_forest,
    get_scale,
    queries_for,
)
from repro.obs import ObsSession, render_chrome_trace
from repro.obs.slo import (
    default_objectives,
    evaluate_objectives,
    events_from_responses,
)
from repro.runtime.drift import CostDriftMonitor
from repro.serving import ChaosScenario, default_scenarios, run_scenario
from repro.serving.chaos import replay_scenario, wrong_answer_ids
from repro.utils.tables import format_table

DATASET = "higgs"
#: Simulated wall-seconds of traffic per scenario, per scale tier.
DURATIONS = {"smoke": 0.3, "default": 1.0, "full": 3.0}
#: Regression gates for the CI soak (vs the checked-in baseline).
P99_TOLERANCE = 1.25  # current p99 may be at most 1.25x baseline
SHED_TOLERANCE = 0.05  # shed rate may exceed baseline by at most 5 points
BASELINE_PATH = "results/serving_chaos_baseline.json"


def run_reports(
    scale="default",
    seed: int = 0,
    scenarios: Optional[Sequence[ChaosScenario]] = None,
) -> List[Dict]:
    """Replay every scenario; returns the full survivability reports.

    A fresh classifier is built per scenario (corruption mutates device
    layouts in place); the forest itself is shared through the experiment
    cache.  ``seed`` offsets every scenario's traffic/fault seeds so a
    different seed gives a genuinely different — but equally
    deterministic — soak.
    """
    scale = get_scale(scale)
    ds = get_dataset(DATASET, scale)
    depth = band_depths(DATASET, scale)[0]
    forest = get_forest(DATASET, depth, scale.n_trees, scale, seed=0)
    X = queries_for(ds, scale)
    if scenarios is None:
        scenarios = default_scenarios(
            duration_s=DURATIONS.get(scale.name, 1.0)
        )
    reports: List[Dict] = []
    for scenario in scenarios:
        if seed:
            scenario = replace(
                scenario,
                traffic_seed=scenario.traffic_seed + seed,
                fault_seed=scenario.fault_seed + seed,
            )
        clf = HierarchicalForestClassifier.from_forest(forest)
        reports.append(run_scenario(clf, X[:512], scenario))
    return reports


# ----------------------------------------------------------------------
# The SLO soak: the same grid, fully observed
# ----------------------------------------------------------------------
@dataclass
class SLOSoakResult:
    """One observed pass over the chaos grid.

    ``report`` is the deterministic ``slo_report.json`` payload;
    ``traces`` maps scenario name to its rendered Chrome trace (already
    byte-stable strings); ``sessions`` keeps the live
    :class:`~repro.obs.ObsSession` per scenario for tests that want to
    poke at registries and tracers directly.
    """

    report: Dict[str, object]
    traces: Dict[str, str] = field(default_factory=dict)
    sessions: Dict[str, ObsSession] = field(default_factory=dict)


def run_slo_soak(
    scale="smoke",
    seed: int = 0,
    miscalibration: float = 1.0,
    scenarios: Optional[Sequence[ChaosScenario]] = None,
    latency_threshold_s: float = 0.05,
) -> SLOSoakResult:
    """Replay the chaos grid with full tracing, SLOs and drift monitoring.

    Per scenario: a fresh classifier, a fresh :class:`~repro.obs.ObsSession`
    (request-scoped tracing + metrics + latency exemplars), and a
    :class:`CostDriftMonitor` wired into the front door.  Serving resolves
    its plan without the plan cache, so replays share no state on disk.

    ``miscalibration`` is the injected cost-model error factor (1.0 =
    faithful model); the acceptance test drives 2.0 through here and
    expects the drift monitor to flag it and the CI gate to fail.
    """
    scale = get_scale(scale)
    ds = get_dataset(DATASET, scale)
    depth = band_depths(DATASET, scale)[0]
    forest = get_forest(DATASET, depth, scale.n_trees, scale, seed=0)
    X = queries_for(ds, scale)
    if scenarios is None:
        scenarios = default_scenarios(
            duration_s=DURATIONS.get(scale.name, 1.0)
        )
    objectives = default_objectives(latency_threshold_s=latency_threshold_s)
    result = SLOSoakResult(
        report={
            "dataset": DATASET,
            "scale": scale.name,
            "seed": seed,
            "miscalibration": miscalibration,
            "scenarios": [],
        }
    )
    for scenario in scenarios:
        if seed:
            scenario = replace(
                scenario,
                traffic_seed=scenario.traffic_seed + seed,
                fault_seed=scenario.fault_seed + seed,
            )
        clf = HierarchicalForestClassifier.from_forest(forest)
        session = ObsSession()
        clf.planner.observer = session
        drift = CostDriftMonitor(
            registry=session.registry, miscalibration=miscalibration
        )
        chaos_replay = replay_scenario(
            clf, X[:512], scenario, observer=session, drift=drift
        )
        divergence = wrong_answer_ids(
            chaos_replay.front, chaos_replay.requests, chaos_replay.responses
        )
        events = events_from_responses(
            chaos_replay.responses, wrong_ids=divergence["wrong"]
        )
        result.report["scenarios"].append(
            {
                "scenario": scenario.name,
                "horizon_s": float(round(chaos_replay.horizon_s, 9)),
                "objectives": evaluate_objectives(
                    objectives, events, chaos_replay.horizon_s
                ),
                "calibration": drift.snapshot(),
                "survivability": chaos_replay.report(),
            }
        )
        result.traces[scenario.name] = render_chrome_trace(session.tracer)
        result.sessions[scenario.name] = session
    return result


def rows_from_reports(reports: List[Dict]) -> List[Dict]:
    """Flatten survivability reports into one row per scenario."""
    rows: List[Dict] = []
    for rep in reports:
        rows.append(
            {
                "scenario": rep["scenario"],
                "profile": rep["profile"],
                "offered": rep["requests"]["offered"],
                "admitted": rep["requests"]["admitted"],
                "served": rep["requests"]["served"],
                "rejected": sum(rep["requests"]["rejected"].values()),
                "shed": sum(rep["requests"]["shed"].values()),
                "p50_latency_s": rep["latency_s"]["p50"],
                "p99_latency_s": rep["latency_s"]["p99"],
                "shed_rate": rep["rates"]["shed"],
                "rejected_rate": rep["rates"]["rejected"],
                "degraded_rate": rep["rates"]["degraded"],
                "batches": rep["execution"]["batches"],
                "hedged_batches": rep["execution"]["hedged_batches"],
                "max_queue_depth": rep["execution"]["max_queue_depth"],
                "wrong_answers": rep["correctness"]["wrong_answers"],
                "degraded_divergence": rep["correctness"][
                    "degraded_divergence"
                ],
            }
        )
    return rows


def run(scale="default", seed: int = 0) -> List[Dict]:
    """One row per chaos scenario, fully deterministic."""
    return rows_from_reports(run_reports(get_scale(scale), seed))


def render(rows: List[Dict]) -> str:
    """Survivability table across the chaos grid."""
    body = [
        [
            r["scenario"],
            r["offered"],
            r["served"],
            r["rejected"],
            r["shed"],
            f"{r['p50_latency_s'] * 1e3:.2f}",
            f"{r['p99_latency_s'] * 1e3:.2f}",
            f"{r['degraded_rate']:.2f}",
            r["hedged_batches"],
            r["wrong_answers"],
        ]
        for r in rows
    ]
    return format_table(
        [
            "scenario",
            "offered",
            "served",
            "rejected",
            "shed",
            "p50 ms",
            "p99 ms",
            "degraded",
            "hedged",
            "wrong",
        ],
        body,
        title=f"Serving chaos soak ({DATASET})",
        float_digits=3,
    )


def check_against_baseline(
    reports: List[Dict], baseline: List[Dict]
) -> List[str]:
    """Regression gates for the CI soak; returns human-readable failures.

    * any wrong answer fails outright (correctness, zero tolerance);
    * p99 latency above ``P99_TOLERANCE`` x the baseline's fails;
    * shed rate more than ``SHED_TOLERANCE`` above the baseline's fails.
    """
    failures: List[str] = []
    by_name = {b["scenario"]: b for b in baseline}
    for rep in reports:
        name = rep["scenario"]
        wrong = rep["correctness"]["wrong_answers"]
        if wrong:
            failures.append(f"{name}: {wrong} wrong answers (must be 0)")
        base = by_name.get(name)
        if base is None:
            failures.append(f"{name}: no baseline entry (regenerate it)")
            continue
        p99, base_p99 = rep["latency_s"]["p99"], base["latency_s"]["p99"]
        if base_p99 > 0 and p99 > base_p99 * P99_TOLERANCE:
            failures.append(
                f"{name}: p99 {p99:.6f}s exceeds baseline "
                f"{base_p99:.6f}s x {P99_TOLERANCE}"
            )
        shed, base_shed = rep["rates"]["shed"], base["rates"]["shed"]
        if shed > base_shed + SHED_TOLERANCE:
            failures.append(
                f"{name}: shed rate {shed:.3f} exceeds baseline "
                f"{base_shed:.3f} + {SHED_TOLERANCE}"
            )
    return failures


def soak(
    scale="smoke", seed: int = 0, baseline_path: str = BASELINE_PATH
) -> int:
    """The CI gate: determinism + correctness + baseline regression.

    Runs the grid twice and insists the two survivability reports are
    byte-identical (the determinism contract), then applies
    :func:`check_against_baseline`.  Returns a process exit code.
    """
    first = run_reports(scale, seed)
    second = run_reports(scale, seed)
    a = json.dumps(first, sort_keys=True)
    if a != json.dumps(second, sort_keys=True):
        print("FAIL: chaos soak is not deterministic across replays")
        return 1
    print(render(rows_from_reports(first)))
    try:
        with open(baseline_path, encoding="utf-8") as f:
            baseline = json.load(f)
    except (OSError, ValueError) as e:
        print(f"FAIL: cannot read baseline {baseline_path}: {e}")
        return 1
    failures = check_against_baseline(first, baseline)
    if failures:
        for line in failures:
            print(f"FAIL: {line}")
        return 1
    print(
        f"soak ok: {len(first)} scenarios deterministic, 0 wrong answers, "
        f"within baseline gates ({baseline_path})"
    )
    return 0


def main(scale="default") -> List[Dict]:  # pragma: no cover - CLI glue
    from repro.experiments.common import emit_manifest, save_rows

    reports = run_reports(scale)
    rows = rows_from_reports(reports)
    print(render(rows))
    scale_name = get_scale(scale).name
    path = f"results/serving_chaos_{scale_name}.json"
    save_rows(reports, path)
    print(f"[survivability reports saved to {path}]")
    emit_manifest("serving_chaos", scale, rows)
    return rows


if __name__ == "__main__":  # pragma: no cover - CI soak entry point
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="serving chaos soak (deterministic CI gate)"
    )
    parser.add_argument("--scale", default="smoke")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--baseline", default=BASELINE_PATH)
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the baseline JSON instead of gating against it",
    )
    ns = parser.parse_args()
    if ns.write_baseline:
        reports = run_reports(ns.scale, ns.seed)
        with open(ns.baseline, "w", encoding="utf-8") as f:
            json.dump(reports, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"[baseline written to {ns.baseline}]")
        sys.exit(0)
    sys.exit(soak(ns.scale, ns.seed, ns.baseline))
