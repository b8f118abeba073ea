"""``python -m repro.obs`` — trace a seeded run, summarize and diff manifests.

Subcommands::

    python -m repro.obs trace --out results/obs        # seeded smoke run
    python -m repro.obs summary results/obs/run_manifest.jsonl
    python -m repro.obs diff baseline.jsonl candidate.jsonl
    python -m repro.obs slo --check                    # SLO burn-rate gate

``diff`` exits non-zero when any lower-is-better counter increased beyond
the tolerance — wire it into CI to turn "did this PR slow the simulated
kernels down?" into a check instead of a code-review guess.  ``slo`` runs
the traced chaos soak twice (determinism contract), writes
``slo_report.json`` plus one Chrome trace per scenario, and with
``--check`` gates wrong answers, p99 latency, shed rate, burn rates and
cost-model calibration against the checked-in baseline.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.obs.bridges import (
    ObsSession,
    record_eventsim,
    record_layout_footprint,
)
from repro.obs.export import (
    registry_manifest_counters,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.manifest import (
    RunManifest,
    build_manifest,
    diff_manifests,
    read_manifest,
    write_manifest,
)
from repro.utils.tables import format_table


# ----------------------------------------------------------------------
# trace: one fully observed, seeded smoke run
# ----------------------------------------------------------------------
def _record_event_lanes(
    session: ObsSession, n_cus: int = 4, items_per_cu: int = 24
) -> None:
    """Event-level FPGA lanes: one span per retired pipeline item."""
    from repro.fpgasim.device import ALVEO_U250
    from repro.fpgasim.eventsim import simulate_slr
    from repro.fpgasim.pipeline import derive_ii
    from repro.kernels.fpga_independent import FPGAIndependentKernel

    spec = ALVEO_U250
    freq_hz = spec.clock_mhz * 1e6
    base = session.clock.now()

    def recorder(cu: int, item: int, admit: float, finish: float) -> None:
        session.tracer.add_span(
            f"fpga-events/cu{cu}",
            f"item {item}",
            (finish - admit) / freq_hz,
            start_s=base + admit / freq_hz,
            cat="eventsim",
        )

    result = simulate_slr(
        spec,
        n_cus=n_cus,
        items_per_cu=items_per_cu,
        ii=float(derive_ii(FPGAIndependentKernel.II_CHAIN, spec)),
        accesses_per_item=1,
        recorder=recorder,
    )
    record_eventsim(session.registry, result, slr="0")
    session.clock.advance(result.cycles / freq_hz)


def run_traced(
    dataset: str = "susy", scale: str = "smoke", seed: int = 0
) -> ObsSession:
    """One seeded classification tour with every hook observed.

    GPU CSR + hybrid launches (with PCIe round trips), an FPGA hybrid
    launch with per-CU lanes, an event-level FPGA lane from the discrete
    simulator, and a guarded call — enough to exercise every track the
    exporters know about, small enough to finish in seconds.
    """
    from repro.core.classifier import HierarchicalForestClassifier
    from repro.core.config import KernelVariant, Platform, RunConfig
    from repro.experiments.common import (
        band_depths,
        get_dataset,
        get_forest,
        get_scale,
        queries_for,
    )
    from repro.fpgasim.replication import Replication
    from repro.reliability.guard import ResilientClassifier

    session = ObsSession()
    sc = get_scale(scale)
    ds = get_dataset(dataset, sc)
    X = queries_for(ds, sc)
    depth = band_depths(dataset, sc)[0]
    forest = get_forest(dataset, depth, sc.n_trees, sc, seed=seed)
    clf = HierarchicalForestClassifier.from_forest(forest)

    for variant in (KernelVariant.CSR, KernelVariant.HYBRID):
        cfg = RunConfig(variant=variant)
        record_layout_footprint(
            session.registry, clf.layout_for(cfg), dataset=dataset
        )
        clf.classify(X, cfg, observer=session, include_transfer=True)

    clf.classify(
        X,
        RunConfig(
            platform=Platform.FPGA,
            variant=KernelVariant.HYBRID,
            replication=Replication(n_slrs=2, cus_per_slr=2),
        ),
        observer=session,
    )
    _record_event_lanes(session)

    guard = ResilientClassifier(clf, seed=seed, observer=session)
    guard.classify(X[:256], RunConfig(variant=KernelVariant.HYBRID))
    return session


def cmd_trace(args) -> int:
    import os

    session = run_traced(dataset=args.dataset, scale=args.scale,
                         seed=args.seed)
    out = args.out
    trace_path = write_chrome_trace(
        os.path.join(out, "trace.json"), session.tracer
    )
    prom_path = write_prometheus(
        os.path.join(out, "metrics.prom"), session.registry
    )
    manifest = build_manifest(
        "trace",
        args.scale,
        registry_manifest_counters(session.registry),
        extra_meta={"dataset": args.dataset, "seed": args.seed},
    )
    manifest_path = write_manifest(
        os.path.join(out, "run_manifest.jsonl"), manifest
    )
    print(f"[trace: {trace_path}]  (open in https://ui.perfetto.dev)")
    print(f"[metrics: {prom_path}]")
    print(f"[run manifest: {manifest_path}]")
    print(
        f"timeline: {session.tracer.end_s * 1e3:.3f} simulated ms over "
        f"{len(session.tracer.tracks)} tracks, "
        f"{len(session.tracer.spans)} spans"
    )
    return 0


# ----------------------------------------------------------------------
# slo: the traced chaos soak + survivability/burn-rate/calibration CI gate
# ----------------------------------------------------------------------
def cmd_slo(args) -> int:
    import os

    from repro.experiments.serving_chaos import (
        render,
        rows_from_reports,
        run_slo_soak,
        survivability_reports,
    )
    from repro.obs.slo import (
        check_slo_report,
        read_slo_report,
        render_slo_report,
        write_slo_report,
    )

    first = run_slo_soak(
        scale=args.scale, seed=args.seed,
        miscalibration=args.inject_miscalibration,
    )
    second = run_slo_soak(
        scale=args.scale, seed=args.seed,
        miscalibration=args.inject_miscalibration,
    )
    if render_slo_report(first.report) != render_slo_report(second.report):
        print("FAIL: SLO soak is not deterministic across replays")
        return 1
    for name, trace in first.traces.items():
        if trace != second.traces[name]:
            print(f"FAIL: Chrome trace for {name} differs across replays")
            return 1

    report_path = write_slo_report(
        os.path.join(args.out, "slo_report.json"), first.report
    )
    print(f"[slo report: {report_path}]")
    for name in sorted(first.traces):
        path = os.path.join(args.out, f"trace_{name}.json")
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(first.traces[name])
        print(f"[trace: {path}]")
    print(render(rows_from_reports(survivability_reports(first))))
    for scenario in first.report["scenarios"]:
        verdicts = ", ".join(
            f"{o['name']}={'VIOLATED' if o['violated'] else 'ok'}"
            f"(burn {o['burn_rate']:.2f})"
            for o in scenario["objectives"]
        )
        print(f"  {scenario['scenario']}: {verdicts}")

    if args.write_baseline:
        write_slo_report(args.baseline, first.report)
        print(f"[baseline written to {args.baseline}]")
        return 0
    if not args.check:
        return 0
    try:
        baseline = read_slo_report(args.baseline)
    except (OSError, ValueError) as e:
        print(f"FAIL: cannot read baseline {args.baseline}: {e}")
        return 1
    failures = check_slo_report(first.report, baseline)
    if failures:
        for line in failures:
            print(f"FAIL: {line}")
        return 1
    print(
        f"slo ok: {len(first.report['scenarios'])} scenarios deterministic, "
        "0 wrong answers, within p99, shed-rate, burn-rate and calibration "
        f"gates ({args.baseline})"
    )
    return 0


# ----------------------------------------------------------------------
# summary / diff
# ----------------------------------------------------------------------
def summarize(manifest: RunManifest, limit: int = 0) -> str:
    meta = ", ".join(
        f"{k}={manifest.meta[k]}" for k in sorted(manifest.meta)
    )
    names = sorted(manifest.counters)
    if limit:
        names = names[:limit]
    body = [[n, manifest.counters[n]] for n in names]
    table = format_table(
        ["counter", "value"], body,
        title=f"run manifest ({meta})", float_digits=6,
    )
    if limit and len(manifest.counters) > limit:
        table += f"\n... {len(manifest.counters) - limit} more"
    return table


def cmd_summary(args) -> int:
    print(summarize(read_manifest(args.manifest), limit=args.limit))
    return 0


def render_diff(diff, baseline_name: str, candidate_name: str) -> str:
    out: List[str] = []
    rows = [
        [
            "REGRESSION" if d.regression else "changed",
            d.name,
            d.baseline,
            d.candidate,
            d.delta,
        ]
        for d in diff.changed
    ]
    if rows:
        out.append(
            format_table(
                ["", "counter", baseline_name, candidate_name, "delta"],
                rows,
                title="counter deltas",
                float_digits=6,
            )
        )
    else:
        out.append("no counter changed")
    for label, names in (("only in baseline", diff.missing),
                         ("only in candidate", diff.added)):
        if names:
            out.append(f"{label}: " + ", ".join(names))
    verdict = (
        "OK: no regressions"
        if diff.ok
        else f"FAIL: {len(diff.regressions)} counter regression(s)"
    )
    out.append(verdict)
    return "\n".join(out)


def cmd_diff(args) -> int:
    baseline = read_manifest(args.baseline)
    candidate = read_manifest(args.candidate)
    diff = diff_manifests(baseline, candidate,
                          rel_tolerance=args.rel_tolerance)
    print(render_diff(diff, args.baseline, args.candidate))
    return 0 if diff.ok else 1


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="Deterministic observability: trace a seeded run, "
        "summarize and diff run manifests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="run a seeded smoke tour and export "
                       "trace.json / metrics.prom / run_manifest.jsonl")
    p.add_argument("--out", default="results/obs", metavar="DIR")
    p.add_argument("--dataset", default="susy")
    p.add_argument("--scale", default="smoke",
                   choices=("smoke", "default", "full"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "slo",
        help="run the traced chaos soak twice, write slo_report.json + "
        "per-scenario Chrome traces; --check gates against the baseline",
    )
    p.add_argument("--out", default="results/slo", metavar="DIR")
    p.add_argument("--scale", default="smoke",
                   choices=("smoke", "default", "full"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--baseline", default="results/slo_baseline.json")
    p.add_argument("--check", action="store_true",
                   help="exit 1 on wrong answers or on p99, shed-rate, "
                   "burn-rate or calibration regressions vs the baseline")
    p.add_argument("--write-baseline", action="store_true",
                   help="regenerate the baseline instead of gating")
    p.add_argument("--inject-miscalibration", type=float, default=1.0,
                   metavar="FACTOR",
                   help="multiply cost-model predictions by FACTOR "
                   "(acceptance knob: 2.0 must trip the drift monitor)")
    p.set_defaults(func=cmd_slo)

    p = sub.add_parser("summary", help="print one manifest's counters")
    p.add_argument("manifest")
    p.add_argument("--limit", type=int, default=0,
                   help="show at most N counters (0 = all)")
    p.set_defaults(func=cmd_summary)

    p = sub.add_parser(
        "diff",
        help="compare two manifests; exit 1 on counter regressions",
    )
    p.add_argument("baseline")
    p.add_argument("candidate")
    p.add_argument("--rel-tolerance", type=float, default=0.0,
                   help="allowed relative increase before a lower-is-"
                   "better counter is flagged (default 0)")
    p.set_defaults(func=cmd_diff)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - CLI glue
    sys.exit(main())
