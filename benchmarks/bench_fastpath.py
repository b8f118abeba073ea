"""Trace-vs-fastpath throughput: the repo's first perf trajectory.

Measures *wall-clock* rows/s through the runtime seam
(:class:`repro.runtime.session.RuntimeSession`) for both execution modes:

* ``trace="model"`` — the instrumented transaction-counting kernels,
  measured at the serving front door's batch cap
  (``BatchPolicy.max_batch_rows``, 256 rows).  That cap is the trace
  path's saturated serving operating point: under load the micro-batcher
  forms batches right at it, and the coalescing policy never launches
  bigger ones.  This is the denominator the ISSUE's motivation names —
  "the serving layer is currently front-dooring a profiler";
* ``trace="off"`` — the vectorized :mod:`repro.fastpath` traversal at 16
  rows (a serving request), 256 rows (the batch cap) and paper-scale
  batches (0.1M–1M rows), one measurement per layout family.

The speedup is structural, not just constant-factor: the trace path runs
warp-lockstep, so every warp pays Python-level work down to the *deepest*
member lane, while the fastpath stops charging each lane at its own leaf
depth and drops retired lanes once they are half of its frontier — the
deeper the trees, the wider the gap.  The bench forest uses depth-16
trees (unbounded depth is the usual random-forest default; 16 is a modest
cap).

Protocol: one process, :data:`RUNS` passes (three times that with
``--write-baseline``, so the baseline median sits near the true one).
Each pass sweeps every family and, per family, times one trace launch and
then the fastpath at each batch size right after it, so the two halves of
a ratio share the same window of host load.  Fastpath batches under :data:`MIN_TIMED_ROWS` rows
repeat the launch until that many rows are timed.  Every cell is
reported as the median and quartiles over the passes; the speedup is the
median of the per-pass ratios ``fastpath rows/s at GATE_ROWS / trace
rows/s``.

The checked-in ``BENCH_fastpath.json`` records the speedup trajectory and
CI gates on it (``make fastpath``).  Absolute rows/s are machine-dependent,
so the gate normalizes by the same pass's trace throughput: the median
**fastpath/trace speedup ratio** at the gate batch size must stay above
the hard acceptance floor (50x) and above 90% of the baseline's median
ratio (>10% regression fails).  Absolute fastpath rows/s sit beside the
ratio for reading trends, not for gating.

Wall-clock timing goes through the sanctioned
:class:`repro.utils.clock.Stopwatch` seam — nothing here feeds the
simulated world, which stays deterministic.

Usage::

    PYTHONPATH=src python benchmarks/bench_fastpath.py --scale smoke
    PYTHONPATH=src python benchmarks/bench_fastpath.py --write-baseline
    PYTHONPATH=src python benchmarks/bench_fastpath.py --check   # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import numpy as np

from repro.core.config import TRACE_MODEL, TRACE_OFF, RunConfig
from repro.forest.tree import random_tree
from repro.layout.hierarchical import LayoutParams
from repro.runtime.planner import compile_plan
from repro.runtime.session import RuntimeSession
from repro.serving.batching import BatchPolicy
from repro.utils.clock import Stopwatch
from repro.utils.tables import format_table

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO, "BENCH_fastpath.json")

#: Acceptance floor (ISSUE 7): fastpath must be >= 50x the trace path at
#: the gate batch size.
MIN_SPEEDUP = 50.0
#: CI regression gate: the measured speedup ratio may not drop more than
#: 10% below the checked-in baseline's.
REGRESSION_TOLERANCE = 0.10
#: Batch size the gate is evaluated at (present in every scale).
GATE_ROWS = 100_000
#: Trace-path batch: the serving front door's coalescing cap — the largest
#: batch the micro-batcher ever launches, i.e. the trace path's saturated
#: serving throughput.
SERVING_BATCH_ROWS = BatchPolicy().max_batch_rows

N_FEATURES = 16
N_TREES = 12
TREE_DEPTH = 16

#: One measured config per layout family (hier / csr / fil), plus the
#: quantized variants of the CSR layout.  The fastpath compares the same
#: decoded float32 thresholds under every codec, so those rows differ from
#: gpu-csr only in the thresholds the codec's round trip leaves behind.
#: CSR is the family with gate headroom — the hybrid's trace denominator
#: is ~2x faster, which would park its quantized ratio near the 50x floor
#: where scheduler noise flakes the gate; hier-family codec correctness is
#: pinned by the golden suite instead (cuml has no quantized form — the
#: FIL shim is float32-only).
FAMILIES = (
    ("gpu-hybrid", RunConfig(variant="hybrid", layout=LayoutParams(6, 10))),
    ("gpu-csr", RunConfig(variant="csr")),
    ("gpu-cuml", RunConfig(variant="cuml")),
    ("gpu-csr-int8", RunConfig(variant="csr", precision="int8")),
    ("gpu-csr-packed", RunConfig(variant="csr", precision="packed")),
)

#: Fastpath batch sizes every scale measures: a serving request, the front
#: door's batch cap, and the gate batch.
FASTPATH_ROWS = (16, SERVING_BATCH_ROWS, GATE_ROWS)
#: Smaller fastpath batches repeat the launch until at least this many rows
#: are timed, so one cell is never a sub-millisecond reading.
MIN_TIMED_ROWS = 4096

#: Alternating passes per measurement (the baseline takes 3x as many).
RUNS = 15

SCALES = {
    "smoke": {"fastpath_rows": FASTPATH_ROWS},
    "default": {"fastpath_rows": FASTPATH_ROWS + (1_000_000,)},
    "full": {"fastpath_rows": FASTPATH_ROWS + (300_000, 1_000_000)},
}


def _forest():
    rng = np.random.default_rng(71)
    return [
        random_tree(rng, N_FEATURES, TREE_DEPTH, leaf_prob=0.2, min_nodes=3)
        for _ in range(N_TREES)
    ]


def _queries(n: int) -> np.ndarray:
    return (
        np.random.default_rng(73).standard_normal((n, N_FEATURES)).astype(np.float32)
    )


def _rows_per_s(session, plan, X, reps: int = 1) -> float:
    """Rows/s of ``reps`` back-to-back ``session.run(plan, X)`` calls."""
    watch = Stopwatch()
    for _ in range(reps):
        session.run(plan, X)
    return reps * X.shape[0] / watch.elapsed()


def spread(values) -> dict:
    """Median and quartiles, as ``statistics.quantiles(n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def measure(scale: str, runs: int = RUNS) -> dict:
    """One full measurement; returns the baseline-shaped payload.

    Passes are interleaved across families, and within a family the trace
    launch and the fastpath launches alternate, so a slow window on a
    shared machine lands on both halves of a ratio or on one pass only.
    """
    cfg = SCALES[scale]
    trees = _forest()
    session = RuntimeSession(trees, verify_against_reference=False)
    X_pool = _queries(max(cfg["fastpath_rows"]))
    plans = {}
    for name, run_cfg in FAMILIES:
        base = dict(
            platform=run_cfg.platform,
            variant=run_cfg.variant,
            layout=run_cfg.layout,
            precision=run_cfg.precision,
        )
        fast_plan = compile_plan(None, RunConfig(trace=TRACE_OFF, **base))
        model_plan = compile_plan(None, RunConfig(trace=TRACE_MODEL, **base))
        # Warm-up builds the layout (and the fastpath edge tables) outside
        # the timed region.
        session.run(fast_plan, X_pool[:64])
        session.run(model_plan, X_pool[:64])
        plans[name] = (fast_plan, model_plan)

    trace = {name: [] for name, _ in FAMILIES}
    fast = {name: {n: [] for n in cfg["fastpath_rows"]} for name, _ in FAMILIES}
    for _ in range(runs):
        for name, _ in FAMILIES:
            fast_plan, model_plan = plans[name]
            trace[name].append(
                _rows_per_s(session, model_plan, X_pool[:SERVING_BATCH_ROWS])
            )
            for n in cfg["fastpath_rows"]:
                reps = -(-MIN_TIMED_ROWS // n)
                fast[name][n].append(
                    _rows_per_s(session, fast_plan, X_pool[:n], reps)
                )

    results = {}
    for name, _ in FAMILIES:
        ratios = [f / t for f, t in zip(fast[name][GATE_ROWS], trace[name])]
        results[name] = {
            "trace_rows_per_s": spread(trace[name]),
            "fastpath_rows_per_s": {str(n): spread(v) for n, v in fast[name].items()},
            "speedup_at_gate": spread(ratios),
        }
    return {
        "version": 2,
        "scale": scale,
        "runs": runs,
        "forest": {
            "n_trees": N_TREES,
            "max_depth": TREE_DEPTH,
            "n_features": N_FEATURES,
        },
        "gate": {
            "gate_rows": GATE_ROWS,
            "serving_batch_rows": SERVING_BATCH_ROWS,
            "min_speedup": MIN_SPEEDUP,
            "regression_tolerance": REGRESSION_TOLERANCE,
        },
        "results": results,
    }


def _cell(stat: dict, fmt: str = ".0f") -> str:
    return f"{stat['median']:{fmt}} [{stat['q1']:{fmt}}, {stat['q3']:{fmt}}]"


def print_report(payload: dict) -> None:
    rows = []
    for name, r in sorted(payload["results"].items()):
        row = [name, f"{r['trace_rows_per_s']['median']:.0f}"]
        for n, v in sorted(r["fastpath_rows_per_s"].items(), key=lambda kv: int(kv[0])):
            row.append(f"{v['median']:.0f}")
        row.append(_cell(r["speedup_at_gate"], ".1f"))
        rows.append(row)
    any_result = next(iter(payload["results"].values()))
    n_cols = sorted(any_result["fastpath_rows_per_s"], key=int)
    header = (
        ["config", f"trace rows/s @{SERVING_BATCH_ROWS}"]
        + [f"fastpath rows/s @{int(n):,}" for n in n_cols]
        + [f"speedup @{GATE_ROWS:,} median [q1, q3]"]
    )
    title = (
        f"fastpath throughput ({payload['scale']}, median of "
        f"{payload['runs']} alternating passes)"
    )
    print(format_table(header, rows, title=title))


def check_against_baseline(payload: dict, baseline: dict | None) -> list:
    """Gate failures (empty list = pass), judged on median speedups."""
    failures = []
    for name, r in sorted(payload["results"].items()):
        speedup = r["speedup_at_gate"]["median"]
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"{name}: median speedup {speedup:.1f}x at {GATE_ROWS:,} rows is "
                f"below the {MIN_SPEEDUP:.0f}x acceptance floor"
            )
        if baseline is None:
            continue
        base = baseline["results"].get(name)
        if base is None:
            failures.append(f"{name}: missing from baseline {BASELINE_PATH}")
            continue
        base_speedup = base["speedup_at_gate"]["median"]
        floor = base_speedup * (1.0 - REGRESSION_TOLERANCE)
        if speedup < floor:
            failures.append(
                f"{name}: median speedup {_cell(r['speedup_at_gate'], '.1f')}x "
                f"regressed >10% vs baseline {base_speedup:.1f}x (floor {floor:.1f}x)"
            )
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    ap.add_argument(
        "--write-baseline",
        action="store_true",
        help=f"write the measurement to {BASELINE_PATH}",
    )
    ap.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if the speedup gate fails (CI mode)",
    )
    args = ap.parse_args(argv)

    runs = 3 * RUNS if args.write_baseline else RUNS
    payload = measure(args.scale, runs)
    print_report(payload)

    if args.write_baseline:
        with open(BASELINE_PATH, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"[baseline written to {BASELINE_PATH}]")
        return 0

    baseline = None
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH, encoding="utf-8") as f:
            baseline = json.load(f)
    elif args.check:
        print(f"[no baseline at {BASELINE_PATH}; run --write-baseline first]")
        return 2

    failures = check_against_baseline(payload, baseline)
    if failures and args.check:
        # A shared CI box can hand out one bad scheduling window; a real
        # regression reproduces, so confirm before failing the gate.
        print("[gate failed; re-measuring once to confirm]")
        for line in failures:
            print(f"  first pass: {line}")
        payload = measure(args.scale, runs)
        print_report(payload)
        failures = check_against_baseline(payload, baseline)
    if failures:
        for line in failures:
            print(f"FAIL: {line}")
        return 1 if args.check else 0
    floor_note = (
        f"and within {REGRESSION_TOLERANCE:.0%} of baseline"
        if baseline is not None
        else "(no baseline comparison)"
    )
    print(f"gate ok: all configs >= {MIN_SPEEDUP:.0f}x {floor_note}")
    return 0


def test_fastpath_throughput(benchmark):
    """pytest-benchmark wrapper: smoke measurement + acceptance floor."""
    from benchmarks.conftest import run_once

    payload = run_once(benchmark, measure, scale="smoke")
    print()
    print_report(payload)
    for name, r in payload["results"].items():
        speedup = r["speedup_at_gate"]["median"]
        assert speedup >= MIN_SPEEDUP, (
            f"{name}: {speedup:.1f}x below the {MIN_SPEEDUP:.0f}x floor"
        )


if __name__ == "__main__":
    sys.exit(main())
