#!/usr/bin/env python3
"""Wall-clock end-to-end benchmark: serving, batch scoring and training.

One workload, one process, one thread::

    python3 benchmarks/e2e/run.py --workload serve-steady --seed 0 \\
        --seconds 10 --trace 0

prints every end-to-end metric with its unit (``--trace 1``: every
per-layer metric instead, from a run with span wrappers installed) and, as
its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  It exits non-zero when any answer was wrong.

Every workload, each in its own subprocess, ``--runs`` times::

    python3 benchmarks/e2e/run.py --seed 0 [--trace] [--runs 5] [--out DIR]

writes ``DIR/results.json``; two such files compare with::

    python3 benchmarks/e2e/run.py --compare BASE/results.json HEAD/results.json

The program is imported from the ``src/`` directory beside this one; the
benchmark refuses to run against any other copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
DEFAULT_OUT = os.path.join(ROOT, ".e2e-out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SECONDS = 10
#: One thread: the load generator and the system share it, and BLAS or
#: OpenMP pools would make the numbers depend on the core count.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_system() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"e2e: cannot import repro from {SRC}: {exc}") from exc
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"e2e: repro came from {repro.__file__}, not {SRC}")


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _commit() -> str:
    """The checkout's commit, read from ``.git`` ("unknown" outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_dir(out: str, name: str, seed: int, trace: bool) -> str:
    return os.path.join(out, f"{name}-s{seed}-{'trace' if trace else 'e2e'}")


def run_one(name: str, seed: int, seconds: float, trace: bool, out: str):
    """Run one workload in this process; returns ``(result, record)``."""
    import metrics
    import spans
    import workloads

    spec = workloads.WORKLOADS[name]
    out_dir = run_dir(out, name, seed, trace)
    tracer = spans.Tracer().install() if trace else None
    try:
        run = spec.fn(seed, seconds, out_dir, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    e2e = metrics.end_to_end(run, spec.speed_exponent)
    record = {
        "workload": name,
        "trace": trace,
        "env": environment(seed),
        "seconds": seconds,
        "attempted": run.attempted,
        "failed": run.failed,
        "end_to_end": e2e,
        "wall_clock": metrics.wall_clock(run, spec.tail),
        "detail": run.detail,
    }
    if tracer is None:
        shown = {k: (v, metrics.END_TO_END[k][0]) for k, v in e2e.items()}
    else:
        layers = metrics.per_layer(run, tracer)
        record["per_layer"] = layers
        record["layer_table"] = tracer.layer_table()
        tracer.write(out_dir, "trace")
        shown = {k: (v, metrics.PER_LAYER[k][0]) for k, v in layers.items()}
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump(record, f, indent=1)
    with open(os.path.join(out_dir, "ops.json"), "w") as f:
        json.dump({"columns": ["start_s", "latency_s", "rows", "phase"],
                   "ops": run.ops, "probes": run.probes,
                   "setup_probes": run.setup_probes, "setup_s": run.setup_s}, f)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    return result, record


def print_result(name: str, result: dict, record: dict) -> None:
    for key, value in sorted(record["detail"].items()):
        print(f"{name}  detail {key} = {value}")
    for key, m in result["metrics"].items():
        print(f"{name}  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


# ----------------------------------------------------------------------
# Every workload, each in its own subprocess
# ----------------------------------------------------------------------
def run_all(args) -> int:
    import workloads

    runs, failed = [], False
    for name in workloads.WORKLOADS:
        passes = [0, 1] if args.trace else [0]
        for trace in passes:
            for _ in range(args.runs if not trace else 1):
                cmd = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", args.out,
                ]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                print("\n".join(lines[:-1]))
                path = os.path.join(
                    run_dir(args.out, name, args.seed, trace), "result.json"
                )
                if proc.returncode != 0 or not os.path.exists(path):
                    print(f"{name}: run failed (exit {proc.returncode})")
                    failed = True
                    continue
                with open(path) as f:
                    runs.append(json.load(f))
    _print_overhead(runs)
    with open(os.path.join(args.out, "results.json"), "w") as f:
        json.dump({"env": environment(args.seed), "runs": runs}, f, indent=1)
    print(f"[results: {os.path.join(args.out, 'results.json')}]")
    return 1 if failed else 0


def _print_overhead(runs) -> None:
    """Tracing overhead: the traced run's end-to-end numbers vs untraced."""
    for traced in (r for r in runs if r["trace"]):
        plain = [r for r in runs if r["workload"] == traced["workload"] and not r["trace"]]
        if not plain:
            continue
        for key in ("latency_ms", "rows_per_s"):
            base = statistics.median(r["end_to_end"][key] for r in plain)
            delta = (traced["end_to_end"][key] - base) / base
            print(f"{traced['workload']}  tracing overhead on {key}: {delta:+.1%}")


# ----------------------------------------------------------------------
# Compare two results files
# ----------------------------------------------------------------------
def spread(values) -> tuple:
    """``(median, q1, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base, head, better: str, bound: float) -> str:
    """How ``head`` compares with ``base`` under ``bound``."""
    bmed, bq1, bq3 = spread(base)
    hmed, hq1, hq3 = spread(head)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (hmed - bmed) / bmed
    if max((bq3 - bq1) / bmed, (hq3 - hq1) / hmed) > bound:
        wins = all(sign * (h - b) < 0 for h in head for b in base)
        return "better" if wins else "unresolved"
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "same"


def compare(base_path: str, head_path: str) -> int:
    with open(BENCHMARK_JSON) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}

    def values(path):
        with open(path) as f:
            runs = json.load(f)["runs"]
        out = {}
        for r in runs:
            if not r["trace"]:
                for key, v in r["end_to_end"].items():
                    out.setdefault((r["workload"], key), []).append(v)
        return out

    def cell(values) -> str:
        med, q1, q3 = spread(values)
        return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

    base, head = values(base_path), values(head_path)
    worst = 0
    print(f"{'workload':16} {'metric':12} {'base median [q1, q3]':>32} "
          f"{'head median [q1, q3]':>32} {'change':>7} {'bound':>5}  verdict")
    for key in sorted(set(base) & set(head)):
        spec = bounds[key[1]]
        word = verdict(base[key], head[key], spec["better"], spec["bound"])
        change = statistics.median(head[key]) / statistics.median(base[key]) - 1
        print(f"{key[0]:16} {key[1]:12} {cell(base[key]):>32} {cell(head[key]):>32} "
              f"{change:>+7.1%} {spec['bound']:>5.0%}  {word}")
        worst = max(worst, int(word == "worse"))
    return worst


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="run one workload in this process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: report per-layer metrics from a traced run",
    )
    ap.add_argument("--runs", type=int, default=1,
                    help="untraced runs per workload (all-workload mode)")
    ap.add_argument("--out", default=DEFAULT_OUT, help="where outputs go")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    for var in THREAD_ENV:
        os.environ[var] = "1"
    args.out = os.path.abspath(args.out)
    # Autotuned plans never land in the checkout's results/ directory.
    os.environ["REPRO_PLAN_CACHE_DIR"] = os.path.join(args.out, "plan_cache")
    import_system()
    if args.workload is None:
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads.WORKLOADS)}")
    result, record = run_one(
        args.workload, args.seed, args.seconds, bool(args.trace), args.out
    )
    print_result(args.workload, result, record)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
