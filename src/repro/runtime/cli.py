"""``python -m repro.runtime`` — plan inspection tooling.

``plan`` autotunes an execution plan for each bundled dataset on each
platform and prints the chosen-plan table (the ``make plan`` target,
which CI runs)::

    PYTHONPATH=src python -m repro.runtime plan --scale smoke
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.runtime.planner import Planner
from repro.runtime.session import RuntimeSession


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description="ExecutionPlan tooling (autotune).",
    )
    sub = p.add_subparsers(dest="command", required=True)
    plan = sub.add_parser("plan", help="autotune plans for the bundled datasets")
    plan.add_argument(
        "--scale",
        default="smoke",
        help="experiment scale tier (smoke/default/full)",
    )
    plan.add_argument(
        "--datasets",
        nargs="+",
        default=["covertype", "susy", "higgs"],
        help="bundled dataset names to tune for",
    )
    plan.add_argument(
        "--platforms",
        nargs="+",
        default=["gpu", "fpga"],
        choices=["gpu", "fpga"],
        help="platforms to tune",
    )
    plan.add_argument(
        "--probe-queries",
        type=int,
        default=256,
        help="seeded sample size whose work counts the cost model scales",
    )
    plan.add_argument("--seed", type=int, default=0, help="probe-sample seed")
    return p


def run_plan(args) -> int:
    from repro.experiments.common import (
        band_depths,
        get_dataset,
        get_forest,
        get_scale,
        queries_for,
    )

    scale = get_scale(args.scale)
    header = (
        f"{'dataset':<10} {'platform':<8} {'chosen plan':<28} "
        f"{'source':<9} {'est. cost (s)':>13}"
    )
    print(header)
    print("-" * len(header))
    for name in args.datasets:
        ds = get_dataset(name, scale)
        depth = band_depths(name, scale)[0]
        forest = get_forest(name, depth, scale.n_trees, scale)
        X = queries_for(ds, scale)
        session = RuntimeSession.from_forest(forest)
        planner = Planner(
            session,
            probe_queries=args.probe_queries,
            seed=args.seed,
        )
        for platform in args.platforms:
            plan = planner.autotune(X, platform=platform)
            est = plan.cost_estimate_s
            est_s = f"{est:.6f}" if est is not None else "-"
            print(
                f"{name:<10} {platform:<8} {plan.label:<28} "
                f"{plan.source:<9} {est_s:>13}"
            )
    print(f"[planner stats: {planner.stats['cost_evaluations']} cost evals]")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "plan":
        return run_plan(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
