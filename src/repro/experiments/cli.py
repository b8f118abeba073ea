"""``repro-experiments`` — run any paper table/figure from the command line.

Usage::

    repro-experiments list
    repro-experiments fig7 --scale default
    repro-experiments all --scale smoke
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from repro.utils.clock import Stopwatch

from repro.experiments import (
    fault_sweep,
    fig5_accuracy,
    fig6_memory,
    fig7_gpu_speedup,
    fig8_profiling,
    fig9_fpga_runtime,
    fig10_gpu_vs_fpga,
    quantize_frontier,
    serving_chaos,
    table2_rsd,
    table3_fpga,
)

EXPERIMENTS: Dict[str, Callable] = {
    "fig5": fig5_accuracy.main,
    "fig6": fig6_memory.main,
    "fig7": fig7_gpu_speedup.main,
    "fig8": fig8_profiling.main,
    "fig9": fig9_fpga_runtime.main,
    "fig10": fig10_gpu_vs_fpga.main,
    "table2": table2_rsd.main,
    "table3": table3_fpga.main,
    #: Not paper artifacts: reliability / serving subsystem characterisation
    #: and the codec accuracy/footprint frontier (docs/architecture.md §12).
    "fault-sweep": fault_sweep.main,
    "serving-chaos": serving_chaos.main,
    "quantize-frontier": quantize_frontier.main,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the paper's tables and figures "
        "(ICPP'22 RF classification on GPU/FPGA).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list", "report"],
        help="which artifact to reproduce ('report' regenerates "
        "EXPERIMENTS.md from live runs)",
    )
    parser.add_argument(
        "--scale",
        default="default",
        choices=("smoke", "default", "full"),
        help="experiment size tier (see repro.experiments.common.SCALES)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also save each experiment's rows as JSON under DIR",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    if args.experiment == "report":
        from repro.experiments import report

        return report.main([args.scale])

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        # Stopwatch wraps perf_counter (monotonic, immune to clock steps);
        # repro/utils/clock.py is the timing seam source rule DET001
        # allows (tests/test_source_rules.py).
        watch = Stopwatch()
        print(f"=== {name} (scale={args.scale}) ===")
        rows = EXPERIMENTS[name](scale=args.scale)
        if args.out:
            from repro.experiments.common import save_rows

            path = f"{args.out}/{name}_{args.scale}.json"
            save_rows(rows, path)
            print(f"[rows saved to {path}]")
        print(f"[{name} done in {watch.elapsed():.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI glue
    sys.exit(main())
