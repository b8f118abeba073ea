"""Cold-start layout build: per-stage wall time and golden digests.

For each of the six checked-in forests (``.cache/forests``) under
SD4/RSD10 and the float32 codec serving uses, records the median wall
time of every stage of ``HierarchicalForest.from_trees`` — fill (stack
the trees and pack the subtrees), quantize (the identity under float32),
integrity (CRC32 digests) and lower (the fastpath edge table) — next to
the whole build, the FIL baseline build and the build's tracemalloc
peak, and writes them to ``BENCH_layout.json``.  Wall times depend on
the host, so nothing gates on them.

``tests/data/hier_layout_golden.json`` pins, for each of the six
``.cache/forests`` entries, the byte digests
(:func:`repro.layout.verify.layout_digests`) of

* the hierarchical layout under SD4/RSD10, SD8/RSD8 and the ragged SD5/RSD2
  (root subtree shallower than the rest) x every codec, and
* the FIL baseline layout (``repro.baselines.cuml_fil.FILForest``).

Usage::

    PYTHONPATH=src python benchmarks/bench_layout_build.py          # timings
    PYTHONPATH=src python benchmarks/bench_layout_build.py --check  # CI
    PYTHONPATH=src python benchmarks/bench_layout_build.py --write-golden
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tracemalloc

import numpy as np

from repro.baselines.cuml_fil import FILForest
from repro.fastpath.engine import lower
from repro.forest.io import load_forest
from repro.forest.tree import stack_trees
from repro.layout.codec import PRECISIONS, quantize_layout_values
from repro.layout.hierarchical import HierarchicalForest, LayoutParams, _pack_subtrees
from repro.layout.verify import layout_digests
from repro.reliability.integrity import attach_integrity
from repro.utils.clock import Stopwatch
from repro.utils.tables import format_table

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FOREST_DIR = os.path.join(REPO, ".cache", "forests")
GOLDEN_PATH = os.path.join(REPO, "tests", "data", "hier_layout_golden.json")
BENCH_PATH = os.path.join(REPO, "BENCH_layout.json")

#: (SD, RSD) pairs the golden file pins.
GOLDEN_PARAMS = ((4, 10), (8, 8), (5, 2))
#: Layout shape the stage timings use.
BENCH_PARAMS = LayoutParams(4, 10)
STAGES = ("fill", "quantize", "integrity", "lower", "from_trees", "fil")


#: The tracked forest cache entries, sorted by file name.  Named rather
#: than globbed: an experiment run can leave other entries in the cache,
#: and ``--write-golden`` must not pin them.
FORESTS = (
    "covertype_d35_t20_r12000_s0.npz",
    "covertype_d35_t8_r4000_s0.npz",
    "higgs_d30_t20_r12000_s0.npz",
    "higgs_d30_t8_r4000_s0.npz",
    "susy_d20_t20_r12000_s0.npz",
    "susy_d20_t8_r4000_s0.npz",
)


def forest_names():
    """The tracked forest cache entries (:data:`FORESTS`)."""
    return list(FORESTS)


def load_trees(name):
    return load_forest(os.path.join(FOREST_DIR, name)).trees_


def golden_digests():
    """Rebuild every golden case and return the golden file's contents."""
    hier, fil = [], []
    for name in forest_names():
        trees = load_trees(name)
        fil_digests = layout_digests(FILForest.from_trees(trees))
        fil.append({"forest": name, "digests": fil_digests})
        for sd, rsd in GOLDEN_PARAMS:
            for codec in PRECISIONS:
                layout = HierarchicalForest.from_trees(
                    trees, LayoutParams(sd, rsd), codec=codec
                )
                hier.append(
                    {
                        "forest": name,
                        "sd": sd,
                        "rsd": rsd,
                        "codec": codec,
                        "digests": layout_digests(layout),
                    }
                )
    return {"hier": hier, "fil": fil}


def staged_build(trees, params):
    """Run ``HierarchicalForest.from_trees`` stage by stage (float32 codec).

    Returns ``(layout, {stage: seconds})`` for the four build stages.
    """
    sw = Stopwatch()
    stack = stack_trees(trees)
    arrays = _pack_subtrees(stack, params)
    fill = sw.restart()
    value, quant = quantize_layout_values(
        "float32", arrays.pop("value"), arrays["feature_id"]
    )
    quantize = sw.restart()
    layout = HierarchicalForest(
        value=value,
        params=params,
        n_classes=stack.n_classes,
        quant=quant,
        **arrays,
    )
    attach_integrity(layout)
    integrity = sw.restart()
    lower(layout, stack)
    return layout, {
        "fill": fill,
        "quantize": quantize,
        "integrity": integrity,
        "lower": sw.restart(),
    }


def stage_timings(trees, repeats):
    """Median milliseconds per stage, plus the build's tracemalloc peak."""
    samples = {stage: [] for stage in STAGES}
    for i in range(repeats):
        layout, times = staged_build(trees, BENCH_PARAMS)
        sw = Stopwatch()
        whole = HierarchicalForest.from_trees(trees, BENCH_PARAMS)
        times["from_trees"] = sw.restart()
        FILForest.from_trees(trees)
        times["fil"] = sw.restart()
        if i == 0 and layout_digests(layout) != layout_digests(whole):
            raise AssertionError("staged build differs from from_trees")
        for stage, seconds in times.items():
            samples[stage].append(seconds)
    out = {f"{stage}_ms": 1e3 * float(np.median(v)) for stage, v in samples.items()}
    tracemalloc.start()
    HierarchicalForest.from_trees(trees, BENCH_PARAMS)
    out["from_trees_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    return out


def golden_mismatches(got, want):
    """Human-readable differences between two golden-file payloads."""
    bad = []
    for family in ("hier", "fil"):
        if len(got[family]) != len(want[family]):
            n_got, n_want = len(got[family]), len(want[family])
            bad.append(f"{family}: {n_got} cases, golden has {n_want}")
            continue
        for g, w in zip(got[family], want[family]):
            case = {k: v for k, v in w.items() if k != "digests"}
            keys = sorted(set(g["digests"]) | set(w["digests"]))
            diff = [k for k in keys if g["digests"].get(k) != w["digests"].get(k)]
            if diff or {k: v for k, v in g.items() if k != "digests"} != case:
                bad.append(f"{family} {case}: {', '.join(diff) or 'case mismatch'}")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--check",
        action="store_true",
        help="fail if any rebuilt layout differs from the golden digests",
    )
    ap.add_argument("--repeats", type=int, default=15, help="timed builds per forest")
    ap.add_argument(
        "--write-golden",
        action="store_true",
        help="regenerate tests/data/hier_layout_golden.json",
    )
    args = ap.parse_args(argv)
    payload = golden_digests()
    if args.write_golden:
        with open(GOLDEN_PATH, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    with open(GOLDEN_PATH) as f:
        bad = golden_mismatches(payload, json.load(f))
    for line in bad:
        print(f"GOLDEN MISMATCH {line}")
    if not bad:
        n = len(payload["hier"]) + len(payload["fil"])
        print(f"golden digests: {n} layouts match")

    results = {
        name: stage_timings(load_trees(name), args.repeats)
        for name in forest_names()
    }
    cols = [f"{stage}_ms" for stage in STAGES] + ["from_trees_peak_mb"]
    print(
        format_table(
            ["forest"] + cols,
            [
                [name[:-4]] + [f"{r[c]:.1f}" for c in cols]
                for name, r in results.items()
            ],
        )
    )
    if not args.check:
        bench = {
            "params": {
                "sd": BENCH_PARAMS.sd,
                "rsd": BENCH_PARAMS.rsd,
                "codec": "float32",
            },
            "repeats": args.repeats,
            "results": results,
        }
        with open(BENCH_PATH, "w") as f:
            json.dump(bench, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {BENCH_PATH}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
