"""Training: per-stage wall time and bit-identity with the checked-in forests.

Fits each configuration stage by stage, the way
``RandomForestClassifier.fit`` does, and records the median wall time of
every stage — binner fit, binner transform, bootstrap draws and tree builds
(summed over the forest's trees) — with the fit total and the tree-build
rate in nodes per second, and writes them to ``BENCH_train.json``.  Wall
times depend on the host, so nothing gates on them.

The configurations are the ``benchmarks/e2e`` ``train`` workload (higgs,
40k rows split 1:1, one depth-30 tree, seed 0) and the six checked-in
``.cache/forests`` entries, each retrained from its file name.  Every
staged fit must equal ``RandomForestClassifier.fit`` and, for a cache
entry, the ``forest_fingerprint`` stored in its ``.npz``; the train
workload's fingerprint is pinned here.

Usage::

    PYTHONPATH=src python benchmarks/bench_train.py          # timings
    PYTHONPATH=src python benchmarks/bench_train.py --check  # CI
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys

import numpy as np

from repro.datasets.profiles import load_dataset
from repro.forest.builder import FeatureBinner, TreeBuilder
from repro.forest.io import load_forest
from repro.forest.random_forest import RandomForestClassifier
from repro.runtime.planner import forest_fingerprint
from repro.utils.clock import Stopwatch
from repro.utils.rng import bootstrap_indices, spawn_rngs
from repro.utils.tables import format_table

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FOREST_DIR = os.path.join(REPO, ".cache", "forests")
BENCH_PATH = os.path.join(REPO, "BENCH_train.json")
CACHE_NAME = re.compile(r"(\w+?)_d(\d+)_t(\d+)_r(\d+)_s(\d+)\.npz")
STAGES = ("bin_fit", "bin_transform", "bootstrap", "tree_build", "fit")
#: The e2e ``train`` workload and the fingerprint of its fitted tree.
TRAIN_WORKLOAD = {
    "dataset": "higgs",
    "max_depth": 30,
    "n_trees": 1,
    "rows": 40_000,
    "seed": 0,
    "fingerprint": 2795322868,
}


def configs():
    """``{label: config}`` for the train workload and every cache entry."""
    out = {"train": TRAIN_WORKLOAD}
    for path in sorted(glob.glob(os.path.join(FOREST_DIR, "*.npz"))):
        name = os.path.basename(path)
        dataset, depth, trees, rows, seed = CACHE_NAME.fullmatch(name).groups()
        out[name[:-4]] = {
            "dataset": dataset,
            "max_depth": int(depth),
            "n_trees": int(trees),
            "rows": int(rows),
            "seed": int(seed),
            "fingerprint": forest_fingerprint(load_forest(path).trees_),
        }
    return out


def staged_fit(X, y, cfg):
    """``RandomForestClassifier.fit`` (default options) stage by stage.

    Returns ``(trees, {stage: seconds})``.
    """
    n_classes = int(y.max()) + 1
    builder = TreeBuilder(max_depth=cfg["max_depth"])
    sw = Stopwatch()
    binner = FeatureBinner().fit(X)
    times = {"bin_fit": sw.restart()}
    codes = binner.transform(X)
    times["bin_transform"] = sw.restart()
    times["bootstrap"] = times["tree_build"] = 0.0
    trees = []
    for rng in spawn_rngs(cfg["seed"], cfg["n_trees"]):
        idx = bootstrap_indices(rng, X.shape[0])
        Xb, yb, cb = X[idx], y[idx], codes[idx]
        times["bootstrap"] += sw.restart()
        trees.append(builder.build(Xb, yb, n_classes, rng=rng, binner=binner, codes=cb))
        times["tree_build"] += sw.restart()
    times["fit"] = sum(times.values())
    return trees, times


def bench_config(cfg, repeats):
    """Median milliseconds per stage, nodes/s and any fingerprint mismatch."""
    ds = load_dataset(cfg["dataset"], rows=cfg["rows"])
    samples = {stage: [] for stage in STAGES}
    for _ in range(repeats):
        trees, times = staged_fit(ds.X_train, ds.y_train, cfg)
        for stage, seconds in times.items():
            samples[stage].append(seconds)
    forest = RandomForestClassifier(
        n_estimators=cfg["n_trees"], max_depth=cfg["max_depth"], seed=cfg["seed"]
    ).fit(ds.X_train, ds.y_train)
    got = forest_fingerprint(trees)
    bad = []
    if forest_fingerprint(forest.trees_) != got:
        bad.append("staged fit differs from RandomForestClassifier.fit")
    if got != cfg["fingerprint"]:
        bad.append(f"fingerprint {got}, want {cfg['fingerprint']}")
    out = {f"{stage}_ms": 1e3 * float(np.median(v)) for stage, v in samples.items()}
    nodes = sum(t.n_nodes for t in trees)
    out.update(
        nodes=nodes,
        nodes_per_s=nodes / float(np.median(samples["tree_build"])),
        fingerprint=got,
    )
    return out, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--check",
        action="store_true",
        help="fail if any retrained forest differs from its pinned fingerprint",
    )
    ap.add_argument("--repeats", type=int, default=3, help="timed fits per config")
    args = ap.parse_args(argv)
    results, failed = {}, False
    for label, cfg in configs().items():
        results[label], bad = bench_config(cfg, args.repeats)
        for line in bad:
            print(f"FINGERPRINT MISMATCH {label}: {line}")
        failed = failed or bool(bad)
    cols = [f"{stage}_ms" for stage in STAGES] + ["nodes", "nodes_per_s"]
    print(
        format_table(
            ["config"] + cols,
            [
                [label] + [f"{r[c]:.{1 if c.endswith('_ms') else 0}f}" for c in cols]
                for label, r in results.items()
            ],
        )
    )
    if not failed:
        print(f"fingerprints: {len(results)} retrained forests match")
    if not args.check:
        with open(BENCH_PATH, "w") as f:
            bench = {"repeats": args.repeats, "results": results}
            json.dump(bench, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {BENCH_PATH}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
