"""Fig. 5 — accuracy heat-maps over tree depth x number of trees.

The paper trains forests at depths 5-50 and 10-150 trees on each dataset and
reports test accuracy; the plateaus guide its depth-band selection (§4.1).
At reproduction scale the depth axis is compressed (see
``repro.datasets.profiles``): accuracy must rise monotonically-ish to a
dataset-specific ceiling, with susy saturating earliest and covertype
climbing longest to the highest ceiling.

The reproduction extends the figure with a compression axis: at the
largest grid point (max depth x max trees) each quantized codec is scored
through the fastpath gather-decode, so the accuracy cost of float16/int8/
packed thresholds is measured against the float32 cell it shadows.  The
acceptance bound is int8 within 0.5 pp of float32 on every dataset.
"""

from __future__ import annotations

from typing import Dict, List

from repro.datasets.profiles import PROFILES
from repro.experiments.common import emit_manifest, get_dataset, get_scale
from repro.fastpath import fastpath_predict
from repro.forest.metrics import accuracy_score
from repro.forest.random_forest import RandomForestClassifier
from repro.layout.codec import PRECISIONS
from repro.layout.csr import CSRForest
import numpy as np

from repro.utils.ascii_plot import heatmap
from repro.utils.tables import format_table

DATASETS = ("covertype", "susy", "higgs")

#: Non-baseline codecs scored at the largest grid point per dataset.
QUANT_CODECS = tuple(c for c in PRECISIONS if c != "float32")


def run(scale="default", datasets=DATASETS, seed: int = 0) -> List[Dict]:
    """Train the accuracy grid; returns one row per (dataset, depth, trees).

    Two grid tricks keep the sweep tractable without changing its meaning:

    * One training run per dataset at the deepest grid depth; shallower
      cells are *depth truncations* of the same trees (greedy splits above
      a depth cap do not depend on the budget below, see
      :mod:`repro.forest.prune`).
    * Smaller ensembles are prefixes of the largest one (trees are i.i.d.
      given the data).
    """
    from repro.forest.prune import truncate_forest

    scale = get_scale(scale)
    rows: List[Dict] = []
    max_depth = max(scale.fig5_depths)
    max_trees = max(scale.fig5_tree_counts)
    for name in datasets:
        ds = get_dataset(name, scale)
        # Deliberately NOT get_forest: the whole grid is carved out of one
        # bespoke deepest/widest forest via truncation/prefixing, which the
        # shared (depth, trees) cache key cannot express.  This call is the
        # one API001 allowlist entry in tests/test_source_rules.py.
        deep = RandomForestClassifier(
            n_estimators=max_trees, max_depth=max_depth, seed=seed
        ).fit(ds.X_train, ds.y_train)
        for depth in scale.fig5_depths:
            forest = truncate_forest(deep, depth)
            for n_trees in scale.fig5_tree_counts:
                sub = RandomForestClassifier.from_trees(
                    forest.trees_[:n_trees], ds.n_features
                )
                acc = sub.score(ds.X_test, ds.y_test)
                rows.append(
                    {
                        "dataset": name,
                        "depth": depth,
                        "n_trees": n_trees,
                        "codec": "float32",
                        "accuracy": acc,
                        "paper_peak": PROFILES[name].paper_peak_accuracy,
                    }
                )
        # Compression axis: quantized codecs scored at the largest grid
        # point through the fastpath gather-decode (bit-identical to the
        # layout's own round-tripped thresholds).
        for codec in QUANT_CODECS:
            layout = CSRForest.from_trees(deep.trees_, codec=codec)
            preds, _ = fastpath_predict(layout, ds.X_test)
            rows.append(
                {
                    "dataset": name,
                    "depth": max_depth,
                    "n_trees": max_trees,
                    "codec": codec,
                    "accuracy": accuracy_score(ds.y_test, preds),
                    "paper_peak": PROFILES[name].paper_peak_accuracy,
                }
            )
    return rows


def render(rows: List[Dict]) -> str:
    """One shaded heat-map per dataset (the paper's Fig. 5 presentation:
    depth rows, tree-count columns, darker = more accurate), followed by
    the codec accuracy table for the compression axis."""
    out = []
    base = [r for r in rows if r.get("codec", "float32") == "float32"]
    quant = [r for r in rows if r.get("codec", "float32") != "float32"]
    datasets = sorted({r["dataset"] for r in base})
    for name in datasets:
        sub = [r for r in base if r["dataset"] == name]
        depths = sorted({r["depth"] for r in sub})
        counts = sorted({r["n_trees"] for r in sub})
        grid = np.full((len(depths), len(counts)), np.nan, dtype=np.float64)
        for r in sub:
            grid[depths.index(r["depth"]), counts.index(r["n_trees"])] = r[
                "accuracy"
            ]
        out.append(
            heatmap(
                grid,
                row_labels=[f"d={d}" for d in depths],
                col_labels=[f"t={c}" for c in counts],
                title=f"Fig. 5 [{name}] accuracy "
                f"(paper peak {PROFILES[name].paper_peak_accuracy:.3f})",
            )
        )
    if quant:
        f32_at = {
            (r["dataset"], r["depth"], r["n_trees"]): r["accuracy"] for r in base
        }
        table = []
        for r in quant:
            ref = f32_at.get((r["dataset"], r["depth"], r["n_trees"]))
            delta = "n/a" if ref is None else f"{(r['accuracy'] - ref) * 100:+.2f}"
            table.append(
                [
                    r["dataset"],
                    r["codec"],
                    r["depth"],
                    r["n_trees"],
                    f"{r['accuracy']:.4f}",
                    delta,
                ]
            )
        out.append(
            format_table(
                ["dataset", "codec", "depth", "trees", "accuracy", "delta pp"],
                table,
                title="Fig. 5 codec extension: quantized thresholds vs float32 "
                "(bound: int8 within 0.5 pp)",
            )
        )
    return "\n\n".join(out)


def main(scale="default") -> List[Dict]:  # pragma: no cover - CLI glue
    rows = run(scale)
    print(render(rows))
    emit_manifest("fig5", scale, rows)
    return rows
