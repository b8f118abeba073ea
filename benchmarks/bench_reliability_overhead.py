"""Reliability overhead: the clean path must not pay for integrity.

Checksums are computed once when a layout is built; the acceptance bar for
the reliability subsystem is that a normal (fault-free) classification run
pays *nothing* beyond that build-time hash:

1. Simulated device seconds are bit-identical with and without attached
   checksums (the kernels never consult them unless asked).
2. No checksum verification executes on the clean path (counted by
   instrumenting ``LayoutIntegrity.check``).
3. Wall-clock per classify call stays within noise of the same layout
   with its digests dropped (generous 1.5x bound — the arrays are untouched, so anything
   above noise would be a wiring bug).
4. The guarded wrapper's clean path runs no check either, and returns
   the exact same predictions and seconds: the CPU oracle proves every
   guarded launch (a host walk under ``trace="model"``, the leaf
   certificate under ``trace="off"``), and the guard hashes a served image
   only after a launch fails.  So N clean guarded calls run 0 checks in
   both trace modes.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.core.classifier import HierarchicalForestClassifier
from repro.core.config import TRACE_OFF, RunConfig
from repro.forest.tree import random_tree
from repro.layout.hierarchical import HierarchicalForest, LayoutParams
from repro.reliability import ResilientClassifier
from repro.reliability.integrity import LayoutIntegrity
from repro.utils.clock import Stopwatch
from repro.utils.tables import format_table

_REPEATS = 20
_GUARDED_BATCHES = 5


def _trees():
    rng = np.random.default_rng(23)
    return [random_tree(rng, 16, 12, leaf_prob=0.2, min_nodes=3) for _ in range(12)]


def _classify_wall_seconds(clf, X, config):
    watch = Stopwatch()
    for _ in range(_REPEATS):
        res = clf.classify(X, config)
    return watch.elapsed() / _REPEATS, res


def _run():
    trees = _trees()
    rng = np.random.default_rng(29)
    X = rng.standard_normal((2048, 16)).astype(np.float32)
    config = RunConfig(variant="hybrid")

    # Layout build: the only place integrity is allowed to cost anything
    # (bench_layout_build.py times the digest stage on its own).
    watch = Stopwatch()
    checked = HierarchicalForest.from_trees(trees, LayoutParams(6))
    build_s = watch.elapsed()
    plain = HierarchicalForest.from_trees(trees, LayoutParams(6))
    plain.integrity = None  # the same layout without its digests

    clf_plain = HierarchicalForestClassifier.from_trees(trees, 16)
    clf_plain._layout_cache[("hier", 6, 6)] = plain
    clf_checked = HierarchicalForestClassifier.from_trees(trees, 16)
    clf_checked._layout_cache[("hier", 6, 6)] = checked

    # Count verifications on the clean path.
    counter = {"n": 0}
    orig = LayoutIntegrity.check

    def counting(self, layout):
        counter["n"] += 1
        return orig(self, layout)

    LayoutIntegrity.check = counting
    try:
        wall_plain, res_plain = _classify_wall_seconds(clf_plain, X, config)
        wall_checked, res_checked = _classify_wall_seconds(clf_checked, X, config)
        clean_path_verifications = counter["n"]
    finally:
        LayoutIntegrity.check = orig

    # Guarded clean trace-model calls: the oracle proves each one, so
    # nothing is hashed.
    guard = ResilientClassifier(clf_checked)
    counter["n"] = 0
    LayoutIntegrity.check = counting
    try:
        for _ in range(_GUARDED_BATCHES):
            res_guarded = guard.classify(X, config)
        trace_model_checks = counter["n"]
    finally:
        LayoutIntegrity.check = orig

    # Guarded clean trace-off batches: the leaf certificate proves each
    # one, so nothing is hashed either.
    served = RunConfig(variant="hybrid", trace=TRACE_OFF)
    guard_off = ResilientClassifier(clf_checked)
    counter["n"] = 0
    LayoutIntegrity.check = counting
    try:
        for lo in range(0, _GUARDED_BATCHES * 8, 8):
            res_off = guard_off.classify(X[lo : lo + 8], served)
            assert not res_off.reliability.degraded
        trace_off_checks = counter["n"]
    finally:
        LayoutIntegrity.check = orig

    return {
        "build_s": build_s,
        "sim_seconds_plain": res_plain.seconds,
        "sim_seconds_checked": res_checked.seconds,
        "wall_per_call_plain_s": wall_plain,
        "wall_per_call_checked_s": wall_checked,
        "wall_ratio": wall_checked / wall_plain,
        "clean_path_verifications": clean_path_verifications,
        "guarded_sim_seconds": res_guarded.seconds,
        "guarded_trace_model_checks": trace_model_checks,
        "guarded_trace_off_checks": trace_off_checks,
        "predictions_equal": bool(
            np.array_equal(res_plain.predictions, res_checked.predictions)
            and np.array_equal(res_plain.predictions, res_guarded.predictions)
        ),
    }


def test_reliability_clean_path_overhead(benchmark):
    out = run_once(benchmark, _run)
    print(
        "\n"
        + format_table(
            ["metric", "value"],
            [[k, v] for k, v in out.items()],
            title="Reliability: clean-path overhead (before/after integrity)",
            float_digits=6,
        )
    )
    # Identical simulated time: checksums are invisible to the timing model.
    assert out["sim_seconds_checked"] == out["sim_seconds_plain"]
    assert out["guarded_sim_seconds"] == out["sim_seconds_plain"]
    assert out["predictions_equal"]
    # Zero verifications on the unguarded clean path.
    assert out["clean_path_verifications"] == 0
    # Nor on the guarded clean path, in either trace mode: the guard
    # hashes only after a failed launch.
    assert out["guarded_trace_model_checks"] == 0
    assert out["guarded_trace_off_checks"] == 0
    # Wall-clock within noise of the no-integrity build.
    assert out["wall_ratio"] < 1.5
