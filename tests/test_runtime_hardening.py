"""Tests for runtime-layer hardening: typed ExecutionError and plan-cache
corruption handling (warn + evict + re-probe, atomic writes)."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import KernelVariant, Platform, RunConfig
from repro.datasets.profiles import make_synthetic_forest
from repro.reliability.faults import TransientKernelError
from repro.runtime import (
    ExecutionError,
    ExecutionPlan,
    Planner,
    RuntimeSession,
    compile_plan,
)
from repro.runtime.planner import forest_fingerprint


@pytest.fixture(scope="module")
def workload():
    forest, X = make_synthetic_forest(
        n_trees=5, depth=8, n_features=10, n_queries=256, leaf_prob=0.12, seed=11
    )
    return forest, X


def failing_gate():
    raise TransientKernelError("injected launch failure")


class TestExecutionError:
    def test_backend_failure_carries_plan_context(self, workload):
        forest, X = workload
        session = RuntimeSession.from_forest(forest)
        plan = compile_plan(forest, RunConfig(variant=KernelVariant.HYBRID))
        with pytest.raises(ExecutionError) as err:
            session.run(plan, X, launch_gate=failing_gate)
        e = err.value
        assert e.plan is plan
        assert e.platform == "gpu"
        assert e.variant == "hybrid"
        assert isinstance(e.__cause__, TransientKernelError)
        assert str(e) == (
            f"plan {plan.label} failed: "
            "TransientKernelError: injected launch failure"
        )

    def test_clean_run_unaffected(self, workload):
        forest, X = workload
        session = RuntimeSession.from_forest(forest)
        plan = compile_plan(forest, RunConfig(variant=KernelVariant.HYBRID))
        res = session.run(plan, X)
        assert res.predictions.shape[0] == X.shape[0]


class TestPlanCacheHardening:
    def make_planner(self, forest, tmp_path):
        session = RuntimeSession.from_forest(forest)
        return Planner(
            session, cache_dir=str(tmp_path), probe_queries=64, top_k=1
        )

    def test_corrupt_entry_warned_evicted_and_retuned(
        self, workload, tmp_path, capsys
    ):
        forest, X = workload
        planner = self.make_planner(forest, tmp_path)
        plan = planner.autotune(X, platform=Platform.GPU)
        path = planner._cache_path(X, Platform.GPU)
        assert os.path.exists(path)

        with open(path, "w", encoding="utf-8") as f:
            f.write('{"version": 1, "plan": {"platfo')  # truncated write
        replay = self.make_planner(forest, tmp_path)
        replanned = replay.autotune(X, platform=Platform.GPU)
        out = capsys.readouterr().out
        assert "[plan cache] discarding corrupt entry" in out
        assert replay.stats["cache_evictions"] == 1
        assert replay.stats["cache_hits"] == 0
        assert replay.stats["probe_runs"] > 0  # genuinely re-probed
        assert replanned.to_json() == plan.to_json()  # same deterministic choice
        # The retune rewrote a healthy entry: next decision is a pure hit.
        third = self.make_planner(forest, tmp_path)
        third.autotune(X, platform=Platform.GPU)
        assert third.stats["cache_hits"] == 1

    def test_missing_plan_key_is_treated_as_corrupt(self, workload, tmp_path):
        forest, X = workload
        planner = self.make_planner(forest, tmp_path)
        path = planner._cache_path(X, Platform.GPU)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"version": 1}, f)  # valid JSON, wrong schema
        planner.autotune(X, platform=Platform.GPU)
        assert planner.stats["cache_evictions"] == 1
        assert not os.path.exists(path) or planner.stats["cache_writes"] == 1

    def test_entry_written_before_field_removal_still_replays(
        self, workload, tmp_path
    ):
        # Plan-cache entries written before the sharding field was removed
        # carry "batch_split": 1; from_dict ignores it, so they replay.
        forest, X = workload
        older = {
            "batch_split": 1,
            "cost_estimate_s": 2.5e-05,
            "layout": {"root_subtree_depth": None, "subtree_depth": 5},
            "platform": "gpu",
            "precision": "float32",
            "replication": {
                "cus_per_slr": 1,
                "freq_mhz": None,
                "n_slrs": 1,
                "split_stage1": False,
            },
            "source": "autotuned",
            "trace": "model",
            "variant": "independent",
            "verify_integrity": False,
        }
        expected = ExecutionPlan.from_dict(older)
        assert expected.variant == "independent"
        assert expected.layout.sd == 5

        planner = self.make_planner(forest, tmp_path)
        path = planner._cache_path(X, Platform.GPU)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "version": 1,
                    "forest_fingerprint": forest_fingerprint(forest.trees_),
                    "probe_queries": 64,
                    "seed": planner.seed,
                    "plan": older,
                },
                f,
            )
        plan = planner.autotune(X, platform=Platform.GPU)
        assert plan.source == "cache"
        assert plan.to_json() == replace(expected, source="cache").to_json()
        assert planner.stats["cache_hits"] == 1
        assert planner.stats["cache_evictions"] == 0
        assert planner.stats["probe_runs"] == 0
        assert os.path.exists(path)

    def test_store_is_atomic_rename(self, workload, tmp_path):
        forest, X = workload
        planner = self.make_planner(forest, tmp_path)
        planner.autotune(X, platform=Platform.GPU)
        leftovers = [n for n in os.listdir(tmp_path) if ".tmp." in n]
        assert leftovers == []
        path = planner._cache_path(X, Platform.GPU)
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
        assert "plan" in payload and payload["version"] == 1
