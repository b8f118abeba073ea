"""Tests for compile_plan and the cost-model autotuner."""

import numpy as np
import pytest

from repro.baselines.cpu_reference import reference_predict
from repro.core.config import KernelVariant, Platform, RunConfig
from repro.datasets.profiles import make_synthetic_forest
from repro.fpgasim.replication import Replication
from repro.layout.codec import quantize_trees
from repro.layout.hierarchical import LayoutParams
from repro.runtime import (
    ExecutionPlan,
    PlanError,
    Planner,
    RuntimeSession,
    compile_plan,
    forest_fingerprint,
)


@pytest.fixture(scope="module")
def workload():
    forest, X = make_synthetic_forest(
        n_trees=6, depth=9, n_features=12, n_queries=512, leaf_prob=0.1, seed=7
    )
    return forest, X


def make_planner(forest, **kwargs):
    return Planner(RuntimeSession.from_forest(forest), **kwargs)


class TestCompilePlan:
    def test_explicit_config_maps_one_to_one(self, workload):
        forest, _ = workload
        cfg = RunConfig(
            platform=Platform.FPGA,
            variant=KernelVariant.HYBRID,
            layout=LayoutParams(6, 10),
            replication=Replication(4, 12),
        )
        plan = compile_plan(forest, cfg)
        assert plan.platform == "fpga"
        assert plan.variant == "hybrid"
        assert plan.layout == cfg.layout
        assert plan.replication == cfg.replication
        assert plan.source == "explicit"
        # The round trip back to a RunConfig is the legacy wiring exactly.
        back = plan.to_run_config()
        assert back.platform is cfg.platform
        assert back.variant is cfg.variant
        assert back.layout == cfg.layout
        assert back.replication == cfg.replication

    def test_auto_variant_rejected(self, workload):
        forest, _ = workload
        with pytest.raises(PlanError):
            compile_plan(forest, RunConfig(variant=KernelVariant.AUTO))

    def test_non_config_rejected(self, workload):
        forest, _ = workload
        with pytest.raises(PlanError):
            compile_plan(forest, {"variant": "hybrid"})

    def test_invalid_pair_propagates(self, workload):
        forest, _ = workload
        cfg = RunConfig(platform=Platform.GPU, variant=KernelVariant.CUML)
        plan = compile_plan(forest, cfg)
        assert plan.variant == "cuml"  # valid on GPU


class TestPlannerExplicitPath:
    def test_plan_honours_explicit_config(self, workload):
        forest, X = workload
        planner = make_planner(forest)
        cfg = RunConfig(variant=KernelVariant.CSR)
        plan = planner.plan(X, cfg)
        assert plan == compile_plan(forest, cfg)
        # No autotuning happened.
        assert planner.stats["cost_evaluations"] == 0
        assert planner.stats["probe_runs"] == 0


class TestAutotune:
    def test_deterministic_under_fixed_seed(self, workload):
        # One planner asked twice ranks every candidate twice: it keeps
        # no memo.
        forest, X = workload
        planner = make_planner(forest, seed=0)
        a = planner.autotune(X)
        evals = planner.stats["cost_evaluations"]
        b = planner.autotune(X)
        assert evals == len(planner.candidates(Platform.GPU))
        assert planner.stats["cost_evaluations"] == 2 * evals
        assert planner.stats["probe_runs"] == 0
        assert a.to_json() == b.to_json()
        assert a.cost_estimate_s is not None

    def test_fresh_planners_both_probe_and_agree(self, workload):
        # No state outlives a planner: each one tunes from scratch and the
        # seeded decision repeats exactly.
        forest, X = workload
        first, second = make_planner(forest), make_planner(forest)
        a, b = first.autotune(X), second.autotune(X)
        assert first.stats == second.stats
        assert first.stats["cost_evaluations"] > 0
        assert a.to_json() == b.to_json()
        assert a.source == b.source == "autotuned"

    @pytest.mark.parametrize("platform", [Platform.GPU, Platform.FPGA])
    def test_autotune_runs_no_simulation(self, workload, monkeypatch, platform):
        forest, X = workload
        planner = make_planner(forest)

        def refuse(*args, **kwargs):
            raise AssertionError("the planner ran a plan")

        monkeypatch.setattr(RuntimeSession, "run", refuse)
        plan = planner.autotune(X, platform=platform)
        assert plan.platform == platform.value
        assert plan.cost_estimate_s > 0

    @pytest.mark.parametrize("platform", [Platform.GPU, Platform.FPGA])
    def test_one_autotune_walks_the_probe_once(self, workload, monkeypatch, platform):
        """Every candidate's counts come from one walk of the probe sample."""
        from repro.runtime import planner as planner_module

        forest, X = workload
        planner = make_planner(forest)
        walks = []
        real = planner_module.level_counts

        def spy(table, probe):
            walks.append(probe.shape[0])
            return real(table, probe)

        monkeypatch.setattr(planner_module, "level_counts", spy)
        planner.autotune(X, platform=platform)
        assert walks == [planner.probe_queries]
        assert planner.stats["cost_evaluations"] == len(planner.candidates(platform))

    def test_fpga_estimate_is_the_simulated_seconds(self, workload):
        """With the whole query set as the sample, the FPGA estimate is the
        simulator's own pricing of the same counts, for every candidate."""
        forest, X = workload
        X = X[:200]
        planner = make_planner(forest, probe_queries=256)
        session = planner.session
        pool = planner.candidates(Platform.FPGA)
        labels = {p.label for p in pool}
        assert {"fpga-csr", "fpga-independent-SD8-4S12C"} <= labels
        assert any(p.replication.split_stage1 for p in pool)
        for plan in pool:
            estimate = planner.estimate(plan, X, len(X))
            simulated = session.run(plan, X).seconds
            assert estimate == pytest.approx(simulated, rel=1e-9), plan.label

    def test_candidates_enumerate_hybrid_rsd(self, workload):
        forest, _ = workload
        planner = make_planner(forest)
        gpu = planner.candidates(Platform.GPU)
        labels = {p.label for p in gpu}
        assert "gpu-csr" in labels
        assert "gpu-hybrid-SD6-RSD10" in labels
        assert all(p.variant != "cuml" for p in gpu)  # comparator, not a choice
        fpga = planner.candidates(Platform.FPGA)
        assert any(p.replication.total_cus > 1 for p in fpga)
        assert any(p.replication.split_stage1 for p in fpga)

    def test_observer_on_plan_fires(self, workload):
        forest, X = workload
        seen = []

        class Observer:
            def on_plan(self, plan):
                seen.append(plan)

        planner = make_planner(forest, observer=Observer())
        chosen = planner.autotune(X)
        assert seen == [chosen]

    def test_classifier_auto_resolves_through_planner(self, workload, monkeypatch):
        from repro.core.classifier import HierarchicalForestClassifier

        forest, X = workload
        clf = HierarchicalForestClassifier.from_forest(forest)
        res = clf.classify(X, RunConfig(variant=KernelVariant.AUTO))
        assert res.config.variant is not KernelVariant.AUTO
        explicit = clf.classify(X, res.config)
        np.testing.assert_array_equal(res.predictions, explicit.predictions)
        assert res.seconds == pytest.approx(explicit.seconds, abs=1e-12)


#: The GPU and FPGA picks' estimated seconds, as ``make plan`` prints them.
SMOKE_PICK_COSTS = {
    "covertype": ("0.000034", "0.000794"),
    "susy": ("0.000033", "0.000784"),
    "higgs": ("0.000035", "0.000796"),
}


@pytest.mark.parametrize("name", ["covertype", "susy", "higgs"])
def test_smoke_forest_picks(name):
    """The checked-in smoke forests' picks, as ``make plan`` prints them."""
    from repro.experiments.common import (
        band_depths,
        get_dataset,
        get_forest,
        get_scale,
        queries_for,
    )

    scale = get_scale("smoke")
    forest = get_forest(name, band_depths(name, scale)[0], scale.n_trees, scale)
    X = queries_for(get_dataset(name, scale), scale)
    planner = make_planner(forest)
    gpu = planner.autotune(X, platform=Platform.GPU)
    fpga = planner.autotune(X, platform=Platform.FPGA)
    assert gpu.label == "gpu-hybrid-SD8-RSD10"
    assert fpga.label == "fpga-independent-SD8-4S12C"
    gpu_cost, fpga_cost = SMOKE_PICK_COSTS[name]
    assert f"{gpu.cost_estimate_s:.6f}" == gpu_cost
    assert f"{fpga.cost_estimate_s:.6f}" == fpga_cost


class TestFingerprints:
    def test_forest_fingerprint_is_stable_and_sensitive(self, workload):
        forest, _ = workload
        fp = forest_fingerprint(forest.trees_)
        assert fp == forest_fingerprint(forest.trees_)
        other, _ = make_synthetic_forest(
            n_trees=6, depth=9, n_features=12, n_queries=16, leaf_prob=0.1, seed=8
        )
        assert forest_fingerprint(other.trees_) != fp

class TestPrecisionBudget:
    """The precision axis through the planner (ISSUE 10)."""

    def test_budget_widens_candidates_to_every_codec(self, workload):
        forest, _ = workload
        planner = make_planner(forest)
        base = planner.candidates(Platform.GPU)
        widened = planner.candidates(
            Platform.GPU, precisions=("float32", "float16", "int8", "packed")
        )
        assert {p.precision for p in base} == {"float32"}
        assert len(widened) == 4 * len(base)
        assert {p.precision for p in widened} == {
            "float32", "float16", "int8", "packed"
        }

    def test_auto_under_tight_budget_selects_quantized(self, workload):
        """Acceptance: variant="auto" + memory budget -> quantized layout."""
        from repro.runtime.cost import plan_footprint_bytes

        forest, X = workload
        planner = make_planner(forest)
        f32 = planner.autotune(X)
        f32_bytes = planner._footprint(f32)
        budget = f32_bytes // 2  # float32 layouts cannot fit
        cfg = RunConfig(variant=KernelVariant.AUTO, memory_budget_bytes=budget)
        plan = planner.plan(X, cfg)
        assert plan.precision != "float32"
        assert planner._footprint(plan) <= budget

    def test_loose_budget_keeps_float32_competitive(self, workload):
        forest, X = workload
        planner = make_planner(forest)
        cfg = RunConfig(
            variant=KernelVariant.AUTO, memory_budget_bytes=1 << 40
        )
        plan = planner.plan(X, cfg)
        assert planner._footprint(plan) <= 1 << 40

    def test_impossible_budget_falls_back_to_smallest(self, workload):
        forest, X = workload
        planner = make_planner(forest)
        cfg = RunConfig(variant=KernelVariant.AUTO, memory_budget_bytes=1)
        plan = planner.plan(X, cfg)  # least-bad answer, never a refusal
        assert plan.precision == "packed"

    def test_quantized_plan_runs_end_to_end(self, workload):
        forest, X = workload
        planner = make_planner(forest)
        cfg = RunConfig(variant=KernelVariant.AUTO, memory_budget_bytes=1 << 14)
        plan = planner.plan(X, cfg)
        res = planner.session.run(plan, X)
        trees = quantize_trees(planner.session.trees, plan.precision)
        assert np.array_equal(res.predictions, reference_predict(trees, X))

    def test_config_rejects_bad_precision_and_budget(self):
        with pytest.raises(ValueError, match="precision"):
            RunConfig(precision="bf16")
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            RunConfig(memory_budget_bytes=0)
        with pytest.raises(ValueError, match="cuML"):
            RunConfig(variant=KernelVariant.CUML, precision="int8")

    def test_plan_rejects_cuml_quantized(self):
        with pytest.raises(PlanError, match="cuML"):
            ExecutionPlan(variant="cuml", precision="int8")
