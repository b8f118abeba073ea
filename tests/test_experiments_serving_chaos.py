"""Tests for the serving_chaos experiment: the one observed chaos replay
(:func:`run_slo_soak`), its survivability rows, and the regression gate
(:func:`check_slo_report`) it is held to."""

import copy

import pytest

from repro.core.classifier import HierarchicalForestClassifier
from repro.experiments import serving_chaos
from repro.experiments.common import (
    band_depths,
    get_dataset,
    get_forest,
    get_scale,
    queries_for,
)
from repro.obs.slo import (
    P99_TOLERANCE,
    SHED_TOLERANCE,
    ZERO_BUDGET_BURN,
    check_slo_report,
)
from repro.serving import (
    ChaosScenario,
    TrafficProfile,
    default_scenarios,
    run_scenario,
)


def tiny_scenarios():
    return [
        ChaosScenario(
            name="tiny",
            traffic_seed=21,
            fault_seed=22,
            launch_fail_rate=0.2,
            custom=TrafficProfile(
                name="tiny", duration_s=0.1, base_qps=300.0, deadline_s=0.1
            ),
        )
    ]


@pytest.fixture(scope="module")
def soak():
    return serving_chaos.run_slo_soak("smoke", scenarios=tiny_scenarios())


class TestRunReports:
    def test_report_structure(self, soak):
        (rep,) = serving_chaos.survivability_reports(soak)
        assert rep["scenario"] == "tiny"
        assert rep["correctness"]["wrong_answers"] == 0
        assert rep["requests"]["offered"] > 0
        for key in ("requests", "latency_s", "rates", "execution", "by_tenant"):
            assert key in rep

    def test_seed_offset_changes_the_soak(self, soak):
        b = serving_chaos.run_slo_soak(
            "smoke", seed=1, scenarios=tiny_scenarios()
        )
        (rep_a,) = serving_chaos.survivability_reports(soak)
        (rep_b,) = serving_chaos.survivability_reports(b)
        assert rep_a["seeds"] != rep_b["seeds"]

    def test_rows_flatten_one_per_scenario(self, soak):
        reports = serving_chaos.survivability_reports(soak)
        (row,) = serving_chaos.rows_from_reports(reports)
        assert row["scenario"] == "tiny"
        assert row["wrong_answers"] == 0
        assert set(row) >= {
            "offered",
            "served",
            "p99_latency_s",
            "shed_rate",
            "degraded_rate",
            "hedged_batches",
        }
        assert serving_chaos.render([row])  # table renders


class TestBaselineGates:
    """The SLO gate holds the survivability sections to the baseline's."""

    def test_clean_reports_pass_their_own_baseline(self, soak):
        assert check_slo_report(soak.report, soak.report) == []

    def test_wrong_answers_fail_outright(self, soak):
        bad = copy.deepcopy(soak.report)
        (scenario,) = bad["scenarios"]
        scenario["survivability"]["correctness"]["wrong_answers"] = 1
        truth = scenario["objectives"][-1]
        assert truth["kind"] == "correctness"
        truth.update(violated=True, bad_events=1, burn_rate=ZERO_BUDGET_BURN)
        failures = check_slo_report(bad, soak.report)
        assert any("wrong answers" in f for f in failures)

    def test_p99_regression_fails(self, soak):
        slow = copy.deepcopy(soak.report)
        latency = slow["scenarios"][0]["survivability"]["latency_s"]
        assert latency["p99"] > 0
        within = latency["p99"] * P99_TOLERANCE
        latency["p99"] = within
        assert check_slo_report(slow, soak.report) == []
        latency["p99"] = within * 1.01
        failures = check_slo_report(slow, soak.report)
        assert any("p99" in f for f in failures)

    def test_shed_regression_fails(self, soak):
        shedding = copy.deepcopy(soak.report)
        rates = shedding["scenarios"][0]["survivability"]["rates"]
        base_shed = rates["shed"]
        rates["shed"] = base_shed + SHED_TOLERANCE
        assert check_slo_report(shedding, soak.report) == []
        rates["shed"] = base_shed + SHED_TOLERANCE + 0.01
        failures = check_slo_report(shedding, soak.report)
        assert any("shed rate" in f for f in failures)

    def test_missing_baseline_entry_fails(self, soak):
        failures = check_slo_report(soak.report, {"scenarios": []})
        assert any("no baseline entry" in f for f in failures)


class TestObservationIsPassive:
    """Tracing, SLO events and the drift monitor never change serving."""

    @pytest.fixture(scope="class")
    def observed(self):
        soak = serving_chaos.run_slo_soak("smoke")
        return {
            rep["scenario"]: rep
            for rep in serving_chaos.survivability_reports(soak)
        }

    @pytest.mark.parametrize(
        "scenario",
        default_scenarios(duration_s=serving_chaos.DURATIONS["smoke"]),
        ids=lambda s: s.name,
    )
    def test_survivability_matches_a_plain_replay(self, observed, scenario):
        scale = get_scale("smoke")
        ds = get_dataset(serving_chaos.DATASET, scale)
        depth = band_depths(serving_chaos.DATASET, scale)[0]
        forest = get_forest(
            serving_chaos.DATASET, depth, scale.n_trees, scale, seed=0
        )
        clf = HierarchicalForestClassifier.from_forest(forest)
        plain = run_scenario(clf, queries_for(ds, scale)[:512], scenario)
        assert observed[scenario.name] == plain
