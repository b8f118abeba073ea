"""SLO burn-rate engine, the observed chaos soak, and the drift CI gate."""

import copy
import json

import pytest

from repro.experiments import serving_chaos
from repro.obs.bridges import LATENCY_BUCKETS
from repro.obs.slo import (
    ZERO_BUDGET_BURN,
    BurnWindow,
    SLObjective,
    SLOEvent,
    check_slo_report,
    default_objectives,
    evaluate_objective,
    read_slo_report,
    render_slo_report,
    write_slo_report,
)
from repro.serving import default_scenarios

SOAK_NAMES = ("calm-steady", "bursty-hangs")


def soak_scenarios():
    """A reduced grid: one calm and one hostile scenario, short horizon."""
    return [
        s for s in default_scenarios(duration_s=0.2) if s.name in SOAK_NAMES
    ]


@pytest.fixture(scope="module")
def soak():
    return serving_chaos.run_slo_soak("smoke", scenarios=soak_scenarios())


# ----------------------------------------------------------------------
# Pure burn-rate math
# ----------------------------------------------------------------------
def _events(n_good, n_bad, horizon_s=10.0, bad_ts=None, latency_s=0.01):
    events = [
        SLOEvent(
            ts_s=horizon_s * (i + 1) / (n_good + 1),
            latency_s=latency_s,
            served=True,
        )
        for i in range(n_good)
    ]
    for i in range(n_bad):
        ts = bad_ts if bad_ts is not None else horizon_s * 0.5
        events.append(
            SLOEvent(
                ts_s=ts,
                latency_s=latency_s,
                served=False,
                trace_id=f"bad{i:04d}",
            )
        )
    return events


class TestObjectiveValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown SLI kind"):
            SLObjective(name="x", kind="vibes", target=0.9)

    def test_target_bounds(self):
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="availability", target=0.0)
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="availability", target=1.5)

    def test_latency_needs_threshold(self):
        with pytest.raises(ValueError, match="threshold_s"):
            SLObjective(name="x", kind="latency", target=0.99)

    def test_is_bad_per_kind(self):
        served_fast = SLOEvent(ts_s=0.0, latency_s=0.01, served=True)
        served_slow = SLOEvent(ts_s=0.0, latency_s=0.5, served=True)
        shed = SLOEvent(ts_s=0.0, latency_s=0.5, served=False)
        wrong = SLOEvent(ts_s=0.0, latency_s=0.01, served=True, wrong=True)
        avail = SLObjective(name="a", kind="availability", target=0.9)
        lat = SLObjective(
            name="l", kind="latency", target=0.99, threshold_s=0.1
        )
        truth = SLObjective(name="c", kind="correctness", target=1.0)
        assert not avail.is_bad(served_fast) and avail.is_bad(shed)
        assert not lat.is_bad(served_fast)
        assert lat.is_bad(served_slow) and lat.is_bad(shed)
        assert truth.is_bad(wrong) and not truth.is_bad(shed)


class TestBurnRates:
    def test_no_events_is_healthy(self):
        obj = SLObjective(name="a", kind="availability", target=0.9)
        verdict = evaluate_objective(obj, [], horizon_s=1.0)
        assert verdict["burn_rate"] == 0.0
        assert not verdict["violated"]

    def test_zero_budget_burn_sentinel(self):
        obj = SLObjective(name="c", kind="correctness", target=1.0)
        events = [
            SLOEvent(ts_s=0.5, latency_s=0.01, served=True, wrong=True)
        ] + _events(9, 0)
        verdict = evaluate_objective(obj, events, horizon_s=10.0)
        assert verdict["burn_rate"] == ZERO_BUDGET_BURN
        assert verdict["violated"]

    def test_overall_budget_exhaustion_violates(self):
        # 4/10 bad with a 10% budget -> burn 4.0 > 1.0.
        obj = SLObjective(name="a", kind="availability", target=0.9)
        verdict = evaluate_objective(obj, _events(6, 4), horizon_s=10.0)
        assert verdict["burn_rate"] == pytest.approx(4.0)
        assert verdict["violated"]

    def test_short_window_guards_against_stale_burn(self):
        # A burst that ended before the short window should not page:
        # long window burns hot, short window is clean -> no breach.
        window = BurnWindow("w", long_frac=0.5, short_frac=0.25, max_burn=1.0)
        obj = SLObjective(
            name="a", kind="availability", target=0.5, windows=(window,)
        )
        stale = _events(4, 4, horizon_s=4.0, bad_ts=2.5)
        verdict = evaluate_objective(obj, stale, horizon_s=4.0)
        (row,) = verdict["windows"]
        assert row["long_burn"] > window.max_burn
        assert row["short_burn"] == 0.0
        assert not row["breached"]

        # The same burst still in flight breaches both windows.
        live = _events(4, 4, horizon_s=4.0, bad_ts=3.5)
        verdict = evaluate_objective(obj, live, horizon_s=4.0)
        (row,) = verdict["windows"]
        assert row["breached"]
        assert verdict["violated"]

    def test_exemplars_rank_worst_latency_first(self):
        obj = SLObjective(
            name="l", kind="latency", target=0.5, threshold_s=0.01,
            max_exemplars=2,
        )
        events = [
            SLOEvent(ts_s=1.0, latency_s=0.2, served=True, trace_id="mid"),
            SLOEvent(ts_s=2.0, latency_s=0.9, served=True, trace_id="worst"),
            SLOEvent(ts_s=3.0, latency_s=0.1, served=True, trace_id="best"),
        ]
        verdict = evaluate_objective(obj, events, horizon_s=10.0)
        assert verdict["exemplars"] == ["worst", "mid"]

    def test_default_objectives_cover_all_kinds(self):
        kinds = {o.kind for o in default_objectives()}
        assert kinds == {"availability", "latency", "correctness"}


# ----------------------------------------------------------------------
# The CI gate
# ----------------------------------------------------------------------
def _mini_report(violated=False, wrong=False, cal_err=0.0, reprobes=0):
    return {
        "scenarios": [
            {
                "scenario": "s",
                "objectives": [
                    {
                        "name": "availability",
                        "kind": "availability",
                        "violated": violated,
                        "burn_rate": 5.0 if violated else 0.0,
                        "bad_events": 3 if violated else 0,
                    },
                    {
                        "name": "correctness",
                        "kind": "correctness",
                        "violated": wrong,
                        "burn_rate": ZERO_BUDGET_BURN if wrong else 0.0,
                        "bad_events": 2 if wrong else 0,
                    },
                ],
                "calibration": {
                    "gpu/hierarchical": {
                        "mean_abs_log2_error": cal_err,
                        "reprobes": reprobes,
                    }
                },
            }
        ]
    }


class TestCheckSLOReport:
    def test_clean_report_passes_its_own_baseline(self):
        report = _mini_report()
        assert check_slo_report(report, report) == []

    def test_newly_violated_objective_fails(self):
        failures = check_slo_report(
            _mini_report(violated=True), _mini_report()
        )
        assert any("newly violates" in f for f in failures)

    def test_baseline_violation_is_not_a_regression(self):
        report = _mini_report(violated=True)
        assert check_slo_report(report, report) == []

    def test_correctness_has_zero_tolerance(self):
        # Wrong answers fail even when the baseline already had them.
        report = _mini_report(wrong=True)
        failures = check_slo_report(report, report)
        assert any("zero tolerance" in f for f in failures)

    def test_missing_baseline_scenario_fails(self):
        failures = check_slo_report(_mini_report(), {"scenarios": []})
        assert any("no baseline entry" in f for f in failures)

    def test_calibration_growth_beyond_tolerance_fails(self):
        base = _mini_report(cal_err=0.2)
        ok = check_slo_report(_mini_report(cal_err=0.6), base)
        assert ok == []  # within the 0.5 log2 tolerance
        failures = check_slo_report(
            _mini_report(cal_err=1.4, reprobes=1), base
        )
        assert any("re-probe" in f for f in failures)

    def test_report_round_trips_through_disk(self, tmp_path):
        report = _mini_report(cal_err=0.25)
        path = write_slo_report(str(tmp_path / "slo_report.json"), report)
        assert read_slo_report(path) == report
        with open(path, encoding="utf-8") as f:
            assert f.read() == render_slo_report(report)


# ----------------------------------------------------------------------
# The observed soak: goldens and the acceptance criteria
# ----------------------------------------------------------------------
class TestSoakGolden:
    def test_report_structure(self, soak):
        assert [s["scenario"] for s in soak.report["scenarios"]] == list(
            SOAK_NAMES
        )
        for scenario in soak.report["scenarios"]:
            assert scenario["horizon_s"] > 0
            names = [o["name"] for o in scenario["objectives"]]
            assert names == ["availability", "latency-p99", "correctness"]
            assert scenario["survivability"]["correctness"][
                "wrong_answers"
            ] == 0

    def test_replay_is_byte_identical(self, soak):
        again = serving_chaos.run_slo_soak(
            "smoke", scenarios=soak_scenarios()
        )
        assert render_slo_report(again.report) == render_slo_report(
            soak.report
        )
        assert again.traces == soak.traces

    def test_traces_are_valid_chrome_json_with_flows(self, soak):
        for name, text in soak.traces.items():
            events = json.loads(text)["traceEvents"]
            phases = {e["ph"] for e in events}
            assert "X" in phases and "M" in phases
            # Queue spans flow into serving batches across tracks.
            assert "s" in phases and "f" in phases, name

    def test_correctness_objective_holds(self, soak):
        for scenario in soak.report["scenarios"]:
            truth = [
                o
                for o in scenario["objectives"]
                if o["name"] == "correctness"
            ][0]
            assert not truth["violated"]
            assert truth["bad_events"] == 0


class TestTailExemplars:
    """Acceptance: every bucket at/above the p99 boundary carries an
    exemplar trace id that resolves to a complete admission→verdict tree."""

    def _latency_histogram(self, session):
        return session.registry.histogram(
            "serving.latency.seconds",
            "served end-to-end latency (queue + batch + execute)",
            buckets=LATENCY_BUCKETS,
        )

    @staticmethod
    def _resolve_tree(tracer, trace_hex):
        """Walk one exemplar id back through the full causal chain."""
        trace_id = int(trace_hex, 16)
        owned = [
            s
            for s in tracer.spans
            if s.ctx is not None and s.ctx.trace_id == trace_id
        ]
        roots = [s for s in owned if s.ctx.parent_span_id is None]
        assert len(roots) == 1, trace_hex
        root = roots[0]
        assert root.name.startswith("request ")
        assert "[served]" in root.name
        # Admission: the queue span is a child of the request root.
        queues = [
            s
            for s in owned
            if s.name == "queue"
            and s.ctx.parent_span_id == root.ctx.span_id
        ]
        assert len(queues) == 1, trace_hex
        # The queue span links (flow arrow) into exactly one batch span.
        queue_id = queues[0].ctx.span_id
        batches = [s for s in tracer.spans if queue_id in s.links]
        assert len(batches) == 1, trace_hex
        batch = batches[0]
        assert batch.track == "serving"
        # Under the batch: the guard span, and under it the kernel work.
        guards = [
            s
            for s in tracer.spans
            if s.ctx is not None
            and s.ctx.parent_span_id == batch.ctx.span_id
        ]
        assert guards, trace_hex
        kernel_parents = {g.ctx.span_id for g in guards}
        kernels = [
            s
            for s in tracer.spans
            if s.ctx is not None
            and s.ctx.parent_span_id in kernel_parents
        ]
        assert kernels, trace_hex

    def test_tail_buckets_resolve_to_span_trees(self, soak):
        resolved = 0
        for name, session in soak.sessions.items():
            report = [
                s
                for s in soak.report["scenarios"]
                if s["scenario"] == name
            ][0]
            p99 = report["survivability"]["latency_s"]["p99"]
            hist = self._latency_histogram(session)
            p99_idx = min(
                i
                for i, bound in enumerate(hist.buckets)
                if p99 <= bound
            )
            for key in hist._counts:
                labels = dict(key)
                raw = hist._counts[key]
                exemplars = hist.exemplars(**labels)
                for idx in range(p99_idx, len(raw)):
                    if raw[idx] == 0:
                        continue
                    cell = exemplars.get(idx, [])
                    assert cell, (name, labels, idx)
                    for _value, trace_hex in cell:
                        self._resolve_tree(session.tracer, trace_hex)
                        resolved += 1
        assert resolved > 0  # the walk above actually exercised something


class TestMiscalibrationGate:
    def test_injected_drift_flips_the_gate_and_reprobes(self, soak):
        bad = serving_chaos.run_slo_soak(
            "smoke", scenarios=soak_scenarios(), miscalibration=2.0
        )
        baseline = copy.deepcopy(soak.report)
        assert check_slo_report(soak.report, baseline) == []
        failures = check_slo_report(bad.report, baseline)
        assert failures
        assert any("cost-model calibration error" in f for f in failures)
        assert any("re-probe" in f for f in failures)
        # Calibration rows carry the recorded re-probes.
        assert any(
            row["reprobes"] >= 1
            for s in bad.report["scenarios"]
            for row in s["calibration"].values()
        )
