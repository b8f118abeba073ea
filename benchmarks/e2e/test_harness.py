"""Tests of the benchmark harness itself: ``pytest benchmarks/e2e -q``."""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

import metrics
import run
import spans
import workloads
from repro.utils.clock import SimulatedClock


class FakeClock:
    """Virtual time: ``now()`` reads it, ``sleep(dt)`` and ``tick`` move it."""

    def __init__(self):
        self.t = 0.0

    def now(self) -> float:
        return self.t

    def sleep(self, dt: float) -> None:
        self.t += dt

    def tick(self, dt: float) -> float:
        self.t += dt
        return self.t


# ----------------------------------------------------------------------
def test_self_time_subtracts_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock.now)
    inner = tracer.wrap(spans.PatchPoint("m:inner", "inner"), lambda: clock.tick(2.0))

    def body():
        clock.tick(1.0)
        inner()
        inner()
        clock.tick(3.0)

    tracer.wrap(spans.PatchPoint("m:outer", "outer"), body)()
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert tracer.self_times() == [4.0, 2.0, 2.0]
    row = tracer.layer_table()["setup"]["outer"]
    assert (row["calls"], row["total_s"], row["self_s"]) == (1, 8.0, 4.0)
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]  # parents


class StallingFrontDoor:
    """Answers everything queued on each pump; the first pump stalls 50 ms."""

    def __init__(self, clock: FakeClock):
        self.clock = SimulatedClock()
        self._fake = clock
        self._queue = []
        self._next = 0
        self.stalled = False

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def try_submit(self, X):
        self._queue.append(self._next)
        self._next += 1
        return SimpleNamespace(request_id=self._next - 1)

    def pump(self):
        if not self._queue:
            return []
        self._fake.tick(0.001 if self.stalled else 0.050)
        self.stalled = True
        out = [
            SimpleNamespace(request_id=i, ok=True, degraded=False,
                            platform_used="gpu", batch_id=0, predictions=None)
            for i in self._queue
        ]
        self._queue = []
        return out


def test_open_loop_times_from_the_due_time():
    clock = FakeClock()
    front = StallingFrontDoor(clock)
    arrivals = [(0.010 * k, 1, 0) for k in range(6)]
    pool = np.zeros((64, 2), dtype=np.float32)
    reqs, t0, window, _ = workloads.open_loop(
        front, pool, arrivals, seed=0, now=clock.now, sleep=clock.sleep
    )
    latency = [r.finish - r.due for r in reqs]
    # The stall began at t=0 and ended at 50 ms; requests due at 10-40 ms
    # could not even be submitted until then, and that wait is theirs.
    assert latency[0] == pytest.approx(0.050)
    assert latency[1] == pytest.approx(0.041)
    assert latency[4] == pytest.approx(0.011)
    assert reqs[1].submit == pytest.approx(0.050)
    assert window >= 0.050
    # The front door's own clock followed wall time.
    assert front.clock.now() >= 0.050


def test_samples_beyond_percentile():
    values = np.arange(1000, dtype=np.float64)
    assert metrics.samples_beyond(values, 99.0) == 10
    assert metrics.samples_beyond(values, 98.0) == 20
    assert metrics.samples_beyond(values[:500], 99.0) == 5


@pytest.mark.parametrize(
    "name, rates_qps",
    [
        ("serve-steady", [(r, run.DEFAULT_SECONDS / 2) for r in workloads.STEADY_RATES_QPS]),
        ("serve-degraded", [(workloads.DEGRADED_RATE_QPS, run.DEFAULT_SECONDS)]),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(name, rates_qps):
    """At the benchmark's run length each open-loop tail has >=10 beyond."""
    tail = workloads.WORKLOADS[name].tail
    for seed in range(5):
        n = len(workloads.arrival_trace(seed, rates_qps))
        assert metrics.samples_beyond(np.arange(n, dtype=float), tail) >= 10


def test_metric_names_and_benchmark_json_agree():
    with open(run.BENCHMARK_JSON) as f:
        bench = json.load(f)
    names = list(metrics.END_TO_END) + list(metrics.PER_LAYER) + list(workloads.WORKLOADS)
    for name in names:
        assert metrics.NAME_RE.match(name), name
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == (
        metrics.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == (
        metrics.PER_LAYER
    )
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert bench["run_seconds"] == run.DEFAULT_SECONDS


def test_same_seed_same_arrival_trace():
    phases = [(250.0, 1.0), (1000.0, 1.0)]
    a = workloads.arrival_trace(7, phases)
    assert a == workloads.arrival_trace(7, phases)
    assert a != workloads.arrival_trace(8, phases)
    assert all(1 <= rows <= 8 for _, rows, _ in a)
    assert [d for d, _, _ in a] == sorted(d for d, _, _ in a)


def test_every_patch_point_exists_and_wraps():
    tracer = spans.Tracer()
    originals = [spans.resolve(p.target)[2] for p in spans.PATCH_POINTS]
    tracer.install()
    try:
        for point, raw in zip(spans.PATCH_POINTS, originals):
            assert spans.resolve(point.target)[2] is not raw, point.target
    finally:
        tracer.uninstall()
    for point, raw in zip(spans.PATCH_POINTS, originals):
        assert spans.resolve(point.target)[2] is raw


def test_a_renamed_patch_point_fails_loudly():
    gone = spans.PatchPoint("repro.runtime.session:RuntimeSession.no_such", "x")
    tracer = spans.Tracer()
    with pytest.raises(AttributeError, match="no_such"):
        tracer.install(spans.PATCH_POINTS + (gone,))
    assert not tracer._installed


def test_check_served_rejects_a_corrupted_prediction():
    from repro.baselines.cpu_reference import reference_predict
    from repro.forest.tree import random_tree

    rng = np.random.default_rng(0)
    trees = [random_tree(rng, 4, 5, min_nodes=3) for _ in range(5)]
    pool = rng.standard_normal((32, 4)).astype(np.float32)

    def served(lo, rows, degraded=False, platform="gpu", alive=trees):
        preds = reference_predict(alive, pool[lo : lo + rows])
        resp = SimpleNamespace(ok=True, degraded=degraded, platform_used=platform,
                               batch_id=1, predictions=preds)
        return workloads.Req(lo, rows, 0.0, response=workloads._answer(resp))

    reqs = [served(0, 3), served(5, 8), served(2, 4, True, alive=trees[1:])]
    assert workloads.check_served(reqs, pool, trees, {"gpu": (0,)}) == [True] * 3
    flipped = bytes([reqs[1].response.predictions[0] ^ 1]) + reqs[1].response.predictions[1:]
    reqs[1].response = reqs[1].response._replace(predictions=flipped)
    assert workloads.check_served(reqs, pool, trees, {"gpu": (0,)}) == [True, False, True]


def test_wrong_batch_answer_makes_run_exit_nonzero(monkeypatch, tmp_path, capsys):
    from repro.core.classifier import HierarchicalForestClassifier

    for var in run.THREAD_ENV + ("REPRO_PLAN_CACHE_DIR",):
        monkeypatch.setenv(var, "1")  # main() sets these; restored after
    monkeypatch.setattr(workloads, "BATCH_ROWS", 2000)
    classify = HierarchicalForestClassifier.classify

    def corrupted(self, X, config, *a, **kw):
        result = classify(self, X, config, *a, **kw)
        result.predictions = result.predictions.copy()
        result.predictions[0] ^= 1
        return result

    monkeypatch.setattr(HierarchicalForestClassifier, "classify", corrupted)
    code = run.main(
        ["--workload", "batch-offline", "--seconds", "0.1", "--out", str(tmp_path)]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] == last["attempted"] >= 1


def test_compare_marks_a_wide_spread_unresolved():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert run.verdict(steady, [v * 1.05 for v in steady], "lower", 0.1) == "same"
    assert run.verdict(steady, [v * 1.3 for v in steady], "lower", 0.1) == "worse"
    assert run.verdict(steady, [v * 1.3 for v in steady], "higher", 0.1) == "better"
    noisy = [70.0, 100.0, 130.0, 85.0, 115.0]
    assert run.verdict(steady, noisy, "lower", 0.1) == "unresolved"
    assert run.verdict(steady, [v * 0.5 for v in noisy], "lower", 0.1) == "better"
