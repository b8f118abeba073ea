"""Integration tests: ServingFrontDoor over the guard, plus the chaos harness.

The serving contract under test:

* every submitted request ends in exactly one typed outcome;
* overload is refused synchronously with a typed ``Overload``;
* no response is ever silently served after its deadline;
* served non-degraded predictions always equal the host-tree reference,
  whatever faults were injected along the way (the golden ladder test);
* a seeded chaos scenario replays byte-identically.
"""

import json

import numpy as np
import pytest

from repro.baselines.cpu_reference import reference_predict
from repro.core.classifier import HierarchicalForestClassifier
from repro.core.config import KernelVariant, Platform, RunConfig
from repro.forest.tree import random_tree
from repro.obs import context
from repro.obs.context import TraceContext
from repro.reliability import FaultPlan, ResilientClassifier, integrity
from repro.runtime.plan import CPU_PLATFORM
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    ChaosScenario,
    Overload,
    Request,
    RequestStatus,
    ServingFrontDoor,
    run_scenario,
)
from repro.utils.clock import SimulatedClock

N_FEATURES = 12


@pytest.fixture(scope="module")
def trees():
    rng = np.random.default_rng(41)
    return [
        random_tree(rng, N_FEATURES, 10, leaf_prob=0.2, min_nodes=3)
        for _ in range(10)
    ]


@pytest.fixture(scope="module")
def X_pool():
    rng = np.random.default_rng(43)
    return rng.standard_normal((512, N_FEATURES)).astype(np.float32)


def make_front(trees, X_pool, fault_plan=None, **kwargs):
    clf = HierarchicalForestClassifier.from_trees(trees, N_FEATURES)
    guard = ResilientClassifier(
        clf, deadline_s=10.0, fault_plan=fault_plan, seed=3
    )
    clock = SimulatedClock()
    kwargs.setdefault("probe_X", X_pool[:64])
    return clf, ServingFrontDoor(guard, clock=clock, **kwargs), clock


class TestFrontDoorCleanPath:
    def test_served_predictions_match_reference(self, trees, X_pool):
        clf, front, _ = make_front(trees, X_pool)
        reqs = [front.submit(X_pool[i * 4 : i * 4 + 4]) for i in range(3)]
        responses = front.drain()
        assert len(responses) == 3
        by_id = {r.request_id: r for r in responses}
        for req in reqs:
            resp = by_id[req.request_id]
            assert resp.status is RequestStatus.SERVED
            assert resp.ok and not resp.degraded
            np.testing.assert_array_equal(
                resp.predictions, reference_predict(trees, req.X)
            )
        assert front.stats.served == 3
        assert front.stats.rows_executed == 12

    def test_absolute_deadline_stamped_at_submit(self, trees, X_pool):
        _, front, clock = make_front(trees, X_pool)
        clock.advance(5.0)
        req = front.submit(X_pool[:2], deadline_s=0.5)
        assert req.deadline_s == pytest.approx(5.5)
        with pytest.raises(ValueError):
            front.submit(X_pool[:2], deadline_s=0.0)

    def test_coalescing_batches_multiple_requests(self, trees, X_pool):
        _, front, _ = make_front(
            trees, X_pool, batching=BatchPolicy(max_batch_rows=64)
        )
        for i in range(4):
            front.submit(X_pool[i * 2 : i * 2 + 2])
        responses = front.drain()
        assert front.stats.batches == 1
        assert {r.batch_id for r in responses} == {1}

    def test_responses_carry_monotone_batch_latency(self, trees, X_pool):
        _, front, _ = make_front(trees, X_pool)
        front.submit(X_pool[:4])
        (resp,) = front.drain()
        assert resp.latency_s > 0.0
        assert resp.finish_s > resp.arrival_s


class TestOverload:
    def test_queue_full_is_typed(self, trees, X_pool):
        _, front, _ = make_front(
            trees,
            X_pool,
            admission=AdmissionPolicy(rate_qps=1000.0, burst=64.0, queue_limit=2),
        )
        front.submit(X_pool[:1])
        front.submit(X_pool[:1])
        with pytest.raises(Overload) as e:
            front.submit(X_pool[:1])
        assert e.value.reason == "queue-full"

    def test_rate_limit_is_typed_and_counted(self, trees, X_pool):
        _, front, _ = make_front(
            trees,
            X_pool,
            admission=AdmissionPolicy(rate_qps=10.0, burst=1.0),
        )
        assert front.try_submit(X_pool[:1]) is not None
        assert front.try_submit(X_pool[:1]) is None
        assert front.stats.rejected == {"rate-limit": 1}
        assert front.stats.submitted == 1


class TestDeadlines:
    def test_queue_expired_requests_are_shed_before_execution(self, trees, X_pool):
        _, front, clock = make_front(trees, X_pool)
        req = front.submit(X_pool[:2], deadline_s=0.01)
        clock.advance(0.02)
        (resp,) = front.drain()
        assert resp.request_id == req.request_id
        assert resp.status is RequestStatus.SHED_DEADLINE_QUEUE
        assert resp.predictions is None
        assert front.stats.batches == 0  # no backend time burnt

    def test_predicted_infeasible_requests_are_shed(self, trees, X_pool):
        _, front, _ = make_front(trees, X_pool)
        # Tighter than any possible execution: the calibrated model's
        # predicted seconds for one row exceed the remaining slack.
        front.submit(X_pool[:256], deadline_s=1e-9)
        (resp,) = front.drain()
        assert resp.status is RequestStatus.SHED_DEADLINE_PREDICTED
        assert resp.predictions is None
        assert front.stats.batches == 0

    def test_no_response_is_silently_served_late(self, trees, X_pool):
        # Hang faults inflate execution; whatever the outcome, an ok
        # response must have finished inside its deadline and a late one
        # must be typed with its predictions withheld.
        plan = FaultPlan(seed=9, launch_hang_rate=1.0, hang_seconds=60.0)
        _, front, _ = make_front(trees, X_pool, fault_plan=plan)
        reqs = [
            front.submit(X_pool[i * 4 : i * 4 + 4], deadline_s=0.002)
            for i in range(2)
        ]
        responses = front.drain()
        assert len(responses) == len(reqs)
        deadlines = {r.request_id: r.deadline_s for r in reqs}
        late = 0
        for resp in responses:
            if resp.ok:
                assert resp.finish_s <= deadlines[resp.request_id]
            elif resp.status is RequestStatus.SHED_DEADLINE_LATE:
                late += 1
                assert resp.predictions is None
                assert resp.platform_used != ""  # the batch did execute
        assert late > 0, "hang storm was expected to produce a late shed"


class TestLazyTraceIds:
    """Root contexts are minted on first read, as the same seed-derived ids."""

    def test_read_ids_equal_the_eager_derivation(self, trees, X_pool):
        _, front, clock = make_front(trees, X_pool, trace_seed=17)
        shed = front.submit(X_pool[:2], deadline_s=0.01)
        clock.advance(0.02)
        served = [front.submit(X_pool[i : i + 3]) for i in range(3)]
        responses = front.drain()
        assert [r.status for r in responses] == [
            RequestStatus.SHED_DEADLINE_QUEUE
        ] + [RequestStatus.SERVED] * 3
        # Responses first: a response's read never depends on its request's.
        for resp in responses:
            expected = TraceContext.for_request(17, resp.request_id)
            assert resp.trace == expected
            assert resp.as_dict()["trace_id"] == expected.trace_hex
        for req in [shed, *served]:
            assert req.trace == TraceContext.for_request(17, req.request_id)

    def test_unobserved_serving_mints_no_ids(self, trees, X_pool, monkeypatch):
        _, front, _ = make_front(trees, X_pool)
        calls = []
        real = context.mix64
        monkeypatch.setattr(
            context, "mix64", lambda *parts: calls.append(parts) or real(*parts)
        )
        for i in range(40):
            front.submit(X_pool[i : i + 1 + i % 4])
        responses = front.drain()
        assert len(responses) == 40 and all(r.ok for r in responses)
        assert front.stats.batches >= 1
        assert calls == []
        # Reading an id mints it on demand, through the same mixer.
        first = responses[0]
        assert first.trace == TraceContext.for_request(0, first.request_id)
        assert calls

    def test_untraced_request_has_no_context(self, trees, X_pool):
        assert Request(0, "t", X_pool[:1], 0.0, None).trace is None


class TestDegradedBatchHashing:
    def test_one_layout_hash_per_degraded_batch(
        self, trees, X_pool, monkeypatch
    ):
        """The survivor memo is keyed by the digests the failed check made."""
        clf, front, _ = make_front(trees, X_pool)
        layouts = {
            id(layout): layout
            for plan in front.guard.ladder_plans(front.config)
            if plan.platform != CPU_PLATFORM
            for layout in [clf.layout_for(plan.to_run_config())]
        }
        (layout,) = layouts.values()  # the accelerator rungs share one layout
        hit = FaultPlan(seed=0, tree_corruption_rate=0.25).corrupt_layout(layout)
        assert hit
        front.guard.notify_layout_rebuild()
        survivors = [t for k, t in enumerate(trees) if k not in hit]
        calls = []
        real = integrity.array_crc32
        monkeypatch.setattr(
            integrity, "array_crc32", lambda *a: calls.append(a) or real(*a)
        )
        for b in range(3):
            calls.clear()
            X = X_pool[b * 4 : b * 4 + 4]
            front.submit(X)
            (resp,) = front.drain()
            assert resp.ok and resp.degraded
            assert len(calls) == len(integrity._node_arrays(layout))
            np.testing.assert_array_equal(
                resp.predictions, reference_predict(survivors, X)
            )
        monkeypatch.undo()
        fresh = layout.integrity.tree_crc == integrity._tree_digests(layout)
        assert np.flatnonzero(~fresh).tolist() == list(hit)
        np.testing.assert_array_equal(
            layout.integrity.surviving_trees(layout), fresh
        )


class TestHedging:
    def test_open_breaker_reroutes_batch_formation(self, trees, X_pool):
        _, front, _ = make_front(trees, X_pool)
        breaker = front.guard.breakers[Platform.GPU]
        for _ in range(breaker.policy.failure_threshold):
            breaker.record_failure()
        front.submit(X_pool[:4])
        (resp,) = front.drain()
        assert resp.hedged
        assert front.stats.hedged_batches == 1
        # The guard's ladder still routed execution (around the open
        # breaker), so the answer comes from a deeper rung.
        assert resp.fallback_depth > 0
        assert resp.platform_used != "gpu"


class TestAutoVariant:
    def test_auto_config_resolved_once_via_planner(self, trees, X_pool, tmp_path):
        clf = HierarchicalForestClassifier.from_trees(trees, N_FEATURES)
        clf.planner.cache_dir = str(tmp_path)
        guard = ResilientClassifier(clf, deadline_s=10.0)
        front = ServingFrontDoor(
            guard, config=RunConfig(variant=KernelVariant.AUTO), probe_X=X_pool[:64]
        )
        assert front.config.variant is not KernelVariant.AUTO
        front.submit(X_pool[:4])
        (resp,) = front.drain()
        assert resp.ok

    def test_golden_auto_ladder_lands_on_cpu_with_identical_predictions(
        self, trees, X_pool, tmp_path
    ):
        """ISSUE acceptance: variant="auto" + faults on the winning backend.

        Every accelerator launch fails, so the guard walks the full ladder
        (autotuned accelerator -> other accelerator -> CPU) and the CPU
        reference must serve predictions identical to the host trees.
        """
        clf = HierarchicalForestClassifier.from_trees(trees, N_FEATURES)
        clf.planner.cache_dir = str(tmp_path)
        guard = ResilientClassifier(
            clf,
            deadline_s=10.0,
            fault_plan=FaultPlan(seed=5, launch_fail_rate=1.0),
            seed=5,
        )
        X = X_pool[:64]
        res = guard.classify(X, RunConfig(variant=KernelVariant.AUTO))
        rep = res.reliability
        assert rep.platform_used == "cpu"
        assert rep.fallback_depth == 2
        assert not rep.degraded
        np.testing.assert_array_equal(
            res.predictions, reference_predict(trees, X)
        )


class TestChaosHarness:
    def scenario(self):
        return ChaosScenario(
            name="unit-storm",
            profile="bursty",
            traffic_seed=2,
            fault_seed=4,
            tree_corruption_rate=0.2,
            launch_fail_rate=0.2,
            admission=AdmissionPolicy(rate_qps=200.0, burst=16.0, queue_limit=32),
        )

    def test_scenario_replays_byte_identically(self, trees, X_pool):
        def run():
            clf = HierarchicalForestClassifier.from_trees(trees, N_FEATURES)
            return run_scenario(clf, X_pool, self.scenario())

        a, b = run(), run()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_zero_wrong_answers_under_faults(self, trees, X_pool):
        clf = HierarchicalForestClassifier.from_trees(trees, N_FEATURES)
        report = run_scenario(clf, X_pool, self.scenario())
        assert report["correctness"]["wrong_answers"] == 0
        assert report["correctness"]["checked"] > 0
        # The report accounts for every offered request exactly once.
        counted = (
            report["requests"]["served"]
            + sum(report["requests"]["rejected"].values())
            + sum(report["requests"]["shed"].values())
        )
        assert counted == report["requests"]["offered"]
