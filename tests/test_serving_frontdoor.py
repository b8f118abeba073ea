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
import sys

import numpy as np
import pytest

from repro.baselines.cpu_reference import CertificateError, reference_predict
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
from repro.utils import validation
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

    def test_rows_are_checked_for_finiteness_once(self, trees, X_pool, monkeypatch):
        """Each request's rows are checked on admission; the batch they
        form is not scanned again by the guard or the oracle."""
        _, front, _ = make_front(trees, X_pool)
        calls = []
        real = validation.check_array_2d
        for module in list(sys.modules.values()):
            if getattr(module, "check_array_2d", None) is real:
                monkeypatch.setattr(
                    module,
                    "check_array_2d",
                    lambda *a, **k: calls.append(a) or real(*a, **k),
                )
        for i in range(8):
            front.submit(X_pool[i * 2 : i * 2 + 2])
        responses = front.drain()
        assert front.stats.batches == 1
        assert all(r.ok for r in responses)
        assert len(calls) == 8

    def test_responses_carry_monotone_batch_latency(self, trees, X_pool):
        _, front, _ = make_front(trees, X_pool)
        front.submit(X_pool[:4])
        (resp,) = front.drain()
        assert resp.latency_s > 0.0
        assert resp.finish_s > resp.arrival_s


class TestLaunchWhenIdle:
    """The first batch of a pump runs at once; a short remainder waits."""

    UNLIMITED = AdmissionPolicy(rate_qps=1e6, burst=1e6)

    def test_idle_pump_runs_a_lone_request_at_once(self, trees, X_pool):
        _, front, clock = make_front(trees, X_pool)
        req = front.submit(X_pool[:1])
        (resp,) = front.pump()  # the clock was not advanced first
        assert resp.status is RequestStatus.SERVED
        assert resp.request_id == req.request_id
        assert front.stats.batches == 1
        assert front.queue_depth == 0
        # Only the batch's own execution moved the clock.
        assert resp.arrival_s == 0.0
        assert resp.finish_s == clock.now()

    def test_remainder_after_a_full_batch_waits_then_goes_first(
        self, trees, X_pool
    ):
        _, front, _ = make_front(
            trees, X_pool, batching=BatchPolicy(max_batch_rows=4),
            admission=self.UNLIMITED,
        )
        for i in range(6):
            front.submit(X_pool[i : i + 1])
        first = front.pump()
        assert [r.request_id for r in first] == [0, 1, 2, 3]
        assert front.queue_depth == 2
        front.submit(X_pool[6:7])
        second = front.pump()
        assert [r.request_id for r in second] == [4, 5, 6]
        assert {r.batch_id for r in second} == {2}
        assert front.stats.batches == 2

    def test_closed_loop_keeps_batches_at_the_cap(self, trees, X_pool):
        # 12 callers of 2 rows each, resubmitting on every answer: 24 rows
        # are queued at each pump, and each pump runs one 16-row batch.
        # Running the 8-row remainder as well would double the batches.
        callers, rows, cap, rounds = 12, 2, 16, 10
        _, front, _ = make_front(
            trees, X_pool, batching=BatchPolicy(max_batch_rows=cap),
            admission=self.UNLIMITED,
        )
        for c in range(callers):
            front.submit(X_pool[c * rows : (c + 1) * rows])
        for _ in range(rounds):
            for resp in front.pump():
                assert resp.status is RequestStatus.SERVED
                front.submit(X_pool[:rows])
        assert front.stats.batches == rounds
        assert front.stats.rows_executed == rounds * cap
        assert front.queue_depth == callers


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


def rehash_table(layout):
    """Re-take the served table's build-time digests from its bytes now.

    A change planted before this is one the table was lowered with, as a
    lowering bug would make: the table hashes intact, so a certificate it
    fails is a bug for the guard to raise, not damage to route around.
    """
    layout._fastpath_integrity = integrity.LayoutIntegrity.from_layout(
        layout._fastpath_edges, integrity.table_regions(layout)
    )


class TestFailedBatch:
    def test_members_of_a_rejected_batch_each_fail_once(self, trees, X_pool):
        """A wrong threshold lowered into the served table makes the
        guard's check raise; every member still gets one typed, counted
        outcome."""
        clf, front, _ = make_front(trees, X_pool)
        seen = []
        front._emit = seen.append
        layout = clf.layout_for(front.config)
        table = layout._fastpath_edges
        table.value[int(table.roots[0])] = np.inf  # every row of tree 0 goes left
        rehash_table(layout)
        reqs = [front.submit(X_pool[i * 4 : i * 4 + 4]) for i in range(8)]
        with pytest.raises(RuntimeError, match="disagree"):
            front.drain()
        assert sorted(r.request_id for r in seen) == sorted(
            r.request_id for r in reqs
        )
        assert all(r.status is RequestStatus.FAILED for r in seen)
        assert front.stats.shed == {RequestStatus.FAILED.value: 8}
        assert front.stats.served == 0 and front.stats.batches == 0
        assert front.queue_depth == 0

    def test_answers_served_before_a_rejected_batch_reach_the_caller(
        self, trees, X_pool
    ):
        """One request per batch: the batch before the rejected one was
        served, and its answer travels on the error, in order."""
        clf, front, _ = make_front(
            trees, X_pool, batching=BatchPolicy(max_batch_rows=1)
        )
        layout = clf.layout_for(front.config)
        table = layout._fastpath_edges
        root = int(table.roots[0])
        feature, threshold = int(table.feature[root]), float(table.value[root])
        goes_right = X_pool[:, feature] >= threshold
        left_row = X_pool[np.flatnonzero(~goes_right)[:1]]
        right_row = X_pool[np.flatnonzero(goes_right)[:1]]
        table.value[root] = np.inf  # only the right-going row is misrouted
        rehash_table(layout)
        reqs = [front.submit(left_row), front.submit(right_row)]
        with pytest.raises(RuntimeError, match="disagree") as raised:
            front.drain()
        responses = raised.value.responses
        assert [r.request_id for r in responses] == [r.request_id for r in reqs]
        assert [r.status for r in responses] == [
            RequestStatus.SERVED,
            RequestStatus.FAILED,
        ]
        np.testing.assert_array_equal(
            responses[0].predictions, reference_predict(trees, left_row)
        )
        assert front.stats.served == 1 and front.stats.batches == 1


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
    """With the oracle on, the leaf certificate guards every batch; the
    served table is hashed only to localize a failed certificate."""

    def _served(self, front, X):
        front.submit(X)
        (resp,) = front.drain()
        return resp

    def _count_hashes(self, monkeypatch):
        calls = []
        real = integrity.array_crc32
        monkeypatch.setattr(
            integrity, "array_crc32", lambda *a: calls.append(a) or real(*a)
        )
        return calls

    def test_clean_batches_hash_nothing(self, trees, X_pool, monkeypatch):
        _, front, _ = make_front(trees, X_pool)
        self._served(front, X_pool[:4])  # pays the one post-transfer check
        calls = self._count_hashes(monkeypatch)
        for b in range(1, 4):
            X = X_pool[b * 4 : b * 4 + 4]
            resp = self._served(front, X)
            assert resp.ok and not resp.degraded
            np.testing.assert_array_equal(resp.predictions, reference_predict(trees, X))
        assert calls == []

    def test_one_layout_hash_per_degraded_batch(
        self, trees, X_pool, monkeypatch
    ):
        """The whole-table digests key the survivor memo; the vote comes
        from the trees whose table regions still hash clean."""
        clf, front, _ = make_front(trees, X_pool)
        self._served(front, X_pool[:4])
        layout = clf.layout_for(front.config)
        table = layout._fastpath_edges
        table.roots[[2, 5]] = table.roots[[3, 6]]  # trees 2 and 5 walk others
        survivors = [t for k, t in enumerate(trees) if k not in (2, 5)]
        calls = self._count_hashes(monkeypatch)
        for b in range(1, 4):
            calls.clear()
            X = X_pool[b * 4 : b * 4 + 4]
            resp = self._served(front, X)
            assert resp.ok and resp.degraded
            assert len(calls) == len(integrity._node_arrays(table))
            np.testing.assert_array_equal(
                resp.predictions, reference_predict(survivors, X)
            )
        monkeypatch.undo()
        integ = layout._fastpath_integrity
        fresh = integ.tree_crc == integrity._tree_digests(table, integ.regions)
        assert np.flatnonzero(~fresh).tolist() == [2, 5]
        np.testing.assert_array_equal(integ.surviving_trees(table), fresh)

    def test_failed_certificate_over_an_intact_table_raises(self, trees, X_pool):
        clf, front, _ = make_front(trees, X_pool)
        layout = clf.layout_for(front.config)
        table = layout._fastpath_edges
        table.roots[2] = table.roots[3]
        rehash_table(layout)
        front.submit(X_pool[:4])
        with pytest.raises(CertificateError, match="not a leaf of its lane's tree"):
            front.drain()
        assert front.stats.shed == {RequestStatus.FAILED.value: 1}


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
    def test_auto_config_resolved_once_via_planner(self, trees, X_pool):
        clf = HierarchicalForestClassifier.from_trees(trees, N_FEATURES)
        guard = ResilientClassifier(clf, deadline_s=10.0)
        front = ServingFrontDoor(
            guard, config=RunConfig(variant=KernelVariant.AUTO), probe_X=X_pool[:64]
        )
        assert front.config.variant is not KernelVariant.AUTO
        front.submit(X_pool[:4])
        (resp,) = front.drain()
        assert resp.ok

    def test_golden_auto_ladder_lands_on_cpu_with_identical_predictions(
        self, trees, X_pool
    ):
        """ISSUE acceptance: variant="auto" + faults on the winning backend.

        Every accelerator launch fails, so the guard walks the full ladder
        (autotuned accelerator -> other accelerator -> CPU) and the CPU
        reference must serve predictions identical to the host trees.
        """
        clf = HierarchicalForestClassifier.from_trees(trees, N_FEATURES)
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
