"""ResilientClassifier: deadlines, retries, breakers, fallback, degradation.

Every scenario asserts the :class:`ReliabilityReport` counters *exactly* —
the report is the subsystem's observable contract.
"""

import numpy as np
import pytest

from repro.baselines.cpu_reference import reference_predict
from repro.core.classifier import HierarchicalForestClassifier
from repro.core.config import Platform, RunConfig
from repro.fastpath import fastpath_predict, fastpath_seconds
from repro.reliability.faults import FaultPlan
from repro.reliability.guard import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    ReliabilityReport,
    ResilientClassifier,
    RetryPolicy,
)
from repro.reliability.integrity import attach_integrity, degraded_predict
from repro.runtime import backends


@pytest.fixture()
def guarded(trained_small):
    """Fresh wrapped classifier (layouts are mutated by fault tests)."""
    clf_src, _, _, Xte, yte = trained_small

    def make(**kwargs):
        clf = HierarchicalForestClassifier.from_forest(clf_src)
        return ResilientClassifier(clf, **kwargs), clf, Xte[:128], yte[:128]

    return make


def _corrupt_tree(layout, t):
    """Flip one bit in tree ``t``'s root-subtree feature buffer."""
    st = int(layout.tree_root_subtree[t])
    lo = int(layout.subtree_node_offset[st])
    layout.feature_id[lo] ^= 1


class TestCleanPath:
    def test_counters_on_success(self, guarded):
        guard, clf, X, y = guarded()
        res = guard.classify(X, RunConfig(variant="hybrid"), y_true=y)
        r = res.reliability
        assert r.attempts == 1
        assert r.retries == 0
        assert r.transient_failures == 0
        assert r.deadline_exceeded == 0
        assert r.integrity_failures == 0
        assert r.breaker_skips == 0
        assert r.fallback_depth == 0
        assert r.platform_used == "gpu"
        assert not r.degraded
        assert r.dropped_trees == ()
        assert r.breaker_transitions == []
        assert r.backoff_seconds == 0.0
        assert r.transfer_verifications == 1
        assert np.array_equal(res.predictions, clf.predict(X))
        assert res.accuracy == pytest.approx(float(np.mean(clf.predict(X) == y)))

    def test_transfer_verified_once_per_layout(self, guarded):
        guard, _, X, _ = guarded()
        config = RunConfig(variant="hybrid")
        first = guard.classify(X, config)
        second = guard.classify(X, config)
        assert first.reliability.transfer_verifications == 1
        assert second.reliability.transfer_verifications == 0

    def test_fpga_request_served_on_fpga(self, guarded):
        guard, _, X, _ = guarded()
        res = guard.classify(X, RunConfig(platform="fpga", variant="csr"))
        assert res.reliability.platform_used == "fpga"
        assert res.reliability.fallback_depth == 0


class TestTransientFailures:
    def test_retries_then_success_possible(self, guarded):
        # fail rate 0 => no retries consumed; sanity for the plan wiring
        guard, _, X, _ = guarded(fault_plan=FaultPlan(seed=0))
        res = guard.classify(X, RunConfig(variant="hybrid"))
        assert res.reliability.attempts == 1

    def test_all_launches_fail_lands_on_cpu(self, guarded):
        guard, clf, X, _ = guarded(
            fault_plan=FaultPlan(seed=0, launch_fail_rate=1.0)
        )
        res = guard.classify(X, RunConfig(variant="hybrid"))
        r = res.reliability
        # 3 attempts on gpu + 3 on fpga, 2 retries per rung.
        assert r.attempts == 6
        assert r.retries == 4
        assert r.transient_failures == 6
        assert r.deadline_exceeded == 0
        assert r.fallback_depth == 2
        assert r.platform_used == "cpu"
        assert r.backoff_seconds > 0.0
        # hybrid gpu/fpga share one layout -> verified exactly once
        assert r.transfer_verifications == 1
        assert np.array_equal(res.predictions, clf.predict(X))
        assert res.details["mode"] == "cpu-fallback"
        assert res.seconds > 0.0

    def test_cpu_rung_stacks_the_host_trees_once(self, guarded, monkeypatch):
        """The bottom rung stacks the host trees once per layout cache, and
        its seconds stay ``rows * sum(max_depth + 1) * SECONDS_PER_NODE``
        (:class:`~repro.runtime.backends.CPUBackend`)."""
        guard, clf, X, _ = guarded(
            fault_plan=FaultPlan(seed=0, launch_fail_rate=1.0)
        )
        calls = []
        real = backends.stack_trees
        monkeypatch.setattr(
            backends, "stack_trees", lambda trees: calls.append(1) or real(trees)
        )
        levels = sum(int(t.depth.max()) + 1 for t in clf.trees)
        per_node = backends.CPUBackend.SECONDS_PER_NODE
        for rows in (X[:7], X, X[:7]):
            res = guard.classify(rows, RunConfig(variant="hybrid"))
            assert res.details["mode"] == "cpu-fallback"
            assert res.seconds == rows.shape[0] * levels * per_node
            assert np.array_equal(res.predictions, clf.predict(rows))
        assert len(calls) == 1

    def test_backoff_accounting_is_seeded(self, guarded):
        totals = []
        for _ in range(2):
            guard, _, X, _ = guarded(
                fault_plan=FaultPlan(seed=5, launch_fail_rate=1.0), seed=7
            )
            res = guard.classify(X, RunConfig(variant="hybrid"))
            totals.append(res.reliability.backoff_seconds)
        assert totals[0] == totals[1]
        # 4 retries of exponential backoff with bounded jitter
        policy = RetryPolicy()
        lo = 2 * (policy.base_backoff_s * (1 + policy.backoff_multiplier))
        assert lo <= totals[0] <= lo * (1 + policy.jitter_fraction)


class TestDeadline:
    def test_rejects_nonpositive_deadline(self, guarded):
        with pytest.raises(ValueError, match="deadline"):
            guarded(deadline_s=0.0)

    def test_hangs_exceed_deadline_then_cpu(self, guarded):
        guard, clf, X, _ = guarded(
            deadline_s=1.0,
            fault_plan=FaultPlan(seed=0, launch_hang_rate=1.0, hang_seconds=60.0),
        )
        res = guard.classify(X, RunConfig(variant="hybrid"))
        r = res.reliability
        assert r.deadline_exceeded == 6
        assert r.transient_failures == 0
        assert r.attempts == 6
        assert r.retries == 4
        assert r.platform_used == "cpu"
        assert np.array_equal(res.predictions, clf.predict(X))

    def test_generous_deadline_passes_clean_run(self, guarded):
        guard, _, X, _ = guarded(deadline_s=10.0)
        res = guard.classify(X, RunConfig(variant="hybrid"))
        assert res.reliability.deadline_exceeded == 0
        assert res.reliability.fallback_depth == 0


class TestDegradedQuorum:
    def test_corruption_drops_exactly_the_bad_trees(self, guarded):
        guard, clf, X, _ = guarded()
        config = RunConfig(variant="hybrid")
        layout = clf.layout_for(config)
        for t in (2, 7):
            _corrupt_tree(layout, t)
        res = guard.classify(X, config)
        r = res.reliability
        assert r.integrity_failures == 1
        assert r.degraded
        assert r.dropped_trees == (2, 7)
        assert r.attempts == 1
        assert r.retries == 0  # corruption is persistent: no retry
        assert r.fallback_depth == 0
        assert r.platform_used == "gpu"
        assert res.details["mode"] == "degraded-quorum"
        assert res.details["trees_alive"] == layout.n_trees - 2
        # Predictions equal quorum voting over the surviving trees.
        alive = attach_integrity(layout).surviving_trees(layout)
        expect, dropped, _ = degraded_predict(layout, X, alive, 0.5)
        assert dropped == (2, 7)
        assert np.array_equal(res.predictions, expect)

    def test_degraded_batch_is_priced_by_its_vote(self, guarded):
        # The vote is one fastpath launch over the survivors, so it costs
        # what the fastpath model charges for that launch's lane-levels.
        guard, clf, X, _ = guarded()
        config = RunConfig(variant="hybrid")
        layout = clf.layout_for(config)
        _corrupt_tree(layout, 3)
        res = guard.classify(X, config)
        assert res.reliability.degraded
        alive = attach_integrity(layout).surviving_trees(layout)
        _, stats = fastpath_predict(layout, X, trees=alive)
        assert res.seconds == fastpath_seconds(stats.lane_levels)

    def test_quorum_lost_walks_the_ladder_to_cpu(self, guarded):
        guard, clf, X, _ = guarded(min_quorum_fraction=0.5)
        config = RunConfig(variant="hybrid")
        layout = clf.layout_for(config)
        for t in range(6):  # 4/10 alive < quorum of 5
            _corrupt_tree(layout, t)
        res = guard.classify(X, config)
        r = res.reliability
        # gpu and fpga share the corrupted hybrid layout; both rungs fail
        # their pre-launch check and cannot salvage a quorum.
        assert r.integrity_failures == 2
        assert r.attempts == 2
        assert not r.degraded
        assert r.fallback_depth == 2
        assert r.platform_used == "cpu"
        assert np.array_equal(res.predictions, clf.predict(X))

    def test_degraded_vote_is_certified(self, guarded):
        """A wrong leaf in a surviving tree's lowered table (whose layout
        buffers still hash clean) gets an error, not an answer."""
        guard, clf, X, _ = guarded()
        config = RunConfig(variant="hybrid")
        layout = clf.layout_for(config)
        _corrupt_tree(layout, 2)
        table = layout._fastpath_edges
        table.value[int(table.roots[5])] = np.inf  # every row of tree 5 goes left
        alive = attach_integrity(layout).surviving_trees(layout)
        assert alive[5] and not alive[2]
        boxes = clf.runtime.oracle_boxes("float32")
        degraded_predict(layout, X, alive, 0.5)  # unchecked, it answers
        with pytest.raises(RuntimeError, match="disagree"):
            degraded_predict(layout, X, alive, 0.5, boxes=boxes)
        with pytest.raises(RuntimeError, match="disagree"):
            guard.classify(X, config)

    def test_low_quorum_still_serves_degraded(self, guarded):
        guard, clf, X, _ = guarded(min_quorum_fraction=0.2)
        config = RunConfig(variant="hybrid")
        layout = clf.layout_for(config)
        for t in range(6):
            _corrupt_tree(layout, t)
        res = guard.classify(X, config)
        assert res.reliability.degraded
        assert res.reliability.dropped_trees == tuple(range(6))
        assert res.reliability.fallback_depth == 0


class TestCircuitBreaker:
    def test_unit_transitions(self):
        b = CircuitBreaker(BreakerPolicy(failure_threshold=2, recovery_after=2), "gpu")
        assert b.allow()
        assert b.record_failure() is None
        assert b.record_failure() == ("closed", "open")
        assert not b.allow()  # skip 1
        assert b.allow()  # skip 2 -> half-open probe
        assert b.state is BreakerState.HALF_OPEN
        assert b.record_failure() == ("half-open", "open")
        assert not b.allow()
        assert b.allow()
        assert b.record_success() == ("half-open", "closed")
        assert b.record_success() is None

    def test_breaker_opens_then_recovers(self, guarded):
        guard, _, X, _ = guarded(
            retry=RetryPolicy(max_attempts=1),
            breaker=BreakerPolicy(failure_threshold=1, recovery_after=2),
            fault_plan=FaultPlan(seed=0, launch_fail_rate=1.0),
        )
        config = RunConfig(variant="hybrid")

        # Call 1: both rungs fail once each; both breakers trip.
        r1 = guard.classify(X, config).reliability
        assert r1.attempts == 2
        assert r1.retries == 0
        assert r1.breaker_transitions == [
            ("gpu", "closed", "open"),
            ("fpga", "closed", "open"),
        ]
        assert r1.platform_used == "cpu"

        # Call 2: both breakers open -> no attempts, straight to cpu.
        r2 = guard.classify(X, config).reliability
        assert r2.attempts == 0
        assert r2.breaker_skips == 2
        assert r2.breaker_transitions == []
        assert r2.platform_used == "cpu"

        # Call 3: recovery_after reached -> half-open probes, which fail.
        r3 = guard.classify(X, config).reliability
        assert r3.attempts == 2
        assert r3.breaker_skips == 0
        assert r3.breaker_transitions == [
            ("gpu", "half-open", "open"),
            ("fpga", "half-open", "open"),
        ]

        # Faults cleared: next probe succeeds and closes the gpu breaker.
        guard.fault_plan = None
        r4 = guard.classify(X, config).reliability  # still open: skipped
        assert r4.breaker_skips == 2
        r5 = guard.classify(X, config).reliability
        assert r5.platform_used == "gpu"
        assert r5.fallback_depth == 0
        assert ("gpu", "half-open", "closed") in r5.breaker_transitions
        assert guard.breakers[Platform.GPU].state is BreakerState.CLOSED


class TestReportPlumbing:
    def test_merge_accumulates(self):
        a = ReliabilityReport(attempts=2, retries=1, dropped_trees=(1,))
        b = ReliabilityReport(
            attempts=3,
            fallback_depth=2,
            degraded=True,
            dropped_trees=(0, 1),
            platform_used="cpu",
        )
        a.merge(b)
        assert a.attempts == 5
        assert a.retries == 1
        assert a.fallback_depth == 2
        assert a.degraded
        assert a.dropped_trees == (0, 1)
        assert a.platform_used == "cpu"
        assert a.calls == 2

    def test_as_dict_roundtrips_counters(self):
        r = ReliabilityReport(attempts=4, retries=2, platform_used="gpu")
        d = r.as_dict()
        assert d["attempts"] == 4
        assert d["retries"] == 2
        assert d["platform_used"] == "gpu"
        assert isinstance(d["dropped_trees"], list)


class TestInputValidation:
    def test_y_true_length_mismatch(self, guarded):
        guard, _, X, _ = guarded()
        with pytest.raises(ValueError, match="y_true"):
            guard.classify(X, y_true=np.zeros(3))

    def test_nan_queries_rejected(self, guarded):
        guard, _, _, _ = guarded()
        with pytest.raises(ValueError, match="X"):
            guard.classify(np.array([[np.nan, 1.0]]))


class TestServedTableBitFlips:
    """Any single bit flip in a served edge table, with the oracle on: the
    leaf certificate fails and a certified degraded vote answers, or the
    answers are unchanged.  Never another exception, never a wrong answer."""

    @pytest.mark.parametrize(
        "variant,flips_per_buffer", [("hybrid", 340), ("csr", 120), ("cuml", 120)]
    )
    def test_every_flip_is_caught_or_harmless(
        self, trained_small, variant, flips_per_buffer
    ):
        forest, _, _, Xte, _ = trained_small
        X = Xte[:64]
        clf = HierarchicalForestClassifier.from_forest(forest)
        config = RunConfig(variant=variant, trace="off")
        layout = clf.layout_for(config)
        table = layout._fastpath_edges
        regions = layout._fastpath_integrity.regions
        expected = {None: reference_predict(clf.trees, X)}
        outcomes = {"unchanged": 0, "degraded": 0}
        rng = np.random.default_rng(2024)
        for k, name in enumerate(regions.names):
            buf = getattr(table, name)
            owner = np.full(buf.shape[0], -1)
            for u, tree in enumerate(regions.owner):
                owner[regions.lo[u, k] : regions.hi[u, k]] = tree
            assert (owner >= 0).all()  # every entry belongs to one tree
            raw = buf.view(np.uint8)
            at = rng.integers(raw.shape[0], size=flips_per_buffer)
            bits = rng.integers(8, size=flips_per_buffer)
            for byte, bit in zip(at, bits):
                raw[byte] ^= np.uint8(1 << bit)
                try:
                    guard = ResilientClassifier(clf, verify_after_transfer=False)
                    res = guard.classify(X, config)
                finally:
                    raw[byte] ^= np.uint8(1 << bit)
                r = res.reliability
                assert r.fallback_depth == 0
                dropped = None
                if r.degraded:
                    dropped = int(owner[byte // buf.itemsize])
                    assert r.dropped_trees == (dropped,)
                    assert r.integrity_failures == 1
                if dropped not in expected:
                    survivors = [t for i, t in enumerate(clf.trees) if i != dropped]
                    expected[dropped] = reference_predict(survivors, X)
                np.testing.assert_array_equal(res.predictions, expected[dropped])
                outcomes["degraded" if r.degraded else "unchanged"] += 1
        assert outcomes["degraded"] and outcomes["unchanged"]
