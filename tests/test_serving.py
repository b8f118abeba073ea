"""Unit tests for repro.serving primitives: admission, batching, traffic."""

import numpy as np
import pytest

from repro.serving import (
    PROFILES,
    AdmissionController,
    AdmissionPolicy,
    BatchPolicy,
    LatencyModel,
    MicroBatcher,
    Overload,
    Request,
    RequestStatus,
    ServingStats,
    TokenBucket,
    TrafficProfile,
    generate_trace,
)


def req(rid, rows=1, arrival=0.0, deadline=None, tenant="t"):
    X = np.zeros((rows, 4), dtype=np.float32)
    return Request(rid, tenant, X, arrival, deadline)


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_starts_full_and_debits(self):
        b = TokenBucket(rate=10.0, capacity=3.0)
        assert b.try_take(0.0) and b.try_take(0.0) and b.try_take(0.0)
        assert not b.try_take(0.0)

    def test_lazy_refill_at_rate(self):
        b = TokenBucket(rate=10.0, capacity=1.0)
        assert b.try_take(0.0)
        assert not b.try_take(0.05)  # only half a token back
        assert b.try_take(0.1)  # one full token after 100 ms at 10 qps

    def test_refill_caps_at_capacity(self):
        b = TokenBucket(rate=100.0, capacity=2.0)
        assert b.tokens(1e9) == pytest.approx(2.0)

    def test_time_never_runs_backwards(self):
        b = TokenBucket(rate=10.0, capacity=1.0)
        assert b.try_take(1.0)
        # A stale timestamp must not mint tokens or move _last back.
        assert not b.try_take(0.5)
        assert b.try_take(1.1)

    def test_seconds_until(self):
        b = TokenBucket(rate=10.0, capacity=1.0)
        assert b.seconds_until() == 0.0
        assert b.try_take(0.0)
        assert b.seconds_until() == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0.0)


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------
class TestAdmission:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(rate_qps=0.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(queue_limit=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(tenant_rate_qps=10.0)  # burst missing

    def test_queue_full_is_checked_first_and_debits_nothing(self):
        ctl = AdmissionController(AdmissionPolicy(rate_qps=10.0, burst=1.0, queue_limit=2))
        with pytest.raises(Overload) as e:
            ctl.admit("t", queue_depth=2, now=0.0)
        assert e.value.reason == "queue-full"
        assert e.value.retry_after_s == 0.0
        # The bucket was not touched: the single burst token still admits.
        ctl.admit("t", queue_depth=0, now=0.0)

    def test_rate_limit_carries_retry_after(self):
        ctl = AdmissionController(AdmissionPolicy(rate_qps=10.0, burst=1.0))
        ctl.admit("t", 0, now=0.0)
        with pytest.raises(Overload) as e:
            ctl.admit("t", 0, now=0.0)
        assert e.value.reason == "rate-limit"
        assert e.value.tenant == "t"
        assert e.value.retry_after_s == pytest.approx(0.1)

    def test_tenant_bucket_protects_other_tenants(self):
        ctl = AdmissionController(
            AdmissionPolicy(
                rate_qps=100.0, burst=50.0, tenant_rate_qps=10.0, tenant_burst=1.0
            )
        )
        ctl.admit("greedy", 0, now=0.0)
        with pytest.raises(Overload) as e:
            ctl.admit("greedy", 0, now=0.0)
        assert e.value.reason == "tenant-rate-limit"
        ctl.admit("quiet", 0, now=0.0)  # unaffected

    def test_global_reject_refunds_tenant_token(self):
        ctl = AdmissionController(
            AdmissionPolicy(
                rate_qps=10.0, burst=1.0, tenant_rate_qps=0.001, tenant_burst=2.0
            )
        )
        ctl.admit("t", 0, now=0.0)
        with pytest.raises(Overload) as e:
            ctl.admit("t", 0, now=0.0)
        assert e.value.reason == "rate-limit"
        # The tenant token was refunded on the global reject: the tenant
        # bucket refills far too slowly (0.001 qps) to mint one itself, so
        # this admit only succeeds because the refund restored it.
        ctl.admit("t", 0, now=0.1)


# ----------------------------------------------------------------------
# Requests, responses, stats
# ----------------------------------------------------------------------
class TestRequestPrimitives:
    def test_slack_and_expiry(self):
        r = req(0, deadline=1.0)
        assert r.slack(0.25) == pytest.approx(0.75)
        assert not r.expired(0.999)
        assert r.expired(1.0)
        assert req(1).slack(1e9) == float("inf")

    def test_status_shed_property(self):
        assert not RequestStatus.SERVED.shed
        for status in RequestStatus:
            if status is not RequestStatus.SERVED:
                assert status.shed

    def test_stats_counters(self):
        s = ServingStats()
        s.note_rejection("rate-limit")
        s.note_rejection("rate-limit")
        s.note_shed(RequestStatus.SHED_DEADLINE_QUEUE)
        assert s.total_rejected == 2
        assert s.total_shed == 1
        d = s.as_dict()
        assert d["rejected"] == {"rate-limit": 2}
        assert d["shed"] == {"shed-deadline-queue": 1}


# ----------------------------------------------------------------------
# Latency model + micro-batching
# ----------------------------------------------------------------------
class TestLatencyModel:
    def test_seconds_for_is_affine(self):
        m = LatencyModel(overhead_s=0.001, per_row_s=0.0001)
        assert m.seconds_for(0) == pytest.approx(0.001)
        assert m.seconds_for(10) == pytest.approx(0.002)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyModel(-1.0, 0.0)


class TestMicroBatcher:
    def make(self, per_row=0.01, max_rows=8):
        return MicroBatcher(
            BatchPolicy(max_batch_rows=max_rows),
            LatencyModel(overhead_s=0.0, per_row_s=per_row),
        )

    def test_due_conditions(self):
        b = self.make()
        assert not b.due(0.0)
        b.add(req(0, rows=1, arrival=0.0))
        # No window: a short queue is never due, however long it waited.
        assert not b.due(0.002)
        assert not b.due(100.0)
        b2 = self.make(max_rows=2)
        b2.add(req(0, rows=2, arrival=0.0))
        assert b2.due(0.0)  # already a full batch
        b3 = self.make(per_row=0.01)
        b3.add(req(0, rows=1, arrival=0.0, deadline=0.05))
        assert not b3.due(0.03)  # 0.02 s slack > 0.01 s alone
        assert b3.due(0.045)  # waiting longer would eat the slack

    def test_take_expired_preserves_fifo_of_rest(self):
        b = self.make()
        b.add(req(0, deadline=0.5))
        b.add(req(1, deadline=2.0))
        b.add(req(2, deadline=0.5))
        expired = b.take_expired(1.0)
        assert [r.request_id for r in expired] == [0, 2]
        assert [r.request_id for r in b._queue] == [1]

    def test_head_that_cannot_fit_alone_is_shed(self):
        b = self.make(per_row=0.01)
        b.add(req(0, rows=4, deadline=0.03))  # needs 0.04 s alone
        b.add(req(1, rows=1, deadline=1.0))
        members, sheds = b.next_batch(0.0)
        assert [r.request_id for r in sheds] == [0]
        assert [r.request_id for r in members] == [1]

    def test_batch_respects_tightest_member_slack(self):
        b = self.make(per_row=0.01)
        b.add(req(0, rows=2, deadline=0.025))  # alone: 0.02 s, fits
        b.add(req(1, rows=2, deadline=1.0))  # grown: 0.04 s > 0.025 slack
        members, sheds = b.next_batch(0.0)
        assert [r.request_id for r in members] == [0]
        assert sheds == []
        assert b.depth == 1  # r1 waits for the next batch

    def test_batch_respects_max_rows(self):
        b = self.make(per_row=0.0, max_rows=4)
        for i in range(4):
            b.add(req(i, rows=2))
        members, _ = b.next_batch(0.0)
        assert [r.request_id for r in members] == [0, 1]

    def test_flush_empties_queue(self):
        b = self.make()
        b.add(req(0))
        b.add(req(1))
        assert [r.request_id for r in b.flush()] == [0, 1]
        assert b.depth == 0


# ----------------------------------------------------------------------
# Traffic generation
# ----------------------------------------------------------------------
class TestTraffic:
    def test_same_seed_same_trace(self):
        p = PROFILES["bursty"]
        assert generate_trace(p, seed=3) == generate_trace(p, seed=3)
        assert generate_trace(p, seed=3) != generate_trace(p, seed=4)

    def test_trace_respects_profile_bounds(self):
        p = TrafficProfile(
            name="x",
            duration_s=0.5,
            base_qps=400.0,
            tenants=("a", "b"),
            rows_lo=2,
            rows_hi=5,
            deadline_s=0.1,
        )
        trace = generate_trace(p, seed=0)
        assert trace, "expected a non-empty trace at 400 qps"
        for arr in trace:
            assert 0.0 < arr.at_s < p.duration_s
            assert arr.tenant in p.tenants
            assert 2 <= arr.rows <= 5
            assert arr.deadline_s == 0.1
        assert [a.at_s for a in trace] == sorted(a.at_s for a in trace)

    def test_rate_shapes(self):
        diurnal = TrafficProfile(
            name="d", shape="diurnal", base_qps=100.0, diurnal_floor=0.2
        )
        assert diurnal.rate_at(0.0) == pytest.approx(20.0)
        assert diurnal.rate_at(0.5) == pytest.approx(100.0)
        bursty = TrafficProfile(
            name="b", shape="bursty", base_qps=100.0, burst_multiplier=8.0
        )
        assert bursty.rate_at(0.0) == pytest.approx(800.0)
        assert bursty.rate_at(0.1) == pytest.approx(100.0)
        assert bursty.peak_qps == pytest.approx(800.0)

    def test_thinning_tracks_rate(self):
        # The diurnal trough must see far fewer arrivals than the peak.
        p = TrafficProfile(
            name="d", shape="diurnal", duration_s=2.0, base_qps=500.0,
            diurnal_floor=0.05,
        )
        trace = generate_trace(p, seed=1)
        edge = sum(1 for a in trace if a.at_s < 0.25 or a.at_s > 1.75)
        mid = sum(1 for a in trace if 0.75 < a.at_s < 1.25)
        assert mid > 2 * edge

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            TrafficProfile(name="x", shape="sawtooth")
        with pytest.raises(ValueError):
            TrafficProfile(name="x", rows_lo=4, rows_hi=2)
        with pytest.raises(ValueError):
            TrafficProfile(name="x", tenants=("a",), tenant_weights=(1.0, 2.0))
        with pytest.raises(ValueError):
            TrafficProfile(name="x", deadline_s=0.0)
