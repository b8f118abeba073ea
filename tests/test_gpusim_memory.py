"""Tests for the coalescing model and CoalescingTracker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.memory import CoalescingTracker, record_levels, warp_transactions
from repro.gpusim.metrics import KernelMetrics
from repro.gpusim.trace import TraceLog


class TestWarpTransactions:
    def test_fully_coalesced(self):
        """32 adjacent 4-byte words in one 128B segment -> 1 transaction."""
        req, txn, uniq = warp_transactions(np.arange(32) * 4)
        assert (req, txn) == (1, 1)
        assert uniq.tolist() == [0]

    def test_fully_scattered(self):
        """Stride-128 addresses -> one transaction per lane."""
        req, txn, _ = warp_transactions(np.arange(32) * 128)
        assert (req, txn) == (1, 32)

    def test_two_segments(self):
        addrs = np.concatenate([np.zeros(16), np.full(16, 128)]).astype(np.int64)
        req, txn, _ = warp_transactions(addrs)
        assert (req, txn) == (1, 2)

    def test_inactive_lanes_skipped(self):
        addrs = np.arange(32) * 128
        active = np.zeros(32, dtype=bool)
        active[:4] = True
        req, txn, uniq = warp_transactions(addrs, active)
        assert (req, txn) == (1, 4)
        assert len(uniq) == 4

    def test_all_inactive(self):
        req, txn, uniq = warp_transactions(np.arange(32) * 4, np.zeros(32, bool))
        assert (req, txn) == (0, 0)
        assert len(uniq) == 0

    def test_multiple_warps(self):
        # Warp 0 coalesced, warp 1 scattered.
        addrs = np.concatenate([np.arange(32) * 4, 10_000 + np.arange(32) * 128])
        req, txn, _ = warp_transactions(addrs)
        assert (req, txn) == (2, 33)

    def test_partial_last_warp(self):
        req, txn, _ = warp_transactions(np.arange(40) * 4)
        assert req == 2  # 32 lanes + 8 lanes
        assert txn == 2  # 160 bytes span 2 segments

    def test_same_address_all_lanes(self):
        req, txn, _ = warp_transactions(np.full(32, 4096, dtype=np.int64))
        assert (req, txn) == (1, 1)

    def test_custom_granularity(self):
        req, txn, _ = warp_transactions(np.arange(32) * 4, transaction_bytes=32)
        assert txn == 4  # 128 bytes / 32B sectors

    def test_empty(self):
        req, txn, uniq = warp_transactions(np.empty(0, dtype=np.int64))
        assert (req, txn) == (0, 0)

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            warp_transactions(np.zeros((2, 32), dtype=np.int64))

    def test_mask_length_checked(self):
        with pytest.raises(ValueError):
            warp_transactions(np.arange(32), np.ones(31, bool))


class TestCoalescingTracker:
    def test_cold_counted_once(self):
        m = KernelMetrics()
        tr = CoalescingTracker("a", m)
        tr.record(np.arange(64) * 4)  # 2 segments
        tr.record(np.arange(64) * 4)  # repeat: reuse
        assert tr.cold_transactions == 2
        assert m.dram_transactions == 2
        assert m.global_load_transactions == 4
        assert m.l2_transactions == 2
        assert m.footprint_bytes == 256

    def test_new_segments_add_cold(self):
        m = KernelMetrics()
        tr = CoalescingTracker("a", m)
        tr.record(np.arange(32) * 4)
        tr.record(1000 + np.arange(32) * 4)
        assert tr.cold_transactions == 3  # second batch straddles 2 segments

    def test_l1_resident_accounting(self):
        m = KernelMetrics()
        tr = CoalescingTracker("x", m, l1_resident=True)
        tr.record(np.arange(32) * 4)
        tr.record(np.arange(32) * 4)
        assert m.l1_transactions == 1  # the reuse transaction
        # Cold costs full weight; reuse costs the L1 discount.
        expected = 1 * 1.0 + 1 * CoalescingTracker.L1_ISSUE_COST
        assert m.issue_weighted_transactions == pytest.approx(expected)

    def test_issue_cost_weighting(self):
        m = KernelMetrics()
        tr = CoalescingTracker("dep", m, issue_cost=2.5)
        tr.record(np.arange(32) * 128)
        assert m.issue_weighted_transactions == pytest.approx(32 * 2.5)

    def test_l1_hit_rate_discount(self):
        m = KernelMetrics()
        tr = CoalescingTracker("n", m, l1_hit_rate=0.5)
        tr.record(np.arange(32) * 128)
        assert m.issue_weighted_transactions == pytest.approx(16.0)

    def test_empty_record_noop(self):
        m = KernelMetrics()
        tr = CoalescingTracker("a", m)
        tr.record(np.arange(32), np.zeros(32, bool))
        assert tr.requests == 0 and m.global_load_transactions == 0

    def test_footprint_property(self):
        m = KernelMetrics()
        tr = CoalescingTracker("a", m)
        assert tr.footprint_bytes == 0
        tr.record(np.arange(64) * 4)
        assert tr.footprint_bytes == 256


def _sites(metrics):
    """One site of each accounting kind: plain, issue-cost and L1-hit
    discounted, and L1-resident."""
    return [
        CoalescingTracker("plain", metrics),
        CoalescingTracker("chase", metrics, issue_cost=2.5, l1_hit_rate=0.1),
        CoalescingTracker("x", metrics, l1_resident=True),
    ]


def _site_state(tracker):
    return (
        tracker.requests,
        tracker.transactions,
        tracker.cold_transactions,
        tracker.footprint_bytes,
    )


def _trace_state(trace):
    return [(site, segs.dtype, segs.tolist()) for site, segs in trace.events]


class TestLevelMatrix:
    """Recording a (levels x lanes) matrix per site is recording its rows
    one by one, site by site within a row."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        levels=st.integers(1, 6),
        lanes=st.integers(1, 100),
        calls=st.integers(1, 3),
        span=st.sampled_from([256, 4096, 1 << 20]),
    )
    def test_matrix_equals_rows(self, seed, levels, lanes, calls, span):
        rng = np.random.default_rng(seed)
        whole, rowwise = KernelMetrics(), KernelMetrics()
        whole.trace, rowwise.trace = TraceLog(), TraceLog()
        whole_sites, row_sites = _sites(whole), _sites(rowwise)
        for _ in range(calls):
            streams = [
                (
                    rng.integers(0, span, size=(levels, lanes)),
                    rng.random((levels, lanes)) < rng.random(),
                )
                for _ in whole_sites
            ]
            record_levels(
                [(tr, a, m) for tr, (a, m) in zip(whole_sites, streams)]
            )
            for level in range(levels):
                for tr, (a, m) in zip(row_sites, streams):
                    tr.record(a[level], m[level])
        assert whole == rowwise
        assert whole.issue_weighted_transactions == rowwise.issue_weighted_transactions
        assert [_site_state(t) for t in whole_sites] == [
            _site_state(t) for t in row_sites
        ]
        assert _trace_state(whole.trace) == _trace_state(rowwise.trace)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 100))
    def test_row_matches_coalescing_rule(self, seed, lanes):
        """One recorded row counts what warp_transactions counts, and its
        cold segments are its distinct segments."""
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 1 << 16, size=lanes)
        active = rng.random(lanes) < 0.7
        m = KernelMetrics()
        m.trace = TraceLog()
        tr = CoalescingTracker("a", m)
        tr.record(addrs, active)
        req, txn, uniq = warp_transactions(addrs, active)
        assert (tr.requests, tr.transactions) == (req, txn)
        assert tr.cold_transactions == uniq.size
        assert _trace_state(m.trace) == (
            [("a", uniq.dtype, uniq.tolist())] if req else []
        )
