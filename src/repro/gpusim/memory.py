"""Coalescing and locality accounting over real address streams.

Three pieces:

* :func:`warp_transactions` — the CUDA coalescing rule: a warp's load is
  split into one transaction per distinct ``transaction_bytes``-sized
  segment touched by its active lanes.
* :class:`CoalescingTracker` — accumulates, for one load *site* (array), the
  per-step transaction counts plus the cold/unique segment counts the
  analytic cache model uses to split traffic into DRAM vs. on-chip (L2).
* :func:`record_levels` — records several sites' loads over a run of
  lock-step levels at once, as a (levels x lanes) address matrix per site.

The cold/on-chip split counts *compulsory* misses exactly: a segment's first
touch anywhere in the kernel is cold (DRAM), every repeat is potentially
served on-chip.  Each site marks the segments it has touched in a boolean
bitmap indexed by segment id, so a level's cold count is the number of its
segments no earlier level marked.  Capacity effects are applied afterwards
by the timing model, which discounts the on-chip share by the
footprint-vs-L2-size ratio (random replacement approximation).  The exact
LRU simulator in :mod:`.cache` validates this approximation in the test
suite and the cache ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.gpusim.metrics import KernelMetrics

#: Sentinel placed in inactive lanes before segment sorting.
_SENTINEL = np.int64(np.iinfo(np.int64).max)


def _coalesce(addresses, active, transaction_bytes: int, warp_size: int):
    """The coalescing rule over a (levels x lanes) address matrix.

    Returns ``(warp_level, per_warp, touched)`` for every warp-level with
    at least one active lane, level by level and warp by warp: its level,
    its transaction count (the distinct segments its active lanes touch)
    and, concatenated, those segments in ascending order per warp-level.
    """
    if active is None:
        active = np.ones(addresses.shape, dtype=bool)
    pad = (-addresses.shape[-1]) % warp_size
    if pad:
        addresses = np.pad(addresses, ((0, 0), (0, pad)))
        active = np.pad(active, ((0, 0), (0, pad)))
    n_warps = addresses.shape[-1] // warp_size
    lanes = active.reshape(-1, warp_size)
    live = lanes.any(axis=1)
    grid = addresses.reshape(-1, warp_size)[live] // transaction_bytes
    # Inactive lanes hold the sentinel, which sorts last.
    np.copyto(grid, _SENTINEL, where=~lanes[live])
    grid.sort(axis=1)
    # New segment when it differs from its left neighbour (and is real).
    first = np.empty(grid.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(grid[:, 1:], grid[:, :-1], out=first[:, 1:])
    first &= grid != _SENTINEL
    warp_level = live.nonzero()[0] // n_warps
    return warp_level, np.count_nonzero(first, axis=1), grid[first]


def warp_transactions(
    addresses: np.ndarray,
    active: Optional[np.ndarray] = None,
    transaction_bytes: int = 128,
    warp_size: int = 32,
) -> Tuple[int, int, np.ndarray]:
    """Apply the coalescing rule to a batch of per-lane byte addresses.

    Parameters
    ----------
    addresses:
        ``int64[n]`` byte addresses, one per lane/query, in lane order
        (lane ``i`` of warp ``w`` is element ``w * warp_size + i``).  The
        array is padded internally to a multiple of ``warp_size``.
    active:
        Optional ``bool[n]`` mask; inactive lanes issue no access.
    transaction_bytes, warp_size:
        Coalescing granularity and lanes per warp.

    Returns
    -------
    ``(requests, transactions, unique_segments)`` where ``requests`` is the
    number of warps with at least one active lane, ``transactions`` the total
    coalesced transaction count, and ``unique_segments`` the sorted distinct
    segment ids across the whole batch (for cold-miss accounting).
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.ndim != 1:
        raise ValueError("addresses must be 1-D (lane order)")
    n = addresses.shape[0]
    if n == 0:
        return 0, 0, np.empty(0, dtype=np.int64)
    if active is not None:
        active = np.asarray(active, dtype=bool)
        if active.shape[0] != n:
            raise ValueError("active mask length mismatch")
        active = active[None]
    warp_level, per_warp, touched = _coalesce(
        addresses[None], active, transaction_bytes, warp_size
    )
    return int(warp_level.size), int(per_warp.sum()), np.unique(touched)


@dataclass
class CoalescingTracker:
    """Accumulates coalescing + cold-segment stats for one load site.

    A kernel creates one tracker per global array it reads (node attributes,
    children arrays, query matrix, ...) and records the lanes' byte
    addresses of a run of lock-step levels, one row per level: the kernels
    that walk a tree through one fastpath walk record all of its levels at
    once (:func:`record_levels`), and a kernel with its own step loop
    records one level per call (:meth:`record`).  ``metrics`` is updated in
    place; per-site totals stay available for reports.
    """

    name: str
    metrics: KernelMetrics
    transaction_bytes: int = 128
    warp_size: int = 32
    #: element size of the underlying array (bytes); used by reports only.
    element_bytes: int = 4
    #: Thread-private data with high line reuse (e.g. each thread re-reads
    #: its own query row every level): reuse transactions are served by the
    #: per-SM L1 and excluded from the L2/DRAM path by the timing model.
    l1_resident: bool = False
    #: Relative issue cost per transaction.  1.0 = an ordinary scattered
    #: load; dependent pointer-chase loads (CSR's children_arr_idx ->
    #: children_arr chain) cost more because the warp cannot overlap them,
    #: cutting memory-level parallelism; L1-resident reuse costs ~nothing.
    issue_cost: float = 1.0
    #: Fraction of this site's transactions served by the per-SM L1
    #: (discounted from the issue roof).  Kernel-dependent: the hybrid
    #: kernel synchronises every block on one tree at a time so its L1
    #: stays hot on that tree's nodes (paper §3.2.1: "nodes from subsequent
    #: subtrees will also be less likely to be evicted from the L1 cache"),
    #: while the independent kernel's warps drift across trees and thrash
    #: it.  Values are calibrated against the paper's Fig. 7 bands.
    l1_hit_rate: float = 0.0
    L1_ISSUE_COST = 0.15
    requests: int = 0
    transactions: int = 0
    cold_transactions: int = 0
    #: ``_marked[s]`` is set once any recorded level touched segment ``s``.
    _marked: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool), repr=False)

    def record(self, addresses: np.ndarray, active: Optional[np.ndarray] = None) -> None:
        """Record this site's loads: one lock-step level as a lane vector,
        or a run of levels as a (levels x lanes) matrix."""
        record_levels([(self, addresses, active)])

    def _count_levels(self, addresses, active, with_segments: bool):
        """Add a (levels x lanes) address matrix's integer counters (sums,
        which no order changes) and mark its segments.  Returns each level's
        requests, issue-weighted transactions and, with ``with_segments``,
        sorted distinct segments."""
        addresses = np.atleast_2d(np.asarray(addresses, dtype=np.int64))
        if active is not None:
            active = np.asarray(active, dtype=bool).reshape(addresses.shape)
        levels = addresses.shape[0]
        warp_level, per_warp, touched = _coalesce(
            addresses, active, self.transaction_bytes, self.warp_size
        )
        level = np.repeat(warp_level, per_warp)
        requests = np.bincount(warp_level, minlength=levels)
        transactions = np.bincount(level, minlength=levels)
        cold = np.zeros(levels, dtype=np.int64)
        segments = None
        if touched.size:
            size, need = self._marked.shape[0], int(touched.max()) + 1
            if need > size:
                self._marked = np.pad(self._marked, (0, max(need, 2 * size) - size))
            # A segment is cold on the first level that touches it, unless
            # an earlier record already marked it.
            fresh = ~self._marked[touched]
            segs, at = np.unique(touched[fresh], return_index=True)
            cold = np.bincount(level[fresh][at], minlength=levels)
            self._marked[segs] = True
            if with_segments:
                span = np.int64(self._marked.shape[0])
                keys = np.unique(level * span + touched)
                bounds = np.searchsorted(keys, np.arange(1, levels, dtype=np.int64) * span)
                segments = np.split(keys % span, bounds)
        n_req, n_txn, n_cold = int(requests.sum()), int(transactions.sum()), int(cold.sum())
        self.requests += n_req
        self.transactions += n_txn
        self.cold_transactions += n_cold
        m = self.metrics
        m.global_load_requests += n_req
        m.global_load_transactions += n_txn
        m.dram_transactions += n_cold
        m.footprint_bytes += n_cold * self.transaction_bytes
        if self.l1_resident:
            m.l1_transactions += n_txn - n_cold
            weighted = cold * self.issue_cost + (transactions - cold) * self.L1_ISSUE_COST
        else:
            weighted = transactions * self.issue_cost * (1.0 - self.l1_hit_rate)
        return requests, weighted, segments

    @property
    def footprint_bytes(self) -> int:
        """Distinct bytes touched through this site (segment granularity):
        every distinct segment is cold exactly once."""
        return self.cold_transactions * self.transaction_bytes


def record_levels(
    sites: Sequence[Tuple[CoalescingTracker, np.ndarray, Optional[np.ndarray]]],
) -> None:
    """Record a run of lock-step levels at several load sites of one kernel.

    Each site is ``(tracker, addresses, active)``: a (levels x lanes) byte
    address matrix and lane mask, with the same levels for every site (a
    lane vector is the one-level case).  The result is bit-identical to
    recording level by level, and within a level site by site in the order
    given: the integer counters are sums, and the float
    ``issue_weighted_transactions`` and the trace (``record_trace=True``)
    follow that order.
    """
    metrics = sites[0][0].metrics
    counted = [
        tracker._count_levels(addresses, active, metrics.trace is not None)
        for tracker, addresses, active in sites
    ]
    # A left-to-right running sum (``np.sum`` would sum pairwise) of every
    # level's site contributions, level-major.
    weighted = np.stack([w for _, w, _ in counted], axis=-1).reshape(-1)
    total = np.add.accumulate(np.append(metrics.issue_weighted_transactions, weighted))
    metrics.issue_weighted_transactions = float(total[-1])
    if metrics.trace is not None:
        for level in range(len(counted[0][0])):
            for (tracker, _, _), (requests, _, segments) in zip(sites, counted):
                if requests[level]:
                    metrics.trace.append(tracker.name, segments[level])
