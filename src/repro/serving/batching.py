"""Dynamic micro-batching: coalesce queued requests into deadline-safe batches.

Batching amortises the backend's per-launch overhead (kernel launch on GPU,
pipeline fill on FPGA) across many requests — but an over-greedy batch can
bust the *earliest* member's deadline.  The batcher therefore works against
an explicit :class:`LatencyModel` (one per fallback rung, see
:mod:`repro.serving.frontdoor`): requests join a batch only while the
model's predicted execution time fits inside every member's remaining
slack.  Requests whose deadline already passed, or that cannot finish in
time even alone, are shed *here*, before any backend time is burnt.

There is no coalescing window: the front door launches whatever is queued
as soon as it is idle, so a batch grows only with the requests that
arrived while the previous one executed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Tuple

from repro.serving.request import Request
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class LatencyModel:
    """Affine execution-time model: ``overhead_s + rows * per_row_s``.

    One per fallback rung: an accelerator rung's is the fastpath launch
    model at a probe's lane-levels per row, the CPU rung's the host
    backend's per-row constant.  Deliberately simple: its job is guarding
    deadlines, not nanosecond accuracy.
    """

    overhead_s: float
    per_row_s: float

    def __post_init__(self):
        if self.overhead_s < 0 or self.per_row_s < 0:
            raise ValueError("latency model components must be non-negative")

    def seconds_for(self, rows: int) -> float:
        return self.overhead_s + rows * self.per_row_s


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing knobs.

    ``max_batch_rows`` caps one launch.  Requests wait only while another
    batch runs, never for a timer (see :meth:`MicroBatcher.due`).
    """

    max_batch_rows: int = 256

    def __post_init__(self):
        check_positive_int(self.max_batch_rows, "max_batch_rows")


class MicroBatcher:
    """FIFO queue plus deadline-aware batch formation.

    The queue is bounded by the admission controller (it checks ``depth``
    before admitting), so the batcher itself never refuses an
    :meth:`add` — by the time a request reaches it, admission has spoken.
    """

    def __init__(self, policy: BatchPolicy, model: LatencyModel):
        self.policy = policy
        self.model = model
        self._queue: Deque[Request] = deque()

    @property
    def depth(self) -> int:
        return len(self._queue)

    @property
    def queued_rows(self) -> int:
        return sum(r.rows for r in self._queue)

    def add(self, request: Request) -> None:
        self._queue.append(request)

    def due(self, now: float) -> bool:
        """Should a batch follow the one just run, in the same pump?

        Only if the queue already holds a full batch, or the oldest
        request's slack is about to be eaten by further waiting.  The
        first batch of a pump needs no reason (the server is idle); a
        shorter remainder waits for the caller's next submissions.
        """
        if not self._queue:
            return False
        if self.queued_rows >= self.policy.max_batch_rows:
            return True
        head = self._queue[0]
        return head.slack(now) <= self.model.seconds_for(head.rows)

    def take_expired(self, now: float) -> List[Request]:
        """Pop every queued request whose deadline has already passed."""
        expired = [r for r in self._queue if r.expired(now)]
        if expired:
            gone = {r.request_id for r in expired}
            self._queue = deque(
                r for r in self._queue if r.request_id not in gone
            )
        return expired

    def next_batch(self, now: float) -> Tuple[List[Request], List[Request]]:
        """Form one batch: ``(members, predicted_sheds)``.

        FIFO order, no reordering across tenants (fairness is the admission
        controller's job).  A request joins while the running row total
        stays under ``max_batch_rows`` *and* the model's predicted seconds
        for the grown batch fit inside the tightest member slack.  A head
        request that cannot finish inside its own slack even alone is shed
        as deadline-predicted — launching it would burn backend time to
        produce an answer nobody may use.
        """
        members: List[Request] = []
        sheds: List[Request] = []
        rows = 0
        min_slack = float("inf")
        while self._queue:
            head = self._queue[0]
            if not members and self.model.seconds_for(head.rows) > head.slack(now):
                self._queue.popleft()
                sheds.append(head)
                continue
            grown_rows = rows + head.rows
            if members and grown_rows > self.policy.max_batch_rows:
                break
            predicted = self.model.seconds_for(grown_rows)
            slack = min(min_slack, head.slack(now))
            if members and predicted > slack:
                break
            self._queue.popleft()
            members.append(head)
            rows = grown_rows
            min_slack = slack
        return members, sheds

    def flush(self) -> List[Request]:
        """Pop everything still queued (shutdown path)."""
        out = list(self._queue)
        self._queue.clear()
        return out
