"""Requests, responses and typed load-shed outcomes for the serving layer.

The serving pipeline never answers "maybe": every submitted request ends in
exactly one :class:`RequestStatus` — served with predictions, shed with a
reason, or failed with its batch — and a request that missed its deadline
is *never* silently served late (its predictions are withheld and the
status says so).  Admission
failures are different from sheds: they are raised synchronously as a typed
:class:`Overload` so a caller (or an upstream load balancer) can back off
before the request ever occupies queue memory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional

import numpy as np

from repro.obs.context import TraceContext


def _root_context(
    trace_seed: Optional[int], request_id: int
) -> Optional[TraceContext]:
    if trace_seed is None:
        return None
    return TraceContext.for_request(trace_seed, request_id)


class RequestStatus(str, enum.Enum):
    """Terminal state of one request (exactly one per request)."""

    #: Answered with predictions, inside its deadline.
    SERVED = "served"
    #: Expired while waiting in the queue (shed before any backend time).
    SHED_DEADLINE_QUEUE = "shed-deadline-queue"
    #: The latency model says it cannot finish in time even if launched
    #: immediately (shed before any backend time).
    SHED_DEADLINE_PREDICTED = "shed-deadline-predicted"
    #: Execution finished after the deadline (faults inflated the batch);
    #: the predictions are withheld — a late answer is not an answer.
    SHED_DEADLINE_LATE = "shed-deadline-late"
    #: The batch's guarded call raised (a check rejected the answer); the
    #: front door re-raises the error after recording this outcome.
    FAILED = "failed"

    @property
    def shed(self) -> bool:
        return self is not RequestStatus.SERVED


class Overload(RuntimeError):
    """Typed admission rejection: the service is shedding load.

    Raised synchronously by :meth:`ServingFrontDoor.submit` when the token
    bucket is empty (``reason="rate-limit"``) or the bounded queue is full
    (``reason="queue-full"``).  ``retry_after_s`` is the simulated seconds
    until the rejecting bucket has a token again (0 for queue-full: that
    depends on drain progress, not time).
    """

    def __init__(self, reason: str, tenant: str, retry_after_s: float = 0.0):
        super().__init__(
            f"overloaded ({reason}) for tenant {tenant!r}; "
            f"retry after {retry_after_s:.6f}s"
        )
        self.reason = reason
        self.tenant = tenant
        self.retry_after_s = float(retry_after_s)


@dataclass(frozen=True)
class Request:
    """One admitted inference request (a few feature rows, one tenant)."""

    request_id: int
    tenant: str
    X: np.ndarray
    #: Simulated clock time at admission.
    arrival_s: float
    #: Absolute simulated-clock deadline (None = no deadline).
    deadline_s: Optional[float] = None
    #: Serving trace seed the root context derives from (None = untraced).
    trace_seed: Optional[int] = None

    @cached_property
    def trace(self) -> Optional[TraceContext]:
        """Root trace context, minted on first read (seed-derived ids).

        The whole request tree — queue, batch, guard, kernels — hangs off
        it; an unobserved request never pays for minting it.
        """
        return _root_context(self.trace_seed, self.request_id)

    @property
    def rows(self) -> int:
        return int(self.X.shape[0])

    def slack(self, now: float) -> float:
        """Seconds left before the deadline (inf without one)."""
        if self.deadline_s is None:
            return float("inf")
        return self.deadline_s - now

    def expired(self, now: float) -> bool:
        return self.slack(now) <= 0.0


@dataclass
class Response:
    """Terminal outcome of one request."""

    request_id: int
    tenant: str
    status: RequestStatus
    #: Present iff ``status`` is SERVED.
    predictions: Optional[np.ndarray]
    arrival_s: float
    finish_s: float
    #: Platform that produced the predictions ("" for sheds).
    platform_used: str = ""
    #: Served by degraded quorum voting (corrupted trees dropped).
    degraded: bool = False
    #: The batch executed on a deeper ladder rung than requested.
    fallback_depth: int = 0
    #: The front door rerouted the batch around an open breaker.
    hedged: bool = False
    #: Micro-batch this request rode in (-1 for queue-time sheds).
    batch_id: int = -1
    #: The request's serving trace seed (None = untraced).
    trace_seed: Optional[int] = None

    @cached_property
    def trace(self) -> Optional[TraceContext]:
        """The request's root trace context, minted on first read."""
        return _root_context(self.trace_seed, self.request_id)

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.SERVED

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "status": self.status.value,
            "latency_s": self.latency_s,
            "platform_used": self.platform_used,
            "degraded": self.degraded,
            "fallback_depth": self.fallback_depth,
            "hedged": self.hedged,
            "batch_id": self.batch_id,
            "trace_id": self.trace.trace_hex if self.trace else "",
        }


@dataclass
class ServingStats:
    """Exact counters the front door maintains (tests assert on them)."""

    submitted: int = 0
    served: int = 0
    #: Admission rejections by reason ("rate-limit" / "queue-full").
    rejected: Dict[str, int] = field(default_factory=dict)
    #: Sheds by :class:`RequestStatus` value (deadline family and failed).
    shed: Dict[str, int] = field(default_factory=dict)
    batches: int = 0
    rows_executed: int = 0
    hedged_batches: int = 0
    degraded_served: int = 0
    max_queue_depth: int = 0

    def note_rejection(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def note_shed(self, status: RequestStatus) -> None:
        self.shed[status.value] = self.shed.get(status.value, 0) + 1

    @property
    def total_rejected(self) -> int:
        return sum(self.rejected.values())

    @property
    def total_shed(self) -> int:
        return sum(self.shed.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            "submitted": self.submitted,
            "served": self.served,
            "rejected": dict(sorted(self.rejected.items())),
            "shed": dict(sorted(self.shed.items())),
            "batches": self.batches,
            "rows_executed": self.rows_executed,
            "hedged_batches": self.hedged_batches,
            "degraded_served": self.degraded_served,
            "max_queue_depth": self.max_queue_depth,
        }
