"""Reliability subsystem: fault injection, guarded execution, integrity.

Production RF inference must survive corrupted caches, transient device
failures and latency-budget overruns.  This package provides the three
cooperating layers (see docs/architecture.md §6):

* :mod:`~repro.reliability.faults` — seeded deterministic fault injection
  (:class:`FaultPlan`): buffer bit flips, cache-file corruption, transient
  launch failures and hangs.
* :mod:`~repro.reliability.integrity` — CRC32 checksums over the buffers a
  plan executes (the layout, or the edge table the fastpath serves),
  computed at build time, re-verified after simulated transfer, before a
  launch that no certificate proves, and after a failed certificate;
  degraded quorum voting over intact trees.
* :mod:`~repro.reliability.guard` — :class:`ResilientClassifier` with
  per-call deadlines, seeded retry/backoff, per-platform circuit breakers,
  the GPU → FPGA → CPU fallback ladder and :class:`ReliabilityReport`
  accounting.
"""

from repro.reliability.faults import FaultEvent, FaultPlan, TransientKernelError
from repro.reliability.guard import (
    AllRungsFailedError,
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    DeadlineExceededError,
    ReliabilityReport,
    ResilientClassifier,
    RetryPolicy,
)
from repro.reliability.integrity import (
    LayoutIntegrity,
    LayoutIntegrityError,
    QuorumLostError,
    attach_integrity,
    degraded_predict,
    verify_layout_integrity,
)

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "TransientKernelError",
    "AllRungsFailedError",
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "DeadlineExceededError",
    "ReliabilityReport",
    "ResilientClassifier",
    "RetryPolicy",
    "LayoutIntegrity",
    "LayoutIntegrityError",
    "QuorumLostError",
    "attach_integrity",
    "degraded_predict",
    "verify_layout_integrity",
]
