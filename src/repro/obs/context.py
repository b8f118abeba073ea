"""Request-scoped trace contexts with deterministic, seed-derived ids.

A :class:`TraceContext` is the propagation token of the second
observability layer: each admitted request carries the front door's trace
seed and mints its root context when something first reads
``request.trace`` (an unobserved request never mints one), the front door
derives a batch context from its first member when an observer is
attached, the guard derives one per guarded call, and every kernel span
executed on behalf of that batch carries a child context.  The exporter
(:mod:`repro.obs.export`) turns the parent links into Chrome-trace flow
arrows, so one request's full causal tree — admission, queueing, batch,
guard ladder, kernel launches — renders as a connected graph across
tracks.

Ids are 64-bit integers derived with a splitmix64-style mixer from the
serving trace seed and the request id — never from wall time, ``id()`` or
a global counter — so a seeded chaos replay produces byte-identical
traces (the same invariant the survivability soak is built on).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    """One splitmix64 output step (public-domain constants)."""
    x = (x + _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def mix64(*parts) -> int:
    """Mix integers and strings into one nonzero 64-bit id.

    Strings hash through CRC32 first, so the result depends only on the
    values — stable across processes and platforms.
    """
    h = 0
    for part in parts:
        if isinstance(part, str):
            part = zlib.crc32(part.encode("utf-8"))
        h = _splitmix64(h ^ (int(part) & _MASK64))
    return h or 1


def hex64(value: int) -> str:
    """Canonical 16-digit lowercase hex rendering of a 64-bit id."""
    return f"{value & _MASK64:016x}"


@dataclass(frozen=True)
class TraceContext:
    """One node of a request's causal tree (trace id + span id + parent)."""

    trace_id: int
    span_id: int
    parent_span_id: Optional[int] = None

    # ------------------------------------------------------------------
    @classmethod
    def for_request(cls, trace_seed: int, request_id: int) -> "TraceContext":
        """Root context for one admitted request.

        The trace id is a pure function of ``(trace_seed, request_id)``;
        the root span id is derived from the trace id, so the whole tree
        replays identically for the same seeds.
        """
        trace_id = mix64("trace", trace_seed, request_id)
        return cls(trace_id=trace_id, span_id=mix64(trace_id, "root"))

    def child(self, name: str, ordinal: int = 0) -> "TraceContext":
        """A child context under this span (same trace, derived span id)."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=mix64(self.span_id, name, ordinal),
            parent_span_id=self.span_id,
        )

    # ------------------------------------------------------------------
    @property
    def trace_hex(self) -> str:
        return hex64(self.trace_id)

    @property
    def span_hex(self) -> str:
        return hex64(self.span_id)

    def as_args(self) -> Dict[str, str]:
        """The id triple as JSON-safe span args (hex strings)."""
        out = {"trace_id": self.trace_hex, "span_id": self.span_hex}
        if self.parent_span_id is not None:
            out["parent_span_id"] = hex64(self.parent_span_id)
        return out
