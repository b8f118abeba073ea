"""Monotonic + simulated clock abstraction (the sanctioned timing seam).

Two clocks, one interface:

* :class:`SimulatedClock` — a deterministic clock that only moves when the
  code advances it with simulated seconds (kernel roofline times, FPGA
  pipeline cycles, guard backoff).  Everything that feeds published results
  — the :mod:`repro.obs` tracer, run manifests, reliability accounting —
  uses this clock, so a run replays bit-identically.
* :class:`MonotonicClock` — wraps :func:`time.perf_counter` for wall-clock
  *progress reporting only* (CLI "done in Ns" lines, overhead benchmarks).
  Its readings must never reach a result row or exported artifact.

Source rule DET001 (``tests/test_source_rules.py``) allows monotonic-timer
calls in exactly this module; every other module must take a
:class:`Clock` (or stay timeless).
"""

from __future__ import annotations

import time


class Clock:
    """Minimal clock interface: a monotonically non-decreasing ``now()``."""

    def now(self) -> float:
        raise NotImplementedError


class SimulatedClock(Clock):
    """Deterministic clock advanced explicitly with simulated seconds."""

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ValueError("start must be non-negative")
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new ``now()``."""
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        self._now += float(seconds)
        return self._now


class MonotonicClock(Clock):
    """Wall-duration measurement for progress printing and benchmarks."""

    def now(self) -> float:
        return time.perf_counter()


class Stopwatch:
    """Elapsed-time helper over any :class:`Clock`."""

    def __init__(self, clock: Clock = None):
        self.clock = clock if clock is not None else MonotonicClock()
        self._t0 = self.clock.now()

    def elapsed(self) -> float:
        return self.clock.now() - self._t0

    def restart(self) -> float:
        """Return the elapsed time and reset the origin."""
        now = self.clock.now()
        out = now - self._t0
        self._t0 = now
        return out
