"""Fault-tolerant serving layer over the runtime seam.

Turns the guarded classifier into a *service*: requests are admitted (or
refused with a typed :class:`Overload`), queued in a bounded micro-batcher,
launched in deadline-safe batches as soon as the server is idle, executed
through the reliability guard's fallback ladder, and answered inside their
deadlines — or shed with an explicit reason, never silently served late
(docs/architecture.md §10).
Everything runs on a :class:`~repro.utils.clock.SimulatedClock`, so a
traffic trace plus a fault seed replays the entire serving history
bit-identically; the chaos harness and the CI soak are built on exactly
that property.

* :mod:`~repro.serving.request`   — Request/Response/typed shed statuses.
* :mod:`~repro.serving.admission` — token buckets and the bounded queue.
* :mod:`~repro.serving.batching`  — deadline-aware dynamic micro-batching.
* :mod:`~repro.serving.frontdoor` — :class:`ServingFrontDoor`, the pipeline.
* :mod:`~repro.serving.traffic`   — deterministic diurnal/bursty/multi-tenant
  traffic generation.
* :mod:`~repro.serving.chaos`     — seeded chaos scenarios and the
  survivability report.
"""

from repro.serving.admission import (
    AdmissionController,
    AdmissionPolicy,
    TokenBucket,
)
from repro.serving.batching import (
    BatchPolicy,
    LatencyModel,
    MicroBatcher,
)
from repro.serving.chaos import (
    ChaosReplay,
    ChaosScenario,
    default_scenarios,
    replay_scenario,
    run_scenario,
    survivability_report,
    wrong_answer_ids,
)
from repro.serving.frontdoor import ServingFrontDoor
from repro.serving.request import (
    Overload,
    Request,
    RequestStatus,
    Response,
    ServingStats,
)
from repro.serving.traffic import (
    PROFILES,
    Arrival,
    TrafficProfile,
    generate_trace,
)

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "TokenBucket",
    "BatchPolicy",
    "LatencyModel",
    "MicroBatcher",
    "ChaosReplay",
    "ChaosScenario",
    "default_scenarios",
    "replay_scenario",
    "run_scenario",
    "survivability_report",
    "wrong_answer_ids",
    "ServingFrontDoor",
    "Overload",
    "Request",
    "RequestStatus",
    "Response",
    "ServingStats",
    "PROFILES",
    "Arrival",
    "TrafficProfile",
    "generate_trace",
]
