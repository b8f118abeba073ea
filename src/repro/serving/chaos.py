"""Deterministic chaos harness: seeded traffic × seeded faults, replayed.

One :class:`ChaosScenario` crosses a traffic profile (see
:mod:`repro.serving.traffic`) with a :class:`~repro.reliability.faults.FaultPlan`
and replays the whole serving history on a :class:`SimulatedClock`:
arrivals advance the clock, batches advance it by their simulated execution
seconds, faults fire from their own seeded generator.  Everything is a pure
function of ``(scenario, seeds)`` — run it twice, diff the survivability
reports, they are byte-identical.

The report answers the questions an operator would ask after a bad day:

* latency — p50/p99 of served requests (simulated seconds);
* sheds — how much load was refused (typed Overload) or shed (deadline
  family), and why;
* degradation — what fraction of answers came from quorum voting or a
  deeper fallback rung;
* **wrong answers — must be zero.**  A served, non-degraded response whose
  predictions differ from the authoritative host trees is a correctness
  violation, not a performance incident.  (Degraded responses are
  explicitly-flagged approximations; they are reported separately as
  ``degraded_divergence`` and are allowed to differ.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.cpu_reference import reference_predict
from repro.core.config import KernelVariant, Platform, RunConfig
from repro.obs.context import mix64
from repro.reliability.faults import FaultPlan
from repro.reliability.guard import ResilientClassifier
from repro.runtime.drift import CostDriftMonitor
from repro.runtime.plan import CPU_PLATFORM
from repro.serving.admission import AdmissionPolicy
from repro.serving.batching import BatchPolicy
from repro.serving.frontdoor import ServingFrontDoor
from repro.serving.request import Request, Response
from repro.serving.traffic import PROFILES, TrafficProfile, generate_trace
from repro.utils.clock import SimulatedClock


@dataclass(frozen=True)
class ChaosScenario:
    """One cell of the chaos grid: a traffic shape under a fault regime."""

    name: str
    profile: str = "steady"  # key into traffic.PROFILES, or see `custom`
    traffic_seed: int = 0
    fault_seed: int = 0
    tree_corruption_rate: float = 0.0
    launch_fail_rate: float = 0.0
    launch_hang_rate: float = 0.0
    hang_seconds: float = 60.0
    platform: str = "gpu"
    variant: str = "auto"
    #: Inline profile override (takes precedence over ``profile``).
    custom: Optional[TrafficProfile] = None
    #: Scenario-specific policy overrides (None = run_scenario defaults).
    admission: Optional[AdmissionPolicy] = None
    batching: Optional[BatchPolicy] = None

    def traffic_profile(self) -> TrafficProfile:
        if self.custom is not None:
            return self.custom
        if self.profile not in PROFILES:
            raise ValueError(f"unknown traffic profile {self.profile!r}")
        return PROFILES[self.profile]

    def fault_plan(self) -> FaultPlan:
        return FaultPlan(
            seed=self.fault_seed,
            tree_corruption_rate=self.tree_corruption_rate,
            launch_fail_rate=self.launch_fail_rate,
            launch_hang_rate=self.launch_hang_rate,
            hang_seconds=self.hang_seconds,
        )

    def run_config(self) -> RunConfig:
        return RunConfig(
            platform=Platform(self.platform),
            variant=KernelVariant(self.variant),
        )


def _round(x: float) -> float:
    """Stable decimal rounding so report JSON is byte-reproducible."""
    return float(round(float(x), 9))


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    return _round(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass
class ChaosReplay:
    """One scenario's full replay state (the report is a projection)."""

    scenario: ChaosScenario
    front: ServingFrontDoor
    requests: Dict[int, Request]
    responses: List[Response]
    fault_plan: FaultPlan
    #: Final simulated time (the SLO engine's evaluation horizon).
    horizon_s: float = 0.0

    def report(self) -> Dict[str, object]:
        return survivability_report(
            self.scenario, self.front, self.requests, self.responses,
            self.fault_plan,
        )


def replay_scenario(
    classifier,
    X_pool: np.ndarray,
    scenario: ChaosScenario,
    admission: AdmissionPolicy = AdmissionPolicy(),
    batching: BatchPolicy = BatchPolicy(),
    observer=None,
    deadline_guard_s: Optional[float] = 1.0,
    drift: Optional[CostDriftMonitor] = None,
) -> ChaosReplay:
    """Replay one scenario end to end; returns the full replay state.

    ``classifier`` is a fitted
    :class:`~repro.core.classifier.HierarchicalForestClassifier` (fresh per
    scenario — corruption mutates its device layouts in place).  ``X_pool``
    supplies request rows: each arrival takes the next contiguous slice,
    wrapping around, so the row content is as deterministic as the trace.

    The front door's trace seed is derived from the scenario's two seeds,
    so per-request trace ids are themselves a pure function of the
    scenario — two replays emit byte-identical Chrome traces.
    """
    X_pool = np.ascontiguousarray(X_pool, dtype=np.float32)
    profile = scenario.traffic_profile()
    fault_plan = scenario.fault_plan()
    if scenario.admission is not None:
        admission = scenario.admission
    if scenario.batching is not None:
        batching = scenario.batching
    clock = SimulatedClock()
    guard = ResilientClassifier(
        classifier,
        deadline_s=deadline_guard_s,
        fault_plan=fault_plan,
        seed=scenario.fault_seed,
        observer=observer,
    )
    front = ServingFrontDoor(
        guard,
        config=scenario.run_config(),
        clock=clock,
        admission=admission,
        batching=batching,
        probe_X=X_pool[: min(64, X_pool.shape[0])],
        observer=observer,
        trace_seed=mix64("chaos", scenario.traffic_seed, scenario.fault_seed),
        drift=drift,
    )

    # Corrupt the accelerator layouts and their served tables up front (the
    # DMA-error model).  A batch whose walk reads a flipped byte fails its
    # oracle check, and the guard turns the damage into degraded serving,
    # never into silent wrong answers; a flip no walk reads changes no
    # answer.  Rungs that share a layout corrupt it once each; two flips of
    # one tree land on different table bits unless they land on the same
    # layout bit, so they cancel only where the layout's do.
    if scenario.tree_corruption_rate > 0:
        for plan in guard.ladder_plans(front.config):
            if plan.platform == CPU_PLATFORM:
                continue
            layout = classifier.layout_for(plan.to_run_config())
            fault_plan.corrupt_layout(layout)

    trace = generate_trace(profile, seed=scenario.traffic_seed)
    requests: Dict[int, Request] = {}
    responses: List[Response] = []
    cursor = 0
    n_pool = X_pool.shape[0]
    for arrival in trace:
        if arrival.at_s > clock.now():
            clock.advance(arrival.at_s - clock.now())
        # else: execution pushed simulated time past this arrival; it is
        # submitted "now" (the service was busy when it arrived).
        rows = min(arrival.rows, n_pool)
        lo = cursor % max(1, n_pool - rows + 1)
        cursor += rows
        req = front.try_submit(
            X_pool[lo : lo + rows],
            tenant=arrival.tenant,
            deadline_s=arrival.deadline_s,
        )
        if req is not None:
            requests[req.request_id] = req
        responses.extend(front.pump())
    responses.extend(front.drain())

    return ChaosReplay(
        scenario=scenario,
        front=front,
        requests=requests,
        responses=responses,
        fault_plan=fault_plan,
        horizon_s=clock.now(),
    )


def run_scenario(
    classifier,
    X_pool: np.ndarray,
    scenario: ChaosScenario,
    admission: AdmissionPolicy = AdmissionPolicy(),
    batching: BatchPolicy = BatchPolicy(),
    observer=None,
    deadline_guard_s: Optional[float] = 1.0,
) -> Dict[str, object]:
    """Replay one scenario and project it onto the survivability report."""
    return replay_scenario(
        classifier,
        X_pool,
        scenario,
        admission=admission,
        batching=batching,
        observer=observer,
        deadline_guard_s=deadline_guard_s,
    ).report()


def wrong_answer_ids(
    front: ServingFrontDoor,
    requests: Dict[int, Request],
    responses: List[Response],
) -> Dict[str, List[int]]:
    """Request ids whose served predictions diverge from the host trees.

    ``wrong`` (non-degraded divergence — a correctness violation) and
    ``degraded_divergence`` (explicitly-flagged quorum approximations,
    allowed to differ) are kept apart, exactly as the survivability
    report counts them.
    """
    wrong: List[int] = []
    degraded: List[int] = []
    served = [resp for resp in responses if resp.ok]
    if not served:
        return {"wrong": wrong, "degraded_divergence": degraded}
    # One oracle call over every served row, split back per response.
    rows = [requests[resp.request_id].X for resp in served]
    refs = np.split(
        reference_predict(front.guard.inner.trees, np.concatenate(rows)),
        np.cumsum([x.shape[0] for x in rows])[:-1],
    )
    for resp, ref in zip(served, refs):
        if np.array_equal(resp.predictions, ref):
            continue
        (degraded if resp.degraded else wrong).append(resp.request_id)
    return {"wrong": wrong, "degraded_divergence": degraded}


def survivability_report(
    scenario: ChaosScenario,
    front: ServingFrontDoor,
    requests: Dict[int, Request],
    responses: List[Response],
    fault_plan: FaultPlan,
) -> Dict[str, object]:
    """Aggregate one replay into the deterministic survivability report."""
    stats = front.stats
    served = [r for r in responses if r.ok]
    latencies = [r.latency_s for r in served]
    divergence = wrong_answer_ids(front, requests, responses)
    wrong = len(divergence["wrong"])
    degraded_divergence = len(divergence["degraded_divergence"])

    submitted_or_rejected = stats.submitted + stats.total_rejected
    fault_kinds: Dict[str, int] = {}
    for event in fault_plan.events:
        fault_kinds[event.kind] = fault_kinds.get(event.kind, 0) + 1
    by_tenant: Dict[str, Dict[str, int]] = {}
    for resp in responses:
        row = by_tenant.setdefault(resp.tenant, {"served": 0, "shed": 0})
        row["served" if resp.ok else "shed"] += 1

    def frac(n: int, d: int) -> float:
        return _round(n / d) if d else 0.0

    return {
        "scenario": scenario.name,
        "profile": scenario.traffic_profile().name,
        "seeds": {
            "traffic": scenario.traffic_seed,
            "fault": scenario.fault_seed,
        },
        "requests": {
            "offered": submitted_or_rejected,
            "admitted": stats.submitted,
            "served": stats.served,
            "rejected": dict(sorted(stats.rejected.items())),
            "shed": dict(sorted(stats.shed.items())),
        },
        "latency_s": {
            "p50": _percentile(latencies, 50.0),
            "p99": _percentile(latencies, 99.0),
            "max": _round(max(latencies)) if latencies else 0.0,
        },
        "rates": {
            "shed": frac(stats.total_shed, stats.submitted),
            "rejected": frac(stats.total_rejected, submitted_or_rejected),
            "degraded": frac(stats.degraded_served, max(1, stats.served)),
        },
        "execution": {
            "batches": stats.batches,
            "rows_executed": stats.rows_executed,
            "hedged_batches": stats.hedged_batches,
            "max_queue_depth": stats.max_queue_depth,
            "platforms": _platform_histogram(served),
        },
        "faults_injected": dict(sorted(fault_kinds.items())),
        "by_tenant": {k: by_tenant[k] for k in sorted(by_tenant)},
        "correctness": {
            "wrong_answers": wrong,
            "degraded_divergence": degraded_divergence,
            "checked": len(served),
        },
    }


def _platform_histogram(served: List[Response]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for resp in served:
        key = resp.platform_used or "unknown"
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


#: The canonical scenario grid the serving_chaos experiment (and the CI
#: soak baseline) run.  Every backend sees faults: launch faults gate every
#: accelerator launch, corruption hits both accelerator layouts, and the
#: CPU rung backstops the ladder.
def default_scenarios(duration_s: float = 1.0) -> List[ChaosScenario]:
    def short(name: str, **overrides) -> TrafficProfile:
        return replace(PROFILES[name], duration_s=duration_s, **overrides)

    return [
        ChaosScenario(
            name="calm-steady",
            custom=short("steady"),
            traffic_seed=11,
            fault_seed=101,
        ),
        ChaosScenario(
            name="diurnal-flaky-launches",
            custom=short("diurnal"),
            traffic_seed=12,
            fault_seed=102,
            launch_fail_rate=0.15,
        ),
        # Tight deadlines + 30 s hangs: late batches must surface as typed
        # deadline sheds (never as silently-late answers), and the burst
        # peak must trip the admission gate.
        ChaosScenario(
            name="bursty-hangs",
            custom=short("bursty", deadline_s=0.02),
            traffic_seed=13,
            fault_seed=103,
            launch_hang_rate=0.10,
            hang_seconds=30.0,
            admission=AdmissionPolicy(
                rate_qps=300.0, burst=16.0, queue_limit=32
            ),
        ),
        # A greedy tenant against per-tenant buckets: the quiet tenants'
        # traffic must keep being served while greedy gets rate-limited.
        ChaosScenario(
            name="multi-tenant-corruption",
            custom=short("multi-tenant", deadline_s=0.05),
            traffic_seed=14,
            fault_seed=104,
            tree_corruption_rate=0.25,
            admission=AdmissionPolicy(
                rate_qps=400.0,
                burst=32.0,
                queue_limit=64,
                tenant_rate_qps=120.0,
                tenant_burst=12.0,
            ),
        ),
        ChaosScenario(
            name="perfect-storm",
            custom=short("bursty", deadline_s=0.02),
            traffic_seed=15,
            fault_seed=105,
            tree_corruption_rate=0.25,
            launch_fail_rate=0.10,
            launch_hang_rate=0.05,
            platform="fpga",
            admission=AdmissionPolicy(
                rate_qps=250.0, burst=16.0, queue_limit=32
            ),
        ),
    ]
