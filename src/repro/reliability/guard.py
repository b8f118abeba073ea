"""Guarded execution: deadlines, retries, circuit breakers, fallback ladder.

:class:`ResilientClassifier` wraps a
:class:`~repro.core.classifier.HierarchicalForestClassifier` with the
hardening a production inference service needs:

* **per-call deadline** on simulated device seconds — a hanging launch is a
  :class:`DeadlineExceededError`, not a stuck request;
* **retry with seeded exponential backoff + jitter** for transient launch
  failures (backoff accrues as simulated seconds, never a real sleep);
* **per-platform circuit breaker** — after ``failure_threshold`` consecutive
  rung failures a platform stops being tried for ``recovery_after`` calls,
  then gets one half-open probe;
* **fallback ladder** — requested platform → other accelerator → CPU
  ``reference_predict`` (the host trees are authoritative, so the bottom
  rung always answers);
* **degraded ensemble voting** — when a checksum verification or a failed
  leaf certificate exposes corrupted buffers, intact trees above the
  configured quorum keep serving (see :mod:`repro.reliability.integrity`);
* **proof before hashing** — with the CPU oracle on, a ``trace="off"``
  rung launches without a pre-launch hash: the session's leaf certificate
  proves every answer.  A failed certificate
  (:class:`~repro.baselines.cpu_reference.CertificateError`) makes the
  guard hash the served edge table tree by tree, to name the trees the
  degraded vote drops.  If every tree hashes clean, the table is intact
  and the failure is a bug, so it is re-raised, never routed down the
  ladder.  With the oracle off, and for trace-model rungs, the pre-launch
  hash stays;
* a structured :class:`ReliabilityReport` on every result, with exact
  counters for retries, breaker transitions, fallback depth and dropped
  trees.

All randomness (jitter) is seeded and all "time" is simulated, so any fault
scenario replays bit-identically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.cpu_reference import CertificateError
from repro.core.config import TRACE_OFF, KernelVariant, Platform, RunConfig
from repro.core.results import RunResult
from repro.fastpath import fastpath_seconds
from repro.forest.metrics import accuracy_score
from repro.obs.protocol import ensure_observer
from repro.reliability.faults import FaultPlan, TransientKernelError
from repro.reliability.integrity import (
    Digests,
    LayoutIntegrityError,
    QuorumLostError,
    degraded_predict,
    served_image,
)
from repro.runtime.plan import CPU_PLATFORM, ExecutionPlan
from repro.runtime.planner import compile_plan
from repro.runtime.session import ExecutionError
from repro.utils.rng import as_rng
from repro.utils.validation import (
    check_array_2d,
    check_feature_width,
    check_positive_int,
    check_same_length,
)


class DeadlineExceededError(RuntimeError):
    """A run's simulated seconds overran the per-call deadline."""


class AllRungsFailedError(RuntimeError):
    """Every rung of the fallback ladder failed (should be unreachable
    while the CPU rung exists)."""


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with multiplicative jitter (simulated seconds)."""

    max_attempts: int = 3
    base_backoff_s: float = 0.005
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.25

    def __post_init__(self):
        check_positive_int(self.max_attempts, "max_attempts")
        if self.base_backoff_s < 0 or self.jitter_fraction < 0:
            raise ValueError("backoff and jitter must be non-negative")
        if self.backoff_multiplier < 1:
            raise ValueError("backoff_multiplier must be >= 1")

    def backoff_seconds(self, retry_index: int, rng: np.random.Generator) -> float:
        """Backoff before retry ``retry_index`` (0-based), with jitter."""
        base = self.base_backoff_s * self.backoff_multiplier**retry_index
        return base * (1.0 + self.jitter_fraction * float(rng.random()))


@dataclass(frozen=True)
class BreakerPolicy:
    """When a platform's breaker opens and how it recovers."""

    failure_threshold: int = 3
    recovery_after: int = 8

    def __post_init__(self):
        check_positive_int(self.failure_threshold, "failure_threshold")
        check_positive_int(self.recovery_after, "recovery_after")


class BreakerState(str, enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-platform breaker with a transition log.

    OPEN counts *skipped* calls; after ``recovery_after`` skips the next
    call is allowed through as a HALF_OPEN probe.  A successful probe closes
    the breaker, a failed one re-opens it immediately.
    """

    def __init__(self, policy: BreakerPolicy, name: str):
        self.policy = policy
        self.name = name
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self._skips_while_open = 0
        #: Every (from, to) transition since construction.
        self.transitions: List[Tuple[str, str]] = []

    def _move(self, state: BreakerState) -> Tuple[str, str]:
        old = self.state
        self.state = state
        self.transitions.append((old.value, state.value))
        return (old.value, state.value)

    def allow(self) -> bool:
        """May the next call use this platform?  (Counts OPEN skips.)"""
        if self.state is BreakerState.OPEN:
            self._skips_while_open += 1
            if self._skips_while_open >= self.policy.recovery_after:
                self._move(BreakerState.HALF_OPEN)
                return True
            return False
        return True

    def record_success(self) -> Optional[Tuple[str, str]]:
        self.consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            return self._move(BreakerState.CLOSED)
        return None

    def record_failure(self) -> Optional[Tuple[str, str]]:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN or (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self._skips_while_open = 0
            return self._move(BreakerState.OPEN)
        return None


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class ReliabilityReport:
    """Exact accounting of what the guard did for one (or many) calls."""

    #: Kernel-launch attempts made (includes the successful one).
    attempts: int = 0
    #: Attempts that were retries of a failed attempt.
    retries: int = 0
    transient_failures: int = 0
    deadline_exceeded: int = 0
    integrity_failures: int = 0
    #: Rungs skipped because the platform's breaker was open.
    breaker_skips: int = 0
    #: Simulated seconds spent in backoff (never a real sleep).
    backoff_seconds: float = 0.0
    #: 0 = requested platform served, 1 = other accelerator, 2 = CPU.
    fallback_depth: int = 0
    platform_used: str = ""
    degraded: bool = False
    dropped_trees: Tuple[int, ...] = ()
    #: (breaker name, from-state, to-state) in occurrence order.
    breaker_transitions: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Post-transfer checksum verifications performed.
    transfer_verifications: int = 0
    #: Calls merged into this report (1 for a single classify).
    calls: int = 1

    def note_transition(
        self, name: str, move: Optional[Tuple[str, str]]
    ) -> None:
        if move is not None:
            self.breaker_transitions.append((name, move[0], move[1]))

    def merge(self, other: "ReliabilityReport") -> None:
        """Accumulate ``other`` (per-batch report) into this aggregate."""
        self.attempts += other.attempts
        self.retries += other.retries
        self.transient_failures += other.transient_failures
        self.deadline_exceeded += other.deadline_exceeded
        self.integrity_failures += other.integrity_failures
        self.breaker_skips += other.breaker_skips
        self.backoff_seconds += other.backoff_seconds
        self.fallback_depth = max(self.fallback_depth, other.fallback_depth)
        self.platform_used = other.platform_used or self.platform_used
        self.degraded = self.degraded or other.degraded
        self.dropped_trees = tuple(
            sorted(set(self.dropped_trees) | set(other.dropped_trees))
        )
        self.breaker_transitions.extend(other.breaker_transitions)
        self.transfer_verifications += other.transfer_verifications
        self.calls += other.calls

    def as_dict(self) -> Dict[str, object]:
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "transient_failures": self.transient_failures,
            "deadline_exceeded": self.deadline_exceeded,
            "integrity_failures": self.integrity_failures,
            "breaker_skips": self.breaker_skips,
            "backoff_seconds": self.backoff_seconds,
            "fallback_depth": self.fallback_depth,
            "platform_used": self.platform_used,
            "degraded": self.degraded,
            "dropped_trees": list(self.dropped_trees),
            "breaker_transitions": list(self.breaker_transitions),
            "transfer_verifications": self.transfer_verifications,
            "calls": self.calls,
        }


# ----------------------------------------------------------------------
# The guard itself
# ----------------------------------------------------------------------
class ResilientClassifier:
    """Failure-hardened front end over :class:`HierarchicalForestClassifier`.

    Parameters
    ----------
    classifier:
        The wrapped (fitted) classifier.
    deadline_s:
        Per-call budget on simulated device seconds; ``None`` disables it.
    retry, breaker:
        Retry/backoff and circuit-breaker policies.
    min_quorum_fraction:
        Minimum fraction of intact trees required for degraded voting.
    fault_plan:
        Optional :class:`~repro.reliability.faults.FaultPlan` whose
        ``launch_gate`` is wired into every kernel launch.
    seed:
        Seeds the jitter generator (determinism of backoff accounting).
    verify_before_launch / verify_after_transfer:
        Enable the two checksum re-verification points.  Each hashes the
        image the rung executes: the layout's arrays under
        ``trace="model"``, its lowered edge table under ``trace="off"``.
        A trace-off rung whose answers the oracle certifies skips the
        pre-launch one.
    """

    #: Accelerator rung order per requested platform; the ladder-plan list
    #: built by :meth:`ladder_plans` always appends the CPU rung last.
    _LADDERS = {
        Platform.GPU: (Platform.GPU, Platform.FPGA),
        Platform.FPGA: (Platform.FPGA, Platform.GPU),
    }

    def __init__(
        self,
        classifier,
        deadline_s: Optional[float] = None,
        retry: RetryPolicy = RetryPolicy(),
        breaker: BreakerPolicy = BreakerPolicy(),
        min_quorum_fraction: float = 0.5,
        fault_plan: Optional[FaultPlan] = None,
        seed: int = 0,
        verify_before_launch: bool = True,
        verify_after_transfer: bool = True,
        observer=None,
    ):
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        self.inner = classifier
        self.deadline_s = deadline_s
        self.retry = retry
        self.min_quorum_fraction = min_quorum_fraction
        self.fault_plan = fault_plan
        self.verify_before_launch = bool(verify_before_launch)
        self.verify_after_transfer = bool(verify_after_transfer)
        #: Observability sink (e.g. repro.obs.ObsSession): forwarded to
        #: each kernel launch; ``on_rung_attempt`` fires per retry and
        #: ``on_guarded_call(result, report)`` once per guarded call with
        #: the final accounting.  ``self.observer`` keeps the raw object
        #: (the session adapts it per-run); ``self._obs`` is the typed
        #: adapter the guard's own hooks go through.
        self.observer = observer
        self._obs = ensure_observer(observer)
        self._rng = as_rng(seed)
        self.breakers: Dict[Platform, CircuitBreaker] = {
            p: CircuitBreaker(breaker, p.value) for p in Platform
        }
        self._transfer_verified: set = set()
        self._ladders: Dict[Tuple, Tuple[ExecutionPlan, ...]] = {}

    # ------------------------------------------------------------------
    def _rung_config(self, config: RunConfig, platform: Platform) -> RunConfig:
        """The config to run on ``platform``, preserving what transfers."""
        variant = config.variant
        if platform is Platform.FPGA and variant is KernelVariant.CUML:
            variant = KernelVariant.HYBRID  # cuML baseline is GPU-only
        certified = config.trace == TRACE_OFF and self.inner.verify_against_reference
        return replace(
            config,
            platform=platform,
            variant=variant,
            verify_integrity=self.verify_before_launch and not certified,
        )

    def ladder_plans(self, config: RunConfig) -> Tuple[ExecutionPlan, ...]:
        """The fallback ladder as an ordered :class:`ExecutionPlan` tuple.

        Requested accelerator first, then the other accelerator, then the
        CPU rung (which always answers).  Each accelerator plan carries the
        rung's adapted config (variant swap for GPU-only kernels, pre-launch
        integrity verification); the plan's index is the call's
        ``fallback_depth`` when that rung serves it.  Compiled once per
        (config, pre-launch switch, oracle switch), everything it reads.
        """
        key = (config, self.verify_before_launch, self.inner.verify_against_reference)
        if key not in self._ladders:
            accelerators = tuple(
                compile_plan(None, self._rung_config(config, platform))
                for platform in self._LADDERS[config.platform]
            )
            self._ladders[key] = accelerators + (
                ExecutionPlan(
                    platform=CPU_PLATFORM,
                    variant=config.variant.value,
                    layout=config.layout,
                    replication=config.replication,
                    source="ladder",
                    trace=config.trace,
                ),
            )
        return self._ladders[key]

    def notify_layout_rebuild(self) -> None:
        """Forget which images passed post-transfer verification.

        Call after ``inner.invalidate_layouts()`` (or any other layout
        rebuild) so the freshly built buffers get their own readback check.
        """
        self._transfer_verified.clear()

    def _image(self, config: RunConfig):
        """``(image, integrity)``: the buffers the rung of ``config`` executes."""
        layout = self.inner.layout_for(config)
        return served_image(layout, table=config.trace == TRACE_OFF)

    def _verify_transfer(self, config: RunConfig, report: ReliabilityReport) -> None:
        """Post-transfer readback check, once per distinct served image."""
        image, integrity = self._image(config)
        if id(image) not in self._transfer_verified:
            report.transfer_verifications += 1
            self._transfer_verified.add(id(image))
            integrity.check(image)

    def _survivors(
        self, plan: ExecutionPlan, digests: Optional[Digests] = None
    ) -> np.ndarray:
        """Trees whose served regions still hash clean.

        ``digests`` are the whole-array digests a failed check of this
        image just computed; passing them keys the survivor memo without
        hashing the image a second time.
        """
        image, integrity = self._image(plan.to_run_config())
        return integrity.surviving_trees(image, digests)

    def _attempt(
        self, X: np.ndarray, plan: ExecutionPlan, report: ReliabilityReport
    ) -> RunResult:
        """One guarded kernel launch on one rung's plan."""
        config = plan.to_run_config()
        if self.verify_after_transfer:
            self._verify_transfer(config, report)
        gate = self.fault_plan.launch_gate if self.fault_plan else None
        session = self.inner.runtime
        session.verify_against_reference = self.inner.verify_against_reference
        res = session.run(
            plan, X, launch_gate=gate, observer=self.observer, config=config
        )
        if self.deadline_s is not None and res.seconds > self.deadline_s:
            raise DeadlineExceededError(
                f"run took {res.seconds:.6f}s simulated "
                f"(deadline {self.deadline_s:.6f}s)"
            )
        return res

    def _degraded(
        self,
        X: np.ndarray,
        plan: ExecutionPlan,
        report: ReliabilityReport,
        alive: np.ndarray,
    ) -> Optional[RunResult]:
        """Quorum voting over the rung's ``alive`` trees; None if quorum lost."""
        config = plan.to_run_config()
        layout = self.inner.layout_for(config)
        boxes = None
        if self.inner.verify_against_reference:
            boxes = self.inner.runtime.oracle_boxes(plan.precision)
        try:
            preds, dropped, stats = degraded_predict(
                layout, X, alive, self.min_quorum_fraction, boxes=boxes
            )
        except QuorumLostError:
            return None
        report.degraded = True
        report.dropped_trees = tuple(
            sorted(set(report.dropped_trees) | set(dropped))
        )
        return RunResult(
            config=config,
            predictions=preds,
            # The vote is one fastpath launch: priced by the same model
            # as the clean path's.
            seconds=fastpath_seconds(stats.lane_levels),
            details={
                "mode": "degraded-quorum",
                "trees_alive": int(alive.sum()),
                "trees_dropped": len(dropped),
            },
        )

    def _cpu_rung(
        self, X: np.ndarray, plan: ExecutionPlan, config: RunConfig
    ) -> RunResult:
        """Bottom of the ladder: authoritative host trees, always answers."""
        return self.inner.runtime.run(plan, X, config=config)

    # ------------------------------------------------------------------
    def classify(
        self,
        X: np.ndarray,
        config: RunConfig = RunConfig(),
        y_true: Optional[np.ndarray] = None,
        *,
        _checked: bool = False,
    ) -> RunResult:
        """Guarded classification: never raises for injected fault kinds.

        Walks the :meth:`ladder_plans` list until a rung's plan produces
        predictions; the attached :class:`ReliabilityReport` says exactly
        what it took.  ``variant="auto"`` is resolved by the planner once,
        before the ladder is built.

        ``_checked`` is internal: the serving front door passes it for a
        batch of rows that each passed ``check_array_2d`` on admission, so
        they are not scanned for finiteness again.
        """
        if not _checked:
            X = check_array_2d(X, "X")
        check_feature_width(X, self.inner.runtime.max_feature)
        if y_true is not None:
            y_true = np.asarray(y_true)
            check_same_length(X, y_true, names=("X", "y_true"))
        if config.variant is KernelVariant.AUTO:
            config = self.inner.planner.plan(X, config).to_run_config()
        report = ReliabilityReport()
        result: Optional[RunResult] = None
        for depth, plan in enumerate(self.ladder_plans(config)):
            if plan.platform == CPU_PLATFORM:
                result = self._cpu_rung(X, plan, config)
                report.fallback_depth = depth
                report.platform_used = CPU_PLATFORM
                break
            platform = Platform(plan.platform)
            breaker = self.breakers[platform]
            if not breaker.allow():
                report.breaker_skips += 1
                continue
            result = self._run_rung(X, plan, breaker, report)
            if result is not None:
                report.fallback_depth = depth
                report.platform_used = platform.value
                break
        if y_true is not None:
            result.accuracy = accuracy_score(y_true, result.predictions)
        result.reliability = report
        self._obs.on_guarded_call(result, report)
        return result

    def _run_rung(
        self,
        X: np.ndarray,
        plan: ExecutionPlan,
        breaker: CircuitBreaker,
        report: ReliabilityReport,
    ) -> Optional[RunResult]:
        """Retry loop on one rung's plan; None means the rung gave up."""
        for attempt in range(self.retry.max_attempts):
            report.attempts += 1
            self._obs.on_rung_attempt(plan, attempt, report.retries)
            alive = None
            try:
                res = self._attempt(X, plan, report)
                report.note_transition(breaker.name, breaker.record_success())
                return res
            except CertificateError:
                # Only the served image's hash tells damage from a bug: if
                # every tree hashes clean, the code that walked it is wrong.
                alive = self._survivors(plan)
                if alive.all():
                    raise
            except (
                TransientKernelError,
                DeadlineExceededError,
                LayoutIntegrityError,
                ExecutionError,
            ) as exc:
                # The session wraps backend failures in a typed
                # ExecutionError carrying plan context; the guard
                # dispatches on the chained cause (a bare exception can
                # still arrive from its own post-transfer verification).
                fault = (
                    exc.__cause__ if isinstance(exc, ExecutionError) else exc
                )
                if isinstance(fault, TransientKernelError):
                    report.transient_failures += 1
                elif isinstance(fault, DeadlineExceededError):
                    report.deadline_exceeded += 1
                elif isinstance(fault, LayoutIntegrityError):
                    alive = self._survivors(plan, fault.digests)
                else:
                    # Not an injected-fault kind: a genuine bug must
                    # surface, never be retried into the fallback ladder.
                    raise
            if alive is not None:
                # Corruption is persistent — retrying the same buffers is
                # pointless.  Salvage via quorum voting or fail the rung.
                report.integrity_failures += 1
                res = self._degraded(X, plan, report, alive)
                if res is not None:
                    report.note_transition(breaker.name, breaker.record_success())
                    return res
                break
            if attempt < self.retry.max_attempts - 1:
                report.retries += 1
                report.backoff_seconds += self.retry.backoff_seconds(
                    attempt, self._rng
                )
        report.note_transition(breaker.name, breaker.record_failure())
        return None
