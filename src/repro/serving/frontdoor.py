"""ServingFrontDoor: the synchronous-core request pipeline.

One instance owns the full admission -> batch -> execute -> respond
dataflow over a shared :class:`~repro.utils.clock.SimulatedClock`:

* :meth:`submit` admits a request (or raises a typed
  :class:`~repro.serving.request.Overload`) and queues it in the
  micro-batcher;
* :meth:`pump` launches what is queued and executes it through a
  :class:`~repro.reliability.guard.ResilientClassifier` — the guard's
  retry/breaker/fallback machinery is reused unchanged, and the tightest
  member deadline is propagated into the guard as its per-call budget;
* every request ends in exactly one :class:`Response`; a request that
  cannot finish inside its deadline is shed *before* burning backend time,
  and one that finished late (faults inflated the batch) has its
  predictions withheld — never silently served late.  A batch whose
  guarded call raises ends every member ``FAILED``, then re-raises; the
  error carries every response the :meth:`pump` call made before it.

The core is deliberately synchronous: batches execute one at a time and
time only moves on the injected clock, so a traffic trace plus a fault
seed replays the whole serving history byte-identically (the property the
chaos harness and its CI soak are built on).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import TRACE_OFF, KernelVariant, Platform, RunConfig
from repro.obs.protocol import ensure_observer
from repro.reliability.guard import BreakerState, ResilientClassifier
from repro.runtime.backends import CPUBackend
from repro.runtime.drift import CostDriftMonitor
from repro.runtime.plan import CPU_PLATFORM, ExecutionPlan
from repro.serving.admission import AdmissionController, AdmissionPolicy
from repro.serving.batching import (
    BatchPolicy,
    LatencyModel,
    MicroBatcher,
    calibrate_latency_model,
)
from repro.serving.request import (
    Overload,
    Request,
    RequestStatus,
    Response,
    ServingStats,
)
from repro.utils.clock import SimulatedClock
from repro.utils.validation import check_array_2d


class ServingFrontDoor:
    """Deterministically-schedulable serving pipeline over the runtime seam.

    Parameters
    ----------
    guard:
        The :class:`ResilientClassifier` executing batches (its fallback
        ladder and breaker state are the degraded-mode machinery).
    config:
        Requested run configuration.  Every served batch runs in the
        vectorized fast path (:data:`~repro.core.config.TRACE_OFF`),
        whatever ``config.trace`` says; the transaction-counting model
        mode is for experiments, not serving.  ``variant="auto"`` is
        resolved once through the guard's planner before any batch
        executes.
    clock:
        The simulated clock the whole pipeline lives on.  Callers (the
        traffic generator, tests) advance it between submissions;
        execution advances it by the simulated seconds a batch took.
    admission, batching:
        Policies for the edge gate and the micro-batcher.
    probe_X:
        Optional query sample for auto-variant resolution and latency
        model calibration at construction time (without it, the first
        batch's rows serve both).
    observer:
        Observability sink adapted once through
        :func:`repro.obs.protocol.ensure_observer` — anything from a full
        :class:`repro.obs.ObsSession` to a partial duck-typed double.
        The front door fires ``on_request_admitted``, ``on_batch_start``,
        ``on_serving_batch``, ``on_response`` and ``on_queue_depth``.
    trace_seed:
        Seed for the deterministic per-request :class:`TraceContext` ids
        (pure integer mixing — minting contexts never touches the clock
        or any RNG, so serving histories replay unchanged).  A request's
        context is minted when something first reads its ``trace``; the
        batch context only when an observer is attached.
    drift:
        Optional :class:`CostDriftMonitor`.  When present, every executed
        batch records the active rung's predicted seconds against the
        observed execution; if a (platform, variant) key drifts past the
        monitor's threshold the front door drops its latency models and
        recalibrates them from the next batch's rows.  The resolved plan
        stays: trace-off resolution never consults the cost model.
    """

    def __init__(
        self,
        guard: ResilientClassifier,
        config: RunConfig = RunConfig(),
        clock: Optional[SimulatedClock] = None,
        admission: AdmissionPolicy = AdmissionPolicy(),
        batching: BatchPolicy = BatchPolicy(),
        probe_X: Optional[np.ndarray] = None,
        observer=None,
        trace_seed: int = 0,
        drift: Optional[CostDriftMonitor] = None,
    ):
        self.guard = guard
        self.clock = clock if clock is not None else SimulatedClock()
        self.observer = observer
        self._obs = ensure_observer(observer)
        self.drift = drift
        self._trace_seed = int(trace_seed)
        self.stats = ServingStats()
        self._admission = AdmissionController(admission, now=self.clock.now())
        self._config = replace(config, trace=TRACE_OFF)
        self._models: Optional[List[Tuple[str, LatencyModel]]] = None
        self._next_id = 0
        self._batch_id = 0
        if config.variant is KernelVariant.AUTO and probe_X is not None:
            self._resolve_config(np.asarray(probe_X, dtype=np.float32))
        if probe_X is not None:
            self._ensure_models(np.asarray(probe_X, dtype=np.float32))
        self._batcher = MicroBatcher(batching, self._primary_model())

    # ------------------------------------------------------------------
    # Config / latency-model calibration
    # ------------------------------------------------------------------
    def _resolve_config(self, X: np.ndarray) -> None:
        plan = self.guard.inner.planner.plan(X, self._config)
        self._config = plan.to_run_config()

    @property
    def config(self) -> RunConfig:
        """The (possibly auto-resolved) run configuration."""
        return self._config

    def _ladder(self) -> Tuple[ExecutionPlan, ...]:
        return self.guard.ladder_plans(self._config)

    def _ensure_models(self, X: np.ndarray) -> None:
        """Calibrate one affine latency model per fallback rung.

        Accelerator rungs fit the planner's analytic cost model at two
        batch sizes, scaled from one fastpath launch over ``X`` (its
        lane-levels); the CPU rung's model comes straight from
        :meth:`CPUBackend.seconds_for` (exactly linear, zero overhead).
        """
        if self._models is not None:
            return
        planner = self.guard.inner.planner
        host = self.guard.inner.runtime.oracle_trees("float32")
        models: List[Tuple[str, LatencyModel]] = []
        memo: Dict[Tuple, object] = {}
        for plan in self._ladder():
            if plan.platform == CPU_PLATFORM:
                models.append(
                    (
                        CPU_PLATFORM,
                        LatencyModel(
                            overhead_s=0.0,
                            per_row_s=CPUBackend.seconds_for(1, host),
                        ),
                    )
                )
                continue
            models.append(
                (
                    plan.platform,
                    calibrate_latency_model(
                        lambda rows, p=plan: planner.estimate(p, X, rows, memo)
                    ),
                )
            )
        self._models = models

    def _primary_model(self) -> LatencyModel:
        if self._models is None:
            # No probe yet: a zero model admits everything; the first
            # batch's rows calibrate the real one before it executes.
            return LatencyModel(overhead_s=0.0, per_row_s=0.0)
        return self._models[0][1]

    def _active_rung(self) -> Tuple[int, str, LatencyModel]:
        """The shallowest rung whose breaker is not open.

        This is the hedge: when the requested platform's breaker is open,
        batch formation and deadline predictions run against the rung that
        will actually serve — the guard's own ladder still does the
        routing (and its skip counting keeps breaker recovery alive).
        """
        assert self._models is not None
        for depth, (platform, model) in enumerate(self._models):
            if platform == CPU_PLATFORM:
                return depth, platform, model
            breaker = self.guard.breakers[Platform(platform)]
            if breaker.state is not BreakerState.OPEN:
                return depth, platform, model
        return len(self._models) - 1, CPU_PLATFORM, self._models[-1][1]

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        X: np.ndarray,
        tenant: str = "default",
        deadline_s: Optional[float] = None,
    ) -> Request:
        """Admit one request (``X``: its feature rows) or raise Overload.

        ``deadline_s`` is relative to the current simulated time; the
        stored request carries the absolute deadline so every later stage
        compares against one clock.
        """
        X = check_array_2d(X, "X")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        now = self.clock.now()
        self._admission.admit(tenant, self._batcher.depth, now)
        self.stats.submitted += 1
        request = Request(
            request_id=self._next_id,
            tenant=tenant,
            X=np.ascontiguousarray(X, dtype=np.float32),
            arrival_s=now,
            deadline_s=None if deadline_s is None else now + deadline_s,
            trace_seed=self._trace_seed,
        )
        self._next_id += 1
        self._batcher.add(request)
        self.stats.max_queue_depth = max(
            self.stats.max_queue_depth, self._batcher.depth
        )
        self._obs.on_request_admitted(request)
        self._note_queue_depth()
        return request

    def try_submit(
        self,
        X: np.ndarray,
        tenant: str = "default",
        deadline_s: Optional[float] = None,
    ) -> Optional[Request]:
        """Like :meth:`submit`, but records and swallows the Overload."""
        try:
            return self.submit(X, tenant=tenant, deadline_s=deadline_s)
        except Overload as e:
            self.stats.note_rejection(e.reason)
            return None

    # ------------------------------------------------------------------
    # The pump
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self._batcher.depth

    def pump(self, force: bool = False) -> List[Response]:
        """Execute due batches; returns the completed responses.

        The core is synchronous, so nothing executes while the caller is
        away: the first batch runs as soon as anything is queued.  A
        further batch runs in the same call only when the queue holds a
        full batch or the head's slack forces it
        (:meth:`MicroBatcher.due`); a shorter remainder waits for the
        caller's next submissions and goes first in the next call.
        ``force=True`` drains everything (the shutdown path).  Shed
        decisions and executions interleave exactly as the simulated clock
        dictates, so the response stream is a pure function of (traffic,
        seeds).  When a batch's guarded call raises, the error propagates
        with ``responses``: every response this call made, in order, up to
        the failed batch's ``FAILED`` ones.
        """
        responses: List[Response] = []
        try:
            if self._batcher.depth:
                self._run_one_batch(responses)
            while self._batcher.depth and (
                force or self._batcher.due(self.clock.now())
            ):
                self._run_one_batch(responses)
        except RuntimeError as err:
            err.responses = responses
            raise
        self._note_queue_depth()
        return responses

    def drain(self) -> List[Response]:
        """Pump until the queue is empty."""
        return self.pump(force=True)

    # ------------------------------------------------------------------
    def _run_one_batch(self, responses: List[Response]) -> None:
        """Run the next batch, appending each response to ``responses``."""
        now = self.clock.now()

        # 1. Queue-expired requests never reach a backend.
        for req in self._batcher.take_expired(now):
            responses.append(
                self._shed(req, RequestStatus.SHED_DEADLINE_QUEUE, now)
            )
        if not self._batcher.depth:
            return

        # 2. Calibrate against real rows on the very first batch.
        if self._models is None:
            sample = np.concatenate(
                [r.X for r in list(self._batcher._queue)[:8]]
            )
            if self._config.variant is KernelVariant.AUTO:
                self._resolve_config(sample)
            self._ensure_models(sample)

        # 3. Hedge: batch against the rung that will actually serve.
        depth, platform, model = self._active_rung()
        self._batcher.model = model
        hedged = depth > 0

        # 4. Form the batch; deadline-infeasible heads are shed.
        members, predicted_sheds = self._batcher.next_batch(now)
        for req in predicted_sheds:
            responses.append(
                self._shed(req, RequestStatus.SHED_DEADLINE_PREDICTED, now)
            )
        if not members:
            return

        # 5. Execute through the guard, propagating the tightest member
        #    deadline as the per-call budget on simulated device seconds.
        X = (
            members[0].X
            if len(members) == 1
            else np.concatenate([r.X for r in members])
        )
        batch_ctx = None
        if self.observer is not None and members[0].trace is not None:
            batch_ctx = members[0].trace.child("batch", self._batch_id + 1)
        self._obs.on_batch_start(batch_ctx, self._batch_id + 1, members, now)
        min_slack = min(r.slack(now) for r in members)
        saved_deadline = self.guard.deadline_s
        if min_slack != float("inf"):
            self.guard.deadline_s = max(min_slack, 1e-12)
        try:
            # Every member's rows passed check_array_2d in submit().
            result = self.guard.classify(X, self._config, _checked=True)
        except RuntimeError:
            # A check the ladder cannot route around rejected the batch:
            # each member still ends in one typed outcome, and the error
            # still surfaces.
            for req in members:
                responses.append(self._shed(req, RequestStatus.FAILED, now))
            raise
        finally:
            self.guard.deadline_s = saved_deadline
        report = result.reliability
        elapsed = result.seconds + report.backoff_seconds
        finish = self.clock.advance(elapsed)

        self.stats.batches += 1
        self.stats.rows_executed += int(X.shape[0])
        if hedged:
            self.stats.hedged_batches += 1
        self._batch_id += 1
        self._obs.on_serving_batch(
            int(X.shape[0]), elapsed, report.platform_used, hedged
        )
        if self.drift is not None:
            # Score the rung that was *predicted* to serve (its latency
            # model formed this batch) against what execution actually
            # cost.  A drifted key recalibrates the latency models from
            # the next batch's rows.
            drifted = self.drift.record(
                platform,
                self._config.variant.value,
                model.seconds_for(int(X.shape[0])),
                result.seconds,
            )
            if drifted:
                self._models = None

        # 6. Split the merged predictions back onto the members; a member
        #    whose deadline passed during execution is NOT served late.
        lo = 0
        for req in members:
            hi = lo + req.rows
            if req.deadline_s is not None and finish > req.deadline_s:
                resp = self._shed(
                    req, RequestStatus.SHED_DEADLINE_LATE, finish
                )
                # The batch *did* execute; record where, but withhold the
                # predictions — a late answer is not an answer.
                resp.platform_used = report.platform_used
            else:
                resp = Response(
                    request_id=req.request_id,
                    tenant=req.tenant,
                    status=RequestStatus.SERVED,
                    predictions=result.predictions[lo:hi].copy(),
                    arrival_s=req.arrival_s,
                    finish_s=finish,
                    platform_used=report.platform_used,
                    degraded=report.degraded,
                    fallback_depth=report.fallback_depth,
                    hedged=hedged,
                    trace_seed=req.trace_seed,
                )
                self.stats.served += 1
                if report.degraded:
                    self.stats.degraded_served += 1
                self._emit(resp)
            resp.batch_id = self._batch_id
            responses.append(resp)
            lo = hi

    # ------------------------------------------------------------------
    def _shed(
        self, req: Request, status: RequestStatus, finish_s: float
    ) -> Response:
        self.stats.note_shed(status)
        resp = Response(
            request_id=req.request_id,
            tenant=req.tenant,
            status=status,
            predictions=None,
            arrival_s=req.arrival_s,
            finish_s=finish_s,
            trace_seed=req.trace_seed,
        )
        self._emit(resp)
        return resp

    def _emit(self, response: Response) -> None:
        self._obs.on_response(response)

    def _note_queue_depth(self) -> None:
        self._obs.on_queue_depth(self._batcher.depth)
