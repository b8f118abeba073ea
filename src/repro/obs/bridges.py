"""Bridges: feed existing per-subsystem counters into the unified registry.

Before this module every subsystem kept its own silo —
:class:`~repro.gpusim.metrics.KernelMetrics` in gpusim,
:class:`~repro.fpgasim.pipeline.PipelineResult` in fpgasim,
:class:`~repro.reliability.guard.ReliabilityReport` in the serving guard,
byte accounting in :mod:`repro.layout.footprint`.  The functions here map
each silo into one namespace (see docs/architecture.md §8 for the naming
scheme), and :class:`ObsSession` packages a registry + tracer pair behind
the duck-typed observer hooks that :class:`~repro.kernels.base.GPUKernel`,
:class:`~repro.kernels.fpga_base.FPGAKernel` and
:class:`~repro.reliability.guard.ResilientClassifier` call.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.gpusim.metrics import COUNTER_FIELDS, GAUGE_FIELDS
from repro.obs.context import TraceContext
from repro.obs.protocol import Observer
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.utils.clock import SimulatedClock

#: Latency-histogram buckets in simulated seconds (sub-us to 10 s).
LATENCY_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


# ----------------------------------------------------------------------
# GPU
# ----------------------------------------------------------------------
def record_kernel_metrics(registry: MetricsRegistry, metrics,
                          **labels) -> None:
    """Ingest a :class:`KernelMetrics` as ``gpu.kernel.*`` counters.

    The paper's Fig. 8 nvprof counters land here: ``global load requests``
    is ``gpu.kernel.global_load_requests``, ``branch_efficiency`` is the
    gauge of the same name.
    """
    for field in COUNTER_FIELDS:
        registry.counter(
            f"gpu.kernel.{field}",
            "simulated kernel counter (nvprof analogue)",
        ).inc(float(getattr(metrics, field)), **labels)
    for field in GAUGE_FIELDS:
        registry.gauge(
            f"gpu.kernel.{field}", "derived kernel ratio"
        ).set(float(getattr(metrics, field)), **labels)


def record_kernel_timing(registry: MetricsRegistry, timing,
                         **labels) -> None:
    """Ingest a :class:`KernelTiming` as ``gpu.timing.*``."""
    registry.counter(
        "gpu.timing.seconds", "simulated kernel seconds (roofline)"
    ).inc(timing.seconds, **labels)
    for component, seconds in timing.components():
        registry.gauge(
            f"gpu.timing.{component}_s", "roofline component seconds"
        ).set(seconds, **labels)
    registry.counter(
        "gpu.timing.bound_by_total", "launches bound by each component"
    ).inc(1.0, component=timing.bound_by, **labels)


# ----------------------------------------------------------------------
# FPGA
# ----------------------------------------------------------------------
def record_pipeline(registry: MetricsRegistry, pipeline,
                    **labels) -> None:
    """Ingest a :class:`PipelineResult` as ``fpga.pipeline.*``."""
    registry.counter(
        "fpga.pipeline.seconds", "simulated pipeline seconds"
    ).inc(pipeline.seconds, **labels)
    registry.counter(
        "fpga.pipeline.work_items", "work items pushed through the pipeline"
    ).inc(pipeline.work_items, **labels)
    registry.counter(
        "fpga.pipeline.cycles_per_cu", "per-CU cycles including stalls"
    ).inc(pipeline.cycles_per_cu, **labels)
    registry.gauge(
        "fpga.pipeline.stall_pct", "stalled fraction of pipeline cycles"
    ).set(pipeline.stall_pct, **labels)
    ii = pipeline.ii
    if ii == ii:  # combined stages report NaN
        registry.gauge(
            "fpga.pipeline.ii", "initiation interval, cycles"
        ).set(ii, **labels)
    registry.gauge(
        "fpga.pipeline.freq_mhz", "achieved clock, MHz"
    ).set(pipeline.freq_mhz, **labels)


def record_eventsim(registry: MetricsRegistry, result, **labels) -> None:
    """Ingest an :class:`EventSimResult` as ``fpga.eventsim.*``."""
    registry.counter(
        "fpga.eventsim.cycles", "event-driven makespan, cycles"
    ).inc(result.cycles, **labels)
    registry.counter(
        "fpga.eventsim.stall_cycles", "slowest CU's channel-wait cycles"
    ).inc(result.stall_cycles, **labels)
    registry.gauge(
        "fpga.eventsim.channel_utilisation", "channel busy fraction"
    ).set(result.channel_utilisation, **labels)


# ----------------------------------------------------------------------
# Layouts
# ----------------------------------------------------------------------
def record_layout_footprint(registry: MetricsRegistry, layout,
                            **labels) -> None:
    """Record a layout's device byte footprint as ``layout.bytes``.

    Accepts either representation (CSR or hierarchical) and labels the
    sample with the detected kind.
    """
    from repro.layout.csr import CSRForest
    from repro.layout.footprint import csr_bytes, hierarchical_bytes
    from repro.layout.hierarchical import HierarchicalForest

    if isinstance(layout, CSRForest):
        kind, nbytes = "csr", csr_bytes(layout)
    elif isinstance(layout, HierarchicalForest):
        kind, nbytes = "hierarchical", hierarchical_bytes(layout)
    else:
        return  # e.g. the cuML FIL baseline: no byte model
    registry.gauge(
        "layout.bytes", "device-resident representation footprint"
    ).set(nbytes, kind=kind, **labels)
    registry.gauge(
        "layout.trees", "trees in the layout"
    ).set(layout.n_trees, kind=kind, **labels)


# ----------------------------------------------------------------------
# Runtime planner
# ----------------------------------------------------------------------
def record_plan(registry: MetricsRegistry, plan, **labels) -> None:
    """Ingest a chosen :class:`~repro.runtime.ExecutionPlan` as ``plan.*``.

    One counter per (platform, variant, source) tells you how often the
    planner picked each configuration and whether it was autotuned, replayed
    from the on-disk plan cache or resolved without tuning; the cost gauge
    keeps the model's estimate next to the measured kernel seconds.
    """
    registry.counter(
        "plan.chosen", "plans executed per configuration"
    ).inc(
        1.0,
        platform=plan.platform,
        variant=plan.variant,
        source=plan.source,
        **labels,
    )
    if plan.cost_estimate_s is not None:
        registry.gauge(
            "plan.cost_estimate_s", "analytic cost model estimate, seconds"
        ).set(plan.cost_estimate_s, plan=plan.label, **labels)


def record_fastpath(registry: MetricsRegistry, plan, stats, seconds: float,
                    **labels) -> None:
    """Ingest one trace-off launch (:class:`repro.fastpath.FastpathStats`)
    as the ``fastpath.*`` family.

    Trace-off runs have no kernel metrics to bridge, so this family is the
    only device-side signal they emit — without it a serving fleet on the
    fast path would produce empty manifests.  ``seconds`` is the launch's
    deterministic modelled latency, so ``fastpath.rows_per_s`` is replay-
    stable too.
    """
    kw = dict(platform=plan.platform, variant=plan.variant,
              family=stats.family, **labels)
    registry.counter(
        "fastpath.launches", "trace-off launches executed"
    ).inc(1.0, **kw)
    registry.counter(
        "fastpath.rows", "rows classified by the fast path"
    ).inc(float(stats.rows), **kw)
    registry.counter(
        "fastpath.lane_levels", "active lane-level steps executed"
    ).inc(float(stats.lane_levels), **kw)
    registry.counter(
        "fastpath.levels", "frontier levels executed"
    ).inc(float(stats.levels), **kw)
    registry.gauge(
        "fastpath.frontier_occupancy",
        "active-lane fraction over the last launch's frontier loop",
    ).set(stats.frontier_occupancy, **kw)
    if seconds > 0.0:
        registry.gauge(
            "fastpath.rows_per_s",
            "modelled fast-path throughput of the last launch",
        ).set(stats.rows / seconds, **kw)


# ----------------------------------------------------------------------
# Serving guard
# ----------------------------------------------------------------------
def record_reliability(registry: MetricsRegistry, report,
                       **labels) -> None:
    """Ingest a :class:`ReliabilityReport` as ``guard.*`` counters."""
    c = report.as_dict()
    for field in (
        "attempts",
        "retries",
        "transient_failures",
        "deadline_exceeded",
        "integrity_failures",
        "breaker_skips",
        "transfer_verifications",
        "calls",
    ):
        registry.counter(
            f"guard.{field}", "guard event count"
        ).inc(float(c[field]), **labels)
    registry.counter(
        "guard.backoff_seconds", "simulated seconds spent in retry backoff"
    ).inc(report.backoff_seconds, **labels)
    registry.counter(
        "guard.degraded_calls", "calls answered by degraded quorum voting"
    ).inc(1.0 if report.degraded else 0.0, **labels)
    registry.counter(
        "guard.dropped_trees", "trees excluded by integrity checks"
    ).inc(float(len(report.dropped_trees)), **labels)
    registry.counter(
        "guard.served_total", "calls served per final platform"
    ).inc(1.0, platform=report.platform_used or "unknown", **labels)
    registry.gauge(
        "guard.fallback_depth_max", "worst fallback-ladder depth seen"
    ).max(float(report.fallback_depth), **labels)
    for name, old, new in report.breaker_transitions:
        registry.counter(
            "guard.breaker_transitions", "circuit-breaker state changes"
        ).inc(1.0, breaker=name, to=new, **labels)


# ----------------------------------------------------------------------
# Serving front door
# ----------------------------------------------------------------------
def record_response(registry: MetricsRegistry, response,
                    exemplar: Optional[str] = None, **labels) -> None:
    """Ingest one serving :class:`~repro.serving.request.Response`.

    ``serving.responses`` counts terminal outcomes per (status, tenant);
    served requests additionally land in the end-to-end latency histogram
    (queue wait + batching + execution, simulated seconds) and the
    degraded/hedged counters the survivability report summarises.
    ``exemplar`` (a trace-id hex string) tags the latency bucket the
    response lands in, linking tail buckets back into the Chrome trace.
    """
    registry.counter(
        "serving.responses", "terminal request outcomes"
    ).inc(1.0, status=response.status.value, tenant=response.tenant, **labels)
    if not response.ok:
        return
    registry.histogram(
        "serving.latency.seconds",
        "served end-to-end latency (queue + batch + execute)",
        buckets=LATENCY_BUCKETS,
    ).observe(response.latency_s, exemplar=exemplar,
              tenant=response.tenant, **labels)
    registry.counter(
        "serving.served_by_platform", "served requests per platform"
    ).inc(1.0, platform=response.platform_used or "unknown", **labels)
    if response.degraded:
        registry.counter(
            "serving.degraded", "requests served by degraded quorum voting"
        ).inc(1.0, tenant=response.tenant, **labels)
    if response.hedged:
        registry.counter(
            "serving.hedged", "requests batched around an open breaker"
        ).inc(1.0, tenant=response.tenant, **labels)


# ----------------------------------------------------------------------
# The observer the hooks talk to
# ----------------------------------------------------------------------
class ObsSession(Observer):
    """One observed run: registry + tracer over a shared simulated clock.

    Implements the full typed :class:`~repro.obs.protocol.Observer`
    surface of the kernel base classes, the planner, the guard and the
    serving front door.

    When the front door drives the serving hooks (``on_request_admitted``
    -> ``on_batch_start`` -> kernel hooks -> ``on_guarded_call`` ->
    ``on_serving_batch`` -> ``on_response``), every span is stamped with
    the request's :class:`TraceContext` lineage: queue wait and the
    request root land on per-tenant ``requests/<tenant>`` tracks, the
    micro-batch on ``serving``, the guarded call on ``guard``, and each
    kernel/transfer span links back to its guard parent — the Chrome
    exporter renders the whole causal tree with cross-track flow arrows.
    Standalone use (no ``on_batch_start``) keeps the original untraced
    span shapes, so pre-existing goldens replay byte-identically.

    Consecutive kernel launches lay out end-to-end on the simulated
    timeline (the device stream is serial); FPGA CU lanes run in parallel
    between one start and end.
    """

    def __init__(self, clock: Optional[SimulatedClock] = None):
        self.clock = clock if clock is not None else SimulatedClock()
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=self.clock)
        # Serving-pipeline state between on_batch_start and on_serving_batch.
        self._batch_ctx: Optional[TraceContext] = None
        self._batch_start_s: float = 0.0
        self._batch_links: tuple = ()
        self._batch_active: bool = False
        self._guard_ctx: Optional[TraceContext] = None
        self._kernel_ordinal: int = 0
        # request_id -> queue-wait span id (root-tree completeness).
        self._queue_spans: Dict[int, int] = {}

    def _kernel_ctx(self, name: str) -> Optional[TraceContext]:
        """Next kernel-level child of the active guarded call (or None)."""
        if self._guard_ctx is None:
            return None
        ctx = self._guard_ctx.child(name, self._kernel_ordinal)
        self._kernel_ordinal += 1
        return ctx

    # -- kernel hooks ---------------------------------------------------
    def on_gpu_kernel(self, kernel, result, grid=None) -> None:
        name = getattr(kernel, "name", "gpu-kernel")
        record_kernel_metrics(self.registry, result.metrics, kernel=name)
        record_kernel_timing(self.registry, result.timing, kernel=name)
        self.registry.histogram(
            "gpu.launch.seconds", "per-launch simulated latency",
            buckets=LATENCY_BUCKETS,
        ).observe(result.seconds, kernel=name)
        args: Dict[str, object] = {"bound_by": result.timing.bound_by}
        for component, seconds in result.timing.components():
            args[f"{component}_s"] = seconds
        if grid is not None:
            args.update(grid.launch_dims())
        start = self.clock.now()
        self.tracer.add_span("gpu", name, result.seconds, cat="kernel",
                             args=args, ctx=self._kernel_ctx("gpu"))
        self.tracer.sample(
            "gpu counters",
            "global load transactions",
            {
                "dram": float(result.metrics.dram_transactions),
                "l2": float(result.metrics.l2_transactions),
                "l1": float(result.metrics.l1_transactions),
            },
            ts_s=start,
        )

    def on_fpga_kernel(self, kernel, result, replication) -> None:
        name = getattr(kernel, "name", "fpga-kernel")
        record_pipeline(self.registry, result.pipeline, kernel=name,
                        replication=replication.label)
        self.registry.histogram(
            "fpga.launch.seconds", "per-launch simulated latency",
            buckets=LATENCY_BUCKETS,
        ).observe(result.seconds, kernel=name)
        start = self.clock.now()
        args = {
            "replication": replication.label,
            "stall_pct": result.pipeline.stall_pct,
            "work_items": result.pipeline.work_items,
        }
        # All CUs run in parallel between start and start + seconds; draw
        # one lane per CU and advance the shared clock once.  Each lane
        # gets its own context child so every lane hangs off the guard.
        for slr, cu in replication.iter_cus():
            self.tracer.add_span(
                replication.cu_track(slr, cu),
                name,
                result.seconds,
                start_s=start,
                cat="kernel",
                args=args,
                ctx=self._kernel_ctx("fpga"),
            )
        self.clock.advance(result.seconds)

    # -- transfers ------------------------------------------------------
    def on_transfer(self, direction: str, seconds: float,
                    nbytes: Optional[int] = None) -> None:
        args: Dict[str, object] = {}
        if nbytes is not None:
            args["bytes"] = int(nbytes)
            self.registry.counter(
                "transfer.bytes", "host<->device bytes moved"
            ).inc(float(nbytes), direction=direction)
        self.registry.counter(
            "transfer.seconds", "simulated PCIe transfer seconds"
        ).inc(seconds, direction=direction)
        self.tracer.add_span("pcie", direction, seconds, cat="transfer",
                             args=args, ctx=self._kernel_ctx("pcie"))

    # -- planner --------------------------------------------------------
    def on_plan(self, plan) -> None:
        record_plan(self.registry, plan)
        self.tracer.instant(
            "planner",
            f"plan {plan.label} ({plan.source})",
            args={
                "platform": plan.platform,
                "variant": plan.variant,
                "source": plan.source,
                "cost_estimate_s": plan.cost_estimate_s,
            },
        )

    # -- fastpath -------------------------------------------------------
    def on_fastpath(self, plan, stats, seconds: float) -> None:
        record_fastpath(self.registry, plan, stats, seconds)
        self.tracer.add_span(
            "fastpath",
            f"fastpath[{stats.rows} rows x {stats.trees} trees]",
            seconds,
            cat="fastpath",
            ctx=self._kernel_ctx("fastpath"),
            args={
                "platform": plan.platform,
                "variant": plan.variant,
                "family": stats.family,
                "levels": stats.levels,
                "lane_levels": stats.lane_levels,
                "frontier_occupancy": stats.frontier_occupancy,
            },
        )

    # -- guard ----------------------------------------------------------
    def on_rung_attempt(self, plan, attempt: int, retries: int) -> None:
        if attempt == 0:
            return  # first launches are the span itself, not an event
        self.tracer.instant(
            "guard",
            f"retry {plan.platform}/{plan.variant}",
            args={"attempt": attempt, "retries": retries},
            ctx=self._guard_ctx,
        )

    def on_guarded_call(self, result, report) -> None:
        record_reliability(self.registry, report)
        self.registry.histogram(
            "guard.call.seconds", "guarded call latency (simulated)",
            buckets=LATENCY_BUCKETS,
        ).observe(result.seconds)
        if self._batch_active and self._guard_ctx is not None:
            self.tracer.add_span(
                "guard",
                f"guarded-call[{report.platform_used or 'unknown'}]",
                result.seconds + report.backoff_seconds,
                start_s=self._batch_start_s,
                cat="guard",
                advance=False,
                ctx=self._guard_ctx,
                args={
                    "platform_used": report.platform_used,
                    "attempts": report.attempts,
                    "fallback_depth": report.fallback_depth,
                    "degraded": report.degraded,
                },
            )
        if report.fallback_depth or report.degraded:
            self.tracer.instant(
                "guard",
                "fallback" if report.fallback_depth else "degraded-quorum",
                ctx=self._guard_ctx,
                args={
                    "platform_used": report.platform_used,
                    "fallback_depth": report.fallback_depth,
                    "dropped_trees": len(report.dropped_trees),
                },
            )
        for name, old, new in report.breaker_transitions:
            self.tracer.instant(
                "guard",
                f"breaker {name}: {old} -> {new}",
                args={"breaker": name, "from": old, "to": new},
            )

    # -- serving front door ---------------------------------------------
    def on_request_admitted(self, request) -> None:
        self.registry.counter(
            "serving.admitted", "requests admitted past the front door"
        ).inc(1.0, tenant=request.tenant)

    def on_batch_start(self, ctx, batch_id: int, members, start_s: float,
                       ) -> None:
        # The front door's clock and this session's clock are distinct
        # (kernel hooks advance ours during guard execution); re-sync to
        # the serving clock at every batch boundary so span starts line up.
        now = self.clock.now()
        if start_s > now:
            self.clock.advance(start_s - now)
        links: List[int] = []
        for req in members:
            if req.trace is None:
                continue
            qctx = req.trace.child("queue")
            span = self.tracer.add_span(
                f"requests/{req.tenant}",
                "queue",
                max(start_s - req.arrival_s, 0.0),
                start_s=req.arrival_s,
                cat="serving",
                advance=False,
                ctx=qctx,
                args={"request_id": req.request_id, "batch_id": batch_id},
            )
            self._queue_spans[req.request_id] = qctx.span_id
            links.append(qctx.span_id)
        self._batch_ctx = ctx
        self._batch_start_s = float(start_s)
        self._batch_links = tuple(links)
        self._batch_active = True
        self._guard_ctx = ctx.child("guard") if ctx is not None else None
        self._kernel_ordinal = 0

    def on_response(self, response) -> None:
        ctx = getattr(response, "trace", None)
        record_response(
            self.registry,
            response,
            exemplar=ctx.trace_hex if ctx is not None else None,
        )
        if ctx is not None:
            # The request root span: admission to terminal verdict, on the
            # tenant's own track.  Everything else in the tree (queue,
            # batch, guard, kernels) hangs off this context's ids.
            self.tracer.add_span(
                f"requests/{response.tenant}",
                f"request {response.request_id} [{response.status.value}]",
                max(response.latency_s, 0.0),
                start_s=response.arrival_s,
                cat="request",
                advance=False,
                ctx=ctx,
                args={
                    "request_id": response.request_id,
                    "status": response.status.value,
                    "batch_id": response.batch_id,
                    "platform_used": response.platform_used,
                    "degraded": response.degraded,
                    "hedged": response.hedged,
                },
            )
        if response.status.shed:
            self.tracer.instant(
                "serving",
                f"shed {response.status.value}",
                ctx=ctx,
                args={
                    "request_id": response.request_id,
                    "tenant": response.tenant,
                },
            )

    def on_serving_batch(self, rows: int, seconds: float, platform: str,
                         hedged: bool) -> None:
        self.registry.histogram(
            "serving.batch.rows", "rows coalesced per micro-batch",
            buckets=(1, 4, 16, 64, 256, 1024),
        ).observe(float(rows))
        if self._batch_active:
            # Explicit interval on the serving clock; our own clock was
            # advanced piecemeal by the kernel hooks, so don't advance it
            # again — just top it up to the batch end if it fell short
            # (pure model time like backoff has no kernel span).
            self.tracer.add_span(
                "serving",
                f"batch[{rows} rows]",
                seconds,
                start_s=self._batch_start_s,
                cat="serving",
                advance=False,
                ctx=self._batch_ctx,
                links=self._batch_links,
                args={"platform": platform, "hedged": hedged},
            )
            end = self._batch_start_s + seconds
            now = self.clock.now()
            if end > now:
                self.clock.advance(end - now)
            self._batch_ctx = None
            self._batch_links = ()
            self._batch_active = False
            self._guard_ctx = None
        else:
            self.tracer.add_span(
                "serving",
                f"batch[{rows} rows]",
                seconds,
                cat="serving",
                args={"platform": platform, "hedged": hedged},
            )

    def on_queue_depth(self, depth: int) -> None:
        self.registry.gauge(
            "serving.queue_depth", "front-door queue depth"
        ).set(float(depth))
