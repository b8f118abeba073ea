"""repro.obs — deterministic observability for the simulated pipeline.

One namespace over everything the repo can measure: a span
:class:`~repro.obs.tracer.Tracer` on the simulated clock, a labeled
:class:`~repro.obs.registry.MetricsRegistry`, request-scoped
:class:`~repro.obs.context.TraceContext` lineage with a typed
:class:`~repro.obs.protocol.Observer` hook surface, bridges that ingest
the per-subsystem counter silos, declarative SLOs with multi-window
burn-rate evaluation (:mod:`repro.obs.slo`), and deterministic exporters
(Chrome trace with flow arrows, Prometheus text with exemplars, JSONL
run manifests).  ``python -m repro.obs`` drives it from the command line.
"""

from repro.obs.bridges import (
    ObsSession,
    record_eventsim,
    record_fastpath,
    record_kernel_metrics,
    record_kernel_timing,
    record_layout_footprint,
    record_pipeline,
    record_plan,
    record_reliability,
    record_response,
)
from repro.obs.context import TraceContext, hex64, mix64
from repro.obs.export import (
    chrome_trace_events,
    prometheus_text,
    registry_manifest_counters,
    render_chrome_trace,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.manifest import (
    CounterDelta,
    ManifestDiff,
    RunManifest,
    build_manifest,
    diff_manifests,
    read_manifest,
    render_manifest,
    rows_to_counters,
    write_manifest,
)
from repro.obs.protocol import HOOKS, NULL_OBSERVER, Observer, ensure_observer
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import (
    BurnWindow,
    SLObjective,
    SLOEvent,
    check_slo_report,
    default_objectives,
    evaluate_objective,
    evaluate_objectives,
    events_from_responses,
    read_slo_report,
    render_slo_report,
    write_slo_report,
)
from repro.obs.tracer import CounterSample, Instant, Span, Tracer

__all__ = [
    "ObsSession",
    "record_eventsim",
    "record_fastpath",
    "record_kernel_metrics",
    "record_kernel_timing",
    "record_layout_footprint",
    "record_pipeline",
    "record_plan",
    "record_reliability",
    "record_response",
    "TraceContext",
    "hex64",
    "mix64",
    "chrome_trace_events",
    "prometheus_text",
    "registry_manifest_counters",
    "render_chrome_trace",
    "write_chrome_trace",
    "write_prometheus",
    "CounterDelta",
    "ManifestDiff",
    "RunManifest",
    "build_manifest",
    "diff_manifests",
    "read_manifest",
    "render_manifest",
    "rows_to_counters",
    "write_manifest",
    "HOOKS",
    "NULL_OBSERVER",
    "Observer",
    "ensure_observer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "BurnWindow",
    "SLObjective",
    "SLOEvent",
    "check_slo_report",
    "default_objectives",
    "evaluate_objective",
    "evaluate_objectives",
    "events_from_responses",
    "read_slo_report",
    "render_slo_report",
    "write_slo_report",
    "CounterSample",
    "Instant",
    "Span",
    "Tracer",
]
