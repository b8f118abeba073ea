"""In-memory span tracer installed around each layer's public entry points.

The benchmark measures the program from the outside: every span is opened
by a wrapper that this module puts on a function *where its caller resolves
it* (a module global or a class attribute), so no file under ``src/``
changes.  A span records its name, start, end, parent span and the batch it
belongs to; spans stay in memory until :meth:`Tracer.write` saves them as
JSON and as a Chrome trace (``chrome://tracing`` / Perfetto).

Self time is a span's duration minus the time its child spans cover.  The
program is single-threaded, so children never overlap and the covered time
is the sum of their durations.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class PatchPoint:
    """One wrapped callable: ``"module:attr"`` or ``"module:Class.attr"``."""

    target: str
    span: str
    #: Called as ``hook(counters, args, kwargs, result)`` after the call
    #: returns; adds layer counts measured where the work happens.
    on_return: Optional[Callable] = None
    #: This call forms a micro-batch: later spans carry the next batch id.
    starts_batch: bool = False


def _guard_report(counters, args, kwargs, result) -> None:
    report = result.reliability
    wasted = (
        report.transient_failures
        + report.deadline_exceeded
        + report.integrity_failures
    )
    counters["guard.calls"] += 1
    counters["guard.attempts"] += report.attempts
    counters["guard.useful_attempts"] += report.attempts - wasted
    counters["guard.degraded"] += int(report.degraded)


def _traverse_stats(counters, args, kwargs, result) -> None:
    table, X = args[0], args[1]
    _, levels, lane_levels = result
    rows = int(X.shape[0])
    counters["fastpath.rows"] += rows
    counters["fastpath.lane_levels"] += int(lane_levels)
    counters["fastpath.lane_slots"] += rows * int(table.roots.shape[0]) * int(levels)


def _tree_nodes(counters, args, kwargs, result) -> None:
    counters["forest.nodes"] += int(result.n_nodes)


#: Every layer boundary the traced run times.  Names are the span names the
#: per-layer metrics are derived from (see README.md for the full map).
PATCH_POINTS: Tuple[PatchPoint, ...] = (
    # serving
    PatchPoint("repro.serving.frontdoor:ServingFrontDoor.submit", "frontdoor.submit"),
    PatchPoint("repro.serving.frontdoor:ServingFrontDoor.pump", "frontdoor.pump"),
    PatchPoint(
        "repro.serving.batching:MicroBatcher.next_batch",
        "batching.next_batch",
        starts_batch=True,
    ),
    # reliability
    PatchPoint(
        "repro.reliability.guard:ResilientClassifier.classify",
        "guard.classify",
        on_return=_guard_report,
    ),
    # Both re-check sites (pre-launch and post-transfer) end in check().
    PatchPoint("repro.reliability.integrity:LayoutIntegrity.check", "integrity.verify"),
    PatchPoint(
        "repro.reliability.integrity:LayoutIntegrity.surviving_trees",
        "integrity.surviving_trees",
    ),
    PatchPoint(
        "repro.reliability.guard:degraded_predict", "integrity.degraded_predict"
    ),
    # runtime
    PatchPoint("repro.runtime.planner:Planner.autotune", "planner.autotune"),
    PatchPoint("repro.runtime.session:RuntimeSession.run", "session.run"),
    PatchPoint("repro.runtime.session:reference_predict", "oracle.verify"),
    PatchPoint("repro.runtime.backends:reference_predict", "oracle.cpu_rung"),
    # fastpath
    PatchPoint("repro.runtime.backends:fastpath_predict", "fastpath.predict"),
    PatchPoint("repro.fastpath.hierpath:build_edges", "fastpath.lower"),
    PatchPoint("repro.fastpath.csrpath:build_edges", "fastpath.lower"),
    PatchPoint("repro.fastpath.filpath:build_edges", "fastpath.lower"),
    PatchPoint(
        "repro.fastpath.hierpath:traverse_edges",
        "fastpath.traverse",
        on_return=_traverse_stats,
    ),
    PatchPoint(
        "repro.fastpath.csrpath:traverse_edges",
        "fastpath.traverse",
        on_return=_traverse_stats,
    ),
    PatchPoint(
        "repro.fastpath.filpath:traverse_edges",
        "fastpath.traverse",
        on_return=_traverse_stats,
    ),
    # layout
    PatchPoint("repro.layout.hierarchical:HierarchicalForest.from_trees", "layout.build"),
    PatchPoint("repro.layout.csr:CSRForest.from_trees", "layout.build"),
    # forest
    PatchPoint("repro.forest.random_forest:RandomForestClassifier.fit", "forest.fit"),
    PatchPoint("repro.forest.builder:FeatureBinner.fit", "forest.bin"),
    PatchPoint("repro.forest.builder:FeatureBinner.transform", "forest.bin"),
    PatchPoint(
        "repro.forest.builder:TreeBuilder.build",
        "forest.tree_build",
        on_return=_tree_nodes,
    ),
    PatchPoint("repro.forest.random_forest:bootstrap_indices", "forest.bootstrap"),
    # io / datasets
    PatchPoint("repro.experiments.common:load_forest", "io.load_forest"),
    PatchPoint("repro.datasets.profiles:load_dataset", "datasets.generate"),
)


def resolve(target: str):
    """``(owner, attr, raw)`` for a patch target; raises if it is gone.

    ``raw`` is the attribute as stored on its owner (a ``classmethod``
    object stays one), so the wrapper can be put back exactly.
    """
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = vars(owner).get(attr)
    if raw is None:
        raise AttributeError(f"trace patch point {target!r} does not exist")
    return owner, attr, raw


class Tracer:
    """Records spans for the wrapped calls; one instance per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``(name, start, end, parent index, batch id, phase)`` per span.
        self.spans: List[Tuple[str, float, float, int, int, str]] = []
        #: ``{phase: {counter: value}}`` filled by the patch points' hooks.
        self.counters: Dict[str, Dict[str, float]] = collections.defaultdict(
            lambda: collections.defaultdict(int)
        )
        #: Set by the workload: "setup", "measure" or "check".
        self.phase = "setup"
        self.batch_id = 0
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(self, point: PatchPoint, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if point.starts_batch:
                tracer.batch_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans[index] = (
                    point.span, start, end, parent, tracer.batch_id, tracer.phase
                )
            if point.on_return is not None:
                point.on_return(tracer.counters[tracer.phase], args, kwargs, result)
            return result

        return traced

    def install(self, points=PATCH_POINTS) -> "Tracer":
        """Wrap every patch point; all targets are resolved before any patch."""
        resolved = [(point, *resolve(point.target)) for point in points]
        for point, owner, attr, raw in resolved:
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(point, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(point, raw.__func__))
            else:
                wrapped = self.wrap(point, raw)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the children's durations."""
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_table(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """``{phase: {span: {calls, total_s, self_s}}}`` over every span."""
        table: Dict[str, Dict[str, Dict[str, float]]] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            name, start, end, _, _, phase = span
            row = table.setdefault(phase, {}).setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        return table

    def batch_starts(self) -> Dict[int, float]:
        """Start time of the ``batching.next_batch`` span of each batch id."""
        return {
            batch: start
            for name, start, _, _, batch, _ in self.spans
            if name == "batching.next_batch"
        }

    # ------------------------------------------------------------------
    def write(self, directory: str, stem: str) -> None:
        """Save the spans as JSON and as a Chrome trace under ``directory``."""
        os.makedirs(directory, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        records = [
            {
                "name": name,
                "start_s": start - t0,
                "end_s": end - t0,
                "parent": parent,
                "batch": batch,
                "phase": phase,
            }
            for name, start, end, parent, batch, phase in self.spans
        ]
        with open(os.path.join(directory, f"{stem}.spans.json"), "w") as f:
            json.dump(records, f)
        events = [
            {
                "name": r["name"],
                "cat": r["phase"],
                "ph": "X",
                "ts": r["start_s"] * 1e6,
                "dur": (r["end_s"] - r["start_s"]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"batch": r["batch"]},
            }
            for r in records
        ]
        with open(os.path.join(directory, f"{stem}.chrome.json"), "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
