"""Metric names, units, and their derivation from a run and its trace.

End-to-end metrics come from untraced runs; per-layer metrics from a
separate traced run.  Every workload reports every metric of its kind, so
the per-layer set is phrased as shares of wall time, counts, rates and
bytes: a layer that a workload bypasses reads 0 there.
"""

from __future__ import annotations

import re
import statistics
from typing import Dict

import numpy as np

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

#: name -> (unit, better).
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower"),
    "latency_ms": ("ms", "lower"),
    "rows_per_s": ("rows/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better).  ``_frac`` metrics are shares of the measured window's
#: wall time, except the set-up layers (planner, layout build, EdgeTable
#: lowering, forest load, data generation), which are shares of set-up.
PER_LAYER: Dict[str, tuple] = {
    # serving
    "frontdoor.submit_frac": ("frac", "lower"),
    "frontdoor.pump_self_frac": ("frac", "lower"),
    "batching.queue_wait_frac": ("frac", "lower"),
    "batching.rows_per_batch": ("rows", "higher"),
    "frontdoor.max_queue_depth": ("count", "lower"),
    "admission.refused": ("count", "lower"),
    "frontdoor.shed": ("count", "lower"),
    # load generator
    "loadgen.lag_frac": ("frac", "lower"),
    "loadgen.busy_frac": ("frac", "lower"),
    # reliability
    "guard.self_frac": ("frac", "lower"),
    "guard.attempts_per_call": ("count", "lower"),
    "guard.useful_attempt_frac": ("frac", "higher"),
    "guard.degraded_frac": ("frac", "lower"),
    "integrity.verify_frac": ("frac", "lower"),
    "integrity.verify_calls": ("count", "lower"),
    "integrity.surviving_trees_frac": ("frac", "lower"),
    "integrity.degraded_predict_frac": ("frac", "lower"),
    # runtime
    "planner.autotune_frac": ("frac", "lower"),
    "planner.probe_runs": ("count", "lower"),
    "planner.cost_evaluations": ("count", "lower"),
    "session.run_self_frac": ("frac", "lower"),
    "session.layouts_built": ("count", "lower"),
    "oracle.verify_frac": ("frac", "lower"),
    "oracle.cpu_rung_calls": ("count", "lower"),
    # fastpath
    "fastpath.lower_frac": ("frac", "lower"),
    "fastpath.traverse_frac": ("frac", "lower"),
    "fastpath.lane_levels_per_s": ("1/s", "higher"),
    "fastpath.lane_levels_per_row": ("count", "lower"),
    "fastpath.frontier_occupancy": ("frac", "higher"),
    "fastpath.gather_bytes_per_row": ("B", "lower"),
    # layout
    "layout.build_frac": ("frac", "lower"),
    "layout.device_bytes": ("B", "lower"),
    # forest
    "forest.bin_frac": ("frac", "lower"),
    "forest.tree_build_frac": ("frac", "lower"),
    "forest.bootstrap_frac": ("frac", "lower"),
    "forest.nodes_per_s": ("1/s", "higher"),
    # io / datasets
    "io.load_forest_frac": ("frac", "lower"),
    "datasets.generate_frac": ("frac", "lower"),
    # the trace itself
    "trace.spans": ("count", "lower"),
    "trace.pump_coverage": ("frac", "higher"),
}

#: Duration of ``workloads.SpeedProbe`` at the reference speed: the
#: uncontended 2-vCPU host the bounds were set on.  End-to-end times are
#: scaled by this over the probe durations measured around them.
PROBE_REFERENCE_S = 1.0e-3
#: Probes from this many seconds before an operation to as long after it
#: describe its speed.
PROBE_NEAR_S = 0.5

#: Bytes gathered per lane-level: feature id, query value, threshold and
#: successor, 4 B each.  Computed from the lane count, not measured.
GATHER_BYTES_PER_LANE_LEVEL = 16


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def samples_beyond(values, percentile: float) -> int:
    """How many samples lie strictly above the ``percentile`` value."""
    arr = np.asarray(values, dtype=np.float64)
    return int((arr > np.percentile(arr, percentile)).sum())


def probe_near(probes, starts, ends) -> np.ndarray:
    """Median probe duration from ``PROBE_NEAR_S`` before each start to as
    long after its end; the nearest probe where none falls in between."""
    t = np.asarray([p[0] for p in probes], dtype=np.float64)
    d = np.asarray([p[1] for p in probes], dtype=np.float64)
    starts = np.asarray(starts, dtype=np.float64)[:, None]
    ends = np.asarray(ends, dtype=np.float64)[:, None]
    near = (t >= starts - PROBE_NEAR_S) & (t <= ends + PROBE_NEAR_S)
    nearest = np.abs(t - (starts + ends) / 2.0).argmin(axis=1)
    near[np.arange(near.shape[0]), nearest] = True
    return np.nanmedian(np.where(near, d, np.nan), axis=1)


def reference_seconds(probes, end: float, exponent: float) -> float:
    """Length of ``[0, end]`` at reference speed.

    Each stretch is scaled by the reference speed factor of the probes near
    it; the stretches meet halfway between successive probes.
    """
    t = np.asarray([p[0] for p in probes], dtype=np.float64)
    edges = np.concatenate([[0.0], (t[1:] + t[:-1]) / 2.0, [end]])
    factor = (PROBE_REFERENCE_S / probe_near(probes, t, t)) ** exponent
    return float(np.sum(np.diff(edges) * factor))


def end_to_end(run, exponent: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run, at reference speed.

    Each operation's wall time is multiplied by ``(PROBE_REFERENCE_S /
    probe) ** exponent``, where ``probe`` is the speed probe's duration
    around it and ``exponent`` how strongly the workload slows when the
    probe does (``workloads.Workload.speed_exponent``).
    """
    probes = run.setup_probes
    setup = [
        s * PROBE_REFERENCE_S / (0.5 * (probes[k] + probes[k + 1]))
        for k, s in enumerate(run.setup_s)
    ]
    out = {"setup_s": statistics.median(setup), "peak_rss_mb": run.peak_rss_mb}
    if not run.ops:
        return {**out, "latency_ms": 0.0, "rows_per_s": 0.0}
    start, lat, rows, _ = (np.asarray(col, dtype=np.float64) for col in zip(*run.ops))
    scaled = lat * (PROBE_REFERENCE_S / probe_near(run.probes, start, start + lat)) ** exponent
    if run.kind == "repeat":
        rows_per_s = float(np.median(rows / scaled))
    elif run.kind == "closed-loop":
        rows_per_s = run.rows / reference_seconds(run.probes, run.window_s, exponent)
    else:
        rows_per_s = run.rows / run.window_s  # the offered load, answered
    return {
        **out,
        "latency_ms": float(np.median(scaled)) * 1e3,
        "rows_per_s": rows_per_s,
    }


def wall_clock(run, tail: float) -> Dict[str, float]:
    """Unscaled numbers and sample counts, for the results file."""
    lat = [op[1] for op in run.ops] or [0.0]
    return {
        "operations": len(run.ops),
        "latency_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        f"latency_p{tail:g}_ms": float(np.percentile(lat, tail)) * 1e3,
        "samples_beyond_tail": samples_beyond(lat, tail),
        "rows_per_s": run.rows / run.window_s,
        "setup_s": statistics.median(run.setup_s),
        "probe_median_ms": statistics.median(d for _, d in run.probes) * 1e3,
    }


def per_layer(run, tracer) -> Dict[str, float]:
    table = tracer.layer_table()
    window = run.window_s
    setup = sum(run.setup_s)

    def self_s(phase: str, span: str) -> float:
        return table.get(phase, {}).get(span, {}).get("self_s", 0.0)

    def total(phase: str, span: str, key: str = "total_s") -> float:
        return table.get(phase, {}).get(span, {}).get(key, 0.0)

    def frac(span: str) -> float:
        return _ratio(self_s("measure", span), window)

    def setup_frac(span: str) -> float:
        return _ratio(self_s("setup", span), setup)

    counts = tracer.counters["measure"]
    lanes = counts["fastpath.lane_levels"]
    per_row = _ratio(lanes, counts["fastpath.rows"])
    pump = total("measure", "frontdoor.pump")
    layer = run.layer
    builds = sum(total(phase, "layout.build", "calls") for phase in table)
    return {
        "frontdoor.submit_frac": frac("frontdoor.submit"),
        "frontdoor.pump_self_frac": frac("frontdoor.pump"),
        "batching.queue_wait_frac": _ratio(
            layer.get("queue_wait_s", 0.0), layer.get("latency_sum_s", 0.0)
        ),
        "batching.rows_per_batch": _ratio(
            layer.get("rows_executed", 0), layer.get("batches", 0)
        ),
        "frontdoor.max_queue_depth": layer.get("max_queue_depth", 0),
        "admission.refused": layer.get("refused", 0),
        "frontdoor.shed": layer.get("shed", 0),
        "loadgen.lag_frac": _ratio(
            layer.get("gen_lag_s", 0.0), layer.get("latency_sum_s", 0.0)
        ),
        "loadgen.busy_frac": _ratio(run.busy_s, window),
        "guard.self_frac": frac("guard.classify"),
        "guard.attempts_per_call": _ratio(counts["guard.attempts"], counts["guard.calls"]),
        "guard.useful_attempt_frac": _ratio(
            counts["guard.useful_attempts"], counts["guard.attempts"]
        ),
        "guard.degraded_frac": _ratio(counts["guard.degraded"], counts["guard.calls"]),
        "integrity.verify_frac": frac("integrity.verify"),
        "integrity.verify_calls": total("measure", "integrity.verify", "calls"),
        "integrity.surviving_trees_frac": frac("integrity.surviving_trees"),
        "integrity.degraded_predict_frac": frac("integrity.degraded_predict"),
        "planner.autotune_frac": setup_frac("planner.autotune"),
        "planner.probe_runs": layer.get("probe_runs", 0),
        "planner.cost_evaluations": layer.get("cost_evaluations", 0),
        "session.run_self_frac": frac("session.run"),
        "session.layouts_built": _ratio(builds, len(run.setup_s)),
        "oracle.verify_frac": frac("oracle.verify"),
        "oracle.cpu_rung_calls": total("measure", "oracle.cpu_rung", "calls"),
        "fastpath.lower_frac": setup_frac("fastpath.lower"),
        "fastpath.traverse_frac": frac("fastpath.traverse"),
        "fastpath.lane_levels_per_s": _ratio(
            lanes, total("measure", "fastpath.traverse")
        ),
        "fastpath.lane_levels_per_row": per_row,
        "fastpath.frontier_occupancy": _ratio(lanes, counts["fastpath.lane_slots"]),
        "fastpath.gather_bytes_per_row": per_row * GATHER_BYTES_PER_LANE_LEVEL,
        "layout.build_frac": setup_frac("layout.build"),
        "layout.device_bytes": layer.get("layout_device_bytes", 0),
        "forest.bin_frac": frac("forest.bin"),
        "forest.tree_build_frac": frac("forest.tree_build"),
        "forest.bootstrap_frac": frac("forest.bootstrap"),
        "forest.nodes_per_s": _ratio(
            counts["forest.nodes"], total("measure", "forest.tree_build")
        ),
        "io.load_forest_frac": setup_frac("io.load_forest"),
        "datasets.generate_frac": setup_frac("datasets.generate"),
        "trace.spans": len(tracer.spans),
        "trace.pump_coverage": _ratio(pump - self_s("measure", "frontdoor.pump"), pump),
    }
