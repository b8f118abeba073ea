"""The five end-to-end workloads: set-up, timed window, correctness check.

Each workload drives the system through its public API only, from one
thread, and returns a :class:`Run` with what the window measured.  The
request rows, arrival times and training data are all drawn from the run's
seed; the served forests are the checked-in ``.cache/forests`` entries
(retrained and cached by ``repro.experiments.common.get_forest`` when a
checkout lacks them).

In the open-loop workloads the load generator keeps the front door's own
``SimulatedClock`` at elapsed wall time before every ``submit``/``pump``,
so the coalescing window and the token buckets act on real time, and each
request is timed from when it was *due*, not from when the load generator
got round to sending it.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.baselines.cpu_reference import reference_predict
from repro.core.classifier import HierarchicalForestClassifier
from repro.core.config import RunConfig
from repro.datasets import profiles
from repro.experiments import common
from repro.forest.random_forest import RandomForestClassifier
from repro.layout.footprint import layout_device_arrays
from repro.reliability.faults import FaultPlan
from repro.reliability.guard import ResilientClassifier
from repro.runtime.plan import CPU_PLATFORM
from repro.runtime.planner import forest_fingerprint
from repro.serving.admission import AdmissionPolicy
from repro.serving.frontdoor import ServingFrontDoor
from repro.serving.request import ServingStats
from repro.serving.traffic import TrafficProfile, generate_trace
from repro.utils.clock import SimulatedClock

SERVE_FOREST = ("susy", 20, 20)  # .cache/forests/susy_d20_t20_r12000_s0.npz
BATCH_FOREST = ("covertype", 35, 20)  # deep trees, frontier occupancy ~0.46
SERVE_CONFIG = RunConfig(platform="gpu", variant="auto")
BATCH_CONFIG = RunConfig(variant="auto", trace="off")
STEADY_ADMISSION = AdmissionPolicy(rate_qps=5000, burst=256, queue_limit=1024)
#: The closed loop must find the system's capacity, not the rate limiter's.
SATURATED_ADMISSION = AdmissionPolicy(rate_qps=1e6, burst=1024, queue_limit=1024)
STEADY_RATES_QPS = (250.0, 1000.0)
DEGRADED_RATE_QPS = 100.0
SATURATED_CALLERS = 64
#: Share of trees corrupted in each accelerator layout.  The fault seed is
#: fixed so every run drops the same trees: the degraded path's cost grows
#: with the number of surviving trees, and a per-seed count would add that
#: spread to every run.
CORRUPTION_RATE = 0.25
FAULT_SEED = 0
POOL_ROWS = 2000
WARMUP_REQUESTS = 16
BATCH_ROWS = 100_000
TRAIN_ROWS = 20_000
#: One tree keeps a fit near 1.3 s, so a window holds several identical
#: fits; trees of a forest are built independently, so per-tree cost is
#: what more trees would multiply.
TRAIN_TREES = 1
TRAIN_DEPTH = 30
#: A single depth-30 tree scores 0.58-0.63 here; a broken trainer scores
#: the majority-class rate, ~0.5.
TRAIN_ACCURACY_FLOOR = 0.55
SLO_S = 0.050
#: How often the load generator wakes while a batch is coalescing.
IDLE_POLL_S = 0.0005
PROBE_EVERY_S = 0.2
SETUP_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 20


@dataclass
class Run:
    """What one workload run measured."""

    workload: str
    setup_s: List[float]
    window_s: float
    #: ``(start_s, latency_s, rows, phase)`` per correctly completed
    #: operation (request, classify call or fit); ``start_s`` is when a
    #: request was due, or when a call began.
    ops: List[Tuple[float, float, int, int]]
    #: Rows answered correctly inside the window (train: rows x trees).
    rows: int
    attempted: int
    failed: int
    #: Wall time the load generator spent inside calls into the system.
    busy_s: float
    #: Speed probes of the window (``(t, seconds)``) and of the set-ups
    #: (one before each repetition and one after the last).
    probes: List[Tuple[float, float]]
    setup_probes: List[float]
    #: Peak resident memory at the end of the window, before the check.
    peak_rss_mb: float
    #: "open-loop", "closed-loop", or "repeat" (the same call made again and
    #: again); decides how metrics.end_to_end summarises the operations.
    kind: str = "repeat"
    #: Workload-specific numbers written to the results file.
    detail: Dict[str, float] = field(default_factory=dict)
    #: Inputs of the per-layer metrics that only the workload knows.
    layer: Dict[str, float] = field(default_factory=dict)


class Req:
    """One request as the load generator saw it (times relative to window start).

    Slotted: the closed loop keeps tens of thousands of these, and their
    memory would otherwise show in ``peak_rss_mb`` in proportion to
    throughput.
    """

    __slots__ = ("lo", "rows", "due", "phase", "submit", "finish", "response")

    def __init__(self, lo: int, rows: int, due: float, phase: int = 0,
                 submit: float = float("nan"), response=None):
        self.lo, self.rows, self.due, self.phase = lo, rows, due, phase
        self.submit, self.finish, self.response = submit, float("nan"), response


#: What the load generator keeps of a response: enough to check and time it.  The
#: predictions are int8 bytes (class ids here are 0/1; a wider id would
#: fail the check, never pass it), so the memory the load generator holds per
#: request stays small next to the system's.
Answer = namedtuple("Answer", "ok degraded platform_used batch_id predictions")


def _answer(resp) -> Answer:
    preds = resp.predictions
    if preds is not None:
        preds = np.asarray(preds).astype(np.int8).tobytes()
    return Answer(resp.ok, resp.degraded, resp.platform_used, resp.batch_id, preds)


class SpeedProbe:
    """Times a fixed unit of mixed NumPy and interpreter work, now and then.

    The host's speed drifts by 30-90% over tens of seconds (other tenants
    share its cores); the probe's duration tracks that drift, so each
    stretch of a run can be scaled to one reference speed (see
    ``metrics.PROBE_REFERENCE_S``).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._values = rng.random(1 << 16)
        self._index = rng.integers(0, 1 << 16, size=1 << 14)
        #: ``(t, seconds)`` per probe; ``t`` on the caller's time axis.
        self.samples: List[Tuple[float, float]] = []
        self._last = -float("inf")

    def run(self, t: float) -> None:
        start = time.perf_counter()
        for _ in range(12):
            self._values[self._index].sum()
        np.sort(self._values[:16384])
        acc = 0
        for i in range(12000):
            acc += i & 7
        self.samples.append((t, time.perf_counter() - start))
        self._last = t

    def maybe(self, t: float) -> None:
        if t - self._last >= PROBE_EVERY_S:
            self.run(t)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
class Setup(NamedTuple):
    made: object
    #: Wall seconds of each repetition.
    seconds: List[float]
    #: Probe durations: one before each repetition and one after the last.
    probes: List[float]


def timed_setups(make: Callable[[str], object], out_dir: str) -> Setup:
    """Run ``make`` several times; keeps the last result.

    Each repetition gets a fresh plan-cache directory so the planner
    autotunes every time.  Cheap set-ups repeat until ``SETUP_MIN_S`` so
    their median is not one timer tick.
    """
    times: List[float] = []
    probe = SpeedProbe()
    made = None
    while len(times) < SETUP_REPS or (
        sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS
    ):
        cache = os.path.join(out_dir, "plan_cache", f"setup{len(times)}")
        # Free the previous set-up (its objects form reference cycles)
        # before timing the next, so peak memory holds one set-up, not a
        # varying number of them.
        made = None
        gc.collect()
        probe.run(len(times))
        start = time.perf_counter()
        made = make(cache)
        times.append(time.perf_counter() - start)
    probe.run(len(times))
    return Setup(made, times, [d for _, d in probe.samples])


def _forest(spec):
    common.clear_memo()  # every set-up loads the file again
    name, depth, trees = spec
    return common.get_forest(name, depth, trees, "default", seed=0)


@dataclass
class Serving:
    front: ServingFrontDoor
    classifier: HierarchicalForestClassifier
    pool: np.ndarray
    #: Tree ids dropped from each accelerator platform's layout.
    dropped: Dict[str, Tuple[int, ...]]


def serve_setup(seed: int, cache_dir: str, admission: AdmissionPolicy,
                corrupt: bool = False) -> Serving:
    forest = _forest(SERVE_FOREST)
    pool = profiles.load_dataset(
        SERVE_FOREST[0], rows=2 * POOL_ROWS, seed=seed
    ).X_test
    clf = HierarchicalForestClassifier.from_forest(forest)
    clf.planner.cache_dir = cache_dir
    front = ServingFrontDoor(
        ResilientClassifier(clf),
        SERVE_CONFIG,
        clock=SimulatedClock(),
        admission=admission,
        probe_X=pool[:64],
    )
    dropped: Dict[str, Tuple[int, ...]] = {}
    if corrupt:
        # As serving/chaos.py does, but each distinct layout once: the
        # accelerator rungs share one layout object when their plans do.
        faults = FaultPlan(seed=FAULT_SEED, tree_corruption_rate=CORRUPTION_RATE)
        by_layout: Dict[int, Tuple[int, ...]] = {}
        for plan in front.guard.ladder_plans(front.config):
            if plan.platform == CPU_PLATFORM:
                continue
            layout = clf.layout_for(plan.to_run_config())
            if id(layout) not in by_layout:
                by_layout[id(layout)] = faults.corrupt_layout(layout)
            dropped[plan.platform] = by_layout[id(layout)]
        front.guard.notify_layout_rebuild()
    for k in range(WARMUP_REQUESTS):
        front.submit(pool[k : k + 1 + k % 8])
    front.drain()
    return Serving(front, clf, pool, dropped)


# ----------------------------------------------------------------------
# Load generators
# ----------------------------------------------------------------------
def arrival_trace(seed: int, phases) -> List[Tuple[float, int, int]]:
    """Poisson arrivals ``(due_s, rows, phase)`` for consecutive phases.

    ``phases`` is a sequence of ``(rate_qps, duration_s)``; each phase is
    the repo's own steady traffic profile (1-8 rows per request) on a
    seed derived from ``seed`` and the phase index.
    """
    out: List[Tuple[float, int, int]] = []
    start = 0.0
    for k, (rate, duration) in enumerate(phases):
        profile = TrafficProfile(
            name=f"e2e-{k}", duration_s=duration, base_qps=rate
        )
        for a in generate_trace(profile, seed=seed * 1000 + k):
            out.append((start + a.at_s, a.rows, k))
        start += duration
    return out


def _sync(clock: SimulatedClock, target: float) -> None:
    if target > clock.now():
        clock.advance(target - clock.now())


def open_loop(front, pool: np.ndarray, arrivals, seed: int,
              probe: Optional[SpeedProbe] = None,
              now: Callable[[], float] = time.perf_counter,
              sleep: Callable[[float], None] = time.sleep):
    """Submit each arrival when due.

    Returns ``(requests, t0, window_s, busy_s)``; request times are seconds
    after ``t0``, the ``now()`` reading that opened the window.
    """
    offsets = np.random.default_rng([seed, 1]).integers(
        0, pool.shape[0] - 8, size=len(arrivals)
    )
    reqs = [
        Req(int(lo), rows, due, phase)
        for (due, rows, phase), lo in zip(arrivals, offsets)
    ]
    by_id: Dict[int, Req] = {}
    clock = front.clock
    base = clock.now()
    busy = 0.0
    i = 0
    t0 = now()
    while True:
        t = now() - t0
        if probe is not None:
            probe.maybe(t)
            t = now() - t0
        while i < len(reqs) and reqs[i].due <= t:
            r = reqs[i]
            _sync(clock, base + t)
            r.submit = now() - t0
            req = front.try_submit(pool[r.lo : r.lo + r.rows])
            t = now() - t0
            busy += t - r.submit
            if req is not None:
                by_id[req.request_id] = r
            i += 1
        _sync(clock, base + t)
        start = now()
        responses = front.pump()
        end = now()
        busy += end - start
        for resp in responses:
            r = by_id.pop(resp.request_id)
            r.finish, r.response = end - t0, _answer(resp)
        if i == len(reqs) and not front.queue_depth:
            break
        if not responses:
            wait = reqs[i].due - (end - t0) if i < len(reqs) else IDLE_POLL_S
            if front.queue_depth:
                wait = min(wait, IDLE_POLL_S)
            if wait > 0:
                sleep(wait)
    return reqs, t0, now() - t0, busy


def closed_loop(front, pool: np.ndarray, seconds: float, seed: int,
                probe: SpeedProbe):
    """Callers that resubmit as soon as their answer returns."""
    rng = np.random.default_rng([seed, 2])
    reqs: List[Req] = []
    by_id: Dict[int, Req] = {}
    clock = front.clock
    base = clock.now()
    busy = 0.0
    t0 = time.perf_counter()

    def submit() -> None:
        nonlocal busy
        rows = int(rng.integers(1, 9))
        t = time.perf_counter() - t0
        r = Req(int(rng.integers(0, pool.shape[0] - 8)), rows, due=t, submit=t)
        reqs.append(r)
        _sync(clock, base + t)
        req = front.try_submit(pool[r.lo : r.lo + rows])
        busy += time.perf_counter() - t0 - t
        if req is not None:
            by_id[req.request_id] = r

    for _ in range(SATURATED_CALLERS):
        submit()
    while True:
        probe.maybe(time.perf_counter() - t0)
        _sync(clock, base + time.perf_counter() - t0)
        start = time.perf_counter()
        responses = front.pump()
        end = time.perf_counter()
        busy += end - start
        for resp in responses:
            r = by_id.pop(resp.request_id)
            r.finish, r.response = end - t0, _answer(resp)
            if end - t0 < seconds:
                submit()
        if end - t0 >= seconds and not front.queue_depth:
            break
        if not responses:
            time.sleep(IDLE_POLL_S / 5)
    return reqs, t0, time.perf_counter() - t0, busy


# ----------------------------------------------------------------------
# Serving runs
# ----------------------------------------------------------------------
def _expected(trees, X: np.ndarray, resp, dropped) -> np.ndarray:
    """Host-tree answer: all trees, or the survivors of a degraded rung."""
    if not resp.degraded:
        return reference_predict(trees, X)
    gone = set(dropped[resp.platform_used])
    return reference_predict([t for i, t in enumerate(trees) if i not in gone], X)


def check_served(reqs: List[Req], pool: np.ndarray, trees, dropped) -> List[bool]:
    """Per request: served, and equal to the host trees' answer.

    Requests are grouped by which trees answer for them, so the oracle runs
    once per group over the concatenated rows rather than per request.
    """
    ok = [False] * len(reqs)
    groups: Dict[Tuple, List[int]] = {}
    for k, r in enumerate(reqs):
        resp = r.response
        if resp is not None and resp.ok:
            key = (resp.degraded, resp.platform_used if resp.degraded else "")
            groups.setdefault(key, []).append(k)
    for members in groups.values():
        X = np.concatenate([pool[reqs[k].lo : reqs[k].lo + reqs[k].rows] for k in members])
        want = _expected(trees, X, reqs[members[0]].response, dropped)
        lo = 0
        for k in members:
            got = np.frombuffer(reqs[k].response.predictions, dtype=np.int8)
            ok[k] = np.array_equal(got, want[lo : lo + reqs[k].rows])
            lo += reqs[k].rows
    return ok


def _serve_run(name: str, serving: Serving, drive, setup, probe: SpeedProbe,
               tracer, batch_offset: int, kind: str = "open-loop") -> Run:
    reqs, t0, window, busy = drive
    rss = peak_rss_mb()
    front = serving.front
    if tracer is not None:
        tracer.phase = "check"
    ok = check_served(reqs, serving.pool, serving.classifier.trees, serving.dropped)
    good = [r for r, fine in zip(reqs, ok) if fine]
    stats = front.stats
    run = Run(
        workload=name,
        setup_s=setup.seconds,
        window_s=window,
        ops=[(r.due, r.finish - r.due, r.rows, r.phase) for r in good],
        rows=sum(r.rows for r in good),
        attempted=len(reqs),
        failed=len(reqs) - len(good),
        busy_s=busy,
        probes=probe.samples,
        setup_probes=setup.probes,
        peak_rss_mb=rss,
        kind=kind,
    )
    run.detail["fail_frac"] = run.failed / run.attempted
    run.detail["wrong_answers"] = sum(
        1 for r, fine in zip(reqs, ok) if not fine and r.response is not None
        and r.response.ok
    )
    run.layer.update(
        {
            "gen_lag_s": sum(max(0.0, r.submit - r.due) for r in reqs),
            "latency_sum_s": sum(op[1] for op in run.ops),
            "rows_executed": stats.rows_executed,
            "batches": stats.batches,
            "max_queue_depth": stats.max_queue_depth,
            "refused": stats.total_rejected,
            "shed": stats.total_shed,
            "layout_device_bytes": _device_bytes(
                serving.classifier.layout_for(front.config)
            ),
            **_planner_stats(serving.classifier),
        }
    )
    if tracer is not None:
        starts = tracer.batch_starts()
        run.layer["queue_wait_s"] = sum(
            starts[r.response.batch_id + batch_offset] - t0 - r.submit for r in good
        )
    return run


def _device_bytes(layout) -> int:
    return int(sum(a.nbytes for a in layout_device_arrays(layout).values()))


def _planner_stats(clf) -> Dict[str, float]:
    stats = clf.planner.stats
    return {
        "probe_runs": stats["probe_runs"],
        "cost_evaluations": stats["cost_evaluations"],
    }


def _start_window(serving: Serving, tracer) -> int:
    """Reset the front door's counters; returns the tracer's batch offset."""
    front = serving.front
    offset = 0
    if tracer is not None:
        # Every next_batch call formed a batch (no workload sheds), so the
        # tracer's batch count and the front door's differ by a constant.
        offset = tracer.batch_id - front.stats.batches
        tracer.phase = "measure"
    front.stats = ServingStats()
    return offset


def _latency_detail(run: Run, reqs: List[Req], phase_of: List[int], label: str,
                    k: int) -> None:
    lat = np.asarray(
        [r.finish - r.due for r, p in zip(reqs, phase_of) if p == k
         and r.response is not None and r.response.ok]
    )
    offered = sum(1 for p in phase_of if p == k)
    if not lat.size:
        return
    run.detail[f"latency_p50_ms.{label}"] = float(np.percentile(lat, 50)) * 1e3
    run.detail[f"latency_p99_ms.{label}"] = float(np.percentile(lat, 99)) * 1e3
    run.detail[f"samples.{label}"] = int(lat.size)
    run.detail[f"slo_attainment.{label}"] = float((lat <= SLO_S).sum()) / offered


def serve_steady(seed: int, seconds: float, out_dir: str, tracer=None) -> Run:
    setup = timed_setups(
        lambda cache: serve_setup(seed, cache, STEADY_ADMISSION), out_dir
    )
    serving, probe = setup.made, SpeedProbe()
    phases = [(rate, seconds / len(STEADY_RATES_QPS)) for rate in STEADY_RATES_QPS]
    arrivals = arrival_trace(seed, phases)
    offset = _start_window(serving, tracer)
    drive = open_loop(serving.front, serving.pool, arrivals, seed, probe)
    run = _serve_run("serve-steady", serving, drive, setup, probe, tracer, offset)
    reqs = drive[0]
    phase_of = [p for _, _, p in arrivals]
    for k, rate in enumerate(STEADY_RATES_QPS):
        _latency_detail(run, reqs, phase_of, f"q{int(rate)}", k)
    return run


def serve_saturated(seed: int, seconds: float, out_dir: str, tracer=None) -> Run:
    setup = timed_setups(
        lambda cache: serve_setup(seed, cache, SATURATED_ADMISSION), out_dir
    )
    serving, probe = setup.made, SpeedProbe()
    offset = _start_window(serving, tracer)
    drive = closed_loop(serving.front, serving.pool, seconds, seed, probe)
    run = _serve_run(
        "serve-saturated", serving, drive, setup, probe, tracer, offset,
        kind="closed-loop",
    )
    run.detail["throughput_rps"] = (run.attempted - run.failed) / run.window_s
    return run


def serve_degraded(seed: int, seconds: float, out_dir: str, tracer=None) -> Run:
    setup = timed_setups(
        lambda cache: serve_setup(seed, cache, STEADY_ADMISSION, corrupt=True),
        out_dir,
    )
    serving, probe = setup.made, SpeedProbe()
    arrivals = arrival_trace(seed, [(DEGRADED_RATE_QPS, seconds)])
    offset = _start_window(serving, tracer)
    drive = open_loop(serving.front, serving.pool, arrivals, seed, probe)
    run = _serve_run("serve-degraded", serving, drive, setup, probe, tracer, offset)
    reqs = drive[0]
    run.detail["trees_dropped"] = len(set().union(*serving.dropped.values()))
    run.detail["degraded_frac"] = sum(
        1 for r in reqs if r.response is not None and r.response.degraded
    ) / len(reqs)
    return run


# ----------------------------------------------------------------------
# Batch scoring and training
# ----------------------------------------------------------------------
def _batch_setup(seed: int, cache_dir: str):
    forest = _forest(BATCH_FOREST)
    ds = profiles.load_dataset(BATCH_FOREST[0], rows=BATCH_ROWS, seed=seed)
    X = np.concatenate([ds.X_train, ds.X_test])
    clf = HierarchicalForestClassifier.from_forest(
        forest, verify_against_reference=False
    )
    clf.planner.cache_dir = cache_dir
    # Autotunes, builds the chosen layout and lowers its EdgeTable.
    first = clf.classify(X, BATCH_CONFIG)
    return clf, X, first.config


def batch_offline(seed: int, seconds: float, out_dir: str, tracer=None) -> Run:
    setup = timed_setups(lambda cache: _batch_setup(seed, cache), out_dir)
    clf, X, config = setup.made
    if tracer is not None:
        tracer.phase = "measure"
    starts, latencies, outputs, probe = [], [], [], SpeedProbe()
    t0 = time.perf_counter()
    probe.run(0.0)
    while time.perf_counter() - t0 < seconds:
        start = time.perf_counter()
        outputs.append(clf.classify(X, BATCH_CONFIG).predictions)
        latencies.append(time.perf_counter() - start)
        starts.append(start - t0)
        probe.run(time.perf_counter() - t0)
    window = time.perf_counter() - t0
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.phase = "check"
    oracle = reference_predict(clf.trees, X)
    wrong_rows = [int((out != oracle).sum()) for out in outputs]
    good = sum(1 for w in wrong_rows if w == 0)
    run = Run(
        workload="batch-offline",
        setup_s=setup.seconds,
        window_s=window,
        ops=[
            (t, lat, X.shape[0], 0)
            for t, lat, w in zip(starts, latencies, wrong_rows) if w == 0
        ],
        rows=good * X.shape[0],
        attempted=len(outputs),
        failed=len(outputs) - good,
        busy_s=sum(latencies),
        probes=probe.samples,
        setup_probes=setup.probes,
        peak_rss_mb=rss,
    )
    run.detail["fail_frac"] = sum(wrong_rows) / (len(outputs) * X.shape[0])
    run.detail["variant"] = config.variant.value
    run.layer.update(
        {
            "layout_device_bytes": _device_bytes(clf.layout_for(config)),
            **_planner_stats(clf),
        }
    )
    return run


def _train_setup(seed: int, cache_dir: str):
    # One fixed sample (seed 0, like the checked-in forests): the tree's
    # size, and so the fit time, varies ~2% with the forest's seed but ~5%
    # with the data's.
    return profiles.load_dataset("higgs", rows=2 * TRAIN_ROWS, seed=0)


def train(seed: int, seconds: float, out_dir: str, tracer=None) -> Run:
    setup = timed_setups(lambda cache: _train_setup(seed, cache), out_dir)
    ds = setup.made
    if tracer is not None:
        tracer.phase = "measure"
    starts, latencies, prints, forest = [], [], [], None
    probe = SpeedProbe()
    t0 = time.perf_counter()
    probe.run(0.0)
    while time.perf_counter() - t0 < seconds:
        start = time.perf_counter()
        forest = RandomForestClassifier(
            n_estimators=TRAIN_TREES, max_depth=TRAIN_DEPTH, seed=seed
        ).fit(ds.X_train, ds.y_train)
        latencies.append(time.perf_counter() - start)
        starts.append(start - t0)
        prints.append((forest_fingerprint(forest.trees_), forest.total_nodes_))
        probe.run(time.perf_counter() - t0)
    window = time.perf_counter() - t0
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.phase = "check"
    accuracy = forest.score(ds.X_test, ds.y_test)
    fine = [p == prints[0] and accuracy >= TRAIN_ACCURACY_FLOOR for p in prints]
    good = sum(fine)
    rows = ds.X_train.shape[0] * TRAIN_TREES
    run = Run(
        workload="train",
        setup_s=setup.seconds,
        window_s=window,
        ops=[
            (t, lat, rows, 0) for t, lat, ok in zip(starts, latencies, fine) if ok
        ],
        rows=good * rows,
        attempted=len(prints),
        failed=len(prints) - good,
        busy_s=sum(latencies),
        probes=probe.samples,
        setup_probes=setup.probes,
        peak_rss_mb=rss,
    )
    run.detail.update(
        {
            "accuracy": accuracy,
            "nodes": prints[0][1],
            "fits": len(prints),
            "train_rows_per_s": run.rows / sum(latencies),
        }
    )
    return run


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fn: Callable
    #: Tail percentile of the unscaled latencies in the results file: the
    #: largest that keeps at least ten samples beyond it at the default run
    #: length (100, the maximum, where a run has a handful of operations).
    tail: float
    #: How strongly the workload slows when the speed probe does: operation
    #: times are scaled by (reference / probe) ** speed_exponent.  Measured
    #: over 28 runs on the shared 2-vCPU host: serving and training slow
    #: like the probe; batch scoring, large-array NumPy, about as its square
    #: root (spread across seeds 0.01-0.03 scaled this way, 0.03-0.14 at 1).
    speed_exponent: float = 1.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "serve-steady",
            "open loop at 250 then 1000 qps of 1-8 row requests: small "
            "batches, so the fixed cost per batch (front door, guard, oracle) "
            "dominates and traversal is a small share",
            serve_steady,
            99.0,
        ),
        Workload(
            "serve-saturated",
            "closed loop of 64 callers: batches sit at the 256-row cap, so "
            "per-row cost and batch formation set capacity",
            serve_saturated,
            99.0,
        ),
        Workload(
            "serve-degraded",
            "open loop at 100 qps with 25% of the trees corrupted: every batch "
            "takes the integrity-failure path and quorum vote",
            serve_degraded,
            95.0,
        ),
        Workload(
            "batch-offline",
            "scores 100k deep-tree rows per call, again and again: traversal "
            "dominates and the serving layers are bypassed",
            batch_offline,
            100.0,
            speed_exponent=0.5,
        ),
        Workload(
            "train",
            "fits a depth-30 forest on 20k rows, again and again: the only "
            "workload that exercises repro.forest",
            train,
            100.0,
        ),
    )
}
