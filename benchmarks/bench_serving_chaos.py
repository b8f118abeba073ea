"""Serving-layer soak bench: clean-path overhead and chaos determinism.

The serving front door is pure orchestration — admission, queuing,
batching, bookkeeping — so its acceptance bars are:

1. A fault-free replay serves every admitted request with predictions
   identical to the authoritative host trees (zero wrong answers), and
   never answers past a deadline.
2. The whole pipeline is deterministic: replaying the same seeded chaos
   scenario twice yields byte-identical survivability reports.
3. Wall-clock per served request through the whole simulated stack stays
   bounded (kernel simulation and reference verification dominate; the
   front door's own bookkeeping must stay noise on top of them).
"""

import json

import numpy as np

from benchmarks.conftest import run_once
from repro.core.classifier import HierarchicalForestClassifier
from repro.forest.tree import random_tree
from repro.reliability import ResilientClassifier
from repro.serving import (
    AdmissionPolicy,
    ChaosScenario,
    ServingFrontDoor,
    TrafficProfile,
    generate_trace,
    run_scenario,
    wrong_answer_ids,
)
from repro.utils.clock import SimulatedClock, Stopwatch
from repro.utils.tables import format_table


def _trees():
    rng = np.random.default_rng(23)
    return [random_tree(rng, 16, 12, leaf_prob=0.2, min_nodes=3) for _ in range(12)]


def _run():
    trees = _trees()
    rng = np.random.default_rng(29)
    X_pool = rng.standard_normal((2048, 16)).astype(np.float32)

    # --- clean-path replay through the front door --------------------
    clf = HierarchicalForestClassifier.from_trees(trees, 16)
    guard = ResilientClassifier(clf)
    clock = SimulatedClock()
    front = ServingFrontDoor(
        guard,
        clock=clock,
        admission=AdmissionPolicy(rate_qps=5000.0, burst=256.0),
        probe_X=X_pool[:64],
    )
    profile = TrafficProfile(
        name="bench", duration_s=0.5, base_qps=400.0, deadline_s=0.5
    )
    trace = generate_trace(profile, seed=7)
    watch = Stopwatch()
    requests = {}
    responses = []
    cursor = 0
    for arrival in trace:
        if arrival.at_s > clock.now():
            clock.advance(arrival.at_s - clock.now())
        lo = cursor % (X_pool.shape[0] - arrival.rows)
        cursor += arrival.rows
        req = front.try_submit(
            X_pool[lo : lo + arrival.rows], deadline_s=arrival.deadline_s
        )
        if req is not None:
            requests[req.request_id] = req
        responses.extend(front.pump())
    responses.extend(front.drain())
    wall_s = watch.elapsed()

    served = [r for r in responses if r.ok]
    divergence = wrong_answer_ids(front, requests, responses)
    wrong = sum(len(ids) for ids in divergence.values())
    late = sum(
        resp.finish_s > requests[resp.request_id].deadline_s
        for resp in served
        if requests[resp.request_id].deadline_s is not None
    )

    # --- chaos determinism -------------------------------------------
    scenario = ChaosScenario(
        name="bench-storm",
        custom=TrafficProfile(
            name="bench-storm",
            duration_s=0.3,
            base_qps=300.0,
            shape="bursty",
            deadline_s=0.05,
        ),
        traffic_seed=3,
        fault_seed=5,
        tree_corruption_rate=0.2,
        launch_fail_rate=0.1,
    )
    rep_a = run_scenario(
        HierarchicalForestClassifier.from_trees(trees, 16), X_pool, scenario
    )
    rep_b = run_scenario(
        HierarchicalForestClassifier.from_trees(trees, 16), X_pool, scenario
    )
    deterministic = json.dumps(rep_a, sort_keys=True) == json.dumps(
        rep_b, sort_keys=True
    )

    return {
        "requests_offered": len(trace),
        "requests_served": len(served),
        "batches": front.stats.batches,
        "wall_seconds_total": wall_s,
        "wall_ms_per_request": 1e3 * wall_s / max(1, len(served)),
        "wrong_answers": wrong,
        "served_late": late,
        "chaos_deterministic": deterministic,
        "chaos_wrong_answers": rep_a["correctness"]["wrong_answers"],
    }


def test_serving_chaos_overhead(benchmark):
    out = run_once(benchmark, _run)
    print(
        "\n"
        + format_table(
            ["metric", "value"],
            [[k, v] for k, v in out.items()],
            title="Serving: front-door overhead and chaos determinism",
            float_digits=6,
        )
    )
    assert out["requests_served"] > 0
    # Correctness bars: no wrong answers, no late answers, ever.
    assert out["wrong_answers"] == 0
    assert out["served_late"] == 0
    assert out["chaos_wrong_answers"] == 0
    # Replaying the same seeds must reproduce the identical report.
    assert out["chaos_deterministic"]
    # Wall clock per request through the full simulated stack (kernel
    # roofline sim + CPU-reference verification dominate; the front door's
    # own bookkeeping is noise on top).  Generous bound; typical is ~5 ms.
    assert out["wall_ms_per_request"] < 50.0