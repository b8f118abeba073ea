#!/usr/bin/env python
"""Resilient serving: keep a fraud-detection stream answering under faults.

A fraud-scoring service cannot return "sorry, the accelerator is down" — it
answers every request or it pages someone.  This demo streams transactions
through a :class:`~repro.reliability.guard.ResilientClassifier` while a
seeded :class:`~repro.reliability.faults.FaultPlan` injects the failure
modes a real deployment sees:

1. a clean warm-up window (baseline accuracy and latency),
2. transient kernel-launch failures (retried with backoff, then the
   GPU -> FPGA -> CPU fallback ladder),
3. mid-stream buffer corruption of the device-resident forest — the CPU
   oracle rejects the batches it changes, checksums name the poisoned
   trees, they are dropped, and the surviving quorum keeps voting,
4. a hang storm that trips the per-call deadline and the circuit breaker.

The punchline is the final table: availability stays at 100% throughout,
and degraded-quorum accuracy stays within a few points of the clean run —
the trade the reliability subsystem is designed to make.

Run:  python examples/resilient_serving.py
"""

import numpy as np

from repro import (
    FaultPlan,
    HierarchicalForestClassifier,
    ResilientClassifier,
    RunConfig,
    load_dataset,
)
from repro.utils.tables import format_table


def main() -> None:
    print("Training the fraud-profile forest (Higgs workload, scaled)...")
    ds = load_dataset("higgs", rows=8000)
    clf = HierarchicalForestClassifier(n_estimators=15, max_depth=10, seed=0)
    clf.fit(ds.X_train, ds.y_train)

    plan = FaultPlan(seed=7, launch_fail_rate=0.35, launch_hang_rate=0.15)
    guard = ResilientClassifier(
        clf,
        deadline_s=1.0,
        fault_plan=None,  # phase 1 runs clean; faults arm later
        seed=7,
        min_quorum_fraction=0.5,
    )
    config = RunConfig(variant="hybrid")

    X, y = ds.X_test, ds.y_test
    batch = 256
    phases = {
        "clean warm-up": range(0, 4),
        "transient launch faults": range(4, 8),
        "buffer corruption (degraded quorum)": range(8, 12),
        "hang storm (deadline + breaker)": range(12, 16),
    }

    rows = []
    for phase, batches in phases.items():
        if phase == "transient launch faults":
            guard.fault_plan = plan
        elif phase == "buffer corruption (degraded quorum)":
            guard.fault_plan = None
            layout = clf.layout_for(config)
            hit = FaultPlan(seed=11).corrupt_layout(layout, 0.25)
            print(f"  !! bit flips land in trees {list(hit)}")
        elif phase == "hang storm (deadline + breaker)":
            # Ops repaired the corruption: re-upload a clean forest.
            clf.invalidate_layouts()
            guard.fault_plan = FaultPlan(
                seed=13, launch_hang_rate=1.0, hang_seconds=60.0
            )

        served = correct = total = 0
        attempts = retries = dropped = 0
        depths = []
        for b in batches:
            lo, hi = b * batch, min((b + 1) * batch, X.shape[0])
            res = guard.classify(X[lo:hi], config, y_true=y[lo:hi])
            r = res.reliability
            served += 1
            total += hi - lo
            correct += int(round(res.accuracy * (hi - lo)))
            attempts += r.attempts
            retries += r.retries
            dropped = max(dropped, len(r.dropped_trees))
            depths.append(r.fallback_depth)
        rows.append(
            [
                phase,
                f"{served}/{len(batches)}",
                f"{correct / total:.4f}",
                attempts,
                retries,
                dropped,
                max(depths),
            ]
        )

    print(
        "\n"
        + format_table(
            [
                "phase",
                "answered",
                "accuracy",
                "attempts",
                "retries",
                "trees dropped",
                "max fallback",
            ],
            rows,
            title="Fraud stream under injected faults (availability held)",
        )
    )
    from repro.core.config import Platform

    gpu_breaker = guard.breakers[Platform.GPU]
    print(f"\nGPU breaker transitions: {gpu_breaker.transitions}")
    print(
        "Every request was answered; corruption cost accuracy only while "
        "the quorum voted without the dropped trees."
    )


if __name__ == "__main__":
    main()
