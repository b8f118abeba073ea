#!/usr/bin/env python
"""Scenario: serving with ``variant="auto"`` — let the planner decide.

The paper's core finding is that the best (variant, layout, replication)
combination depends on the forest shape and the workload; picking it by
hand means re-running the Fig. 7 / Fig. 9 sweeps for every deployment.
This example shows the runtime layer doing that automatically: the
:class:`~repro.runtime.Planner` scores every registered candidate with an
analytic cost model over a seeded query sample's work counts and returns
the cheapest :class:`~repro.runtime.ExecutionPlan`, without running any
simulation.  The planner keeps no state: every step is seeded, so a
fresh planner re-tunes to the same plan.

Run:  python examples/autotuned_serving.py
"""

from repro import HierarchicalForestClassifier, RunConfig, load_dataset
from repro.obs import ObsSession
from repro.runtime import Planner, RuntimeSession
from repro.utils.tables import format_table


def main() -> None:
    print("Training a Susy-profile forest...")
    ds = load_dataset("susy", rows=8_000)
    clf = HierarchicalForestClassifier(n_estimators=12, max_depth=15, seed=0)
    clf.fit(ds.X_train, ds.y_train)
    X = ds.X_test

    # ------------------------------------------------------------------
    # 1. What the planner sees: the cost-ranked candidate table.
    # ------------------------------------------------------------------
    obs = ObsSession()
    session = RuntimeSession.from_forest(clf.forest)
    planner = Planner(session, observer=obs)
    probe = planner._probe_sample(X)
    scored = sorted(
        ((planner.estimate(p, probe, X.shape[0]), p)
         for p in planner.candidates("gpu")),
        key=lambda item: (item[0], item[1].to_json()),
    )
    print(
        format_table(
            ["rank", "candidate", "modelled seconds"],
            [
                [i + 1, plan.label, f"{cost:.6f}"]
                for i, (cost, plan) in enumerate(scored[:6])
            ],
            title="Cost model's top GPU candidates (of %d)" % len(scored),
        )
    )

    # ------------------------------------------------------------------
    # 2. The one-liner a serving deployment actually writes.
    # ------------------------------------------------------------------
    baseline = clf.classify(X, RunConfig(variant="csr"))
    auto = clf.classify(X, RunConfig(variant="auto"), y_true=ds.y_test)
    print(f'variant="auto" resolved to: {auto.config.label}')
    print(
        f"  {auto.seconds * 1e3:.3f} simulated ms "
        f"({auto.speedup_over(baseline):.2f}x over CSR), "
        f"accuracy {auto.accuracy:.3f}"
    )

    # ------------------------------------------------------------------
    # 3. A fresh planner re-tunes to the same plan JSON.
    # ------------------------------------------------------------------
    first = planner.autotune(X)
    fresh = Planner(session, observer=obs)
    plan = fresh.autotune(X)
    print(
        f"fresh planner: plan came from {plan.source!r} "
        f"({fresh.stats['cost_evaluations']} cost evals), "
        f"same JSON as the first: {plan.to_json() == first.to_json()}"
    )
    print(f"plan JSON: {plan.to_json()}")
    decisions = sum(
        v for _, v in obs.registry.counter("plan.chosen", "").samples()
    )
    print(f"\nplanner decisions recorded by the observer: {decisions:g}")


if __name__ == "__main__":
    main()
