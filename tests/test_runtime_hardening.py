"""Tests for runtime-layer hardening: the typed ExecutionError."""

import pytest

from repro.core.config import KernelVariant, RunConfig
from repro.datasets.profiles import make_synthetic_forest
from repro.reliability.faults import TransientKernelError
from repro.runtime import ExecutionError, RuntimeSession, compile_plan


@pytest.fixture(scope="module")
def workload():
    forest, X = make_synthetic_forest(
        n_trees=5, depth=8, n_features=10, n_queries=256, leaf_prob=0.12, seed=11
    )
    return forest, X


def failing_gate():
    raise TransientKernelError("injected launch failure")


class TestExecutionError:
    def test_backend_failure_carries_plan_context(self, workload):
        forest, X = workload
        session = RuntimeSession.from_forest(forest)
        plan = compile_plan(forest, RunConfig(variant=KernelVariant.HYBRID))
        with pytest.raises(ExecutionError) as err:
            session.run(plan, X, launch_gate=failing_gate)
        e = err.value
        assert e.plan is plan
        assert e.platform == "gpu"
        assert e.variant == "hybrid"
        assert isinstance(e.__cause__, TransientKernelError)
        assert str(e) == (
            f"plan {plan.label} failed: "
            "TransientKernelError: injected launch failure"
        )

    def test_clean_run_unaffected(self, workload):
        forest, X = workload
        session = RuntimeSession.from_forest(forest)
        plan = compile_plan(forest, RunConfig(variant=KernelVariant.HYBRID))
        res = session.run(plan, X)
        assert res.predictions.shape[0] == X.shape[0]
