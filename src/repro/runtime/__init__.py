"""The unified runtime layer: plans, backends, planner, session.

Execution is split into an explicit seam (paper §4's observation that the
best layout/variant/platform combination depends on forest shape and
workload, made operational):

* :class:`~repro.runtime.plan.ExecutionPlan` — a serializable, replayable
  description of *how* to run one classification.
* :class:`~repro.runtime.backends.Backend` adapters (GPU / FPGA / CPU) —
  own device specs, layout construction and kernel instantiation from the
  shared registry in :mod:`repro.kernels`.
* :func:`~repro.runtime.planner.compile_plan` /
  :class:`~repro.runtime.planner.Planner` — explicit configs map 1:1 onto
  plans; ``variant="auto"`` autotunes with an analytic cost model plus
  seeded probe runs, cached under ``results/plan_cache/`` — or, under
  ``trace="off"``, resolves to one plan without tuning.
* :class:`~repro.runtime.session.RuntimeSession` — executes each plan as
  one launch and returns its :class:`~repro.core.results.RunResult`.

See ``docs/architecture.md`` §9 for the dataflow.
"""

from repro.runtime.backends import (
    Backend,
    BackendOutput,
    CPUBackend,
    FPGABackend,
    GPUBackend,
    default_backends,
)
from repro.runtime.cost import (
    WorkloadProfile,
    estimate_plan_cost,
    profile_workload,
)
from repro.runtime.plan import CPU_PLATFORM, ExecutionPlan, PlanError
from repro.runtime.planner import (
    Planner,
    compile_plan,
    dataset_profile,
    default_plan_cache_dir,
    forest_fingerprint,
)
from repro.runtime.session import ExecutionError, RuntimeSession

__all__ = [
    "Backend",
    "BackendOutput",
    "CPUBackend",
    "FPGABackend",
    "GPUBackend",
    "default_backends",
    "WorkloadProfile",
    "estimate_plan_cost",
    "profile_workload",
    "CPU_PLATFORM",
    "ExecutionPlan",
    "PlanError",
    "Planner",
    "compile_plan",
    "dataset_profile",
    "default_plan_cache_dir",
    "forest_fingerprint",
    "ExecutionError",
    "RuntimeSession",
]
