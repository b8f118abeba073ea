"""Plan compilation and the cost-model autotuner.

:func:`compile_plan` is the explicit path: a caller's
:class:`~repro.core.config.RunConfig` maps 1:1 onto an
:class:`~repro.runtime.plan.ExecutionPlan` (the legacy ``classify()``
wiring, made explicit and serializable).

:class:`Planner` is the ``variant="auto"`` path.  Under ``trace="model"``
it enumerates candidate plans for the requested platform, scores them all
with the analytic cost model (:mod:`repro.runtime.cost`) from the work
counts of a seeded query sample, and returns the cheapest.  It runs no
simulation: the FPGA estimate is the simulator's own pricing of the
sample's counts.  Nothing is kept between calls: every step is
deterministic under a fixed seed (candidate order is fixed, ties break on
the plan's canonical JSON, and the sample comes from a seeded generator),
so a fresh planner re-tunes to the same plan.

Under ``trace="off"`` the autotuner has nothing to rank: every codec
compares the same decoded float32 thresholds, so the fastpath cost of
every candidate is the same.  Trace-off ``variant="auto"`` is therefore a
pure resolution over the candidates of the requested precision: the first
canonical plan JSON wins, with no profile or cost evaluation.  A memory
budget there counts the served edge table, which is the same size under
every codec, so it never widens the codec space.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TRACE_MODEL, TRACE_OFF, KernelVariant, Platform, RunConfig
from repro.fastpath import fastpath_predict
from repro.fpgasim.replication import FULL_4S12C, HYBRID_SPLIT_4S10C, Replication
from repro.kernels.traversal_stats import WorkloadProfile, profile_workload
from repro.layout.codec import PRECISIONS
from repro.layout.hierarchical import LayoutParams
from repro.obs.protocol import ensure_observer
from repro.runtime.cost import estimate_plan_cost, plan_footprint_bytes
from repro.runtime.plan import ExecutionPlan, PlanError
from repro.runtime.session import RuntimeSession
from repro.utils.rng import as_rng
from repro.utils.validation import array_crc32


def forest_fingerprint(trees: Sequence) -> int:
    """CRC32 over every tree's node arrays (order-sensitive)."""
    crc = 0
    for t in trees:
        crc = array_crc32(np.ascontiguousarray(t.feature, dtype=np.int32), crc)
        crc = array_crc32(np.ascontiguousarray(t.threshold, dtype=np.float32), crc)
        crc = array_crc32(np.ascontiguousarray(t.left_child, dtype=np.int32), crc)
        crc = array_crc32(np.ascontiguousarray(t.right_child, dtype=np.int32), crc)
        crc = array_crc32(np.ascontiguousarray(t.value, dtype=np.int32), crc)
    return crc


# ----------------------------------------------------------------------
# Explicit compilation
# ----------------------------------------------------------------------
def compile_plan(forest, config: RunConfig = RunConfig()) -> ExecutionPlan:
    """Map an explicit :class:`RunConfig` onto an :class:`ExecutionPlan`.

    ``forest`` (a fitted RandomForestClassifier, a tree list, or ``None``)
    is accepted for signature symmetry with the autotuner; explicit
    compilation needs only the config.  Raises :class:`PlanError` for
    (platform, variant) pairs with no registered kernel and for
    ``variant="auto"`` (which needs a :class:`Planner` and the queries).
    """
    if not isinstance(config, RunConfig):
        raise PlanError(f"compile_plan takes a RunConfig, got {type(config).__name__}")
    if config.variant is KernelVariant.AUTO:
        raise PlanError(
            'variant="auto" has no explicit plan — use Planner.plan(X, config) '
            "(or classify(), which routes auto configs through the planner)"
        )
    return ExecutionPlan(
        platform=config.platform.value,
        variant=config.variant.value,
        layout=config.layout,
        replication=config.replication,
        verify_integrity=config.verify_integrity,
        source="explicit",
        trace=config.trace,
        precision=config.precision,
    )


# ----------------------------------------------------------------------
# Autotuner
# ----------------------------------------------------------------------
#: Subtree depths enumerated for hierarchical variants; hybrid also tries
#: each extra root-subtree depth (the paper's RSD trick).
SD_CANDIDATES = (4, 6, 8)
HYBRID_RSD_EXTRA = (10,)


class Planner:
    """Chooses an :class:`ExecutionPlan` for a session's forest.

    Parameters
    ----------
    session:
        The :class:`RuntimeSession` whose trees, layouts and device specs
        the planner tunes for.
    probe_queries:
        Size of the seeded sample whose work counts the cost model scales.
    seed:
        Seeds the probe-sample draw (determinism of the whole decision).
    observer:
        Optional observability sink; ``on_plan(plan)`` fires when a plan
        is chosen (autotuned or resolved).
    """

    def __init__(
        self,
        session: RuntimeSession,
        probe_queries: int = 256,
        seed: int = 0,
        observer=None,
    ):
        self.session = session
        self.probe_queries = int(probe_queries)
        self.seed = int(seed)
        self.observer = observer
        #: Exact accounting of what each decision took (tests assert on it).
        #: ``probe_runs`` always reads 0; the e2e benchmark still reads it.
        self.stats: Dict[str, int] = {"cost_evaluations": 0, "probe_runs": 0}

    # ------------------------------------------------------------------
    def plan(self, X: np.ndarray, config: RunConfig = RunConfig()) -> ExecutionPlan:
        """Honor an explicit config, or autotune for ``variant="auto"``."""
        if config.variant is not KernelVariant.AUTO:
            return compile_plan(None, config)
        return self.autotune(
            X,
            platform=config.platform,
            verify_integrity=config.verify_integrity,
            trace=config.trace,
            precision=config.precision,
            memory_budget_bytes=config.memory_budget_bytes,
        )

    # ------------------------------------------------------------------
    def candidates(
        self,
        platform: Platform,
        trace: str = TRACE_MODEL,
        precisions: Tuple[str, ...] = ("float32",),
    ) -> List[ExecutionPlan]:
        """The deterministic candidate enumeration for one platform.

        The cuML baseline is excluded on purpose: it is the comparator the
        paper argues against, not a deployment choice of this system.
        With ``trace="off"`` every candidate carries the mode.  The default
        ``precisions`` keeps the historical float32-only space; a
        trace-model memory budget widens it to the full codec family (see
        :meth:`autotune`).
        """
        platform = Platform(platform)
        plans: List[ExecutionPlan] = []
        replications: Tuple[Replication, ...] = (Replication(),)
        if platform is Platform.FPGA:
            replications = (Replication(), FULL_4S12C)

        def add(variant: str, layout: LayoutParams, repl: Replication):
            for precision in precisions:
                plans.append(
                    ExecutionPlan(
                        platform=platform.value,
                        variant=variant,
                        layout=layout,
                        replication=repl,
                        trace=trace,
                        precision=precision,
                    )
                )

        for repl in replications:
            add("csr", LayoutParams(), repl)
            for sd in SD_CANDIDATES:
                add("independent", LayoutParams(sd), repl)
                add("collaborative", LayoutParams(sd), repl)
                for rsd in (sd,) + tuple(r for r in HYBRID_RSD_EXTRA if r != sd):
                    add("hybrid", LayoutParams(sd, rsd), repl)
        if platform is Platform.FPGA:
            for sd in SD_CANDIDATES:
                for rsd in (sd,) + tuple(r for r in HYBRID_RSD_EXTRA if r != sd):
                    add("hybrid", LayoutParams(sd, rsd), HYBRID_SPLIT_4S10C)
        return plans

    # ------------------------------------------------------------------
    def _probe_sample(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        if n <= self.probe_queries:
            return X
        rng = as_rng(self.seed)
        idx = np.sort(rng.choice(n, size=self.probe_queries, replace=False))
        return X[idx]

    def _profile_for(
        self, plan: ExecutionPlan, probe: np.ndarray, memo: Dict[Tuple, WorkloadProfile]
    ) -> WorkloadProfile:
        if plan.trace == TRACE_OFF:
            # The fastpath's cost reads only the visit count, and one launch
            # over the plan's own table reports it as lane-levels; the other
            # counts are never read under trace="off".
            if (TRACE_OFF,) not in memo:
                _, stats = fastpath_predict(self.session.layout_for(plan), probe)
                memo[(TRACE_OFF,)] = WorkloadProfile(
                    n_queries=int(probe.shape[0]),
                    visits=stats.lane_levels,
                    crossings=0,
                    stage1=0,
                    sum_levels=0,
                )
            return memo[(TRACE_OFF,)]
        # Hierarchical profiles depend on (sd, rsd); CSR/cuML costs only use
        # the layout-independent visit count, so any profile serves them —
        # keyed under the plan's own layout params to keep lookups trivial.
        key = (plan.layout.sd, plan.layout.rsd)
        if key not in memo:
            hier_plan = ExecutionPlan(
                platform=plan.platform if plan.platform != "cpu" else "gpu",
                variant="independent",
                layout=plan.layout,
                replication=plan.replication,
            )
            layout = self.session.layout_for(hier_plan)
            memo[key] = profile_workload(layout, probe)
        return memo[key]

    def estimate(
        self,
        plan: ExecutionPlan,
        probe: np.ndarray,
        n_queries: int,
        memo: Optional[Dict[Tuple, WorkloadProfile]] = None,
    ) -> float:
        """Analytic cost of one candidate over ``n_queries``, seconds."""
        if memo is None:
            memo = {}
        counts = self._profile_for(plan, probe, memo).scaled(n_queries)
        layout = self.session.layout_for(plan)
        footprint = plan_footprint_bytes(plan, layout, self.session.trees)
        self.stats["cost_evaluations"] += 1
        return estimate_plan_cost(
            plan,
            counts,
            layout,
            footprint,
            self.session.gpu,
            self.session.fpga,
        )

    # ------------------------------------------------------------------
    def autotune(
        self,
        X: np.ndarray,
        platform: Platform = Platform.GPU,
        verify_integrity: bool = False,
        trace: str = TRACE_MODEL,
        precision: str = "float32",
        memory_budget_bytes: Optional[int] = None,
    ) -> ExecutionPlan:
        """Pick the cheapest plan for this (forest, workload, platform).

        Every candidate is ranked by its cost estimate over ``X``; ties
        break on the canonical plan JSON.

        With ``memory_budget_bytes`` set, candidates whose footprint
        (:func:`~repro.runtime.cost.plan_footprint_bytes`) exceeds the
        budget are dropped before ranking.  Under ``trace="model"``, when
        ``precision`` is left at its float32 default, the budget also
        widens the candidate space to every codec so the planner can
        quantize its way under the ceiling.  If nothing fits, the
        smallest-footprint candidate wins (the least-bad answer beats
        refusing to plan).

        ``trace="off"`` resolves without tuning over the requested
        precision only: a served plan is charged its edge table, which no
        codec shrinks.  The first canonical plan JSON wins; only the
        budget filter builds layouts.
        """
        platform = Platform(platform)
        X = np.ascontiguousarray(X, dtype=np.float32)
        widen = trace == TRACE_MODEL and memory_budget_bytes is not None
        precisions = PRECISIONS if widen and precision == "float32" else (precision,)
        pool = self._within_budget(
            self.candidates(platform, trace, precisions), memory_budget_bytes
        )
        if trace == TRACE_OFF:
            best = min(pool, key=ExecutionPlan.to_json)
            plan = replace(best, verify_integrity=verify_integrity, source="resolved")
            self._notify(plan)
            return plan

        probe = self._probe_sample(X)
        n_queries = int(X.shape[0])
        memo: Dict[Tuple, WorkloadProfile] = {}
        scored = [
            (self.estimate(plan, probe, n_queries, memo), plan.to_json(), plan)
            for plan in pool
        ]
        best_cost, _, best = min(scored, key=lambda item: item[:2])
        plan = replace(
            best,
            verify_integrity=verify_integrity,
            source="autotuned",
            cost_estimate_s=best_cost,
        )
        self._notify(plan)
        return plan

    # ------------------------------------------------------------------
    def _footprint(self, plan: ExecutionPlan) -> int:
        """Device bytes of a candidate (builds/caches its layout)."""
        layout = self.session.layout_for(plan)
        return plan_footprint_bytes(plan, layout, self.session.trees)

    def _within_budget(
        self, pool: List[ExecutionPlan], budget: Optional[int]
    ) -> List[ExecutionPlan]:
        """The candidates whose footprint fits ``budget`` bytes.

        If none fits, only the smallest-footprint candidate.  Builds every
        candidate's layout (:meth:`_footprint` needs one); under
        ``trace="off"`` no other planning step builds any.
        """
        if budget is None:
            return pool
        footprints = {plan.to_json(): self._footprint(plan) for plan in pool}
        fitting = [p for p in pool if footprints[p.to_json()] <= budget]
        if fitting:
            return fitting
        return [min(pool, key=lambda p: (footprints[p.to_json()], p.to_json()))]

    def _notify(self, plan: ExecutionPlan) -> None:
        if self.observer is not None:
            ensure_observer(self.observer).on_plan(plan)
