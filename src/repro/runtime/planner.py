"""Plan compilation and the cost-model autotuner.

:func:`compile_plan` is the explicit path: a caller's
:class:`~repro.core.config.RunConfig` maps 1:1 onto an
:class:`~repro.runtime.plan.ExecutionPlan` (the legacy ``classify()``
wiring, made explicit and serializable).

:class:`Planner` is the ``variant="auto"`` path.  Under ``trace="model"``
it enumerates candidate plans for the requested platform, scores them all
with the analytic cost model (:mod:`repro.runtime.cost`), refines the
top-k with short simulated probe runs on a seeded query sample, and
caches the winner under
``results/plan_cache/`` keyed by (forest fingerprint, dataset profile) —
a cache hit replays the stored plan without any probes.  Every step is
deterministic under a fixed seed: candidate order is fixed, ties break on
the plan's canonical JSON, and the probe sample comes from a seeded
generator.

Under ``trace="off"`` the autotuner has nothing to rank: every codec
compares the same decoded float32 thresholds, so the fastpath cost of
every candidate is the same.  Trace-off ``variant="auto"`` is therefore a
pure resolution over the same candidates: the most precise codec by
:data:`TRACE_OFF_CODEC_RANK`, ties broken on the canonical JSON, with no
profile, cost evaluation, probe run or plan-cache file.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TRACE_MODEL, TRACE_OFF, KernelVariant, Platform, RunConfig
from repro.fpgasim.replication import FULL_4S12C, HYBRID_SPLIT_4S10C, Replication
from repro.layout.hierarchical import LayoutParams
from repro.obs.protocol import ensure_observer
from repro.runtime.cost import (
    WorkloadProfile,
    estimate_plan_cost,
    plan_footprint_bytes,
    profile_workload,
)
from repro.runtime.plan import ExecutionPlan, PlanError
from repro.runtime.session import RuntimeSession
from repro.utils.rng import as_rng
from repro.utils.validation import array_crc32


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
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


def dataset_profile(X: np.ndarray) -> Tuple[int, int, int]:
    """(n_queries, n_features, sample CRC) identifying a query workload."""
    X = np.ascontiguousarray(X, dtype=np.float32)
    step = max(1, X.shape[0] // 32)
    sample = X[::step][:32]
    return (int(X.shape[0]), int(X.shape[1]), array_crc32(sample))


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

#: Trace-off codec preference, lowest first.  A budget that float32 cannot
#: meet falls back to float16, then to int8 and packed, which tie: their
#: thresholds decode the same way, so the canonical plan JSON decides
#: between them and between layouts of one rank.
TRACE_OFF_CODEC_RANK = {"float32": 0, "float16": 1, "int8": 2, "packed": 2}


def default_plan_cache_dir() -> str:
    """``REPRO_PLAN_CACHE_DIR`` or ``<repo>/results/plan_cache``."""
    path = os.environ.get("REPRO_PLAN_CACHE_DIR")
    if path is None:
        here = os.path.dirname(os.path.abspath(__file__))
        repo = os.path.dirname(os.path.dirname(os.path.dirname(here)))
        path = os.path.join(repo, "results", "plan_cache")
    return path


class Planner:
    """Chooses an :class:`ExecutionPlan` for a session's forest.

    Parameters
    ----------
    session:
        The :class:`RuntimeSession` whose trees and device specs the
        planner tunes for (probe runs execute through it).
    cache_dir:
        Plan-cache directory (``None`` = :func:`default_plan_cache_dir`).
    probe_queries:
        Size of the seeded sample used for cost profiling and probe runs.
    top_k:
        How many cost-ranked candidates get a real probe run.
    seed:
        Seeds the probe-sample draw (determinism of the whole decision).
    observer:
        Optional observability sink; ``on_plan(plan)`` fires when a plan
        is chosen (autotuned, resolved, or replayed from cache).
    """

    def __init__(
        self,
        session: RuntimeSession,
        cache_dir: Optional[str] = None,
        probe_queries: int = 256,
        top_k: int = 2,
        seed: int = 0,
        observer=None,
    ):
        self.session = session
        self.cache_dir = cache_dir
        self.probe_queries = int(probe_queries)
        self.top_k = int(top_k)
        self.seed = int(seed)
        self.observer = observer
        #: Exact accounting of what each decision took (tests assert on it).
        self.stats: Dict[str, int] = {
            "cost_evaluations": 0,
            "probe_runs": 0,
            "cache_hits": 0,
            "cache_writes": 0,
            "cache_evictions": 0,
        }

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
        ``precisions`` keeps the historical float32-only space; a memory
        budget widens it to the full codec family (see :meth:`autotune`).
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
        """Analytic cost of one candidate, seconds."""
        if memo is None:
            memo = {}
        profile = self._profile_for(plan, probe, memo)
        layout = self.session.layout_for(plan)
        footprint = plan_footprint_bytes(plan, layout, self.session.trees)
        self.stats["cost_evaluations"] += 1
        return estimate_plan_cost(
            plan,
            profile,
            n_queries,
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

        With ``memory_budget_bytes`` set, candidates whose layout
        footprint exceeds the budget are dropped before ranking; when
        ``precision`` is left at its float32 default, the budget also
        widens the candidate space to every codec so the planner can
        quantize its way under the ceiling.  If nothing fits, the
        smallest-footprint candidate wins (the least-bad answer beats
        refusing to plan).

        ``trace="off"`` resolves without tuning: the candidate whose
        codec ranks lowest in :data:`TRACE_OFF_CODEC_RANK` wins, ties
        broken on the plan's canonical JSON.  Only the budget filter
        builds layouts, and nothing is cached.
        """
        platform = Platform(platform)
        X = np.ascontiguousarray(X, dtype=np.float32)
        if trace != TRACE_OFF:
            cache_path = self._cache_path(
                X, platform, precision, memory_budget_bytes
            )
            cached = self._load_cached(cache_path)
            if cached is not None:
                self.stats["cache_hits"] += 1
                plan = self._finalize(cached, verify_integrity, source="cache")
                self._notify(plan)
                return plan

        if memory_budget_bytes is not None and precision == "float32":
            from repro.layout.codec import PRECISIONS

            precisions: Tuple[str, ...] = tuple(PRECISIONS)
        else:
            precisions = (precision,)
        pool = self._within_budget(
            self.candidates(platform, trace, precisions), memory_budget_bytes
        )
        if trace == TRACE_OFF:
            best = min(
                pool,
                key=lambda p: (TRACE_OFF_CODEC_RANK[p.precision], p.to_json()),
            )
            plan = self._finalize(best, verify_integrity, source="resolved")
            self._notify(plan)
            return plan

        probe = self._probe_sample(X)
        n_queries = int(X.shape[0])
        memo: Dict[Tuple, WorkloadProfile] = {}
        scored = [
            (self.estimate(plan, probe, n_queries, memo), plan.to_json(), plan)
            for plan in pool
        ]
        scored.sort(key=lambda item: (item[0], item[1]))
        finalists = scored[: max(1, self.top_k)]

        probed = []
        for cost, key, plan in finalists:
            res = self.session.run(plan, probe, config=plan.to_run_config())
            self.stats["probe_runs"] += 1
            probed.append((res.seconds, key, cost, plan))
        probed.sort(key=lambda item: (item[0], item[1]))
        _, _, best_cost, best = probed[0]

        chosen = ExecutionPlan(
            platform=best.platform,
            variant=best.variant,
            layout=best.layout,
            replication=best.replication,
            source="autotuned",
            cost_estimate_s=best_cost,
            trace=best.trace,
            precision=best.precision,
        )
        self._store_cached(cache_path, chosen)
        plan = self._finalize(chosen, verify_integrity, source="autotuned")
        self._notify(plan)
        return plan

    # ------------------------------------------------------------------
    def _footprint(self, plan: ExecutionPlan) -> int:
        """Device bytes of a candidate's layout (builds/caches the layout)."""
        layout = self.session.layout_for(plan)
        return plan_footprint_bytes(plan, layout, self.session.trees)

    def _within_budget(
        self, pool: List[ExecutionPlan], budget: Optional[int]
    ) -> List[ExecutionPlan]:
        """The candidates whose layout fits ``budget`` bytes.

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

    def _finalize(
        self, plan: ExecutionPlan, verify_integrity: bool, source: str
    ) -> ExecutionPlan:
        return ExecutionPlan(
            platform=plan.platform,
            variant=plan.variant,
            layout=plan.layout,
            replication=plan.replication,
            verify_integrity=verify_integrity,
            source=source,
            cost_estimate_s=plan.cost_estimate_s,
            trace=plan.trace,
            precision=plan.precision,
        )

    def _notify(self, plan: ExecutionPlan) -> None:
        if self.observer is not None:
            ensure_observer(self.observer).on_plan(plan)

    # ------------------------------------------------------------------
    # Plan cache
    # ------------------------------------------------------------------
    def _cache_path(
        self,
        X: np.ndarray,
        platform: Platform,
        precision: str = "float32",
        memory_budget_bytes: Optional[int] = None,
    ) -> str:
        root = self.cache_dir or default_plan_cache_dir()
        fp = forest_fingerprint(self.session.trees)
        nq, nf, xcrc = dataset_profile(X)
        # A pinned precision or a memory budget changes the candidate
        # space, so each (precision, budget) combination caches separately
        # — the default combination keeps the historical filename.
        prec = f"_{precision}" if precision != "float32" else ""
        budget = (
            f"_b{int(memory_budget_bytes)}"
            if memory_budget_bytes is not None
            else ""
        )
        name = (
            f"plan_{platform.value}_f{fp:08x}{prec}{budget}"
            f"_q{nq}_d{nf}_x{xcrc:08x}"
            f"_p{self.probe_queries}_s{self.seed}.json"
        )
        return os.path.join(root, name)

    def _load_cached(self, path: str) -> Optional[ExecutionPlan]:
        if not os.path.exists(path):
            return None
        try:
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
            return ExecutionPlan.from_dict(data["plan"])
        except (OSError, ValueError, KeyError) as e:
            # A corrupt/truncated cache entry (interrupted write, bit rot)
            # must never poison planning: warn, evict the bad file, and let
            # the caller re-probe.  The atomic-rename writer makes this
            # path rare, not impossible (e.g. external truncation).
            print(
                f"[plan cache] discarding corrupt entry "
                f"{os.path.basename(path)}: {type(e).__name__}: {e}"
            )
            self.stats["cache_evictions"] += 1
            try:
                os.remove(path)
            except OSError:
                pass  # eviction is best-effort; retuning overwrites anyway
            return None

    def _store_cached(self, path: str, plan: ExecutionPlan) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "version": 1,
            "forest_fingerprint": forest_fingerprint(self.session.trees),
            "probe_queries": self.probe_queries,
            "seed": self.seed,
            "plan": plan.as_dict(),
        }
        # Write-then-rename so a crash mid-write leaves either the old
        # entry or none — never a truncated JSON a later run must evict.
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
        self.stats["cache_writes"] += 1
