"""Golden + property tests for the trace-off fast path.

The contract under test (ISSUE 7 acceptance):

* ``trace="off"`` predictions are bit-identical to the trace path AND the
  CPU host-tree oracle on every registered (platform, variant) pair;
* the mode survives the full plan lifecycle — RunConfig validation,
  ExecutionPlan JSON round-trip, the planner's trace-off resolution, the
  guard's fallback ladder, and the serving front door;
* fastpath launches are observable (``fastpath.*`` counter family) and
  their modelled seconds are deterministic.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.cpu_reference import reference_predict
from repro.baselines.cuml_fil import FILForest
from repro.core.classifier import HierarchicalForestClassifier
from repro.core.config import (
    TRACE_MODEL,
    TRACE_MODES,
    TRACE_OFF,
    KernelVariant,
    Platform,
    RunConfig,
)
from repro.fastpath import (
    FASTPATH_LAUNCH_OVERHEAD_S,
    FASTPATH_SECONDS_PER_LANE_LEVEL,
    family_for_variant,
    fastpath_predict,
    fastpath_seconds,
    supports_variant,
)
from repro.fastpath.engine import FASTPATH_CHUNK_LANES, select_trees, traverse_edges
from repro.fastpath.hierpath import build_edges
from repro.forest.tree import LEAF, random_tree
from repro.fpgasim.replication import Replication
from repro.kernels import registered_pairs
from repro.layout.codec import PRECISIONS, quantize_trees
from repro.layout.csr import CSRForest
from repro.layout.hierarchical import HierarchicalForest, LayoutParams
from repro.obs import ObsSession
from repro.reliability import ResilientClassifier
from repro.runtime.cost import plan_footprint_bytes
from repro.runtime.plan import ExecutionPlan, PlanError
from repro.runtime.planner import Planner, compile_plan
from repro.runtime.session import RuntimeSession
from repro.serving import ServingFrontDoor
from repro.utils.clock import SimulatedClock

ALL_PAIRS = registered_pairs()


@pytest.fixture(scope="module")
def session(small_trees):
    return RuntimeSession(small_trees)


@pytest.fixture(scope="module")
def oracle(small_trees, queries):
    return reference_predict(small_trees, queries)


def _plan(platform, variant, trace=TRACE_OFF, **kw):
    return compile_plan(
        None, RunConfig(platform=platform, variant=variant, trace=trace, **kw)
    )


# ----------------------------------------------------------------------
# Golden equivalence
# ----------------------------------------------------------------------
class TestGoldenEquivalence:
    @pytest.mark.parametrize("platform,variant", ALL_PAIRS)
    def test_bit_identical_to_trace_path_and_oracle(
        self, session, queries, oracle, platform, variant
    ):
        fast = session.run(_plan(platform, variant), queries)
        model = session.run(_plan(platform, variant, trace=TRACE_MODEL), queries)
        assert np.array_equal(fast.predictions, oracle)
        assert np.array_equal(fast.predictions, model.predictions)
        assert fast.predictions.dtype == model.predictions.dtype

    @pytest.mark.parametrize("platform,variant", ALL_PAIRS)
    def test_single_row_batch(self, session, queries, oracle, platform, variant):
        fast = session.run(_plan(platform, variant), queries[:1])
        assert np.array_equal(fast.predictions, oracle[:1])

    def test_empty_batch_every_family(self, small_trees, queries):
        ref_dtype = reference_predict(small_trees, queries[:1]).dtype
        layouts = (
            HierarchicalForest.from_trees(small_trees, LayoutParams(4, 8)),
            CSRForest.from_trees(small_trees),
            FILForest.from_trees(small_trees),
        )
        for layout in layouts:
            preds, stats = fastpath_predict(layout, queries[:0])
            assert preds.shape == (0,)
            assert preds.dtype == ref_dtype
            assert stats.levels == 0
            assert stats.lane_levels == 0
            assert stats.frontier_occupancy == 0.0

    def test_deep_trees_all_families(self, deep_trees, queries16):
        ref = reference_predict(deep_trees, queries16)
        layouts = (
            HierarchicalForest.from_trees(deep_trees, LayoutParams(3, 6)),
            CSRForest.from_trees(deep_trees),
            FILForest.from_trees(deep_trees),
        )
        for layout in layouts:
            preds, _ = fastpath_predict(layout, queries16)
            assert np.array_equal(preds, ref)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_seeded_random_forests_property(self, seed):
        """Fresh random topologies + queries: fastpath == oracle, always."""
        rng = np.random.default_rng(seed)
        n_features = int(rng.integers(4, 20))
        trees = [
            random_tree(rng, n_features, int(rng.integers(3, 12)),
                        leaf_prob=0.25, min_nodes=3)
            for _ in range(int(rng.integers(1, 12)))
        ]
        X = rng.standard_normal(
            (int(rng.integers(1, 200)), n_features)
        ).astype(np.float32)
        ref = reference_predict(trees, X)
        sd = int(rng.integers(2, 7))
        layouts = (
            HierarchicalForest.from_trees(trees, LayoutParams(sd, sd + 2)),
            CSRForest.from_trees(trees),
            FILForest.from_trees(trees),
        )
        for layout in layouts:
            preds, stats = fastpath_predict(layout, X)
            assert np.array_equal(preds, ref)
            assert 0.0 < stats.frontier_occupancy <= 1.0


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------
class TestFastpathEngine:
    def test_family_mapping(self):
        assert family_for_variant("hybrid") == "hier"
        assert family_for_variant("independent") == "hier"
        assert family_for_variant("collaborative") == "hier"
        assert family_for_variant("csr") == "csr"
        assert family_for_variant("cuml") == "fil"
        assert family_for_variant(KernelVariant.HYBRID) == "hier"
        assert supports_variant("csr")
        assert not supports_variant("auto")
        with pytest.raises(KeyError):
            family_for_variant("auto")

    def test_unknown_layout_type_raises(self, queries):
        with pytest.raises(TypeError):
            fastpath_predict(object(), queries)

    def test_tree_mask_votes_over_selected_trees(self, small_trees, queries):
        keep = np.array([0, 3, 4, 8])
        mask = np.isin(np.arange(len(small_trees)), keep)
        ref = reference_predict([small_trees[t] for t in keep], queries)
        for layout in (
            HierarchicalForest.from_trees(small_trees, LayoutParams(4, 8)),
            CSRForest.from_trees(small_trees),
            FILForest.from_trees(small_trees),
        ):
            assert layout._fastpath_edges is not None  # lowered by from_trees
            preds, stats = fastpath_predict(layout, queries, trees=keep)
            assert np.array_equal(preds, ref)
            assert (stats.trees, stats.lanes) == (4, queries.shape[0] * 4)
            assert np.array_equal(fastpath_predict(layout, queries, trees=mask)[0], ref)

    def test_too_narrow_X_raises_before_any_launch(self, small_trees, queries):
        """A lane reads feature ``f`` of row ``r`` at flat offset
        ``r * width + f``, so an ``X`` without a column for the forest's
        largest split feature would read the next row's values."""
        top = max(int(t.feature.max()) for t in small_trees)
        narrow = np.ascontiguousarray(queries[:, :top])
        for layout in (
            HierarchicalForest.from_trees(small_trees, LayoutParams(4, 8)),
            CSRForest.from_trees(small_trees),
            FILForest.from_trees(small_trees),
        ):
            assert layout._fastpath_edges.max_feature == top
            with pytest.raises(ValueError, match=f"splits on feature {top}"):
                fastpath_predict(layout, narrow)
        clf = HierarchicalForestClassifier.from_trees(
            small_trees, queries.shape[1], verify_against_reference=False
        )
        config = RunConfig(variant="hybrid", trace=TRACE_OFF)
        for classify in (clf.classify, ResilientClassifier(clf, seed=0).classify):
            with pytest.raises(ValueError, match=f"splits on feature {top}"):
                classify(narrow, config)
        assert np.array_equal(
            clf.classify(queries, config).predictions,
            reference_predict(small_trees, queries),
        )

    def test_levels_bounded_by_depth(self, small_trees, queries):
        max_depth = max(int(t.depth.max()) for t in small_trees) + 1
        _, stats = fastpath_predict(CSRForest.from_trees(small_trees), queries)
        assert stats.levels <= max_depth
        assert stats.lanes == queries.shape[0] * len(small_trees)
        assert stats.lane_levels <= stats.lanes * stats.levels

    def test_seconds_model_is_deterministic_and_affine(self, session, queries):
        a = session.run(_plan(Platform.GPU, KernelVariant.HYBRID), queries)
        b = session.run(_plan(Platform.GPU, KernelVariant.HYBRID), queries)
        assert a.seconds == b.seconds
        lane_levels = a.details["lane_levels"]
        assert a.seconds == pytest.approx(
            FASTPATH_LAUNCH_OVERHEAD_S
            + lane_levels * FASTPATH_SECONDS_PER_LANE_LEVEL
        )
        assert fastpath_seconds(0) == FASTPATH_LAUNCH_OVERHEAD_S

    def test_backend_details_describe_the_launch(self, session, queries):
        res = session.run(_plan(Platform.FPGA, KernelVariant.CSR), queries)
        assert res.details["mode"] == "fastpath"
        assert res.details["family"] == "csr"
        assert res.details["levels_executed"] >= 1
        assert 0.0 < res.details["frontier_occupancy"] <= 1.0


# ----------------------------------------------------------------------
# Work counters: exact against a walk over the host trees
# ----------------------------------------------------------------------
def host_leaf_depths(trees, X):
    """Depth of the leaf each ``(row, tree)`` lane reaches, ``(rows, trees)``.

    A plain per-tree walk over the host arrays (``x[feature] < threshold``
    goes left), independent of every layout and of the oracle.
    """
    depths = np.empty((X.shape[0], len(trees)), dtype=np.int64)
    for t, tree in enumerate(trees):
        node = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.flatnonzero(tree.feature[node] != LEAF)
        while rows.size:
            n = node[rows]
            right = ~(X[rows, tree.feature[n]] < tree.threshold[n])
            node[rows] = np.where(right, tree.right_child[n], tree.left_child[n])
            rows = rows[tree.feature[node[rows]] != LEAF]
        depths[:, t] = tree.depth[node]
    return depths


COUNTER_CASES = [
    ("hier", "float32"),
    ("hier", "int8"),
    ("hier", "packed"),
    ("csr", "float32"),
    ("csr", "int8"),
    ("csr", "packed"),
    ("fil", "float32"),
]


def _family_layout(family, trees, codec):
    if family == "hier":
        return HierarchicalForest.from_trees(trees, LayoutParams(4, 8), codec=codec)
    if family == "csr":
        return CSRForest.from_trees(trees, codec=codec)
    return FILForest.from_trees(trees)


class TestWorkCounters:
    """``lane_levels`` is one step per (row, tree) lane per level it was
    active, a lane being active down to and including its leaf, and
    ``levels`` is the deepest lane's step count.  Both feed
    :func:`fastpath_seconds` and through it the simulated clock, so they
    must not depend on how the frontier is stored between levels."""

    @pytest.mark.parametrize("family,codec", COUNTER_CASES)
    def test_counters_equal_host_walk(self, small_trees, queries, family, codec):
        layout = _family_layout(family, small_trees, codec)
        host = small_trees if codec == "float32" else quantize_trees(small_trees, codec)
        # More rows than one block of FASTPATH_CHUNK_LANES lanes holds.
        wide = np.random.default_rng(11).standard_normal(
            (FASTPATH_CHUNK_LANES // len(small_trees) + 300, queries.shape[1])
        ).astype(np.float32)
        degraded = np.array([0, 3, 4, 8])
        for X, keep in ((queries, None), (queries, degraded), (wide, None)):
            trees = host if keep is None else [host[t] for t in keep]
            depths = host_leaf_depths(trees, X)
            _, stats = fastpath_predict(layout, X, trees=keep)
            assert stats.lane_levels == int(depths.sum()) + depths.size
            assert stats.levels == int(depths.max()) + 1

    def test_zero_selected_trees_terminate(self, small_trees, queries):
        table = CSRForest.from_trees(small_trees)._fastpath_edges
        preds, levels, lane_levels = traverse_edges(select_trees(table, []), queries)
        assert preds.shape == (queries.shape[0],)
        assert not preds.any()
        assert (levels, lane_levels) == (0, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        depths=st.lists(st.integers(0, 14), min_size=1, max_size=5),
        params=st.sampled_from([(4, 10), (8, 8), (5, 2), (3, 1), (2, 12), (1, 1)]),
        codec=st.sampled_from(PRECISIONS),
        mask=st.lists(st.booleans(), min_size=5, max_size=5),
    )
    def test_computed_children_equal_host_walk(self, seed, depths, params, codec, mask):
        """Hierarchical tables compute the child inside complete subtrees and
        gather ``succ`` only at subtree crossings; predictions and both work
        counters must match a walk over the host trees, for trees shallower
        and deeper than RSD and under a tree mask."""
        rng = np.random.default_rng(seed)
        trees = [random_tree(rng, 6, d, leaf_prob=0.2) for d in depths]
        X = rng.standard_normal((int(rng.integers(1, 300)), 6)).astype(np.float32)
        layout = HierarchicalForest.from_trees(trees, LayoutParams(*params), codec=codec)
        assert (layout._fastpath_edges.sd, layout._fastpath_edges.rsd) == params
        host = trees if codec == "float32" else quantize_trees(trees, codec)
        keep = np.flatnonzero(mask[: len(trees)])
        for sel in (None, keep):
            sub = host if sel is None else [host[t] for t in sel]
            preds, stats = fastpath_predict(layout, X, trees=sel)
            if not sub:
                assert (stats.levels, stats.lane_levels) == (0, 0)
                continue
            depths_hit = host_leaf_depths(sub, X)
            assert np.array_equal(preds, reference_predict(sub, X))
            assert stats.levels == int(depths_hit.max()) + 1
            assert stats.lane_levels == int(depths_hit.sum()) + depths_hit.size

    @pytest.mark.parametrize("built,claimed", [((4, 4), (4, 6)), ((4, 6), (4, 4))])
    def test_lowering_rejects_subtree_depth_off_the_crossing_levels(
        self, deep_trees, built, claimed
    ):
        """The core hops at the depths RSD and SD fix.  A root subtree built
        shallower than the RSD its params claim has inner frontier slots
        that must hop one level early; one built deeper would hop late."""
        layout = HierarchicalForest.from_trees(deep_trees, LayoutParams(*built))
        layout.params = LayoutParams(*claimed)
        with pytest.raises(RuntimeError, match="RSD/SD"):
            build_edges(layout)


# ----------------------------------------------------------------------
# Config / plan lifecycle
# ----------------------------------------------------------------------
class TestPlanLifecycle:
    def test_runconfig_validates_trace(self):
        assert RunConfig().trace == TRACE_MODEL
        assert RunConfig(trace=TRACE_OFF).trace == TRACE_OFF
        with pytest.raises(ValueError):
            RunConfig(trace="sometimes")

    def test_plan_validates_trace(self):
        with pytest.raises(PlanError):
            ExecutionPlan(trace="sometimes")
        assert ExecutionPlan().trace == TRACE_MODEL
        assert set(TRACE_MODES) == {TRACE_MODEL, TRACE_OFF}

    def test_json_round_trip_preserves_trace(self):
        plan = ExecutionPlan(
            platform="fpga",
            variant="hybrid",
            layout=LayoutParams(4, 10),
            trace=TRACE_OFF,
            source="autotuned",
            cost_estimate_s=1e-4,
        )
        back = ExecutionPlan.from_json(plan.to_json())
        assert back == plan
        assert back.trace == TRACE_OFF
        assert '"trace":"off"' in plan.to_json()

    def test_from_dict_defaults_to_model_for_legacy_plans(self):
        legacy = ExecutionPlan(trace=TRACE_MODEL).as_dict()
        del legacy["trace"]
        assert ExecutionPlan.from_dict(legacy).trace == TRACE_MODEL

    def test_labels_and_run_config_carry_the_mode(self):
        plan = _plan(Platform.GPU, KernelVariant.HYBRID)
        assert plan.label.endswith("-serve")
        assert plan.to_run_config().trace == TRACE_OFF
        assert "serve" not in ExecutionPlan().label
        assert RunConfig(trace=TRACE_OFF).label.endswith("-serve")

    def test_guard_ladder_carries_the_mode(self, small_trees):
        clf = HierarchicalForestClassifier.from_trees(small_trees, 12)
        guard = ResilientClassifier(clf, seed=0)
        cfg = RunConfig(trace=TRACE_OFF)
        ladder = guard.ladder_plans(cfg)
        assert len(ladder) >= 2
        assert all(p.trace == TRACE_OFF for p in ladder)
        assert ladder[-1].platform == "cpu"


# ----------------------------------------------------------------------
# Planner / autotuner
# ----------------------------------------------------------------------
class TestPlannerTraceOff:
    @pytest.mark.parametrize("platform", ["gpu", "fpga"])
    def test_trace_off_auto_resolves_without_tuning(
        self, small_trees, queries, tmp_path, platform
    ):
        session = RuntimeSession(small_trees)
        planner = Planner(session, cache_dir=str(tmp_path))
        plan = planner.autotune(queries, platform=platform, trace=TRACE_OFF)
        assert (plan.platform, plan.variant) == (platform, "hybrid")
        assert plan.layout == LayoutParams(4, 10)
        assert plan.replication == Replication()
        assert plan.precision == "float32"
        assert plan.trace == TRACE_OFF
        assert plan.source == "resolved"
        assert not session._layout_cache  # deciding built nothing
        session.run(plan, queries)
        assert len(session._layout_cache) == 1
        assert planner.stats["probe_runs"] == 0
        assert planner.stats["cost_evaluations"] == 0
        assert list(tmp_path.iterdir()) == []

    def test_cost_model_prefers_the_fast_path(self, session, queries):
        """The fastpath latency term must undercut the device models —
        otherwise a trace-off autotune could still pick nothing faster."""
        planner = Planner(session, cache_dir="unused")
        probe = queries[:128]
        plan_model = ExecutionPlan(trace=TRACE_MODEL)
        plan_serve = ExecutionPlan(trace=TRACE_OFF)
        memo = {}
        slow = planner.estimate(plan_model, probe, 100_000, memo)
        fast = planner.estimate(plan_serve, probe, 100_000, memo)
        assert fast < slow

    def test_auto_variant_routes_trace_through_plan(self, session, queries, tmp_path):
        planner = Planner(session, cache_dir=str(tmp_path))
        cfg = RunConfig(variant=KernelVariant.AUTO, trace=TRACE_OFF)
        plan = planner.plan(queries, cfg)
        assert plan.trace == TRACE_OFF


#: Device bytes of susy d20x20 (the serving benchmark's forest) per codec:
#: (hybrid SD4/RSD10, CSR).
SUSY_FOOTPRINTS = {
    "float32": (641_056, 504_480),
    "float16": (544_180, 441_452),
    "int8": (495_886, 410_082),
    "packed": (447_456, 126_296),
}

#: Trace-off auto decisions on susy d20x20 per memory budget, as the
#: cost-ranked, probe-run autotuner made them: (variant, layout,
#: precision), identical on gpu and fpga.  At 410,082 B (CSR int8's exact
#: footprint) both csr-int8 and hybrid-SD4-packed fit: int8 and packed tie,
#: and the canonical plan JSON picks the packed hybrid.
SUSY_BUDGET_PLANS = {
    None: ("hybrid", LayoutParams(4, 10), "float32"),
    10**9: ("hybrid", LayoutParams(4, 10), "float32"),
    600_000: ("hybrid", LayoutParams(4, 4), "float32"),
    520_000: ("csr", LayoutParams(), "float32"),
    480_000: ("hybrid", LayoutParams(4, 4), "float16"),
    410_082: ("hybrid", LayoutParams(4, 4), "packed"),
    400_000: ("hybrid", LayoutParams(4, 4), "packed"),
    200_000: ("csr", LayoutParams(), "packed"),
    1: ("csr", LayoutParams(), "packed"),
}


@pytest.fixture(scope="module")
def susy_session():
    from repro.experiments.common import get_forest

    return RuntimeSession.from_forest(get_forest("susy", 20, 20, "default"))


class TestPlannerTraceOffBudgets:
    @pytest.mark.parametrize("codec", sorted(SUSY_FOOTPRINTS))
    def test_footprints_bracket_the_budgets(self, susy_session, codec):
        got = tuple(
            plan_footprint_bytes(
                p, susy_session.layout_for(p), susy_session.trees
            )
            for p in (
                ExecutionPlan(
                    variant="hybrid", layout=LayoutParams(4, 10), precision=codec
                ),
                ExecutionPlan(variant="csr", precision=codec),
            )
        )
        assert got == SUSY_FOOTPRINTS[codec]

    @pytest.mark.parametrize("budget", list(SUSY_BUDGET_PLANS))
    @pytest.mark.parametrize("platform", ["gpu", "fpga"])
    def test_budget_decisions_match_the_autotuner(
        self, susy_session, tmp_path, platform, budget
    ):
        planner = Planner(susy_session, cache_dir=str(tmp_path))
        X = np.zeros((64, 18), dtype=np.float32)  # resolution never reads rows
        plan = planner.autotune(
            X, platform=platform, trace=TRACE_OFF, memory_budget_bytes=budget
        )
        assert plan.platform == platform
        assert (plan.variant, plan.layout, plan.precision) == SUSY_BUDGET_PLANS[
            budget
        ]
        assert plan.replication == Replication()
        assert planner.stats["probe_runs"] == 0
        assert planner.stats["cost_evaluations"] == 0
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Serving front door default
# ----------------------------------------------------------------------
class TestFrontDoorDefault:
    def _front(self, trees, X, **kwargs):
        clf = HierarchicalForestClassifier.from_trees(trees, X.shape[1])
        guard = ResilientClassifier(clf, deadline_s=10.0, seed=3)
        return ServingFrontDoor(
            guard, clock=SimulatedClock(), probe_X=X[:32], **kwargs
        )

    def test_defaults_to_trace_off(self, small_trees, queries):
        front = self._front(small_trees, queries)
        assert front.config.trace == TRACE_OFF

    def test_model_config_is_served_trace_off(self, small_trees, queries):
        front = self._front(
            small_trees, queries, config=RunConfig(trace=TRACE_MODEL)
        )
        assert front.config.trace == TRACE_OFF

    def test_served_predictions_match_reference(self, small_trees, queries):
        front = self._front(small_trees, queries)
        req = front.submit(queries[:8])
        (resp,) = front.drain()
        assert resp.request_id == req.request_id
        assert np.array_equal(
            resp.predictions, reference_predict(small_trees, queries[:8])
        )


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestObsFastpathCounters:
    def test_trace_off_runs_emit_the_fastpath_family(self, small_trees, queries):
        obs = ObsSession()
        session = RuntimeSession(small_trees, observer=obs)
        res = session.run(_plan(Platform.GPU, KernelVariant.HYBRID), queries)
        reg = obs.registry
        kw = dict(platform="gpu", variant="hybrid", family="hier")
        assert reg.get("fastpath.launches").value(**kw) == 1.0
        assert reg.get("fastpath.rows").value(**kw) == float(queries.shape[0])
        assert reg.get("fastpath.lane_levels").value(**kw) == float(
            res.details["lane_levels"]
        )
        occ = reg.get("fastpath.frontier_occupancy").value(**kw)
        assert 0.0 < occ <= 1.0
        rows_per_s = reg.get("fastpath.rows_per_s").value(**kw)
        assert rows_per_s == pytest.approx(queries.shape[0] / res.seconds)

    def test_model_runs_do_not_emit_fastpath_counters(self, small_trees, queries):
        obs = ObsSession()
        session = RuntimeSession(small_trees, observer=obs)
        session.run(_plan(Platform.GPU, KernelVariant.HYBRID, trace=TRACE_MODEL), queries)
        assert obs.registry.get("fastpath.launches") is None


# ----------------------------------------------------------------------
# Quantized layouts: golden equivalence on the decoded thresholds
# ----------------------------------------------------------------------
QUANT_CODECS = ("float16", "int8", "packed")


def snap_to_thresholds(trees, X):
    """``X`` with each value moved to the nearest threshold its feature
    splits on in ``trees`` (features no tree splits on keep their values).

    Every compare a snapped row makes at its nearest split is an equality
    case, so a decode that rounds even one ULP away from the codec's
    float32 expression flips branches that random queries never reach.
    """
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    out = X.copy()
    for f in range(X.shape[1]):
        thr = np.unique(threshold[feature == f])
        if thr.size:
            out[:, f] = thr[np.abs(X[:, f, None] - thr).argmin(axis=1)]
    return out


@pytest.fixture(scope="module")
def boundary_queries(small_trees, queries):
    """Per codec: ``queries`` snapped to the quantized oracle's thresholds."""
    return {
        codec: snap_to_thresholds(quantize_trees(small_trees, codec), queries)
        for codec in QUANT_CODECS
    }


class TestQuantizedGolden:
    """Both execution modes compare the build-time round-trip exactly.

    The bit-identity tests run twice: on random queries and on the
    boundary rows of :func:`snap_to_thresholds`.
    """

    @pytest.mark.parametrize("codec", QUANT_CODECS)
    @pytest.mark.parametrize("variant", ["hybrid", "csr"])
    def test_fastpath_bit_identical_to_layout_and_trace(
        self, session, small_trees, queries, boundary_queries, codec, variant
    ):
        oracle_trees = quantize_trees(small_trees, codec)
        for X in (queries, boundary_queries[codec]):
            fast = session.run(_plan("gpu", variant, precision=codec), X)
            model = session.run(
                _plan("gpu", variant, trace=TRACE_MODEL, precision=codec), X
            )
            assert np.array_equal(fast.predictions, model.predictions)
            assert np.array_equal(fast.predictions, reference_predict(oracle_trees, X))

    @pytest.mark.parametrize("codec", PRECISIONS)
    @pytest.mark.parametrize("family", ["hier", "csr", "fil"])
    def test_edge_table_holds_the_decoded_value_channel(
        self, small_trees, family, codec
    ):
        """Every codec lowers to the same five buffers, and the thresholds
        the core compares are the layout's decoded channel, bit for bit."""
        if family == "fil":  # FIL has no codec axis: build from the oracle
            layout = FILForest.from_trees(quantize_trees(small_trees, codec))
        else:
            layout = _family_layout(family, small_trees, codec)
        table = layout._fastpath_edges
        buffers = [
            f.name
            for f in fields(table)
            if isinstance(getattr(table, f.name), np.ndarray)
        ]
        assert buffers == ["feature", "value", "label", "succ", "roots"]
        assert table.value.dtype == layout.value.dtype == np.float32
        assert table.value.tobytes() == layout.value.tobytes()

    @pytest.mark.parametrize("codec", QUANT_CODECS)
    def test_hier_families_share_the_quantized_table(
        self, small_trees, queries, boundary_queries, codec
    ):
        layout = HierarchicalForest.from_trees(
            small_trees, LayoutParams(4, 8), codec=codec
        )
        oracle_trees = quantize_trees(small_trees, codec)
        for X in (queries, boundary_queries[codec]):
            preds, _ = fastpath_predict(layout, X)
            assert np.array_equal(preds, reference_predict(oracle_trees, X))

    @pytest.mark.parametrize("codec", QUANT_CODECS)
    def test_quantized_predictions_track_the_oracle(
        self, session, queries, oracle, codec
    ):
        """Quantization moves thresholds, not semantics: high agreement."""
        res = session.run(_plan("gpu", "hybrid", precision=codec), queries)
        agreement = float(np.mean(res.predictions == oracle))
        assert agreement >= 0.98

    def test_quantized_seconds_are_the_one_model(self, session, queries):
        i8 = session.run(_plan("gpu", "hybrid", precision="int8"), queries)
        assert i8.seconds == fastpath_seconds(i8.details["lane_levels"])

    @pytest.mark.parametrize("codec", QUANT_CODECS)
    def test_quantized_label_round_trips(self, codec):
        plan = _plan("gpu", "hybrid", precision=codec)
        assert codec in plan.label
        assert plan.label.endswith("serve")
        again = ExecutionPlan.from_json(plan.to_json())
        assert again.precision == codec
