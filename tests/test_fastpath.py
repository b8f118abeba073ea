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

import inspect
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import cpu_reference
from repro.baselines.cpu_reference import (
    CertificateError,
    certify_votes,
    leaf_boxes,
    reference_predict,
    reference_votes,
)
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
    fastpath_predict,
    fastpath_seconds,
)
from repro.fastpath import engine, hierpath
from repro.fastpath.engine import (
    FASTPATH_CHUNK_LANES,
    FASTPATH_FLAT_LANES,
    host_map,
    select_trees,
    traverse_edges,
)
from repro.fastpath.hierpath import build_edges
from repro.forest.tree import LEAF, DecisionTree, random_tree, stack_trees
from repro.fpgasim.replication import Replication
from repro.kernels import registered_pairs
from repro.layout.codec import PRECISIONS, quantize_trees
from repro.layout.csr import CSRForest
from repro.layout.footprint import edge_table_bytes
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
        clf = HierarchicalForestClassifier.from_trees(small_trees, queries.shape[1])
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
def host_leaf_nodes(trees, X):
    """Tree-local node of the leaf each ``(row, tree)`` lane reaches, ``(rows, trees)``.

    A plain per-tree walk over the host arrays (``x[feature] < threshold``
    goes left), independent of every layout and of the oracle.
    """
    nodes = np.empty((X.shape[0], len(trees)), dtype=np.int64)
    for t, tree in enumerate(trees):
        node = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.flatnonzero(tree.feature[node] != LEAF)
        while rows.size:
            n = node[rows]
            right = ~(X[rows, tree.feature[n]] < tree.threshold[n])
            node[rows] = np.where(right, tree.right_child[n], tree.left_child[n])
            rows = rows[tree.feature[node[rows]] != LEAF]
        nodes[:, t] = node
    return nodes


def host_leaf_depths(trees, X):
    """Depth of the leaf each ``(row, tree)`` lane reaches, ``(rows, trees)``."""
    nodes = host_leaf_nodes(trees, X)
    return np.stack([tree.depth[nodes[:, t]] for t, tree in enumerate(trees)], axis=1)


def host_level_nodes(trees, X, levels):
    """Stacked host node each ``(row, tree)`` lane visits on each level, -1
    on the levels below its leaf, ``(levels, rows * trees)``."""
    offsets = np.cumsum([0] + [t.n_nodes for t in trees])
    out = np.full((levels, X.shape[0], len(trees)), -1, dtype=np.int64)
    for t, tree in enumerate(trees):
        node = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.arange(X.shape[0])
        for d in range(levels):
            out[d, rows, t] = offsets[t] + node[rows]
            rows = rows[tree.feature[node[rows]] != LEAF]
            n = node[rows]
            right = ~(X[rows, tree.feature[n]] < tree.threshold[n])
            node[rows] = np.where(right, tree.right_child[n], tree.left_child[n])
    return out.reshape(levels, -1)


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

    @pytest.mark.parametrize("family", ["hier", "csr", "fil"])
    def test_walking_counts_the_lanes_on_each_level(self, small_trees, queries, family):
        """Entry ``d`` counts the lanes whose leaf sits at depth ``d`` or
        deeper, in a flat walk, one compacting block and several blocks."""
        table = _family_layout(family, small_trees, "float32")._fastpath_edges
        wide = np.random.default_rng(11).standard_normal(
            (FASTPATH_CHUNK_LANES // len(small_trees) + 300, queries.shape[1])
        ).astype(np.float32)
        for X in (queries[:100], queries, wide):
            depths = host_leaf_depths(small_trees, X).ravel()
            walking = np.full(table.max_levels + 1, -1, dtype=np.int64)
            _, _, lane_levels = traverse_edges(table, X, walking=walking)
            expected = [int(np.count_nonzero(depths >= d)) for d in range(table.max_levels)]
            assert walking.tolist() == expected + [0]
            assert walking.sum() == lane_levels
        with pytest.raises(ValueError, match="walking must hold"):
            traverse_edges(table, queries, walking=np.zeros(3, dtype=np.int64))

    @pytest.mark.parametrize("family", ["hier", "csr", "fil"])
    def test_slots_follow_the_host_walk(self, small_trees, queries, family):
        """Row ``d`` of ``slots`` holds the slot each lane visits on level
        ``d`` and -1 where it walks none, in a flat walk, one compacting
        block and several threaded blocks, over all trees or one; asking
        for it changes no other output."""
        table = _family_layout(family, small_trees, "float32")._fastpath_edges
        slot_of = np.full(sum(t.n_nodes for t in small_trees) + 1, -1, dtype=np.int64)
        mapped = np.flatnonzero(table.host >= 0)
        slot_of[table.host[mapped]] = mapped  # slot_of[-1] stays -1
        wide = np.random.default_rng(11).standard_normal(
            (FASTPATH_CHUNK_LANES // len(small_trees) + 300, queries.shape[1])
        ).astype(np.float32)
        walks = []
        for X in (queries[:100], queries, wide):
            for keep in (None, [3]):
                sub = select_trees(table, keep)
                lanes = X.shape[0] * sub.roots.shape[0]
                walks.append((engine.walks_flat(sub, lanes), -(-lanes // FASTPATH_CHUNK_LANES)))
                slots = np.full((table.max_levels, lanes), -7, dtype=np.int64)
                walking = np.zeros(table.max_levels + 1, dtype=np.int64)
                leaves = np.empty(lanes, dtype=np.int32)
                got = traverse_edges(sub, X, leaves=leaves, walking=walking, slots=slots)
                trees = small_trees if keep is None else [small_trees[t] for t in keep]
                nodes = host_level_nodes(trees, X, table.max_levels)
                if keep is not None:
                    nodes[nodes >= 0] += sum(t.n_nodes for t in small_trees[: keep[0]])
                assert np.array_equal(slots, slot_of[nodes])
                assert np.array_equal(walking[:-1], np.count_nonzero(slots >= 0, axis=1))
                plain_walking = np.zeros_like(walking)
                plain_leaves = np.empty_like(leaves)
                plain = traverse_edges(sub, X, leaves=plain_leaves, walking=plain_walking)
                assert np.array_equal(got[0], plain[0]) and got[1:] == plain[1:]
                assert np.array_equal(leaves, plain_leaves)
                assert np.array_equal(walking, plain_walking)
        # Flat, one compacting block and two blocks all ran.
        assert {w[0] for w in walks} == {True, False}
        assert max(w[1] for w in walks) == 2
        with pytest.raises(ValueError, match="slots must hold"):
            traverse_edges(table, queries, slots=np.zeros((2, 3), dtype=np.int64))

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


def _walk(table, X, flat_lanes, trees=None):
    """``traverse_edges`` outputs, leaf claims and lanes per level with the
    flat walk bounded at ``flat_lanes`` lanes."""
    table = select_trees(table, trees)
    leaves = np.full(X.shape[0] * table.roots.shape[0], -2, dtype=np.int32)
    limit = table.max_levels or table.feature.shape[0]
    walking = np.full(limit + 1, -2, dtype=np.int64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "FASTPATH_FLAT_LANES", flat_lanes)
        preds, levels, lane_levels = traverse_edges(
            table, X, leaves=leaves, walking=walking
        )
    return preds, levels, lane_levels, leaves, walking


class TestFlatWalk:
    """A call of at most ``FASTPATH_FLAT_LANES`` lanes walks every lane down
    to the table's ``max_levels`` without retiring any; a larger call
    compacts.  Which walk runs must change no output."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        family=st.sampled_from(["hier", "csr", "fil"]),
        n_trees=st.integers(1, 6),
        above_bound=st.booleans(),
        mask=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_flat_and_compacting_walks_agree(
        self, seed, family, n_trees, above_bound, mask
    ):
        rng = np.random.default_rng(seed)
        trees = [
            random_tree(rng, 6, int(rng.integers(0, 12)), leaf_prob=0.2)
            for _ in range(n_trees)
        ]
        # Row counts on both sides of the bound the dispatch applies.
        fits = FASTPATH_FLAT_LANES // n_trees
        rows = int(
            rng.integers(fits + 1, fits + 40) if above_bound else rng.integers(1, fits + 1)
        )
        X = rng.standard_normal((rows, 6)).astype(np.float32)
        table = _family_layout(family, trees, "float32")._fastpath_edges
        keep = np.flatnonzero(mask[:n_trees])
        for edges, sel in (
            (table, None),
            (table, keep),
            (replace(table, max_levels=None), None),  # always compacts
        ):
            flat = _walk(edges, X, 2**31, sel)
            compacting = _walk(edges, X, 0, sel)
            dispatched = _walk(edges, X, FASTPATH_FLAT_LANES, sel)
            for a, b, c in zip(flat, compacting, dispatched):
                np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(a, c)
            sub = trees if sel is None else [trees[t] for t in sel]
            if sub:
                assert np.array_equal(flat[0], reference_predict(sub, X))

    @pytest.mark.parametrize(
        "flat_lanes", [FASTPATH_FLAT_LANES, 0], ids=["flat", "compacting"]
    )
    def test_a_lane_still_walking_at_max_levels_claims_and_votes_nothing(
        self, small_trees, queries, flat_lanes
    ):
        """Only lanes still walking at ``max_levels`` claim -1; a lane that
        reached a leaf votes and claims it, whether or not the compacting
        walk has flushed it yet."""
        X = queries[:40]
        depths = host_leaf_depths(small_trees, X)
        cut = int(np.median(depths))
        table = _family_layout("csr", small_trees, "float32")._fastpath_edges
        short = replace(table, max_levels=cut)
        assert engine.walks_flat(short, depths.size)
        preds, levels, lane_levels, leaves, walking = _walk(short, X, flat_lanes)
        offsets = np.cumsum([0] + [t.n_nodes for t in small_trees])
        nodes = host_leaf_nodes(small_trees, X)
        done = depths < cut
        assert np.array_equal(leaves, np.where(done, nodes + offsets[:-1], -1).ravel())
        assert levels == cut
        assert lane_levels == int(np.minimum(depths + 1, cut).sum())
        # The last entry counts the lanes the bound stopped.
        expected = [int(np.count_nonzero(depths >= d)) for d in range(cut + 1)]
        assert walking.tolist() == expected
        labels = np.stack(
            [tree.value[nodes[:, t]] for t, tree in enumerate(small_trees)], axis=1
        ).astype(np.int64)
        votes = np.stack(
            [np.bincount(labels[r][done[r]], minlength=2) for r in range(X.shape[0])]
        )
        assert np.array_equal(preds, votes.argmax(axis=1))

    def test_a_serving_cap_batch_compacts(self, monkeypatch):
        rng = np.random.default_rng(3)
        trees = [random_tree(rng, 6, 8, leaf_prob=0.2) for _ in range(20)]
        table = CSRForest.from_trees(trees)._fastpath_edges
        walks = []
        real = engine.walks_flat

        def spy(edges, lanes):
            walks.append(real(edges, lanes))
            return walks[-1]

        monkeypatch.setattr(engine, "walks_flat", spy)
        X = rng.standard_normal((256, 6)).astype(np.float32)
        traverse_edges(table, X[:8])
        traverse_edges(table, X)  # a batch at the front door's 256-row cap
        assert walks == [True, False]


class TestParallelBlocks:
    """A batch of several row blocks runs them on several threads.  No
    output may depend on how many threads ran or which ran which block,
    and a failing block must fail the whole call."""

    @pytest.mark.parametrize("family", ["hier", "csr", "fil"])
    def test_outputs_do_not_depend_on_the_thread_count(
        self, small_trees, queries, monkeypatch, family
    ):
        # 25 rows per block, so the batch spans 62 blocks.
        monkeypatch.setattr(engine, "FASTPATH_CHUNK_LANES", 256)
        table = _family_layout(family, small_trees, "float32")._fastpath_edges
        depths = host_leaf_depths(small_trees, queries)
        offsets = np.cumsum([0] + [t.n_nodes for t in small_trees])
        expected_leaves = (host_leaf_nodes(small_trees, queries) + offsets[:-1]).ravel()
        expected = (
            reference_predict(small_trees, queries),
            int(depths.max()) + 1,
            int(depths.sum()) + depths.size,
        )
        default_cpus = engine._cpu_count()
        interval = sys.getswitchinterval()
        # 8 threads is more than this box has cores; the short switch
        # interval makes a lost update between them likely to show.
        for cpus in (1, default_cpus, 8):
            monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
            leaves = np.full(expected_leaves.shape, -1, dtype=np.int32)
            sys.setswitchinterval(1e-6)
            try:
                preds, levels, lane_levels = traverse_edges(table, queries, leaves=leaves)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(preds, expected[0]), cpus
            assert (levels, lane_levels) == expected[1:], cpus
            assert np.array_equal(leaves, expected_leaves), cpus

    def test_a_failing_worker_block_fails_the_call(
        self, small_trees, queries, monkeypatch
    ):
        monkeypatch.setattr(engine, "FASTPATH_CHUNK_LANES", 256)
        monkeypatch.setattr(engine, "_cpu_count", lambda: 4)
        table = _family_layout("csr", small_trees, "float32")._fastpath_edges
        worker_failed = threading.Event()
        caller = []
        flushed_blocks = []
        real_bincount = np.bincount

        def bincount(*args, **kwargs):
            # The caller's first block waits until a worker's block has
            # raised, so a worker surely runs one.
            flushed_blocks.append(threading.get_ident())
            if threading.get_ident() != caller[0]:
                worker_failed.set()
                raise ValueError("planted block failure")
            worker_failed.wait(timeout=30)
            return real_bincount(*args, **kwargs)

        outcome = []

        def call():
            caller.append(threading.get_ident())
            try:
                outcome.append(traverse_edges(table, queries))
            except ValueError as err:
                outcome.append(err)

        monkeypatch.setattr(np, "bincount", bincount)
        threads_before = threading.active_count()
        runner = threading.Thread(target=call)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert worker_failed.is_set()
        assert len(outcome) == 1 and isinstance(outcome[0], ValueError)
        assert "planted block failure" in str(outcome[0])
        assert threading.active_count() == threads_before
        # The failure stopped further claims; the batch spans 62 blocks.
        assert len(flushed_blocks) < 16

    def test_one_block_starts_no_thread(self, small_trees, monkeypatch):
        started = []

        class SpyThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", SpyThread)
        monkeypatch.setattr(engine, "_cpu_count", lambda: 4)
        table = _family_layout("hier", small_trees, "float32")._fastpath_edges
        one_block = FASTPATH_CHUNK_LANES // len(small_trees)
        X = np.random.default_rng(12).standard_normal((one_block + 1, 12))
        for rows in (256, one_block):  # a serving batch; a full block
            traverse_edges(table, X[:rows])
        assert started == []
        traverse_edges(table, X)  # two blocks: the caller and one worker
        assert len(started) == 1


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
        self, small_trees, queries, platform
    ):
        session = RuntimeSession(small_trees)
        planner = Planner(session)
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

    def test_estimate_rejects_trace_off_plans(self, session, queries):
        """The device cost model prices trace-model plans only; the
        fastpath's launch model prices a served plan."""
        planner = Planner(session)
        probe = queries[:128]
        assert planner.estimate(ExecutionPlan(trace=TRACE_MODEL), probe, 100) > 0
        with pytest.raises(PlanError, match="fastpath"):
            planner.estimate(ExecutionPlan(trace=TRACE_OFF), probe, 100)
        assert planner.stats["cost_evaluations"] == 1

    def test_auto_variant_routes_trace_through_plan(self, session, queries):
        planner = Planner(session)
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

#: Trace-off auto decisions on susy d20x20 per memory budget: (variant,
#: layout, served edge-table bytes), identical on gpu and fpga, and always
#: float32 with the default replication.  A served plan is charged its
#: EdgeTable (24 B per slot under every codec), so the CSR table
#: (756,416 B) is the smallest: it fits from there up to the 914,576 B of
#: hybrid SD4/SD4, and below it nothing fits and it wins as the fallback.
SUSY_BUDGET_PLANS = {
    None: ("hybrid", LayoutParams(4, 10), 1_162_592),
    10**9: ("hybrid", LayoutParams(4, 10), 1_162_592),
    1_162_592: ("hybrid", LayoutParams(4, 10), 1_162_592),
    1_162_591: ("hybrid", LayoutParams(4, 4), 914_576),
    914_576: ("hybrid", LayoutParams(4, 4), 914_576),
    914_575: ("csr", LayoutParams(), 756_416),
    756_416: ("csr", LayoutParams(), 756_416),
    600_000: ("csr", LayoutParams(), 756_416),
    520_000: ("csr", LayoutParams(), 756_416),
    480_000: ("csr", LayoutParams(), 756_416),
    410_082: ("csr", LayoutParams(), 756_416),
    400_000: ("csr", LayoutParams(), 756_416),
    200_000: ("csr", LayoutParams(), 756_416),
    1: ("csr", LayoutParams(), 756_416),
}


@pytest.fixture(scope="module")
def susy_session():
    from repro.experiments.common import get_forest

    return RuntimeSession.from_forest(get_forest("susy", 20, 20, "default"))


def _served_bytes(session, plan):
    return edge_table_bytes(session.layout_for(plan)._fastpath_edges)


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
        self, susy_session, platform, budget
    ):
        planner = Planner(susy_session)
        X = np.zeros((64, 18), dtype=np.float32)  # resolution never reads rows
        plan = planner.autotune(
            X, platform=platform, trace=TRACE_OFF, memory_budget_bytes=budget
        )
        variant, layout, served = SUSY_BUDGET_PLANS[budget]
        assert (plan.platform, plan.variant, plan.layout) == (
            platform,
            variant,
            layout,
        )
        assert plan.precision == "float32"
        assert plan.replication == Replication()
        assert _served_bytes(susy_session, plan) == served
        assert planner.stats["probe_runs"] == 0
        assert planner.stats["cost_evaluations"] == 0

    @pytest.mark.parametrize("budget", list(SUSY_BUDGET_PLANS))
    def test_budget_never_changes_predictions(self, susy_session, budget):
        """A budget picks a table that fits it (or the smallest), never a
        codec that saves no served byte but changes answers."""
        from repro.experiments.common import get_dataset

        X = get_dataset("susy", "default").X_test
        planner = Planner(susy_session)
        base = planner.autotune(X, trace=TRACE_OFF)
        plan = planner.autotune(X, trace=TRACE_OFF, memory_budget_bytes=budget)
        got, _ = fastpath_predict(susy_session.layout_for(plan), X)
        want, _ = fastpath_predict(susy_session.layout_for(base), X)
        np.testing.assert_array_equal(got, want)
        if budget is not None:
            served = _served_bytes(susy_session, plan)
            smallest = min(
                _served_bytes(susy_session, p)
                for p in planner.candidates(Platform.GPU, TRACE_OFF)
            )
            assert served <= budget or served == smallest > budget


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
        """Every codec lowers to the same six buffers, and the thresholds
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
        assert buffers == ["feature", "value", "label", "succ", "roots", "host"]
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


# ----------------------------------------------------------------------
# Leaf certificate
# ----------------------------------------------------------------------
#: Thresholds and row values at the edges of float32 compares.
SPECIAL_FLOATS = (
    0.0,
    -0.0,
    1e-40,  # subnormal
    -1e-40,
    np.inf,
    -np.inf,
    np.nan,
)


def _two_table_verdict(trees, X, leaves, chosen):
    """What the certificate's three checks over separate ``lo`` / ``hi``
    tables say of ``leaves``: the message it raises, or None to accept.

    Each node's box is its path's: a left branch caps ``hi`` at the
    split's threshold, a right branch raises ``lo`` to it (NumPy's
    ``minimum`` / ``maximum``, so a NaN threshold propagates).
    """
    stack = stack_trees(trees)
    width = stack.max_feature + 1
    n_nodes = int(stack.feature.size)
    lo = np.full((n_nodes, width), -np.inf, dtype=np.float32)
    hi = np.full((n_nodes, width), np.inf, dtype=np.float32)
    owner = np.empty(n_nodes, dtype=np.int64)
    offset = 0
    for t, tree in enumerate(trees):
        todo = [0]
        while todo:
            node = todo.pop()
            owner[offset + node] = t
            f = tree.feature[node]
            if f == LEAF:
                continue
            for child, side in ((tree.left_child[node], hi), (tree.right_child[node], lo)):
                lo[offset + child] = lo[offset + node]
                hi[offset + child] = hi[offset + node]
                op = np.minimum if side is hi else np.maximum
                side[offset + child, f] = op(side[offset + child, f], tree.threshold[node])
                todo.append(child)
        offset += tree.n_nodes
    if leaves.size and (leaves.min() < 0 or leaves.max() >= n_nodes):
        return "a claim is not a host node"
    lane_tree = np.tile(chosen, X.shape[0])
    if not np.all((stack.feature[leaves] == LEAF) & (owner[leaves] == lane_tree)):
        return "a claim is not a leaf of its lane's tree"
    x = np.repeat(X[:, :width], chosen.size, axis=0)
    if not np.all((lo[leaves] <= x) & (x < hi[leaves])):
        return "a row lies outside its claimed leaf's box"
    return None


#: Mutations of the certificate, as ``(function, source text, mutated
#: text)``: each lets a planted wrong claim through.
CERT_MUTANTS = {
    "cert-no-tree-compare": (
        "certify_votes",
        "if not (boxes.tree.take(rows).reshape(n_rows, k) == trees).all():",
        "if False:",
    ),
    "cert-no-lo-half": (
        "certify_votes",
        "np.concatenate((x, -x), axis=1)",
        "np.concatenate((np.full_like(x, np.inf), -x), axis=1)",
    ),
    "cert-no-hi-half": (
        "certify_votes",
        "np.concatenate((x, -x), axis=1)",
        "np.concatenate((x, np.full_like(x, np.inf)), axis=1)",
    ),
    "cert-no-sentinel": (
        "leaf_boxes",
        "node_row = np.full(n_nodes + 2, n_leaves, dtype=np.int32)",
        "node_row = np.full(n_nodes + 2, n_leaves - 1, dtype=np.int32)",
    ),
}


def _mutated(module, func, name, old, new):
    """``module``'s namespace with ``func`` recompiled from its source with
    ``old`` replaced by ``new``."""
    source = inspect.getsource(getattr(module, func))
    assert source.count(old) == 1, f"{name}: {func} no longer reads {old!r}"
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), f"<{name}>", "exec"), namespace)
    return namespace


def _cert_mutant(name):
    """``cpu_reference``'s namespace with mutant ``name`` compiled in."""
    func, old, new = CERT_MUTANTS[name]
    return _mutated(cpu_reference, func, name, old, new)


class TestLeafCertificate:
    """A served batch is verified by certifying each lane's claimed host
    leaf against its box, not by a second walk.  The certificate must
    accept exactly the walk's leaves."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        family=st.sampled_from(["hier", "csr", "fil"]),
        codec=st.sampled_from(PRECISIONS),
        snap=st.booleans(),
    )
    def test_accepts_the_walk_and_rejects_every_other_claim(
        self, seed, family, codec, snap
    ):
        rng = np.random.default_rng(seed)
        n_features = int(rng.integers(2, 10))
        trees = [
            random_tree(rng, n_features, int(rng.integers(1, 10)), 0.25, min_nodes=3)
            for _ in range(int(rng.integers(2, 6)))
        ]
        host = trees if codec == "float32" else quantize_trees(trees, codec)
        rows = int(rng.integers(1, 80))
        X = rng.standard_normal((rows, n_features)).astype(np.float32)
        if snap:
            X = snap_to_thresholds(host, X)
        layout = _family_layout(family, host if family == "fil" else trees, codec)
        leaves = np.empty(X.shape[0] * len(trees), dtype=np.int32)
        preds, _ = fastpath_predict(layout, X, leaves=leaves)

        offsets = np.cumsum([0] + [t.n_nodes for t in trees])
        walked = host_leaf_nodes(host, X) + offsets[:-1]
        assert np.array_equal(leaves, walked.ravel())
        boxes = leaf_boxes(host)
        stack = stack_trees(host)
        n_leaves = sum(t.n_leaves for t in trees)
        # The two float32 tables ``lo`` and ``hi`` in one, plus the sentinel.
        width = stack.max_feature + 1
        assert boxes.bounds.nbytes == (n_leaves + 1) * width * 8
        votes = certify_votes(boxes, X, leaves)
        assert np.array_equal(votes, reference_votes(host, X))
        assert np.array_equal(preds, votes.argmax(axis=1))

        lane = int(rng.integers(leaves.size))
        tree = lane % len(trees)
        own = np.arange(offsets[tree], offsets[tree + 1])
        is_leaf = stack.feature[own] == LEAF
        nxt = (tree + 1) % len(trees)
        other = np.arange(offsets[nxt], offsets[nxt + 1])
        claims = {
            "another leaf of the same tree": own[is_leaf & (own != leaves[lane])],
            "a leaf of another tree": other[stack.feature[other] == LEAF],
            "an inner node of the same tree": own[~is_leaf],
        }
        for what, nodes in claims.items():
            swapped = leaves.copy()
            swapped[lane] = nodes[int(rng.integers(nodes.size))]
            with pytest.raises(RuntimeError, match="disagree with the CPU reference"):
                certify_votes(boxes, X, swapped)

    def test_certifies_more_lanes_than_one_block(
        self, small_trees, queries, monkeypatch
    ):
        monkeypatch.setattr(cpu_reference, "CERTIFY_CHUNK_LANES", 64)
        boxes = leaf_boxes(small_trees)
        layout = _family_layout("hier", small_trees, "float32")
        leaves = np.empty(queries.shape[0] * len(small_trees), dtype=np.int32)
        fastpath_predict(layout, queries, leaves=leaves)
        votes = certify_votes(boxes, queries, leaves)
        assert np.array_equal(votes, reference_votes(small_trees, queries))
        X = queries.copy()
        X[-1] = np.nan  # only the last block holds a bad row
        with pytest.raises(RuntimeError, match="outside its claimed leaf"):
            certify_votes(boxes, X, leaves)

    def test_non_finite_rows_fail_closed(self, small_trees, queries):
        boxes = leaf_boxes(small_trees)
        layout = _family_layout("csr", small_trees, "float32")
        X = queries[:4].copy()
        leaves = np.empty(X.shape[0] * len(small_trees), dtype=np.int32)
        fastpath_predict(layout, X, leaves=leaves)
        for bad in (np.nan, np.inf):
            X[2, small_trees[0].feature[0]] = bad
            with pytest.raises(RuntimeError, match="outside its claimed leaf"):
                certify_votes(boxes, X, leaves)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        specials=st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=6),
        wrong=st.integers(0, 3),
        subset=st.booleans(),
    )
    def test_accepts_exactly_what_the_two_table_checks_accepted(
        self, seed, specials, wrong, subset
    ):
        """The one-gather certificate against the three checks of ``lo <= x
        < hi`` over two tables, computed here by a plain path walk: same
        verdict, same message, same votes on every claim set."""
        rng = np.random.default_rng(seed)
        n_features = int(rng.integers(1, 5))
        trees = []
        for _ in range(int(rng.integers(1, 4))):
            tree = random_tree(rng, n_features, int(rng.integers(0, 5)), 0.3)
            threshold = tree.threshold.copy()
            inner = np.flatnonzero(tree.feature != LEAF)
            for value in specials[: inner.size]:
                threshold[inner[int(rng.integers(inner.size))]] = value
            trees.append(replace(tree, threshold=threshold))
        stack = stack_trees(trees)
        n_nodes = int(stack.feature.size)
        rows = int(rng.integers(1, 12))
        X = rng.standard_normal((rows, n_features)).astype(np.float32)
        X = np.where(rng.random(X.shape) < 0.5, snap_to_thresholds(trees, X), X)
        # Row values at the special thresholds and beside them, and NaN and
        # +-inf, passed to the certificate directly.
        for value in specials:
            near = np.float32(value)
            if np.isfinite(near) and rng.random() < 0.5:
                near = np.nextafter(near, np.float32(rng.choice([-np.inf, np.inf])))
            X.flat[int(rng.integers(X.size))] = near
        chosen = np.arange(len(trees))
        if subset:
            chosen = np.flatnonzero(rng.random(len(trees)) < 0.6)
        k = chosen.size
        offsets = np.cumsum([0] + [t.n_nodes for t in trees])
        walked = host_leaf_nodes(trees, X) + offsets[:-1]
        leaves = walked[:, chosen].ravel().astype(np.int32)
        other_leaf = np.flatnonzero(stack.feature == LEAF)
        for _ in range(wrong if leaves.size else 0):
            lane = int(rng.integers(leaves.size))
            own = chosen[lane % k]
            leaves[lane] = rng.choice(
                [
                    -1,
                    n_nodes,
                    2**31 - 1,
                    -(2**31),
                    offsets[own],  # the root: inner unless a one-leaf tree
                    int(rng.integers(offsets[own], offsets[own + 1])),
                    int(rng.choice(other_leaf)),
                ]
            )

        expected = _two_table_verdict(trees, X, leaves, chosen)
        boxes = leaf_boxes(trees)
        trees_arg = chosen if subset else None
        if expected is None:
            votes = certify_votes(boxes, X, leaves, trees=trees_arg)
            label = stack.value.take(leaves).reshape(rows, k)
            want = np.stack([np.bincount(r, minlength=stack.n_classes) for r in label])
            assert np.array_equal(votes, want.reshape(rows, stack.n_classes))
        else:
            with pytest.raises(CertificateError) as err:
                certify_votes(boxes, X, leaves, trees=trees_arg)
            assert str(err.value).endswith(expected)

    @pytest.mark.parametrize("t", SPECIAL_FLOATS + (0.5,))
    def test_float_edges_match_the_two_table_checks(self, t):
        """A one-split tree on threshold ``t``: every claim (-1 to 3) of a
        row at each special value, at ``t`` and one ULP either side of it."""
        tree = DecisionTree(
            feature=[0, LEAF, LEAF],
            threshold=[t, 0.0, 0.0],
            left_child=[1, -1, -1],
            right_child=[2, -1, -1],
            value=[-1, 0, 1],
        )
        t = np.float32(t)
        values = np.array(SPECIAL_FLOATS + (t, 0.5), dtype=np.float32)
        values = np.concatenate(
            [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
        )
        boxes = leaf_boxes([tree])
        one = np.zeros(1, dtype=np.int64)
        for x in values:
            X = np.array([[x]], dtype=np.float32)
            for claim in range(-1, 4):
                leaves = np.array([claim], dtype=np.int32)
                expected = _two_table_verdict([tree], X, leaves, one)
                if expected is None:
                    votes = certify_votes(boxes, X, leaves)
                    assert votes.tolist() == [[int(claim == 1), int(claim == 2)]]
                else:
                    with pytest.raises(CertificateError) as err:
                        certify_votes(boxes, X, leaves)
                    assert str(err.value).endswith(expected), (x, claim)

    @pytest.mark.parametrize("name", sorted(CERT_MUTANTS))
    def test_every_certificate_mutant_lets_a_planted_claim_through(self, name):
        """Two one-split trees, ``x0 < 0.5`` left (class 0) else right
        (class 1): nodes 0-2 and 3-5.  Each mutant accepts the wrong claims
        planted for it, which the certificate rejects."""
        split = DecisionTree(
            feature=[0, LEAF, LEAF],
            threshold=[0.5, 0.0, 0.0],
            left_child=[1, -1, -1],
            right_child=[2, -1, -1],
            value=[-1, 0, 1],
        )
        trees = [split, split]
        X = np.array([[0.0], [1.0]], dtype=np.float32)
        walked = np.array([1, 4, 2, 5], dtype=np.int32)
        # Per mutant, lane -> wrong claim.
        planted = {
            "cert-no-tree-compare": {0: 4},  # tree 1's left leaf in tree 0
            "cert-no-lo-half": {0: 2},  # x0 = 0 claims the right leaf
            "cert-no-hi-half": {2: 1},  # x0 = 1 claims the left leaf
            "cert-no-sentinel": {3: 3},  # tree 1's root, an inner node
        }[name]
        leaves = walked.copy()
        for lane, node in planted.items():
            leaves[lane] = node
        assert np.array_equal(
            certify_votes(leaf_boxes(trees), X, walked), [[2, 0], [0, 2]]
        )
        with pytest.raises(CertificateError):
            certify_votes(leaf_boxes(trees), X, leaves)

        mutant = _cert_mutant(name)
        votes = mutant["certify_votes"](mutant["leaf_boxes"](trees), X, leaves)
        assert votes.shape == (2, 2), "mutant is not live"

    def test_lowering_maps_every_slot_to_its_host_node(self, small_trees):
        """The host channel pairs each reachable slot with the host node of
        the same split feature; padding maps to -1."""
        stack = stack_trees(small_trees)
        for family in ("hier", "csr", "fil"):
            table = _family_layout(family, small_trees, "float32")._fastpath_edges
            mapped = table.host >= 0
            assert np.array_equal(
                table.feature[mapped], stack.feature[table.host[mapped]]
            )
            every_node = np.arange(stack.feature.size)
            assert np.array_equal(np.sort(table.host[mapped]), every_node)

    def test_lowering_rejects_a_table_that_disagrees_with_the_host(self, small_trees):
        layout = _family_layout("csr", small_trees, "float32")
        table = layout._fastpath_edges
        inner = np.flatnonzero(table.feature >= 0)
        wrong = replace(table, feature=table.feature.copy())
        wrong.feature[inner[-1]] = -1  # an inner slot posing as a leaf
        with pytest.raises(RuntimeError, match="disagrees with the host trees"):
            host_map(wrong, stack_trees(small_trees))


#: The traversal-core mutations the computed-children change was checked
#: against, as ``(source text, mutated text)`` of ``traverse_edges``.  They
#: live in the compacting walk, which these tests force by bounding the
#: flat walk at 0 lanes.
CORE_MUTANTS = {
    "crossing-off-by-one": (
        "(depth - rsd) % sd == sd - 1",
        "(depth - rsd) % sd == sd - 2",
    ),
    "root-crossing-at-rsd": ("depth == rsd - 1 if", "depth == rsd if"),
    "base-is-slot": (
        "if base is not None:\n                    base = slot - 1",
        "if base is not None:\n                    base = slot",
    ),
    "no-retired-lane-mask": (
        "if retired_before:\n                    step *= ~at_leaf",
        "if False:\n                    step *= ~at_leaf",
    ),
}


#: Mutations of the flat walk, which every call of at most
#: ``FASTPATH_FLAT_LANES`` lanes takes.
FLAT_MUTANTS = {
    "flat-one-level-short": (
        "while level < limit:",
        "while level < limit - 1:",
    ),
    "flat-no-went-right": (
        "succ.take(slot + slot + went_right, mode=\"clip\").astype(np.intp)",
        "succ.take(slot + slot, mode=\"clip\").astype(np.intp)",
    ),
    "flat-no-row-offset": (
        "np.arange(0, n * n_feat, n_feat, dtype=np.intp)",
        "np.zeros(n, dtype=np.intp)",
    ),
}


def _mutant(name):
    old, new = {**CORE_MUTANTS, **FLAT_MUTANTS}[name]
    return _mutated(engine, "traverse_edges", name, old, new)["traverse_edges"]


class TestCertificateDetection:
    """Each mutant walks some lane to a wrong leaf; the first served batch
    must raise instead of answering."""

    PARAMS = LayoutParams(4, 6)

    @pytest.mark.parametrize("name", sorted(CORE_MUTANTS) + sorted(FLAT_MUTANTS))
    def test_first_served_batch_raises(self, deep_trees, queries16, monkeypatch, name):
        if name in CORE_MUTANTS:
            monkeypatch.setattr(engine, "FASTPATH_FLAT_LANES", 0)
        mutant = _mutant(name)
        X = queries16[:64]
        table = HierarchicalForest.from_trees(deep_trees, self.PARAMS)._fastpath_edges
        leaves = np.empty(X.shape[0] * len(deep_trees), dtype=np.int32)
        mutant(table, X, leaves=leaves)
        offsets = np.cumsum([0] + [t.n_nodes for t in deep_trees])
        walked = host_leaf_nodes(deep_trees, X) + offsets[:-1]
        assert not np.array_equal(leaves, walked.ravel()), "mutant is not live"

        clf = HierarchicalForestClassifier.from_trees(deep_trees, X.shape[1])
        guard = ResilientClassifier(clf, deadline_s=10.0, seed=3)
        front = ServingFrontDoor(
            guard,
            config=RunConfig(variant="hybrid", layout=self.PARAMS),
            clock=SimulatedClock(),
            probe_X=X[:32],
        )
        monkeypatch.setattr(hierpath, "traverse_edges", mutant)
        for lo in range(0, X.shape[0], 8):
            front.submit(X[lo : lo + 8])
        with pytest.raises(RuntimeError, match="disagree"):
            front.drain()
        assert front.stats.batches == 0
