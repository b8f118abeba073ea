"""More property-based tests: CSR/FIL structural invariants, binner
monotonicity, footprint accounting, truncation-prediction consistency."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines.cuml_fil import FILForest
from repro.forest.builder import FeatureBinner
from repro.forest.prune import truncate_depth
from repro.forest.tree import LEAF, random_tree
from repro.layout.csr import CSRForest
from repro.layout.footprint import hierarchical_bytes
from repro.layout.hierarchical import HierarchicalForest, LayoutParams

tree_seeds = st.integers(0, 10_000)
depths = st.integers(0, 9)


class TestCSRInvariants:
    @settings(max_examples=40, deadline=None)
    @given(seed=tree_seeds, depth=depths)
    def test_children_entries_exactly_two_per_inner(self, seed, depth):
        tree = random_tree(seed, 6, depth, leaf_prob=0.35)
        csr = CSRForest.from_trees([tree])
        n_inner = int(np.count_nonzero(tree.feature != LEAF))
        assert csr.total_children_entries == 2 * n_inner

    @settings(max_examples=40, deadline=None)
    @given(seed=tree_seeds, depth=st.integers(1, 9))
    def test_children_ids_cover_non_roots(self, seed, depth):
        """Every non-root node appears exactly once in children_arr."""
        tree = random_tree(seed, 6, depth, leaf_prob=0.35, min_nodes=3)
        csr = CSRForest.from_trees([tree])
        ids = np.sort(csr.children_arr)
        expected = np.arange(1, tree.n_nodes)
        assert np.array_equal(ids, expected)


class TestFILInvariants:
    @settings(max_examples=40, deadline=None)
    @given(seed=tree_seeds, depth=depths)
    def test_bfs_order_and_adjacency(self, seed, depth):
        """FIL stores children adjacently at increasing indices."""
        tree = random_tree(seed, 6, depth, leaf_prob=0.35)
        fil = FILForest.from_trees([tree])
        inner = np.flatnonzero(fil.feature >= 0)
        for i in inner:
            lc = fil.left_child[i]
            assert lc > i  # BFS: children after parents
            assert lc + 1 < fil.total_nodes


class TestBinnerProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(-100, 100, allow_nan=False, width=32),
            min_size=4,
            max_size=200,
        ),
        st.integers(2, 16),
    )
    def test_codes_monotone_in_value(self, values, max_bins):
        """Larger feature values never get smaller bin codes."""
        X = np.asarray(values, dtype=np.float32).reshape(-1, 1)
        binner = FeatureBinner(max_bins).fit(X)
        codes = binner.transform(X)[:, 0].astype(np.int64)
        order = np.argsort(X[:, 0], kind="stable")
        sorted_codes = codes[order]
        assert np.all(np.diff(sorted_codes) >= 0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(-50, 50, allow_nan=False, width=32),
            min_size=4,
            max_size=100,
        )
    )
    def test_bin_count_bounded(self, values):
        X = np.asarray(values, dtype=np.float32).reshape(-1, 1)
        binner = FeatureBinner(8).fit(X)
        assert 1 <= binner.n_bins(0) <= 8


class TestFootprintProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=tree_seeds, depth=st.integers(1, 8))
    def test_hier_at_least_node_bytes(self, seed, depth):
        tree = random_tree(seed, 6, depth, leaf_prob=0.3, min_nodes=3)
        hier = HierarchicalForest.from_trees([tree], LayoutParams(4))
        assert hierarchical_bytes(hier) >= tree.n_nodes * 8


class TestTruncationPredictions:
    @settings(max_examples=25, deadline=None)
    @given(seed=tree_seeds, depth=st.integers(2, 8), cut=st.integers(1, 8))
    def test_short_paths_unchanged(self, seed, depth, cut):
        """Queries that reach a leaf above the cut keep their prediction."""
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, 5, depth, leaf_prob=0.4)
        X = rng.standard_normal((64, 5)).astype(np.float32)
        out_full = tree.predict(X)
        out_cut = truncate_depth(tree, cut).predict(X)
        for i in range(64):
            path = list(tree.decision_path(X[i]))
            if len(path) - 1 < cut:  # leaf above the cut depth
                assert out_cut[i] == out_full[i]
