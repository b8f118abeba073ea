"""Tests for the CART builder (both splitters) and the feature binner."""

import glob
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.profiles import load_dataset
from collections import deque

from repro.forest.builder import (
    FeatureBinner,
    TreeBuilder,
    _gini_gain_from_counts,
    _midpoint,
    _resolve_max_features,
)
from repro.forest.io import load_forest
from repro.forest.random_forest import RandomForestClassifier
from repro.forest.tree import LEAF
from repro.runtime.planner import forest_fingerprint
from repro.utils.rng import as_rng

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _toy_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 5)).astype(np.float32)
    y = (X[:, 2] > 0.3).astype(np.int32)
    return X, y


class TestResolveMaxFeatures:
    def test_sqrt(self):
        assert _resolve_max_features("sqrt", 54) == 7

    def test_log2(self):
        assert _resolve_max_features("log2", 32) == 5

    def test_all(self):
        assert _resolve_max_features(None, 10) == 10
        assert _resolve_max_features("all", 10) == 10

    def test_int(self):
        assert _resolve_max_features(3, 10) == 3

    def test_int_out_of_range(self):
        with pytest.raises(ValueError):
            _resolve_max_features(11, 10)

    def test_fraction(self):
        assert _resolve_max_features(0.5, 10) == 5

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            _resolve_max_features(1.5, 10)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            _resolve_max_features([], 10)


class TestGiniGain:
    def test_perfect_split_has_max_gain(self):
        total = np.array([10.0, 10.0])
        perfect = np.array([[10.0, 0.0]])
        lopsided = np.array([[5.0, 3.0]])
        g1 = _gini_gain_from_counts(perfect, total)[0]
        g2 = _gini_gain_from_counts(lopsided, total)[0]
        assert g1 > g2 > -np.inf

    def test_empty_side_invalid(self):
        total = np.array([10.0, 10.0])
        gains = _gini_gain_from_counts(np.array([[0.0, 0.0]]), total)
        assert gains[0] == -np.inf

    def test_no_gain_for_proportional_split(self):
        total = np.array([10.0, 10.0])
        gains = _gini_gain_from_counts(np.array([[5.0, 5.0]]), total)
        assert gains[0] == pytest.approx(0.0, abs=1e-9)


class TestFeatureBinner:
    def test_roundtrip_consistency(self):
        X, _ = _toy_data()
        binner = FeatureBinner(max_bins=16).fit(X)
        codes = binner.transform(X)
        # The float threshold written for any bin boundary must reproduce
        # the binned decision on the training data.
        for f in range(X.shape[1]):
            nb = binner.n_bins(f)
            for b in (0, nb // 2):
                if b >= nb - 1:
                    continue
                thr = binner.threshold_for(f, b)
                assert np.array_equal(codes[:, f] <= b, X[:, f] < thr)

    def test_constant_feature(self):
        X = np.ones((50, 2), dtype=np.float32)
        X[:, 1] = np.arange(50)
        binner = FeatureBinner(8).fit(X)
        assert binner.n_bins(0) == 1
        assert binner.n_bins(1) > 1

    def test_few_distinct_values_get_exact_bins(self):
        X = np.zeros((60, 1), dtype=np.float32)
        X[20:40] = 1.0
        X[40:] = 2.0
        binner = FeatureBinner(256).fit(X)
        assert binner.n_bins(0) == 3

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            FeatureBinner().transform(np.ones((2, 2)))

    def test_feature_count_mismatch(self):
        binner = FeatureBinner().fit(np.ones((5, 3)) * np.arange(5)[:, None])
        with pytest.raises(ValueError):
            binner.transform(np.ones((2, 2)))


def _reference_binning(X, max_bins):
    """Per-column edges and codes: ``np.unique``, ``np.quantile`` and
    ``np.searchsorted`` on one column at a time."""
    quantiles = np.linspace(0, 1, max_bins + 1)[1:-1]
    edges, codes = [], np.empty(X.shape, dtype=np.uint16)
    for j in range(X.shape[1]):
        uniq = np.unique(X[:, j])
        if uniq.size <= 1:
            e = np.empty(0, dtype=np.float32)
        elif uniq.size <= max_bins:
            e = ((uniq[:-1] + uniq[1:]) / 2.0).astype(np.float32)
        else:
            e = np.unique(np.quantile(X[:, j], quantiles)).astype(np.float32)
        edges.append(e)
        codes[:, j] = np.searchsorted(e, X[:, j], side="left")
    return edges, codes


class TestBinnerMatchesPerColumnReference:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_edges_and_codes(self, data):
        n = data.draw(st.integers(1, 600), label="n")
        max_bins = data.draw(st.integers(2, 256), label="max_bins")
        kinds = data.draw(
            st.lists(
                st.sampled_from(["constant", "ties", "continuous"]),
                min_size=1,
                max_size=5,
            ),
            label="column kinds",
        )
        g = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        columns = {
            "constant": lambda: np.full(n, g.standard_normal()),
            "ties": lambda: g.integers(0, g.integers(2, 400), n) * 0.25,
            "continuous": lambda: g.standard_normal(n) * 10.0,
        }
        X = np.stack([columns[k]() for k in kinds], axis=1).astype(np.float32)
        binner = FeatureBinner(max_bins).fit(X)
        edges, codes = _reference_binning(X, max_bins)
        for got, want in zip(binner.edges_, edges):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        got_codes = binner.transform(X)
        assert got_codes.dtype == np.uint16 and got_codes.flags.c_contiguous
        assert np.array_equal(got_codes, codes)
        # Unseen values bin the same way.
        Z = (g.standard_normal(X.shape) * 10.0).astype(np.float32)
        want_z = [np.searchsorted(e, Z[:, j], side="left") for j, e in enumerate(edges)]
        assert np.array_equal(binner.transform(Z), np.stack(want_z, axis=1))


@pytest.mark.parametrize("splitter", ["hist", "exact"])
class TestTreeBuilder:
    def test_learns_simple_threshold(self, splitter):
        X, y = _toy_data()
        tree = TreeBuilder(
            max_depth=3, splitter=splitter, max_features="all"
        ).build(X, y, 2, rng=0)
        tree.validate()
        acc = np.mean(tree.predict(X) == y)
        assert acc > 0.95

    def test_max_depth_respected(self, splitter):
        X, y = _toy_data(seed=1)
        y = (np.sin(X[:, 0] * 3) > 0).astype(np.int32)  # needs depth
        tree = TreeBuilder(max_depth=4, splitter=splitter).build(X, y, 2, rng=0)
        assert tree.max_depth <= 4

    def test_pure_node_becomes_leaf(self, splitter):
        X = np.random.default_rng(0).standard_normal((50, 3)).astype(np.float32)
        y = np.zeros(50, dtype=np.int32)
        tree = TreeBuilder(splitter=splitter).build(X, y, 2, rng=0)
        assert tree.n_nodes == 1 and tree.value[0] == 0

    def test_min_samples_leaf(self, splitter):
        X, y = _toy_data(n=100)
        tree = TreeBuilder(
            min_samples_leaf=20, splitter=splitter, max_features="all"
        ).build(X, y, 2, rng=0)
        # Count samples per leaf by routing training data.
        leaves = tree.predict(X)  # labels, not leaves; instead check structure
        leaf_count = tree.n_leaves
        assert leaf_count <= 100 // 20 + 1

    def test_min_samples_split(self, splitter):
        X, y = _toy_data(n=60)
        t_loose = TreeBuilder(splitter=splitter, max_features="all").build(
            X, y, 2, rng=0
        )
        t_tight = TreeBuilder(
            min_samples_split=50, splitter=splitter, max_features="all"
        ).build(X, y, 2, rng=0)
        assert t_tight.n_nodes <= t_loose.n_nodes

    def test_deterministic(self, splitter):
        X, y = _toy_data()
        a = TreeBuilder(max_depth=5, splitter=splitter).build(X, y, 2, rng=9)
        b = TreeBuilder(max_depth=5, splitter=splitter).build(X, y, 2, rng=9)
        assert np.array_equal(a.feature, b.feature)
        assert np.array_equal(a.threshold, b.threshold)

    def test_label_validation(self, splitter):
        X, y = _toy_data()
        with pytest.raises(ValueError):
            TreeBuilder(splitter=splitter).build(X, y, 1, rng=0)  # label 1 >= 1

    def test_y_alignment(self, splitter):
        X, y = _toy_data()
        with pytest.raises(ValueError):
            TreeBuilder(splitter=splitter).build(X, y[:-1], 2, rng=0)


class TestBuilderConfigValidation:
    def test_bad_splitter(self):
        with pytest.raises(ValueError):
            TreeBuilder(splitter="magic")

    def test_bad_min_samples_split(self):
        with pytest.raises(ValueError):
            TreeBuilder(min_samples_split=1)

    def test_depth_zero_gives_stump_leaf(self):
        X, y = _toy_data()
        tree = TreeBuilder(max_depth=0).build(X, y, 2, rng=0)
        assert tree.n_nodes == 1


class TestSplitterAgreement:
    def test_hist_approximates_exact(self):
        """Histogram and exact splitters agree closely on accuracy."""
        X, y = _toy_data(n=600, seed=4)
        Xte = np.random.default_rng(9).standard_normal((300, 5)).astype(np.float32)
        yte = (Xte[:, 2] > 0.3).astype(np.int32)
        accs = {}
        for splitter in ("hist", "exact"):
            tree = TreeBuilder(
                max_depth=6, splitter=splitter, max_features="all"
            ).build(X, y, 2, rng=0)
            accs[splitter] = np.mean(tree.predict(Xte) == yte)
        assert abs(accs["hist"] - accs["exact"]) < 0.05


def _three_class_data(n=300, seed=2):
    """3 classes; feature 4 has few distinct values (ties), feature 5 is constant."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 6)).astype(np.float32)
    X[:, 4] = np.round(X[:, 4] * 2)
    X[:, 5] = 1.0
    noise = 0.3 * rng.standard_normal(n)
    y = np.digitize(X[:, 0] + 0.5 * X[:, 4] + noise, [-0.5, 0.5]).astype(np.int32)
    return X, y


def _sine_data():
    X, _ = _toy_data(seed=1)
    return X, (np.sin(X[:, 0] * 3) > 0).astype(np.int32)


class TestExactSplitterPinned:
    """``forest_fingerprint`` of exact-splitter trees, pinned so a rewrite of
    the split search must reproduce them bit for bit."""

    @pytest.mark.parametrize(
        "data, kwargs, seed, want",
        [
            (_toy_data, dict(max_depth=3, max_features="all"), 0, 2160190684),
            (lambda: _toy_data(seed=1), dict(max_features="sqrt"), 0, 1927009400),
            (
                lambda: _toy_data(n=100),
                dict(min_samples_leaf=20, max_features="all"),
                0,
                2825958112,
            ),
            (_sine_data, dict(max_depth=6, max_features="all"), 0, 2386360022),
            (_three_class_data, dict(max_features="all"), 0, 852986824),
            (
                _three_class_data,
                dict(min_samples_leaf=5, min_samples_split=12, max_features=3),
                3,
                998253527,
            ),
        ],
    )
    def test_tree_fingerprint(self, data, kwargs, seed, want):
        X, y = data()
        tree = TreeBuilder(splitter="exact", **kwargs).build(
            X, y, int(y.max()) + 1, rng=seed
        )
        assert forest_fingerprint([tree]) == want

    def test_forest_fingerprint(self):
        X, y = _three_class_data()
        forest = RandomForestClassifier(
            n_estimators=4, max_depth=8, splitter="exact", min_samples_leaf=2, seed=0
        ).fit(X, y)
        assert forest_fingerprint(forest.trees_) == 1109112547


class TestAdjacentFloats:
    def test_exact_splits_between_adjacent_floats(self):
        """The float32 midpoint of 1 and the next float up rounds to 1; the
        threshold must still separate the two values."""
        one = np.float32(1.0)
        up = np.nextafter(one, np.float32(2.0))
        X = np.array([[one], [one], [up], [up]], dtype=np.float32)
        y = np.array([0, 0, 1, 1], dtype=np.int32)
        for splitter in ("hist", "exact"):
            tree = TreeBuilder(splitter=splitter, max_features="all").build(
                X, y, 2, rng=0
            )
            assert tree.n_nodes == 3, splitter
            assert tree.threshold[0] == up
            assert np.array_equal(tree.predict(X), y), splitter


def _brute_force_split(X, y, n_classes, feats, min_leaf, splitter, binner):
    """Reference split search: a Python loop over (drawn feature, code).

    Returns ``(feature, threshold, n_left)`` of the first strictly best
    positive gain, or ``None``.
    """
    total = np.bincount(y, minlength=n_classes).astype(np.float64)
    best = None
    for f in feats:
        if splitter == "hist":
            codes = binner.transform(X)[:, f]
            bins = range(binner.n_bins(f) - 1)
            thresholds = [binner.threshold_for(f, b) for b in bins]
        else:
            uniq, codes = np.unique(X[:, f], return_inverse=True)
            bins = range(uniq.size - 1)
            thresholds = [_midpoint(uniq[b], uniq[b + 1]) for b in bins]
        for b, thr in zip(bins, thresholds):
            goes_left = codes <= b
            n_left = int(goes_left.sum())
            if n_left < min_leaf or y.size - n_left < min_leaf:
                continue
            left = np.bincount(y[goes_left], minlength=n_classes).astype(np.float64)
            gain = _gini_gain_from_counts(left[None, :], total)[0]
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, int(f), thr, n_left)
    return None if best is None else best[1:]


class TestSplitSearchMatchesBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_root_split(self, data):
        n_classes = data.draw(st.integers(2, 7), label="n_classes")
        n = data.draw(st.integers(2, 40), label="n")
        n_features = data.draw(st.integers(1, 5), label="n_features")
        levels = data.draw(st.integers(1, 6), label="levels")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        splitter = data.draw(st.sampled_from(["hist", "exact"]), label="splitter")
        min_leaf = data.draw(st.integers(1, 5), label="min_samples_leaf")
        k = data.draw(st.integers(1, n_features), label="max_features")
        max_bins = data.draw(st.integers(2, 8), label="max_bins")
        g = np.random.default_rng(seed)
        # Few distinct values give ties within a feature (and constant
        # features when levels == 1); a copied column gives exact ties
        # between features.
        X = g.integers(0, levels, (n, n_features)).astype(np.float32)
        if n_features > 1 and data.draw(st.booleans(), label="copy_column"):
            X[:, -1] = X[:, 0]
        y = g.integers(0, n_classes, n).astype(np.int32)
        # Bins fit on a wider sample leave some of them empty at the root.
        wider = np.vstack([X, g.integers(0, 2 * levels, (n, n_features)) / 2.0])
        binner = FeatureBinner(max_bins).fit(wider)

        tree = TreeBuilder(
            max_depth=1,
            min_samples_leaf=min_leaf,
            max_features=k,
            splitter=splitter,
            max_bins=max_bins,
        ).build(X, y, n_classes, rng=seed, binner=binner, codes=binner.transform(X))
        feats = as_rng(seed).random(n_features).argsort()[:k]
        want = _brute_force_split(X, y, n_classes, feats, min_leaf, splitter, binner)
        if want is None:
            assert tree.n_nodes == 1
        else:
            assert tree.n_nodes == 3
            feature, threshold, n_left = want
            assert tree.feature[0] == feature
            assert tree.threshold[0] == np.float32(threshold)
            assert tree.n_samples[tree.left_child[0]] == n_left


def _reference_grow(X, y, n_classes, builder, seed, binner):
    """Per-node reference grower: one node at a time, in FIFO order.

    A node that may split draws ``rng.random(n_features).argsort()[:k]``
    and takes :func:`_brute_force_split`.  Returns ``(feature, threshold,
    value, n_samples, depth, children)`` lists, with ``children[i]`` a
    ``(left, right)`` pair or ``None``.
    """
    rng = as_rng(seed)
    k = _resolve_max_features(builder.max_features, X.shape[1])
    nodes = []
    queue = deque([(np.arange(X.shape[0]), 0)])
    while queue:
        rows, depth = queue.popleft()
        counts = np.bincount(y[rows], minlength=n_classes)
        node = [LEAF, 0.0, int(counts.argmax()), rows.size, depth, None]
        nodes.append(node)
        if (
            np.count_nonzero(counts) <= 1
            or (builder.max_depth is not None and depth >= builder.max_depth)
            or rows.size < builder.min_samples_split
        ):
            continue
        feats = rng.random(X.shape[1]).argsort()[:k]
        split = _brute_force_split(
            X[rows],
            y[rows],
            n_classes,
            feats,
            builder.min_samples_leaf,
            builder.splitter,
            binner,
        )
        if split is None:
            continue
        feature, threshold, _ = split
        goes_left = X[rows, feature] < np.float32(threshold)
        n_queued = len(nodes) + len(queue)
        node[0], node[1], node[2] = feature, np.float32(threshold), -1
        node[5] = (n_queued, n_queued + 1)
        queue.append((rows[goes_left], depth + 1))
        queue.append((rows[~goes_left], depth + 1))
    return [list(col) for col in zip(*nodes)]


def _assert_same_tree(tree, want):
    """Walk both trees from the root and compare them node for node."""
    feature, threshold, value, n_samples, depth, children = want
    stack = [(0, 0)]
    while stack:
        i, j = stack.pop()
        got = (tree.feature[i], tree.threshold[i], tree.value[i])
        assert got == (feature[j], threshold[j], value[j]), (i, j)
        assert (tree.n_samples[i], tree.depth[i]) == (n_samples[j], depth[j])
        if children[j] is not None:
            stack.append((tree.left_child[i], children[j][0]))
            stack.append((tree.right_child[i], children[j][1]))
    assert tree.n_nodes == len(feature)


def _assert_preorder(tree):
    """A left child follows its parent; a right child follows the left
    child's subtree."""
    inner = np.flatnonzero(tree.feature != LEAF)
    sizes = tree.subtree_sizes()
    assert np.array_equal(tree.left_child[inner], inner + 1)
    assert np.array_equal(tree.right_child[inner], inner + 1 + sizes[inner + 1])


class TestLevelWiseGrowth:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_per_node_reference(self, data):
        n_classes = data.draw(st.integers(2, 7), label="n_classes")
        n = data.draw(st.integers(2, 80), label="n")
        n_features = data.draw(st.integers(1, 6), label="n_features")
        levels = data.draw(st.integers(1, 8), label="levels")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        splitter = data.draw(st.sampled_from(["hist", "exact"]), label="splitter")
        max_features = data.draw(
            st.one_of(st.just("all"), st.integers(1, n_features)), label="max_features"
        )
        builder = TreeBuilder(
            max_depth=data.draw(
                st.sampled_from([0, 1, 2, 3, 5, None]), label="max_depth"
            ),
            min_samples_split=data.draw(st.integers(2, 8), label="min_samples_split"),
            min_samples_leaf=data.draw(st.integers(1, 5), label="min_samples_leaf"),
            max_features=max_features,
            splitter=splitter,
            max_bins=data.draw(st.integers(2, 16), label="max_bins"),
        )
        g = np.random.default_rng(seed)
        # Few levels give ties within a feature; above 6 levels, noise makes
        # every value distinct, so the hist splitter bins by quantile.
        X = g.integers(0, levels, (n, n_features)).astype(np.float32)
        X += g.standard_normal(X.shape).astype(np.float32) * (levels > 6)
        if n_features > 1 and data.draw(st.booleans(), label="copy_column"):
            X[:, -1] = X[:, 0]
        y = g.integers(0, n_classes, n).astype(np.int32)
        binner = FeatureBinner(builder.max_bins).fit(X)

        tree = builder.build(X, y, n_classes, rng=seed, binner=binner)
        tree.validate()
        _assert_preorder(tree)
        _assert_same_tree(tree, _reference_grow(X, y, n_classes, builder, seed, binner))

    @pytest.mark.parametrize(
        "name",
        sorted(
            os.path.basename(p)
            for p in glob.glob(os.path.join(REPO, ".cache", "forests", "*.npz"))
        ),
    )
    def test_checked_in_forests_are_preorder(self, name):
        for tree in load_forest(os.path.join(REPO, ".cache", "forests", name)).trees_:
            _assert_preorder(tree)


class TestCheckedInForests:
    """The trainer reproduces the checked-in ``.cache/forests`` bit for bit."""

    @pytest.mark.parametrize("name, depth", [("susy", 20), ("higgs", 30)])
    def test_retrain_matches_cache(self, name, depth):
        fname = f"{name}_d{depth}_t8_r4000_s0.npz"
        path = os.path.join(REPO, ".cache", "forests", fname)
        ds = load_dataset(name, rows=4000)
        forest = RandomForestClassifier(n_estimators=8, max_depth=depth, seed=0).fit(
            ds.X_train, ds.y_train
        )
        want = forest_fingerprint(load_forest(path).trees_)
        assert forest_fingerprint(forest.trees_) == want
