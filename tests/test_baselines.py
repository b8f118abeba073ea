"""Tests for the CPU reference and its agreement with all layouts."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.baselines.cpu_reference import reference_predict, reference_votes
from repro.forest import random_forest
from repro.forest.random_forest import RandomForestClassifier, vote_counts
from repro.forest.tree import DecisionTree, leaf_labels, random_tree, stack_trees


class TestReferenceVotes:
    def test_vote_totals(self, small_trees, queries):
        votes = reference_votes(small_trees, queries)
        assert votes.shape == (queries.shape[0], 2)
        assert np.all(votes.sum(axis=1) == len(small_trees))

    def test_matches_forest_predict(self, small_trees, queries):
        clf = RandomForestClassifier.from_trees(small_trees, 12)
        assert np.array_equal(
            reference_predict(small_trees, queries), clf.predict(queries)
        )

    def test_tie_breaks_low(self, small_trees, queries):
        votes = reference_votes(small_trees, queries)
        pred = reference_predict(small_trees, queries)
        ties = votes[:, 0] == votes[:, 1]
        assert np.all(pred[ties] == 0)

    def test_empty_forest_rejected(self, queries):
        with pytest.raises(ValueError):
            reference_votes([], queries)

    def test_zero_rows_rejected(self, small_trees, queries):
        with pytest.raises(ValueError, match="non-empty"):
            reference_votes(small_trees, queries[:0])


# ----------------------------------------------------------------------
# The lock-step pass against the scalar walker
# ----------------------------------------------------------------------
class NonNegativeTake(np.ndarray):
    """An array whose ``take`` and ``[]`` reject negative indices.

    NumPy wraps index -1 to the last element; a device gather would read
    out of bounds instead.  Viewing a table as this class makes a walker's
    negative gather index fail loudly.
    """

    def _check(self, idx):
        idx = np.asarray(idx)
        if idx.dtype != bool and idx.size and idx.min() < 0:
            raise IndexError("negative gather index")

    def take(self, indices, *args, **kwargs):
        self._check(indices)
        return np.asarray(self).take(indices, *args, **kwargs)

    def __getitem__(self, idx):
        self._check(idx)
        return np.asarray(self)[idx]


def three_class_forest():
    """3-class trees on 2 features and 400 rows to run them on.

    Tree 0 is a single leaf, so lane (row 0, tree 0) is done at the first
    level while most lanes go on: a walker that keeps finished lanes in
    its frontier must not gather with their (negative) leaf feature.
    """
    rng = np.random.default_rng(29)
    trees = [DecisionTree.leaf(2, n_classes=3)] + [
        random_tree(rng, 2, int(rng.integers(3, 9)), leaf_prob=0.2, n_classes=3)
        for _ in range(7)
    ]
    return trees, rng.standard_normal((400, 2)).astype(np.float32)


N_FEATURES = 5
#: (seed, max_depth, n_classes) per tree: depth 0 is a single leaf.
ragged_forests = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 8), st.sampled_from([2, 3])),
    min_size=1,
    max_size=6,
)


def _forest(specs):
    return [
        random_tree(np.random.default_rng(seed), N_FEATURES, depth, n_classes=k)
        for seed, depth, k in specs
    ]


def _scalar_votes(trees, X):
    """Votes from ``DecisionTree.decision_path``, one row and tree at a time."""
    votes = np.zeros((X.shape[0], max(t.n_classes for t in trees)), dtype=np.int64)
    for tree in trees:
        for i, x in enumerate(X):
            *_, leaf = tree.decision_path(x)
            votes[i, tree.value[leaf]] += 1
    return votes


class TestLockStepOracle:
    @settings(max_examples=60, deadline=None)
    @given(specs=ragged_forests, n_rows=st.integers(1, 40), seed=st.integers(0, 99))
    def test_matches_scalar_walker(self, specs, n_rows, seed):
        trees = _forest(specs)
        X = np.random.default_rng(seed).standard_normal((n_rows, N_FEATURES))
        X = X.astype(np.float32)
        assert np.array_equal(reference_votes(trees, X), _scalar_votes(trees, X))
        for tree in trees:
            assert np.array_equal(tree.predict(X), _scalar_votes([tree], X).argmax(1))

    @pytest.mark.parametrize("n_rows", [0, 1, 50])
    def test_row_counts_across_lane_chunks(self, n_rows, monkeypatch):
        trees = _forest([(1, 0, 2), (2, 6, 3), (3, 8, 2)])
        X = np.random.default_rng(n_rows).standard_normal((n_rows, N_FEATURES))
        X = X.astype(np.float32)
        monkeypatch.setattr(random_forest, "VOTE_CHUNK_LANES", 7)  # 2 rows a chunk
        votes = vote_counts(trees, X, 3)
        assert votes.shape == (n_rows, 3)
        assert np.array_equal(votes, _scalar_votes(trees, X))
        assert np.array_equal(stack_trees(trees).roots, [0, 1, 1 + trees[1].n_nodes])

    @pytest.mark.parametrize("label", [2, -1])
    def test_out_of_range_leaf_label_raises(self, queries, label):
        trees = [DecisionTree.leaf(0), DecisionTree.leaf(label)]
        with pytest.raises(IndexError, match="leaf label"):
            reference_votes(trees, queries)

    def test_zero_rows_give_zero_lanes(self, small_trees, queries):
        labels = leaf_labels(stack_trees(small_trees), queries[:0])
        assert labels.shape == (0,) and labels.dtype == np.int32

    def test_finished_lanes_read_x_in_bounds(self):
        trees, X = three_class_forest()
        labels = leaf_labels(stack_trees(trees), X.view(NonNegativeTake))
        assert np.array_equal(
            np.bincount(
                np.arange(labels.size) // len(trees) * 3 + labels,
                minlength=X.shape[0] * 3,
            ).reshape(-1, 3),
            _scalar_votes(trees, X),
        )

    def test_split_feature_beyond_X_raises(self, small_trees, queries):
        with pytest.raises(IndexError, match="features"):
            reference_votes(small_trees, queries[:, :4])

    def test_oracle_imports_no_layout_or_fastpath(self):
        """Package ``__init__`` re-exports are stubbed out, so only the
        oracle modules' own imports load; neither forbidden package may."""
        src = Path(repro.__file__).resolve().parent.parent
        code = (
            "import sys, types, pathlib\n"
            f"root = pathlib.Path({str(src)!r})\n"
            "for init in sorted((root / 'repro').rglob('__init__.py')):\n"
            "    name = '.'.join(init.parent.relative_to(root).parts)\n"
            "    if name in ('repro.fastpath', 'repro.layout'):\n"
            "        continue\n"
            "    mod = types.ModuleType(name)\n"
            "    mod.__path__ = [str(init.parent)]\n"
            "    sys.modules[name] = mod\n"
            "import repro.baselines.cpu_reference, repro.forest.tree\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('repro.fastpath', 'repro.layout'))))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
