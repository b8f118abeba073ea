"""Tests for the synthetic dataset generators and named profiles."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.datasets.profiles import (
    PROFILES,
    load_dataset,
    make_synthetic_forest,
)
from repro.datasets.synthetic import (
    make_forest_classification,
    make_teacher_tree,
    train_test_split_half,
)
from repro.forest.random_forest import RandomForestClassifier


class TestTeacherTree:
    def test_valid_structure(self):
        t = make_teacher_tree(0, n_features=8, n_informative=4, depth=6)
        t.validate()
        assert t.max_depth <= 6

    def test_min_depth_enforced(self):
        t = make_teacher_tree(0, 8, 4, depth=8, branch_prob=0.0, min_depth=4)
        # branch_prob 0 stops growth right after min_depth.
        assert t.max_depth == 4

    def test_informative_features_only(self):
        t = make_teacher_tree(3, n_features=20, n_informative=3, depth=5)
        inner_features = set(t.feature[t.feature >= 0].tolist())
        assert len(inner_features) <= 3


class TestMakeForestClassification:
    def test_shapes_and_dtypes(self):
        X, y = make_forest_classification(500, 7, seed=0)
        assert X.shape == (500, 7) and X.dtype == np.float32
        assert y.shape == (500,) and set(np.unique(y)) <= {0, 1}

    def test_deterministic(self):
        a = make_forest_classification(200, 5, seed=42)
        b = make_forest_classification(200, 5, seed=42)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_noise_bounds_accuracy(self):
        """A strong learner cannot beat the 1-noise ceiling by much."""
        X, y = make_forest_classification(
            4000, 6, noise=0.3, teacher_depth=4, signal_decay=0.6, seed=1
        )
        Xtr, ytr, Xte, yte = train_test_split_half(X, y, seed=2)
        clf = RandomForestClassifier(n_estimators=15, max_depth=8, seed=0)
        clf.fit(Xtr, ytr)
        assert clf.score(Xte, yte) < 0.76  # ceiling 0.70 + margin

    def test_signal_learnable(self):
        X, y = make_forest_classification(
            3000, 6, noise=0.05, teacher_depth=5, signal_decay=0.7, seed=3
        )
        Xtr, ytr, Xte, yte = train_test_split_half(X, y, seed=2)
        clf = RandomForestClassifier(n_estimators=15, max_depth=10, seed=0)
        clf.fit(Xtr, ytr)
        assert clf.score(Xte, yte) > 0.82

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_forest_classification(10, 5, noise=0.7)
        with pytest.raises(ValueError):
            make_forest_classification(0, 5)
        with pytest.raises(ValueError):
            make_forest_classification(10, 5, teacher_depth=0)


class TestTrainTestSplit:
    def test_half_split(self):
        X = np.arange(20, dtype=np.float32).reshape(10, 2)
        y = np.arange(10)
        Xtr, ytr, Xte, yte = train_test_split_half(X, y, seed=0)
        assert len(Xtr) == 5 and len(Xte) == 5
        # Partition: together they cover all rows exactly once.
        all_y = np.sort(np.concatenate([ytr, yte]))
        assert np.array_equal(all_y, np.arange(10))

    def test_too_small(self):
        with pytest.raises(ValueError):
            train_test_split_half(np.ones((1, 2)), np.ones(1))


class TestProfiles:
    def test_all_paper_datasets_present(self):
        assert set(PROFILES) == {"covertype", "susy", "higgs"}

    def test_table1_sizes(self):
        assert PROFILES["covertype"].paper_samples == 581_012
        assert PROFILES["covertype"].n_features == 54
        assert PROFILES["susy"].paper_samples == 3_000_000
        assert PROFILES["susy"].n_features == 18
        assert PROFILES["higgs"].paper_samples == 2_750_000
        assert PROFILES["higgs"].n_features == 28

    def test_ceiling_ordering(self):
        """Paper Fig. 5: covertype peak > susy peak > higgs peak."""
        c = PROFILES["covertype"]
        s = PROFILES["susy"]
        h = PROFILES["higgs"]
        assert c.paper_peak_accuracy > s.paper_peak_accuracy > h.paper_peak_accuracy
        # Our generator noise must preserve the same ordering of ceilings.
        assert (1 - c.noise) > (1 - s.noise) > (1 - h.noise)

    def test_load_dataset_shapes(self):
        ds = load_dataset("higgs", rows=1000)
        assert ds.X_train.shape == (500, 28)
        assert ds.X_test.shape == (500, 28)
        assert ds.n_features == 28
        assert ds.n_queries == 500

    def test_load_dataset_deterministic(self):
        a = load_dataset("susy", rows=600)
        b = load_dataset("susy", rows=600)
        assert np.array_equal(a.X_train, b.X_train)

    def test_scale_fraction(self):
        ds = load_dataset("covertype", scale=0.001)
        assert abs(ds.X_train.shape[0] * 2 - 581) <= 2

    def test_rows_and_scale_exclusive(self):
        with pytest.raises(ValueError):
            load_dataset("susy", rows=100, scale=0.1)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("mnist")


class TestSyntheticForest:
    def test_table3_shape(self):
        forest, X = make_synthetic_forest(
            n_trees=5, depth=9, n_features=8, n_queries=500, seed=1
        )
        assert len(forest.trees_) == 5
        assert X.shape == (500, 8)
        for t in forest.trees_:
            t.validate()
            assert t.max_depth == 9  # trees reach the requested depth

    def test_queries_classifiable(self):
        forest, X = make_synthetic_forest(
            n_trees=3, depth=6, n_features=6, n_queries=100, seed=2
        )
        pred = forest.predict(X)
        assert pred.shape == (100,)


class TestWithoutScipy:
    def test_load_train_and_classify_import_no_scipy(self):
        """Only ``repro.paper`` needs scipy; the serving and batch paths,
        from dataset generation to a fastpath launch, run without it."""
        src = Path(repro.__file__).resolve().parent.parent
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from repro.core.classifier import HierarchicalForestClassifier\n"
            "from repro.core.config import RunConfig\n"
            "from repro.datasets.profiles import load_dataset\n"
            "ds = load_dataset('susy', rows=400, seed=0)\n"
            "clf = HierarchicalForestClassifier(n_estimators=3, max_depth=6, seed=0)\n"
            "clf.fit(ds.X_train, ds.y_train)\n"
            "res = clf.classify(ds.X_test, RunConfig(trace='off'))\n"
            "assert (res.predictions == clf.predict(ds.X_test)).all()\n"
            "print(res.predictions.shape[0])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "200"
