"""Integration tests: end-to-end determinism and cross-module agreement.

Reproducibility of the reproduction itself: the same seeds must yield
byte-identical results across the whole pipeline, and independent paths to
the same quantity must agree.
"""

import numpy as np
import pytest

from repro.core import HierarchicalForestClassifier, RunConfig
from repro.datasets import load_dataset, make_synthetic_forest
from repro.fastpath import fastpath_predict
from repro.layout import CSRForest, HierarchicalForest, LayoutParams


class TestDeterminism:
    def test_dataset_pipeline_deterministic(self):
        a = load_dataset("higgs", rows=1200, seed=3)
        b = load_dataset("higgs", rows=1200, seed=3)
        assert np.array_equal(a.X_train, b.X_train)
        assert np.array_equal(a.y_test, b.y_test)

    def test_full_pipeline_deterministic(self):
        """Two identical end-to-end runs produce identical counters."""

        def run():
            ds = load_dataset("susy", rows=1600, seed=1)
            clf = HierarchicalForestClassifier(
                n_estimators=6, max_depth=8, seed=4
            ).fit(ds.X_train, ds.y_train)
            res = clf.classify(ds.X_test, RunConfig(variant="hybrid"))
            return res

        r1, r2 = run(), run()
        assert np.array_equal(r1.predictions, r2.predictions)
        assert r1.seconds == r2.seconds
        assert r1.details == r2.details

    def test_synthetic_forest_deterministic(self):
        f1, q1 = make_synthetic_forest(n_trees=4, depth=8, n_queries=100, seed=2)
        f2, q2 = make_synthetic_forest(n_trees=4, depth=8, n_queries=100, seed=2)
        assert np.array_equal(q1, q2)
        for a, b in zip(f1.trees_, f2.trees_):
            assert np.array_equal(a.feature, b.feature)
            assert np.array_equal(a.threshold, b.threshold)


class TestCrossModuleAgreement:
    @pytest.fixture(scope="class")
    def pipeline(self):
        ds = load_dataset("susy", rows=1600, seed=1)
        clf = HierarchicalForestClassifier(
            n_estimators=6, max_depth=8, seed=4
        ).fit(ds.X_train, ds.y_train)
        return clf, ds

    def test_all_layouts_one_vote(self, pipeline):
        """CSR, hierarchical and FIL layouts agree with the forest."""
        clf, ds = pipeline
        ref = clf.forest.predict(ds.X_test)
        csr = CSRForest.from_trees(clf.trees)
        hier = HierarchicalForest.from_trees(clf.trees, LayoutParams(5))
        assert np.array_equal(fastpath_predict(csr, ds.X_test)[0], ref)
        assert np.array_equal(fastpath_predict(hier, ds.X_test)[0], ref)

    def test_gpu_fpga_same_predictions(self, pipeline):
        clf, ds = pipeline
        g = clf.classify(ds.X_test, RunConfig(platform="gpu", variant="hybrid"))
        f = clf.classify(ds.X_test, RunConfig(platform="fpga", variant="hybrid"))
        assert np.array_equal(g.predictions, f.predictions)

    def test_footprint_consistent_with_arrays(self, pipeline):
        """The byte model equals the actual array sizes it claims to count."""
        from repro.layout.footprint import hierarchical_bytes

        clf, _ = pipeline
        hier = HierarchicalForest.from_trees(clf.trees, LayoutParams(5))
        expected = (
            hier.feature_id.size * 4  # int32 feature ids
            + hier.value.size * 4  # float32 values
            + (hier.n_subtrees + 1) * 2 * 8  # int64 node/connection offsets
            + hier.subtree_connection.size * 4
            + hier.n_subtrees * 4  # subtree depths
            + hier.n_trees * 4  # tree roots
        )
        assert hierarchical_bytes(hier) == expected

    def test_truncated_forest_runs_kernels(self, pipeline):
        from repro.forest import truncate_forest

        clf, ds = pipeline
        cut = truncate_forest(clf.forest, 4)
        api = HierarchicalForestClassifier.from_forest(cut)
        res = api.classify(ds.X_test, RunConfig(variant="independent"))
        assert np.array_equal(res.predictions, cut.predict(ds.X_test))
