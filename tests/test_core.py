"""Tests for the core API: configs, results, HierarchicalForestClassifier."""

import numpy as np
import pytest

from repro.core import (
    ComparisonTable,
    HierarchicalForestClassifier,
    KernelVariant,
    Platform,
    RunConfig,
    RunResult,
)
from repro.forest.random_forest import vote_counts
from repro.fpgasim.replication import Replication
from repro.layout.hierarchical import LayoutParams


class TestRunConfig:
    def test_defaults(self):
        c = RunConfig()
        assert c.platform is Platform.GPU
        assert c.variant is KernelVariant.HYBRID

    def test_string_coercion(self):
        c = RunConfig(platform="fpga", variant="csr")
        assert c.platform is Platform.FPGA
        assert c.variant is KernelVariant.CSR

    def test_cuml_fpga_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(platform="fpga", variant="cuml")

    def test_labels(self):
        assert RunConfig(variant="csr").label == "gpu-csr"
        assert (
            RunConfig(variant="hybrid", layout=LayoutParams(6, 10)).label
            == "gpu-hybrid-SD6-RSD10"
        )
        assert (
            RunConfig(
                platform="fpga",
                variant="independent",
                replication=Replication(4, 12),
            ).label
            == "fpga-independent-SD6-4S12C"
        )

    def test_paper_variants(self):
        assert len(KernelVariant.paper_variants()) == 4


class TestRunResultAndTable:
    def _mk(self, label_variant, seconds):
        return RunResult(
            config=RunConfig(variant=label_variant),
            predictions=np.zeros(4, dtype=np.int64),
            seconds=seconds,
        )

    def test_speedup(self):
        base = self._mk("csr", 2.0)
        fast = self._mk("hybrid", 0.5)
        assert fast.speedup_over(base) == 4.0

    def test_zero_seconds_rejected(self):
        bad = self._mk("csr", 0.0)
        with pytest.raises(ValueError):
            bad.speedup_over(bad)

    def test_table_render(self):
        t = ComparisonTable()
        t.add(self._mk("csr", 2.0))
        t.add(self._mk("hybrid", 0.5))
        out = t.render(title="demo")
        assert "demo" in out and "gpu-hybrid" in out and "4.0000" in out

    def test_table_named_baseline(self):
        t = ComparisonTable(baseline_label="gpu-hybrid-SD6")
        t.add(self._mk("csr", 2.0))
        t.add(self._mk("hybrid", 0.5))
        assert t.baseline().seconds == 0.5

    def test_table_missing_baseline(self):
        t = ComparisonTable(baseline_label="nope")
        t.add(self._mk("csr", 1.0))
        with pytest.raises(KeyError):
            t.baseline()

    def test_empty_table(self):
        with pytest.raises(ValueError):
            ComparisonTable().baseline()


@pytest.fixture(scope="module")
def fitted(trained_small):
    clf, Xtr, ytr, Xte, yte = trained_small
    return HierarchicalForestClassifier.from_forest(clf), Xte, yte


class TestClassifier:
    def test_fit_and_score(self, trained_small):
        _, Xtr, ytr, Xte, yte = trained_small
        clf = HierarchicalForestClassifier(n_estimators=5, max_depth=6, seed=0)
        clf.fit(Xtr, ytr)
        assert clf.score(Xte, yte) > 0.7

    def test_classify_all_gpu_variants(self, fitted):
        clf, Xte, yte = fitted
        ref = clf.predict(Xte)
        for variant in ("csr", "independent", "collaborative", "hybrid", "cuml"):
            res = clf.classify(Xte, RunConfig(variant=variant), y_true=yte)
            assert np.array_equal(res.predictions, ref)
            assert res.seconds > 0
            assert res.accuracy == pytest.approx(np.mean(ref == yte))

    def test_classify_all_fpga_variants(self, fitted):
        clf, Xte, _ = fitted
        ref = clf.predict(Xte)
        for variant in ("csr", "independent", "collaborative", "hybrid"):
            res = clf.classify(
                Xte, RunConfig(platform="fpga", variant=variant)
            )
            assert np.array_equal(res.predictions, ref)

    def test_layout_cache_reused(self, fitted):
        clf, Xte, _ = fitted
        cfg = RunConfig(variant="independent", layout=LayoutParams(5))
        l1 = clf.layout_for(cfg)
        l2 = clf.layout_for(cfg)
        assert l1 is l2

    def test_layout_cache_distinguishes_params(self, fitted):
        clf, _, _ = fitted
        a = clf.layout_for(RunConfig(variant="independent", layout=LayoutParams(4)))
        b = clf.layout_for(RunConfig(variant="independent", layout=LayoutParams(6)))
        assert a is not b

    def test_fit_clears_cache(self, trained_small):
        clf, Xtr, ytr, _, _ = trained_small
        api = HierarchicalForestClassifier.from_forest(clf)
        api.layout_for(RunConfig(variant="csr"))
        assert api._layout_cache
        api.fit(Xtr, ytr)
        assert not api._layout_cache

    def test_from_trees(self, small_trees, queries):
        clf = HierarchicalForestClassifier.from_trees(small_trees, 12)
        res = clf.classify(queries, RunConfig(variant="independent"))
        assert res.predictions.shape == (queries.shape[0],)

    def test_from_unfitted_forest_rejected(self):
        from repro.forest.random_forest import RandomForestClassifier

        with pytest.raises(RuntimeError):
            HierarchicalForestClassifier.from_forest(RandomForestClassifier())

    def test_verification_catches_corruption(self, fitted):
        clf, Xte, _ = fitted
        layout = clf.layout_for(RunConfig(variant="csr"))
        # Corrupt, in the layout, the label of a tree-0 leaf that decides
        # some row's majority vote (CSR keeps tree 0's node ids);
        # verification must trip.
        votes = vote_counts(clf.trees, Xte, 2)
        tree0 = clf.trees[0].predict(Xte)
        rows = np.arange(Xte.shape[0])
        moved = votes.copy()
        moved[rows, tree0] -= 1
        moved[rows, 1 - tree0] += 1
        row = np.flatnonzero(moved.argmax(axis=1) != votes.argmax(axis=1))[0]
        leaf_idx = int(list(clf.trees[0].decision_path(Xte[row]))[-1])
        old = layout.value[leaf_idx]
        layout.value[leaf_idx] = 1.0 - old
        try:
            with pytest.raises(RuntimeError, match="disagrees"):
                clf.classify(Xte, RunConfig(variant="csr"))
        finally:
            layout.value[leaf_idx] = old


class TestClassifyInputValidation:
    """classify() rejects bad queries before planning or any launch."""

    @pytest.mark.parametrize(
        "verify, config",
        [
            (False, RunConfig(variant="auto", trace="off")),
            (True, RunConfig(variant="hybrid")),
        ],
        ids=["unverified-serve", "verified-model"],
    )
    def test_nan_queries_rejected_before_launch(self, trained_small, verify, config):
        forest, _, _, Xte, _ = trained_small
        clf = HierarchicalForestClassifier.from_forest(
            forest, verify_against_reference=verify
        )
        X = Xte[:3].copy()
        X[1, 0] = np.nan
        launches = []
        with pytest.raises(ValueError, match="NaN"):
            clf.classify(X, config, launch_gate=lambda: launches.append(1) or 0.0)
        assert launches == []

    def test_empty_queries_rejected(self, fitted):
        clf, Xte, _ = fitted
        empty = np.empty((0, Xte.shape[1]), dtype=np.float32)
        for config in (RunConfig(variant="hybrid"), RunConfig(variant="auto", trace="off")):
            with pytest.raises(ValueError, match="non-empty"):
                clf.classify(empty, config)
