"""FPGA kernel tests: functional correctness, Table 3 orderings, stats."""

import numpy as np
import pytest

from repro.baselines.cpu_reference import reference_predict
from repro.fpgasim.replication import Replication
from repro.kernels import (
    FPGACSRKernel,
    FPGACollaborativeKernel,
    FPGAHybridKernel,
    FPGAIndependentKernel,
)
from repro.fastpath.engine import select_trees
from repro.kernels.traversal_stats import level_counts, profile_workload
from repro.layout.csr import CSRForest
from repro.layout.hierarchical import HierarchicalForest, LayoutParams


@pytest.fixture(scope="module")
def layouts(small_trees):
    return {
        "csr": CSRForest.from_trees(small_trees),
        "hier": HierarchicalForest.from_trees(small_trees, LayoutParams(5)),
    }


@pytest.fixture(scope="module")
def reference(small_trees, queries):
    return reference_predict(small_trees, queries)


class TestTraversalStats:
    def test_labels_match_reference(self, layouts, small_trees, queries):
        table = layouts["hier"]._fastpath_edges
        for t, tree in enumerate(small_trees):
            labels, _ = level_counts(select_trees(table, [t]), queries)
            assert np.array_equal(labels, tree.predict(queries))

    def test_path_lengths_match_decision_paths(self, layouts, small_trees, queries):
        """Level ``d`` is walked by every query whose path is longer than ``d``."""
        table = select_trees(layouts["hier"]._fastpath_edges, [0])
        _, walking = level_counts(table, queries[:50])
        lengths = [len(list(small_trees[0].decision_path(x))) for x in queries[:50]]
        expected = [sum(n > d for n in lengths) for d in range(walking.shape[0])]
        assert walking.tolist() == expected

    def test_stage1_bounded_by_rsd_and_path(self, layouts, queries):
        h = layouts["hier"]
        _, counts = profile_workload(h, queries)
        lanes = queries.shape[0] * h.n_trees
        assert counts.stage1 <= h.params.rsd * lanes
        assert counts.stage1 <= counts.visits
        assert counts.stage1 >= lanes

    def test_crossings_consistent_with_paths(self, layouts, queries):
        """Every crossing is followed by a visit in the child subtree."""
        h = layouts["hier"]
        _, counts = profile_workload(h, queries)
        assert counts.crossings <= counts.visits - counts.stage1

    def test_subtree_level_totals(self, layouts, queries):
        h = layouts["hier"]
        _, counts = profile_workload(h, queries)
        total = sum(
            int(h.subtree_depth[slice(*h.tree_subtrees(t))].sum())
            for t in range(h.n_trees)
        )
        assert counts.sum_levels == total


class TestCorrectness:
    def test_all_variants_match_reference(self, layouts, queries, reference):
        runs = [
            FPGACSRKernel().run(layouts["csr"], queries),
            FPGAIndependentKernel().run(layouts["hier"], queries),
            FPGACollaborativeKernel().run(layouts["hier"], queries),
            FPGAHybridKernel().run(layouts["hier"], queries),
        ]
        for r in runs:
            assert np.array_equal(r.predictions, reference)

    def test_wrong_layout_rejected(self, layouts, queries):
        with pytest.raises(TypeError):
            FPGACSRKernel().run(layouts["hier"], queries)
        with pytest.raises(TypeError):
            FPGAIndependentKernel().run(layouts["csr"], queries)

    @pytest.mark.parametrize(
        "kernel_cls, family",
        [
            (FPGACSRKernel, "csr"),
            (FPGAIndependentKernel, "hier"),
            (FPGACollaborativeKernel, "hier"),
            (FPGAHybridKernel, "hier"),
        ],
    )
    def test_more_slrs_than_the_device_rejected(
        self, layouts, queries, kernel_cls, family
    ):
        """Every variant refuses a replication the 4-SLR U250 cannot hold."""
        with pytest.raises(ValueError, match="5 SLRs requested"):
            kernel_cls().run(layouts[family], queries[:64], Replication(5, 1))


class TestTable3Orderings:
    """The paper's Table 3 relationships on a small workload."""

    @pytest.fixture(scope="class")
    def results(self, layouts, queries):
        return {
            "csr": FPGACSRKernel().run(layouts["csr"], queries),
            "ind": FPGAIndependentKernel().run(layouts["hier"], queries),
            "col": FPGACollaborativeKernel().run(layouts["hier"], queries),
            "hyb": FPGAHybridKernel().run(layouts["hier"], queries),
        }

    def test_single_cu_ordering(self, results):
        """hybrid < independent < CSR << collaborative (seconds)."""
        assert results["hyb"].seconds < results["ind"].seconds
        assert results["ind"].seconds < results["csr"].seconds
        assert results["col"].seconds > results["csr"].seconds

    def test_iis_match_paper(self, results):
        assert results["csr"].pipeline.ii == 292
        assert results["ind"].pipeline.ii == 76
        assert results["col"].pipeline.ii == 3

    def test_collaborative_stall_dominates(self, results):
        """Table 3: collaborative stalls ~90%."""
        assert results["col"].stall_pct > 0.8

    def test_baseline_stall_near_11pct(self, results):
        assert results["csr"].stall_pct == pytest.approx(0.11, abs=0.02)
        assert results["ind"].stall_pct == pytest.approx(0.11, abs=0.02)

    def test_replication_speeds_up_independent(self, layouts, queries):
        single = FPGAIndependentKernel().run(layouts["hier"], queries)
        full = FPGAIndependentKernel().run(
            layouts["hier"], queries, Replication(4, 12)
        )
        assert full.seconds < single.seconds
        # Sub-linear but substantial scaling (paper: ~37x on 48 CUs).
        speedup = single.seconds / full.seconds
        assert 10 < speedup <= 48

    def test_replicated_independent_beats_replicated_hybrid(
        self, layouts, queries
    ):
        """Table 3: under full replication the independent variant wins."""
        ind = FPGAIndependentKernel().run(layouts["hier"], queries, Replication(4, 12))
        hyb = FPGAHybridKernel().run(layouts["hier"], queries, Replication(4, 12))
        assert ind.seconds < hyb.seconds

    def test_split_hybrid_beats_plain_replicated_hybrid(self, layouts, queries):
        """Table 3: the split configuration improves on the plain one."""
        plain = FPGAHybridKernel().run(layouts["hier"], queries, Replication(4, 12))
        split = FPGAHybridKernel().run(
            layouts["hier"], queries,
            Replication(4, 10, freq_mhz=245.0, split_stage1=True),
        )
        assert split.seconds < plain.seconds

    def test_predictions_invariant_under_replication(self, layouts, queries):
        a = FPGAIndependentKernel().run(layouts["hier"], queries)
        b = FPGAIndependentKernel().run(layouts["hier"], queries, Replication(4, 12))
        assert np.array_equal(a.predictions, b.predictions)


class TestPinnedSmokeRun:
    """Work items, simulated seconds and predictions of every variant on
    the checked-in susy smoke forest (256 queries), pinned bit for bit."""

    PINS = {
        # kernel: (layout, replication, work_items, seconds)
        FPGACSRKernel: ("csr", "single", 24535, 0.026827804321841092),
        FPGAIndependentKernel: ("hier", "4s12c", 24535, 0.00019747346461873981),
        FPGACollaborativeKernel: ("hier", "single", 340992, 0.08619372598194383),
        FPGAHybridKernel: ("hier", "split", 24535, 0.0003140547868811202),
    }

    @pytest.fixture(scope="class")
    def smoke(self):
        from repro.experiments.common import (
            band_depths,
            get_dataset,
            get_forest,
            get_scale,
            queries_for,
        )

        scale = get_scale("smoke")
        forest = get_forest("susy", band_depths("susy", scale)[0], scale.n_trees, scale)
        X = queries_for(get_dataset("susy", scale), scale)[:256]
        layouts = {
            "csr": CSRForest.from_trees(forest.trees_),
            "hier": HierarchicalForest.from_trees(forest.trees_, LayoutParams(6, 10)),
        }
        return forest.trees_, X, layouts

    @pytest.mark.parametrize(
        "kernel_cls",
        [FPGACSRKernel, FPGAIndependentKernel, FPGACollaborativeKernel, FPGAHybridKernel],
    )
    def test_pinned(self, smoke, kernel_cls):
        from repro.fpgasim.replication import FULL_4S12C, HYBRID_SPLIT_4S10C
        from repro.utils.validation import array_crc32

        trees, X, layouts = smoke
        family, repl, work_items, seconds = self.PINS[kernel_cls]
        replication = {
            "single": Replication(),
            "4s12c": FULL_4S12C,
            "split": HYBRID_SPLIT_4S10C,
        }[repl]
        res = kernel_cls().run(layouts[family], X, replication)
        assert res.pipeline.work_items == work_items
        assert res.seconds == seconds
        preds = np.asarray(res.predictions, dtype=np.int64)
        assert array_crc32(preds) == 0x6918FF82
        assert np.array_equal(preds, reference_predict(trees, X))
