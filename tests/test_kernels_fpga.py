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
from repro.kernels.traversal_stats import subtree_level_totals, traverse_tree_stats
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
        for t, tree in enumerate(small_trees):
            stats = traverse_tree_stats(layouts["hier"], queries, t)
            assert np.array_equal(stats.labels, tree.predict(queries))

    def test_path_lengths_match_decision_paths(self, layouts, small_trees, queries):
        stats = traverse_tree_stats(layouts["hier"], queries, 0)
        tree = small_trees[0]
        for i in range(50):
            expected = len(list(tree.decision_path(queries[i])))
            assert stats.path_lengths[i] == expected

    def test_stage1_bounded_by_rsd_and_path(self, layouts, queries):
        h = layouts["hier"]
        stats = traverse_tree_stats(h, queries, 0)
        rsd = h.params.rsd
        assert np.all(stats.stage1_levels <= rsd)
        assert np.all(stats.stage1_levels <= stats.path_lengths)
        assert np.all(stats.stage1_levels >= 1)

    def test_crossings_consistent_with_paths(self, layouts, queries):
        """A path of length L inside subtrees of depth sd crosses at most
        ceil(L / 1) - but at least (L - rsd) / sd times rounded down."""
        h = layouts["hier"]
        stats = traverse_tree_stats(h, queries, 0)
        assert np.all(stats.crossings <= stats.path_lengths)
        # Crossing count equals path length minus in-subtree steps; each
        # subtree contributes at least 1 step.
        assert np.all(stats.crossings * 1 <= stats.path_lengths)

    def test_subtree_level_totals(self, layouts):
        h = layouts["hier"]
        total = sum(subtree_level_totals(h, t) for t in range(h.n_trees))
        assert total == int(h.subtree_depth.sum())


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
