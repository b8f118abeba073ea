"""FPGA kernels' work-item accounting against independent traversal math."""

import numpy as np
import pytest

from repro.fpgasim.device import ALVEO_U250
from repro.kernels import (
    FPGACSRKernel,
    FPGACollaborativeKernel,
    FPGAHybridKernel,
    FPGAIndependentKernel,
)
from repro.forest.tree import LEAF
from repro.kernels.traversal_stats import WorkloadProfile, level_counts, profile_workload
from repro.layout.csr import CSRForest
from repro.layout.hierarchical import HierarchicalForest, LayoutParams


def reference_counts(trees, X, rsd, sd):
    """Work counts from host decision paths, one query and tree at a time.

    A path of ``n`` nodes visits depths ``0 .. n - 1``: it takes
    ``min(n, rsd)`` stage-1 steps inside the root subtree and crosses into
    a child subtree after each inner node at the last level of a subtree
    (depth ``rsd - 1``, then every ``sd`` levels).  A subtree spans the
    levels from its root's depth (0, ``rsd``, ``rsd + sd``, ...) down to its
    deepest node, at most ``rsd`` or ``sd`` of them.
    """

    def last_level(d):
        return d == rsd - 1 or (d >= rsd and (d - rsd) % sd == sd - 1)

    visits = stage1 = crossings = sum_levels = 0
    for tree in trees:
        for x in X:
            n = len(list(tree.decision_path(x)))
            visits += n
            stage1 += min(n, rsd)
            crossings += sum(last_level(d) for d in range(n - 1))
        levels = {}
        pending = [(0, 0, 0)]  # (node, depth, its subtree's root node)
        while pending:
            node, d, root = pending.pop()
            top = 0 if d < rsd else d - (d - rsd) % sd
            if d == top:
                root = node
            levels[root] = max(levels.get(root, 0), d - top + 1)
            if tree.feature[node] != LEAF:
                pending.append((int(tree.left_child[node]), d + 1, root))
                pending.append((int(tree.right_child[node]), d + 1, root))
        sum_levels += sum(levels.values())
    return visits, stage1, crossings, sum_levels


@pytest.fixture(scope="module")
def setup(small_trees, queries):
    hier = HierarchicalForest.from_trees(small_trees, LayoutParams(5))
    csr = CSRForest.from_trees(small_trees)
    visits = sum(
        len(list(tree.decision_path(x))) for tree in small_trees for x in queries
    )
    return hier, csr, visits


class TestWorkItems:
    def test_independent_items_equal_visits(self, setup, queries):
        hier, _, visits = setup
        r = FPGAIndependentKernel().run(hier, queries)
        assert r.pipeline.work_items == visits

    def test_csr_items_equal_visits(self, setup, queries):
        """CSR visits the same nodes (padding is never traversed)."""
        _, csr, visits = setup
        r = FPGACSRKernel().run(csr, queries)
        assert r.pipeline.work_items == visits

    def test_collaborative_items_equal_q_times_levels(self, setup, small_trees, queries):
        hier, _, _ = setup
        r = FPGACollaborativeKernel().run(hier, queries)
        levels = reference_counts(small_trees, queries[:0], 5, 5)[3]
        assert r.pipeline.work_items == queries.shape[0] * levels

    def test_hybrid_items_partition_visits(self, setup, queries):
        hier, _, visits = setup
        r = FPGAHybridKernel().run(hier, queries)
        assert r.pipeline.work_items == visits  # s1 + s2 partition

    def test_collaborative_wastes_work(self, setup, queries):
        """The collaborative pipeline processes far more items than there
        are real node visits — the starvation the paper quantifies as
        utilisation ~2^-s."""
        hier, _, visits = setup
        r = FPGACollaborativeKernel().run(hier, queries)
        assert r.pipeline.work_items > 3 * visits

    def test_ideal_cycles_lower_bound(self, setup, queries):
        """Simulated time is never below items x II / f."""
        hier, _, _ = setup
        r = FPGAIndependentKernel().run(hier, queries)
        floor = r.pipeline.work_items * 76 / (ALVEO_U250.clock_mhz * 1e6)
        assert r.seconds >= floor


class TestCountsFromOneWalk:
    """Every count is a sum over the lanes walking each level."""

    @pytest.fixture(params=["small", "deep"])
    def forest(self, request, small_trees, deep_trees, queries, queries16):
        if request.param == "small":
            return small_trees, queries[:200]
        return deep_trees, queries16[:200]

    # RSD 20 is deeper than any tree: every walk stays in its root subtree.
    @pytest.mark.parametrize("sd, rsd", [(1, 3), (4, 4), (3, 7), (5, 10), (6, 20)])
    def test_counts_equal_decision_path_reference(self, forest, sd, rsd):
        trees, X = forest
        hier = HierarchicalForest.from_trees(trees, LayoutParams(sd, rsd))
        expected = reference_counts(trees, X, rsd, sd)
        # The kernels' walk over the layout itself ...
        _, counts = profile_workload(hier, X)
        got = (counts.visits, counts.stage1, counts.crossings, counts.sum_levels)
        assert got == expected
        # ... and the planner's: another layout's walk, priced on this one.
        _, walking = level_counts(CSRForest.from_trees(trees)._fastpath_edges, X)
        assert WorkloadProfile.from_levels(walking, X.shape[0], hier) == counts

    def test_every_layout_walks_the_same_levels(self, forest):
        trees, X = forest
        _, walking = level_counts(CSRForest.from_trees(trees)._fastpath_edges, X)
        for sd, rsd in [(1, 3), (4, 4), (3, 7), (6, 20)]:
            hier = HierarchicalForest.from_trees(trees, LayoutParams(sd, rsd))
            _, hier_walking = level_counts(hier._fastpath_edges, X)
            assert np.array_equal(hier_walking, walking)

    def test_csr_prices_visits_only(self, setup, queries):
        _, csr, visits = setup
        _, counts = profile_workload(csr, queries)
        assert counts == WorkloadProfile(queries.shape[0], visits, 0, 0, 0)
