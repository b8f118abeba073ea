"""Failure injection: corrupted structures must be *detected*, not absorbed.

A reproduction whose correctness checks silently pass on broken data proves
nothing, so these tests break each structure in a targeted way and assert
the right guard trips (validate(), the edge-table lowering's structural
checks, or the classifier's reference verification).
"""

import numpy as np
import pytest

from repro.fastpath.hierpath import build_edges
from repro.layout.csr import CSRForest
from repro.layout.hierarchical import HierarchicalForest, LayoutParams


@pytest.fixture()
def hier(small_trees):
    return HierarchicalForest.from_trees(small_trees, LayoutParams(4))


class TestHierarchicalCorruption:
    def test_offset_not_covering(self, hier):
        hier.subtree_node_offset[-1] += 1
        with pytest.raises(ValueError, match="cover"):
            hier.validate()

    def test_empty_subtree(self, hier):
        hier.subtree_node_offset[1] = hier.subtree_node_offset[0]
        with pytest.raises(ValueError):
            hier.validate()

    def test_depth_size_inconsistency(self, hier):
        hier.subtree_depth[0] = 1  # root subtree has more slots than 2^1-1
        with pytest.raises(ValueError, match="inconsist"):
            hier.validate()

    def test_padding_at_root_slot(self, hier):
        from repro.forest.tree import EMPTY

        st = int(hier.tree_root_subtree[0])
        hier.feature_id[hier.subtree_node_offset[st]] = EMPTY
        with pytest.raises(ValueError, match="padding"):
            hier.validate()

    def test_connection_to_nonexistent_subtree(self, hier):
        valid = np.flatnonzero(hier.subtree_connection >= 0)
        hier.subtree_connection[valid[0]] = hier.n_subtrees + 7
        with pytest.raises(ValueError, match="nonexistent"):
            hier.validate()

    def test_dangling_subtree(self, hier):
        """Cutting a connection leaves a subtree unreferenced."""
        valid = np.flatnonzero(hier.subtree_connection >= 0)
        hier.subtree_connection[valid[0]] = -1
        with pytest.raises(ValueError, match="referenced"):
            hier.validate()

    def test_root_subtree_referenced(self, hier):
        valid = np.flatnonzero(hier.subtree_connection >= 0)
        hier.subtree_connection[valid[0]] = int(hier.tree_root_subtree[0])
        with pytest.raises(ValueError, match="tree-root"):
            hier.validate()

    def test_traversal_into_missing_connection_raises(self, small_trees):
        """A -1 connection is named when the layout is lowered, never
        turned into an out-of-bounds successor."""
        h = HierarchicalForest.from_trees(small_trees, LayoutParams(4))
        valid = np.flatnonzero(h.subtree_connection >= 0)
        h.subtree_connection[valid] = -1  # sever everything
        with pytest.raises(RuntimeError, match="missing subtree"):
            build_edges(h)

    def test_traversal_into_padding_raises(self, small_trees):
        """Corrupting a leaf into an inner node steers traversal into
        padding, which the lowering detects instead of voting from it."""
        h = HierarchicalForest.from_trees(small_trees, LayoutParams(4))
        from repro.forest.tree import EMPTY, LEAF

        # Find a leaf slot whose arithmetic child slot is padding.
        found = False
        for st in range(h.n_subtrees):
            base = int(h.subtree_node_offset[st])
            size = h.subtree_size(st)
            sd = int(h.subtree_depth[st])
            interior = (1 << (sd - 1)) - 1
            for local in range(min(interior, size)):
                g = base + local
                if h.feature_id[g] == LEAF and 2 * local + 1 < size:
                    child = base + 2 * local + 1
                    if h.feature_id[child] == EMPTY:
                        h.feature_id[g] = 0  # leaf -> fake inner node
                        found = True
                        break
            if found:
                break
        if not found:
            pytest.skip("no leaf-with-padding-child in this forest")
        with pytest.raises(RuntimeError, match="padding"):
            build_edges(h)


class TestKernelGuards:
    def test_unclassified_query_detected(self, small_trees, queries):
        """If a kernel somehow leaves a query unclassified the vote
        accumulator refuses."""
        from repro.kernels.traversal_stats import accumulate_votes

        labels = np.zeros(4, dtype=np.int64)
        labels[2] = -1
        votes = np.zeros((4, 2), dtype=np.int64)
        with pytest.raises(RuntimeError, match="unclassified"):
            accumulate_votes(votes, labels)

    def test_metrics_validation_runs_in_timing(self):
        from repro.gpusim.device import TITAN_XP
        from repro.gpusim.metrics import KernelMetrics
        from repro.gpusim.timing import TimingModel

        m = KernelMetrics(branches=1, uniform_branches=5)
        with pytest.raises(ValueError):
            TimingModel(TITAN_XP).time(m)


class TestCSRCorruption:
    def test_validate_node_count(self, small_trees):
        csr = CSRForest.from_trees(small_trees)
        csr.tree_node_offset[1] += 1
        with pytest.raises(ValueError):
            csr.validate(small_trees)

    def test_validate_feature_mismatch(self, small_trees):
        csr = CSRForest.from_trees(small_trees)
        csr.feature_id[0] = 99
        with pytest.raises(ValueError, match="feature_id"):
            csr.validate(small_trees)


class TestTraceKernelDamageIsLazy:
    """A trace kernel walks the layout's current buffers: damage that no
    query reaches changes no answer, and damage a query reaches fails the
    launch, as the layout's own read would."""

    @staticmethod
    def _visited(layout, X):
        from repro.fastpath.engine import traverse_edges

        table = layout._fastpath_edges
        slots = np.empty((table.max_levels, X.shape[0] * len(table.roots)), np.int64)
        traverse_edges(table, X, slots=slots)
        return np.unique(slots[slots >= 0])

    @pytest.mark.parametrize(
        "family,damage",
        [
            ("csr", lambda lay, g: lay.children_arr_idx.__setitem__(g, 10**6)),
            ("hier", lambda lay, g: lay.feature_id.__setitem__(g, 2**30)),
        ],
        ids=["csr-children-index", "hier-feature-id"],
    )
    def test_unreached_damage_serves_reached_damage_fails(
        self, small_trees, queries, family, damage
    ):
        from repro.baselines.cpu_reference import reference_predict
        from repro.kernels import GPUCSRKernel, GPUIndependentKernel

        X = queries[:64]
        kernel = GPUCSRKernel() if family == "csr" else GPUIndependentKernel()

        def fresh():
            if family == "csr":
                return CSRForest.from_trees(small_trees)
            return HierarchicalForest.from_trees(small_trees, LayoutParams(4))

        layout = fresh()
        features = layout.feature_id
        visited = self._visited(layout, X)
        inner = np.flatnonzero(features >= 0)
        unreached = np.setdiff1d(inner, visited)
        reached = np.intersect1d(inner, visited)
        assert unreached.size and reached.size
        damage(layout, unreached[0])
        res = kernel.run(layout, X)
        assert np.array_equal(res.predictions, reference_predict(small_trees, X))
        layout = fresh()
        damage(layout, reached[0])
        with pytest.raises(IndexError):
            kernel.run(layout, X)
