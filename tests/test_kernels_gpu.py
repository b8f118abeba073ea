"""GPU kernel tests: functional correctness + counter invariants.

Every simulated kernel must produce predictions byte-identical to the CPU
reference — this is the contract that makes the performance counters
meaningful.
"""

import numpy as np
import pytest

from repro.baselines.cpu_reference import reference_predict
from repro.baselines.cuml_fil import CuMLFILKernel, FILForest
from repro.fastpath import fastpath_predict
from repro.kernels import (
    GPUCSRKernel,
    GPUCollaborativeKernel,
    GPUHybridKernel,
    GPUIndependentKernel,
)
from repro.layout.csr import CSRForest
from repro.layout.hierarchical import HierarchicalForest, LayoutParams


@pytest.fixture(scope="module")
def layouts(small_trees):
    return {
        "csr": CSRForest.from_trees(small_trees),
        "hier4": HierarchicalForest.from_trees(small_trees, LayoutParams(4)),
        "hier6": HierarchicalForest.from_trees(small_trees, LayoutParams(6)),
        "hier48": HierarchicalForest.from_trees(small_trees, LayoutParams(4, 8)),
        "fil": FILForest.from_trees(small_trees),
    }


@pytest.fixture(scope="module")
def reference(small_trees, queries):
    return reference_predict(small_trees, queries)


class TestCorrectness:
    def test_csr_kernel(self, layouts, queries, reference):
        r = GPUCSRKernel().run(layouts["csr"], queries)
        assert np.array_equal(r.predictions, reference)

    @pytest.mark.parametrize("key", ["hier4", "hier6", "hier48"])
    def test_independent_kernel(self, layouts, queries, reference, key):
        r = GPUIndependentKernel().run(layouts[key], queries)
        assert np.array_equal(r.predictions, reference)

    @pytest.mark.parametrize("key", ["hier4", "hier6", "hier48"])
    def test_hybrid_kernel(self, layouts, queries, reference, key):
        r = GPUHybridKernel().run(layouts[key], queries)
        assert np.array_equal(r.predictions, reference)

    @pytest.mark.parametrize("key", ["hier4", "hier6"])
    def test_collaborative_kernel(self, layouts, queries, reference, key):
        r = GPUCollaborativeKernel().run(layouts[key], queries)
        assert np.array_equal(r.predictions, reference)

    def test_fil_kernel(self, layouts, queries, reference):
        r = CuMLFILKernel().run(layouts["fil"], queries)
        assert np.array_equal(r.predictions, reference)

    def test_deep_trees_all_variants(self, deep_trees, queries16):
        ref = reference_predict(deep_trees, queries16)
        csr = CSRForest.from_trees(deep_trees)
        hier = HierarchicalForest.from_trees(deep_trees, LayoutParams(5))
        fil = FILForest.from_trees(deep_trees)
        assert np.array_equal(GPUCSRKernel().run(csr, queries16).predictions, ref)
        assert np.array_equal(
            GPUIndependentKernel().run(hier, queries16).predictions, ref
        )
        assert np.array_equal(GPUHybridKernel().run(hier, queries16).predictions, ref)
        assert np.array_equal(
            GPUCollaborativeKernel().run(hier, queries16).predictions, ref
        )
        assert np.array_equal(CuMLFILKernel().run(fil, queries16).predictions, ref)

    def test_single_query(self, layouts, queries, small_trees):
        q = queries[:1]
        ref = reference_predict(small_trees, q)
        assert np.array_equal(
            GPUHybridKernel().run(layouts["hier4"], q).predictions, ref
        )

    def test_non_warp_multiple_queries(self, layouts, small_trees, queries):
        q = queries[:77]
        ref = reference_predict(small_trees, q)
        for kern, key in [
            (GPUCSRKernel(), "csr"),
            (GPUIndependentKernel(), "hier6"),
            (GPUHybridKernel(), "hier6"),
        ]:
            assert np.array_equal(kern.run(layouts[key], q).predictions, ref)

    def test_wrong_layout_type_rejected(self, layouts, queries):
        with pytest.raises(TypeError):
            GPUCSRKernel().run(layouts["hier4"], queries)
        with pytest.raises(TypeError):
            GPUIndependentKernel().run(layouts["csr"], queries)
        with pytest.raises(TypeError):
            CuMLFILKernel().run(layouts["csr"], queries)


class TestMetricsInvariants:
    def test_all_kernels_produce_consistent_metrics(self, layouts, queries):
        runs = [
            GPUCSRKernel().run(layouts["csr"], queries),
            GPUIndependentKernel().run(layouts["hier6"], queries),
            GPUHybridKernel().run(layouts["hier6"], queries),
            CuMLFILKernel().run(layouts["fil"], queries),
        ]
        for r in runs:
            m = r.metrics
            m.validate()
            assert m.global_load_requests > 0
            assert m.global_load_transactions >= m.global_load_requests
            assert 0 < m.branch_efficiency <= 1
            assert 0 < m.warp_efficiency <= 1
            assert r.seconds > 0

    def test_csr_issues_more_load_requests_than_independent(
        self, layouts, queries
    ):
        """CSR does 4 node-side loads per step vs the hierarchical 2."""
        csr = GPUCSRKernel().run(layouts["csr"], queries)
        ind = GPUIndependentKernel().run(layouts["hier6"], queries)
        assert csr.metrics.global_load_requests > ind.metrics.global_load_requests

    def test_hybrid_uses_shared_memory(self, layouts, queries):
        hyb = GPUHybridKernel().run(layouts["hier6"], queries)
        ind = GPUIndependentKernel().run(layouts["hier6"], queries)
        assert hyb.metrics.shared_load_requests > 0
        assert hyb.metrics.bytes_staged_shared > 0
        # Staging must be fenced by a block barrier before it is read
        # (source rule KRN003 in tests/test_source_rules.py enforces this
        # statically).
        assert hyb.metrics.block_syncs > 0
        assert ind.metrics.shared_load_requests == 0

    def test_hybrid_reduces_global_requests(self, layouts, queries):
        """Fig. 8: hybrid issues fewer global load requests."""
        hyb = GPUHybridKernel().run(layouts["hier6"], queries)
        ind = GPUIndependentKernel().run(layouts["hier6"], queries)
        assert (
            hyb.metrics.global_load_requests < ind.metrics.global_load_requests
        )

    def test_hybrid_branch_efficiency_at_least_independent(
        self, layouts, queries
    ):
        """Fig. 8: the hybrid's fixed-trip stage-1 loop raises branch eff."""
        hyb = GPUHybridKernel().run(layouts["hier6"], queries)
        ind = GPUIndependentKernel().run(layouts["hier6"], queries)
        assert hyb.metrics.branch_efficiency >= ind.metrics.branch_efficiency - 0.02

    def test_votes_sum_to_tree_count(self, layouts, queries, small_trees):
        r = GPUIndependentKernel().run(layouts["hier4"], queries)
        assert np.all(r.votes.sum(axis=1) == len(small_trees))

    def test_rsd_too_large_for_shared_memory(self, deep_trees, queries16):
        """Root subtree beyond 48 KB must be rejected, per the paper's
        shared-memory constraint."""
        hier = HierarchicalForest.from_trees(deep_trees, LayoutParams(4, 14))
        # 2^14-1 slots x 8 B = 131 KB > 48 KB.
        if max(hier.subtree_size(int(s)) for s in hier.tree_root_subtree) * 8 > 48 * 1024:
            with pytest.raises(ValueError, match="shared"):
                GPUHybridKernel().run(hier, queries16)


class TestFILForestLayout:
    def test_adjacent_children(self, small_trees):
        fil = FILForest.from_trees(small_trees)
        inner = fil.feature >= 0
        assert np.all(fil.left_child[inner] > 0)
        assert np.all(fil.left_child[~inner] == -1)

    def test_predict_tree_matches(self, small_trees, queries):
        fil = FILForest.from_trees(small_trees)
        for t, tree in enumerate(small_trees):
            got, _ = fastpath_predict(fil, queries, trees=[t])
            assert np.array_equal(got, tree.predict(queries))

    def test_node_counts_preserved(self, small_trees):
        fil = FILForest.from_trees(small_trees)
        assert fil.total_nodes == sum(t.n_nodes for t in small_trees)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FILForest.from_trees([])
