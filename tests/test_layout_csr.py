"""Tests for the CSR forest layout (paper Fig. 2)."""

import numpy as np
import pytest

from repro.baselines.cpu_reference import reference_predict
from repro.fastpath import fastpath_predict
from repro.forest.tree import LEAF, DecisionTree
from repro.layout.csr import CSRForest
from tests.test_forest_tree import small_manual_tree


class TestConstruction:
    def test_paper_example_arrays(self):
        """Fig. 2b/2c: children_arr / children_arr_idx / node attributes."""
        tree = small_manual_tree()
        csr = CSRForest.from_trees([tree])
        assert csr.total_nodes == 9
        # 4 inner nodes -> 8 children entries.
        assert csr.total_children_entries == 8
        # Node 0's children are 1 and 2 at children_arr[0:2] (Fig. 2b).
        i0 = csr.children_arr_idx[0]
        assert csr.children_arr[i0] == 1 and csr.children_arr[i0 + 1] == 2
        # feature_id: -1 marks leaves (Fig. 2c).
        assert csr.feature_id[1] == LEAF
        # Leaf "value" holds the class label (Fig. 2c: node 1 -> 0).
        assert csr.value[1] == 0.0
        # Inner node value holds the threshold.
        assert csr.value[0] == pytest.approx(2.5)

    def test_leaves_have_no_children_entries(self, small_trees):
        csr = CSRForest.from_trees(small_trees)
        leaf = csr.feature_id == LEAF
        assert np.all(csr.children_arr_idx[leaf] == -1)

    def test_tree_offsets(self, small_trees):
        csr = CSRForest.from_trees(small_trees)
        assert csr.n_trees == len(small_trees)
        sizes = np.diff(csr.tree_node_offset)
        assert sizes.tolist() == [t.n_nodes for t in small_trees]
        assert csr.tree_node_offset[-1] == csr.total_nodes
        assert csr.tree_children_offset[-1] == csr.total_children_entries

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError):
            CSRForest.from_trees([])

    def test_validate_passes(self, small_trees):
        CSRForest.from_trees(small_trees).validate(small_trees)

    def test_validate_detects_mismatch(self, small_trees):
        csr = CSRForest.from_trees(small_trees)
        with pytest.raises(ValueError):
            csr.validate(small_trees[:-1])


class TestTraversal:
    def test_per_tree_matches_reference(self, small_trees, queries):
        csr = CSRForest.from_trees(small_trees)
        for t, tree in enumerate(small_trees):
            got, _ = fastpath_predict(csr, queries, trees=[t])
            assert np.array_equal(got, tree.predict(queries))

    def test_forest_majority_vote(self, small_trees, queries):
        csr = CSRForest.from_trees(small_trees)
        got, _ = fastpath_predict(csr, queries)
        assert np.array_equal(got, reference_predict(small_trees, queries))

    def test_single_leaf_tree(self, queries):
        csr = CSRForest.from_trees([DecisionTree.leaf(1)])
        out, _ = fastpath_predict(csr, queries[:, :1], trees=[0])
        assert np.all(out == 1)

    def test_deep_trees(self, deep_trees, queries16):
        csr = CSRForest.from_trees(deep_trees)
        for t, tree in enumerate(deep_trees):
            got, _ = fastpath_predict(csr, queries16, trees=[t])
            assert np.array_equal(got, tree.predict(queries16))
