"""Layout checksums, pre-launch verification, and degraded quorum voting."""

import numpy as np
import pytest

from repro.baselines.cpu_reference import reference_predict
from repro.core.classifier import HierarchicalForestClassifier
from repro.core.config import RunConfig
from repro.layout.csr import CSRForest
from repro.layout.hierarchical import HierarchicalForest, LayoutParams
from repro.reliability.faults import FaultPlan
from repro.reliability.integrity import (
    LayoutIntegrity,
    LayoutIntegrityError,
    QuorumLostError,
    attach_integrity,
    degraded_predict,
    quorum_size,
    verify_layout_integrity,
)
from repro.runtime.session import ExecutionError


@pytest.fixture()
def hier(small_trees):
    return HierarchicalForest.from_trees(small_trees, LayoutParams(4))


@pytest.fixture()
def csr(small_trees):
    return CSRForest.from_trees(small_trees)


class TestBuildTimeAttachment:
    def test_layouts_carry_checksums(self, hier, csr):
        assert hier.integrity is not None
        assert csr.integrity is not None
        assert hier.integrity.tree_crc.shape == (hier.n_trees,)
        assert csr.integrity.tree_crc.shape == (csr.n_trees,)

    def test_opt_out(self, small_trees):
        h = HierarchicalForest.from_trees(
            small_trees, LayoutParams(4), with_integrity=False
        )
        assert h.integrity is None
        c = CSRForest.from_trees(small_trees, with_integrity=False)
        assert c.integrity is None

    def test_attach_is_idempotent(self, hier):
        integ = hier.integrity
        assert attach_integrity(hier) is integ

    def test_checksums_deterministic(self, small_trees):
        a = HierarchicalForest.from_trees(small_trees, LayoutParams(4))
        b = HierarchicalForest.from_trees(small_trees, LayoutParams(4))
        assert a.integrity.array_crc == b.integrity.array_crc
        assert np.array_equal(a.integrity.tree_crc, b.integrity.tree_crc)


class TestVerification:
    def test_clean_layout_verifies(self, hier, csr):
        verify_layout_integrity(hier)
        verify_layout_integrity(csr)

    @pytest.mark.parametrize("array", ["feature_id", "value", "subtree_connection"])
    def test_array_mismatch_named(self, small_trees, array):
        h = HierarchicalForest.from_trees(small_trees, LayoutParams(4))
        arr = getattr(h, array)
        if arr.dtype.kind == "f":
            arr[0] += 1.0
        else:
            arr[0] ^= 1
        with pytest.raises(LayoutIntegrityError, match=array):
            verify_layout_integrity(h)

    def test_offset_corruption_detected(self, small_trees):
        """Offset arrays are covered by the whole-array digests too."""
        h = HierarchicalForest.from_trees(small_trees, LayoutParams(4))
        h.subtree_node_offset[1] += 1
        with pytest.raises(LayoutIntegrityError, match="subtree_node_offset"):
            verify_layout_integrity(h)

    def test_surviving_trees_localises(self, small_trees):
        h = HierarchicalForest.from_trees(small_trees, LayoutParams(4))
        victim = 3
        lo = int(h.subtree_node_offset[int(h.tree_root_subtree[victim])])
        h.value[lo] += 0.5
        alive = h.integrity.surviving_trees(h)
        assert not alive[victim]
        assert alive.sum() == h.n_trees - 1

    def test_csr_tree_localisation(self, small_trees):
        c = CSRForest.from_trees(small_trees)
        victim = 5
        c.feature_id[int(c.tree_node_offset[victim])] ^= 1
        alive = c.integrity.surviving_trees(c)
        assert not alive[victim]
        assert alive.sum() == c.n_trees - 1

    def test_hand_built_layout_baselines_on_first_verify(self, small_trees):
        h = HierarchicalForest.from_trees(
            small_trees, LayoutParams(4), with_integrity=False
        )
        verify_layout_integrity(h)  # attaches, then trivially passes
        assert h.integrity is not None
        verify_layout_integrity(h)

    def test_from_layout_rebuild_matches(self, hier):
        rebuilt = LayoutIntegrity.from_layout(hier)
        assert rebuilt.array_crc == hier.integrity.array_crc


class TestKernelPreLaunchVerification:
    def test_classify_raises_on_corruption(self, trained_small):
        clf_src, _, _, Xte, _ = trained_small
        clf = HierarchicalForestClassifier.from_forest(clf_src)
        config = RunConfig(variant="hybrid", verify_integrity=True)
        clf.classify(Xte[:64], config)  # clean pass
        layout = clf.layout_for(config)
        layout.value[0] += 1.0
        # The session wraps backend failures in a typed ExecutionError
        # carrying the plan; the integrity failure rides as its cause.
        with pytest.raises(ExecutionError) as err:
            clf.classify(Xte[:64], config)
        assert isinstance(err.value.__cause__, LayoutIntegrityError)
        assert err.value.platform == "gpu"

    def test_fastpath_serves_build_time_snapshot(self, trained_small):
        """Under trace="off" the table lowered at build keeps answering after
        the layout's buffers change, and the pre-launch check hashes that
        table: it passes the layout damage no answer can see, and fails a
        flip in the table."""
        clf_src, _, _, Xte, _ = trained_small
        clf = HierarchicalForestClassifier.from_forest(clf_src)
        config = RunConfig(variant="csr", trace="off")
        clean = clf.classify(Xte[:64], config).predictions
        layout = clf.layout_for(config)
        leaves = np.flatnonzero(layout.feature_id == -1)
        layout.value[leaves] += 1.0  # every leaf now votes another class
        assert np.array_equal(clf.classify(Xte[:64], config).predictions, clean)
        checked = RunConfig(variant="csr", trace="off", verify_integrity=True)
        assert np.array_equal(clf.classify(Xte[:64], checked).predictions, clean)
        table = layout._fastpath_edges
        table.succ[2 * int(table.roots[0])] ^= 1
        with pytest.raises(ExecutionError) as err:
            clf.classify(Xte[:64], checked)
        assert isinstance(err.value.__cause__, LayoutIntegrityError)
        assert "succ" in str(err.value)

    def test_clean_path_never_verifies(self, trained_small, monkeypatch):
        """The default config must not hash anything per call."""
        import repro.reliability.integrity as integrity

        clf_src, _, _, Xte, _ = trained_small
        clf = HierarchicalForestClassifier.from_forest(clf_src)
        clf.classify(Xte[:64], RunConfig(variant="hybrid"))  # build layout
        calls = {"n": 0}
        orig = integrity.array_crc32

        def counting(*args):
            calls["n"] += 1
            return orig(*args)

        monkeypatch.setattr(integrity, "array_crc32", counting)
        clf.classify(Xte[:64], RunConfig(variant="hybrid"))
        assert calls["n"] == 0


class TestDegradedVoting:
    def test_quorum_size(self):
        assert quorum_size(10, 0.5) == 5
        assert quorum_size(10, 0.0) == 1
        assert quorum_size(3, 1.0) == 3

    def test_degraded_matches_alive_subvote(self, small_trees, queries):
        h = HierarchicalForest.from_trees(small_trees, LayoutParams(4))
        alive = np.ones(h.n_trees, dtype=bool)
        alive[[1, 4]] = False
        preds, dropped, _ = degraded_predict(h, queries, alive, 0.5)
        assert dropped == (1, 4)
        survivors = [t for t, ok in zip(small_trees, alive) if ok]
        assert np.array_equal(preds, reference_predict(survivors, queries))

    def test_all_alive_matches_full_vote(self, small_trees, queries):
        h = HierarchicalForest.from_trees(small_trees, LayoutParams(4))
        alive = np.ones(h.n_trees, dtype=bool)
        preds, dropped, _ = degraded_predict(h, queries, alive, 1.0)
        assert dropped == ()
        assert np.array_equal(preds, reference_predict(small_trees, queries))

    def test_quorum_lost_raises(self, small_trees, queries):
        h = HierarchicalForest.from_trees(small_trees, LayoutParams(4))
        alive = np.zeros(h.n_trees, dtype=bool)
        alive[0] = True
        with pytest.raises(QuorumLostError, match="quorum"):
            degraded_predict(h, queries, alive, 0.5)

    def test_bad_mask_length(self, small_trees, queries):
        h = HierarchicalForest.from_trees(small_trees, LayoutParams(4))
        with pytest.raises(ValueError, match="mask"):
            degraded_predict(h, queries, np.ones(3, dtype=bool), 0.5)


class TestDegradedUnderRealCorruption:
    """Bit flips in real buffers, not a hand-made mask over a clean layout."""

    @pytest.mark.parametrize("family", ["hier", "csr"])
    @pytest.mark.parametrize("seed", range(50))
    def test_quorum_vote_equals_surviving_host_trees(
        self, small_trees, queries, family, seed
    ):
        if family == "hier":
            layout = HierarchicalForest.from_trees(small_trees, LayoutParams(4))
        else:
            layout = CSRForest.from_trees(small_trees)
        hit = FaultPlan(seed, tree_corruption_rate=0.25).corrupt_layout(layout)
        alive = layout.integrity.surviving_trees(layout)
        assert np.flatnonzero(~alive).tolist() == list(hit)
        if alive.sum() < quorum_size(layout.n_trees, 0.5):
            with pytest.raises(QuorumLostError):
                degraded_predict(layout, queries, alive, 0.5)
            return
        preds, dropped, _ = degraded_predict(layout, queries, alive, 0.5)
        assert dropped == hit
        survivors = [t for t, ok in zip(small_trees, alive) if ok]
        assert np.array_equal(preds, reference_predict(survivors, queries))


class TestSurvivingTreesCache:
    """The mask is memoised per whole-array digest, never per layout object."""

    @pytest.mark.parametrize("family", ["hier", "csr"])
    def test_later_corruption_shows_after_cached_call(self, hier, csr, family):
        layout = hier if family == "hier" else csr
        integ = layout.integrity
        first = FaultPlan(1).corrupt_layout(layout, rate=0.2)
        assert np.flatnonzero(~integ.surviving_trees(layout)).tolist() == list(first)
        second = FaultPlan(2).corrupt_layout(layout, rate=0.2)
        assert set(second) - set(first)  # the second flip hits another tree
        alive = integ.surviving_trees(layout)
        assert np.flatnonzero(~alive).tolist() == sorted(set(first) | set(second))

    def test_unchanged_buffers_skip_per_tree_digests(self, hier, monkeypatch):
        from repro.reliability import integrity

        FaultPlan(1).corrupt_layout(hier, rate=0.2)
        expected = hier.integrity.surviving_trees(hier)
        calls = []
        real = integrity._tree_digests
        monkeypatch.setattr(
            integrity, "_tree_digests", lambda *a: calls.append(a) or real(*a)
        )
        again = hier.integrity.surviving_trees(hier)
        assert np.array_equal(again, expected) and calls == []
        again[:] = False  # callers get a copy, not the memo
        assert np.array_equal(hier.integrity.surviving_trees(hier), expected)
