"""Tests for the host-transfer model."""

import numpy as np
import pytest

from repro.core import HierarchicalForestClassifier, RunConfig
from repro.core.transfer import TransferModel
from repro.layout.codec import PRECISIONS
from repro.layout.csr import CSRForest
from repro.layout.footprint import csr_bytes, hierarchical_bytes
from repro.layout.hierarchical import HierarchicalForest, LayoutParams


class TestTransferModel:
    def test_seconds_linear_plus_latency(self):
        tm = TransferModel(bandwidth=1e9, latency_s=1e-5)
        assert tm.seconds(0) == pytest.approx(1e-5)
        assert tm.seconds(10**9) == pytest.approx(1.0 + 1e-5)

    def test_layout_bytes_all_formats(self, small_trees):
        from repro.baselines.cuml_fil import FILForest

        tm = TransferModel()
        csr = tm.layout_bytes(CSRForest.from_trees(small_trees))
        hier = tm.layout_bytes(
            HierarchicalForest.from_trees(small_trees, LayoutParams(4))
        )
        fil = tm.layout_bytes(FILForest.from_trees(small_trees))
        assert csr > 0 and hier > 0 and fil > 0
        # FIL: 16 bytes per node, exactly.
        total = sum(t.n_nodes for t in small_trees)
        assert fil == total * 16

    @pytest.mark.parametrize("codec", PRECISIONS)
    def test_layout_upload_is_the_codec_device_bytes(self, small_trees, codec):
        """Upload bytes are the footprint model's, not float32 widths."""
        tm = TransferModel()
        csr = CSRForest.from_trees(small_trees, codec=codec)
        hier = HierarchicalForest.from_trees(
            small_trees, LayoutParams(4), codec=codec
        )
        assert tm.layout_bytes(csr) == csr_bytes(csr)
        assert tm.layout_bytes(hier) == hierarchical_bytes(hier)

    def test_unknown_layout(self):
        with pytest.raises(TypeError):
            TransferModel().layout_bytes(object())

    def test_query_roundtrip(self):
        tm = TransferModel(bandwidth=1e9, latency_s=0.0)
        s = tm.query_roundtrip_seconds(1000, 10)
        assert s == pytest.approx((1000 * 40 + 1000 * 8) / 1e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            TransferModel(bandwidth=0)
        with pytest.raises(ValueError):
            TransferModel().seconds(-1)


class TestClassifyWithTransfer:
    def test_transfer_adds_time_and_details(self, trained_small):
        clf, _, _, Xte, _ = trained_small
        api = HierarchicalForestClassifier.from_forest(clf)
        plain = api.classify(Xte, RunConfig(variant="hybrid"))
        with_t = api.classify(
            Xte, RunConfig(variant="hybrid"), include_transfer=True
        )
        assert with_t.seconds > plain.seconds
        assert with_t.details["transfer_query_roundtrip_s"] > 0
        assert with_t.details["transfer_layout_upload_s"] > 0
        assert np.array_equal(with_t.predictions, plain.predictions)

    def test_default_matches_paper_scope(self, trained_small):
        """Without the flag, seconds are pure kernel time (paper's scope)."""
        clf, _, _, Xte, _ = trained_small
        api = HierarchicalForestClassifier.from_forest(clf)
        res = api.classify(Xte, RunConfig(variant="csr"))
        assert "transfer_query_roundtrip_s" not in res.details
