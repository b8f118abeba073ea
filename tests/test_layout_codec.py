"""Precision-axis codec tests: calibration, round-trip, layout threading."""

import numpy as np
import pytest

from repro.baselines.cuml_fil import FILForest
from repro.core.config import TRACE_OFF
from repro.fastpath import fastpath_predict
from repro.layout import (
    CSRForest,
    CodecError,
    HierarchicalForest,
    LayoutParams,
    PRECISIONS,
    QuantizedValues,
    csr_bytes,
    csr_device_arrays,
    get_codec,
    hierarchical_bytes,
    hierarchical_device_arrays,
    layout_device_arrays,
)
from repro.layout.codec import PackedCodec, quantize_layout_values, quantize_trees
from repro.runtime.cost import plan_footprint_bytes
from repro.runtime.plan import ExecutionPlan

QUANTIZED = tuple(p for p in PRECISIONS if p != "float32")


class TestCodecRegistry:
    def test_every_precision_resolves(self):
        for name in PRECISIONS:
            assert get_codec(name).name == name

    def test_instance_passthrough(self):
        c = get_codec("int8")
        assert get_codec(c) is c

    def test_unknown_codec_rejected(self):
        with pytest.raises(CodecError, match="unknown codec"):
            get_codec("bfloat16")

    def test_threshold_bytes(self):
        assert get_codec("float32").threshold_bytes == 4
        assert get_codec("float16").threshold_bytes == 2
        assert get_codec("int8").threshold_bytes == 1
        assert get_codec("packed").threshold_bytes == 1


class TestQuantizeValues:
    def _channel(self):
        rng = np.random.default_rng(11)
        feature_id = rng.integers(-1, 5, size=64).astype(np.int32)
        value = np.where(
            feature_id >= 0,
            rng.uniform(-3.0, 3.0, size=64).astype(np.float32),
            rng.integers(0, 3, size=64).astype(np.float32),
        ).astype(np.float32)
        return value, feature_id

    def test_float32_is_identity(self):
        value, feature_id = self._channel()
        decoded, quant = quantize_layout_values("float32", value, feature_id)
        assert quant is None
        np.testing.assert_array_equal(decoded, value)

    @pytest.mark.parametrize("codec", QUANTIZED)
    def test_leaf_values_never_touched(self, codec):
        value, feature_id = self._channel()
        decoded, quant = quantize_layout_values(codec, value, feature_id)
        leaves = feature_id < 0
        np.testing.assert_array_equal(decoded[leaves], value[leaves])
        assert isinstance(quant, QuantizedValues)
        assert decoded.dtype == np.float32

    @pytest.mark.parametrize("codec", ("int8", "packed"))
    def test_int8_error_bounded_by_step(self, codec):
        value, feature_id = self._channel()
        decoded, quant = quantize_layout_values(codec, value, feature_id)
        inner = feature_id >= 0
        feats = feature_id[inner].astype(np.int64)
        step = quant.scale[feats]
        # Rounding to the nearest code keeps |error| <= scale/2 + float fuzz.
        err = np.abs(decoded[inner] - value[inner])
        assert np.all(err <= step * np.float32(0.5) + np.float32(1e-6))

    def test_int8_decode_matches_build_bit_for_bit(self):
        value, feature_id = self._channel()
        decoded, quant = quantize_layout_values("int8", value, feature_id)
        codec = get_codec("int8")
        feats = np.where(feature_id >= 0, feature_id, 0).astype(np.int64)
        replay = codec.decode_thresholds(
            quant.codes, feats, quant.scale, quant.offset
        )
        inner = feature_id >= 0
        np.testing.assert_array_equal(decoded[inner], replay[inner])

    def test_degenerate_single_threshold_is_exact(self):
        # One distinct threshold per feature: scale degrades to 1 and the
        # code 0 decodes to the midpoint == the threshold itself.
        feature_id = np.array([0, 0, -1], dtype=np.int32)
        value = np.array([1.25, 1.25, 2.0], dtype=np.float32)
        decoded, _ = quantize_layout_values("int8", value, feature_id)
        np.testing.assert_array_equal(decoded, value)

    def test_leaf_labels_do_not_widen_calibration(self):
        # A huge leaf label sharing feature slot 0 must not stretch the
        # feature-0 threshold range.
        feature_id = np.array([0, 0, -1], dtype=np.int32)
        value = np.array([1.0, 2.0, 1000.0], dtype=np.float32)
        _, quant = quantize_layout_values("int8", value, feature_id)
        assert quant.offset[0] == np.float32(1.5)
        assert quant.scale[0] == np.float32(0.5) / np.float32(127.0)

    def test_packed_pools_leaves(self):
        value, feature_id = self._channel()
        _, quant = quantize_layout_values("packed", value, feature_id)
        leaves = feature_id < 0
        np.testing.assert_array_equal(
            quant.leaf_pool[quant.leaf_code[leaves]], value[leaves]
        )
        assert quant.leaf_pool.dtype == np.float32
        assert quant.leaf_code.dtype == np.uint8

    def test_packed_pool_overflow_rejected(self):
        values = np.arange(300, dtype=np.float32)
        with pytest.raises(CodecError, match="distinct leaf"):
            PackedCodec.pool_leaves(values)


class TestLayoutThreading:
    @pytest.mark.parametrize("codec", PRECISIONS)
    def test_csr_quantized_predictions_close(self, small_trees, queries, codec):
        base = CSRForest.from_trees(small_trees)
        quant = CSRForest.from_trees(small_trees, codec=codec)
        assert quant.codec == codec
        quant_preds, _ = fastpath_predict(quant, queries)
        base_preds, _ = fastpath_predict(base, queries)
        agree = float(np.mean(quant_preds == base_preds))
        assert agree >= 0.98

    @pytest.mark.parametrize("codec", PRECISIONS)
    def test_hier_matches_csr_under_same_codec(self, small_trees, queries, codec):
        csr = CSRForest.from_trees(small_trees, codec=codec)
        hier = HierarchicalForest.from_trees(
            small_trees, LayoutParams(6, 10), codec=codec
        )
        hier.validate()
        np.testing.assert_array_equal(
            fastpath_predict(csr, queries)[0], fastpath_predict(hier, queries)[0]
        )

    @pytest.mark.parametrize("codec", QUANTIZED)
    def test_quantized_layouts_carry_side_tables(self, small_trees, codec):
        csr = CSRForest.from_trees(small_trees, codec=codec)
        assert csr.quant is not None and csr.quant.codec == codec
        assert csr.value.dtype == np.float32  # decoded channel stays f32
        if codec in ("int8", "packed"):
            assert csr.quant.scale.dtype == np.float32
            assert csr.quant.scale.shape == csr.quant.offset.shape

    def test_float32_layout_has_no_side_tables(self, small_trees):
        csr = CSRForest.from_trees(small_trees)
        assert csr.codec == "float32"
        assert csr.quant is None

    @pytest.mark.parametrize("codec", QUANTIZED)
    def test_integrity_covers_decoded_channel(self, small_trees, codec):
        from repro.reliability.integrity import attach_integrity

        csr = CSRForest.from_trees(small_trees, codec=codec)
        attach_integrity(csr).check(csr)  # no raise
        csr.value[0] += np.float32(1.0)
        with pytest.raises(Exception):
            attach_integrity(csr).check(csr)


class TestByteAccounting:
    """Satellite: byte model == nbytes of the device arrays, every pair."""

    @pytest.mark.parametrize("codec", PRECISIONS)
    def test_csr_bytes_match_nbytes(self, small_trees, codec):
        csr = CSRForest.from_trees(small_trees, codec=codec)
        arrays = csr_device_arrays(csr)
        assert csr_bytes(csr) == sum(a.nbytes for a in arrays.values())

    @pytest.mark.parametrize("codec", PRECISIONS)
    def test_hier_bytes_match_nbytes(self, small_trees, codec):
        hier = HierarchicalForest.from_trees(
            small_trees, LayoutParams(6, 10), codec=codec
        )
        arrays = hierarchical_device_arrays(hier)
        assert hierarchical_bytes(hier) == sum(a.nbytes for a in arrays.values())

    def test_codec_ordering_monotone(self, small_trees):
        sizes = [
            csr_bytes(CSRForest.from_trees(small_trees, codec=c))
            for c in PRECISIONS
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_packed_csr_reduction_at_least_3x(self, small_trees):
        base = csr_bytes(CSRForest.from_trees(small_trees))
        packed = csr_bytes(CSRForest.from_trees(small_trees, codec="packed"))
        assert base / packed >= 3.0

    def test_from_codec_widths(self, small_trees):
        """Device widths derive from the codec: the value channel narrows
        4 -> 2 -> 1 bytes; packed ships 8-byte CSR / 4-byte slot records."""
        widths = {
            c: csr_device_arrays(CSRForest.from_trees(small_trees, codec=c))
            for c in PRECISIONS
        }
        values = [widths[c]["value"].itemsize for c in ("float32", "float16", "int8")]
        assert values == [4, 2, 1]
        assert widths["float32"]["feature_id"].itemsize == 4
        assert widths["packed"]["node_records"].itemsize == 8
        hier = HierarchicalForest.from_trees(small_trees, codec="packed")
        assert hierarchical_device_arrays(hier)["slot_records"].itemsize == 4

    def test_dispatch_helper(self, small_trees):
        csr = CSRForest.from_trees(small_trees)
        hier = HierarchicalForest.from_trees(small_trees)
        assert set(layout_device_arrays(csr)) == set(csr_device_arrays(csr))
        assert set(layout_device_arrays(hier)) == set(
            hierarchical_device_arrays(hier)
        )
        with pytest.raises(TypeError):
            layout_device_arrays(object())


def _arrays(obj, prefix=""):
    """``prefix + name -> array`` for every array attribute of ``obj``."""
    return {
        prefix + k: v for k, v in vars(obj).items() if isinstance(v, np.ndarray)
    }


def _build(family, trees, codec):
    if family == "csr":
        return CSRForest.from_trees(trees, codec=codec)
    if family == "hier":
        return HierarchicalForest.from_trees(trees, LayoutParams(4, 8), codec=codec)
    # FIL has no codec axis (ExecutionPlan rejects cuml + quantized): it is
    # built from the codec's round-tripped host trees instead.
    return FILForest.from_trees(quantize_trees(trees, codec))


class TestLayoutDtypes:
    """float32 is the layout contract: nothing a builder or the lowering
    produces may widen to float64, however it got there."""

    @pytest.mark.parametrize("codec", PRECISIONS)
    @pytest.mark.parametrize("family", ["csr", "hier", "fil"])
    def test_no_float64_in_layout_or_edge_table(self, small_trees, family, codec):
        layout = _build(family, small_trees, codec)
        table = layout._fastpath_edges
        arrays = {**_arrays(layout), **_arrays(table, "edges.")}
        if getattr(layout, "quant", None) is not None:
            arrays.update(_arrays(layout.quant, "quant."))
        wide = {k: a.dtype for k, a in arrays.items() if a.dtype == np.float64}
        assert not wide, f"{family}/{codec}: float64 arrays {wide}"
        assert layout.value.dtype == np.float32
        assert table.value.dtype == np.float32
        # A served plan is charged its table: 24 B per slot under every codec.
        plan = ExecutionPlan(
            variant={"csr": "csr", "hier": "hybrid", "fil": "cuml"}[family],
            trace=TRACE_OFF,
        )
        served = sum(a.nbytes for a in _arrays(table).values())
        assert plan_footprint_bytes(plan, layout, small_trees) == served
        assert served == 24 * table.feature.shape[0] + 4 * table.roots.shape[0]
