"""Node codecs: the precision axis of the layout family.

The paper's layouts (Sec. 4) store one float32 ``value`` channel per node
— the split threshold on inner nodes, the class label on leaves.  A
:class:`NodeCodec` narrows the *threshold* half of that channel:

``float32``
    Identity baseline.  No side tables, no behaviour change.
``float16``
    Thresholds stored as IEEE half precision; decode is a plain widening
    cast.  Halves the value channel with sub-ULP threshold movement on
    the feature ranges the bundled datasets use.
``int8``
    Per-feature affine calibration (RFX-style): for feature ``f`` the
    threshold ``t`` is stored as ``round((t - offset[f]) / scale[f])``
    clipped to [-127, 127], with ``scale``/``offset`` chosen from the
    min/max threshold actually used on ``f`` across the forest.
``packed``
    int8 thresholds *plus* leaf-distribution pooling: the distinct leaf
    values of the forest collapse into a <=255-entry pool addressed by a
    uint8 code, which is what lets the device model pack a node into a
    4-byte record (see :mod:`repro.layout.footprint`).

Codecs quantize at *build* time: a layout constructed under codec ``c``
stores the already-decoded (round-tripped) float32 values, so every
downstream consumer — trace kernels, integrity checksums, the fastpath
(:mod:`repro.fastpath`) — compares that one channel unchanged.  The
stored codes and calibration tables size the device bytes
(:mod:`repro.layout.footprint`) and the forest file.
:func:`quantize_trees` applies the same round trip to the host trees,
which makes the CPU reference over them the oracle for a quantized
layout.

All decode arithmetic is float32 end to end.  A float64 operand in the
decode would round differently; the boundary-row golden input of
``tests/test_fastpath.py::TestQuantizedGolden`` (queries sitting exactly
on decoded thresholds) catches that.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

#: Every legal value of the runtime's ``precision`` axis, in widening
#: order of compression.  ``RunConfig.precision`` validates against this.
PRECISIONS = ("float32", "float16", "int8", "packed")

#: Codecs that carry a per-feature affine calibration table.
CALIBRATED = ("int8", "packed")

#: Maximum leaf-pool entries addressable by the packed record's uint8 code.
LEAF_POOL_MAX = 256


class CodecError(ValueError):
    """A forest cannot be represented under the requested codec."""


@dataclass(frozen=True)
class QuantizedValues:
    """Side tables a non-identity codec attaches to a layout.

    ``codes`` holds the encoded threshold channel, slot-aligned with the
    layout's ``value`` array (zero on non-inner slots).  For calibrated
    codecs, ``scale``/``offset`` are float32 per-feature affine tables;
    for ``float16`` they are empty.  The ``packed`` codec additionally
    carries the leaf pool and the per-slot uint8 pool index.
    """

    codec: str
    codes: np.ndarray
    scale: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float32))
    offset: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float32))
    leaf_pool: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float32)
    )
    leaf_code: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint8))

    @property
    def calibrated(self) -> bool:
        return self.codec in CALIBRATED


def _calibration(
    thresholds: np.ndarray, features: np.ndarray, n_features: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-feature affine table from the thresholds actually in use.

    Callers pass only the *inner* (threshold-carrying) slots here —
    leaf labels and padding must not widen a feature's range.  ``offset``
    is the midpoint of the per-feature threshold range and ``scale`` maps
    that range onto [-127, 127]; features with no (or one distinct)
    threshold degrade to ``scale=1`` so decode stays exact.
    """
    lo = np.full(n_features, np.inf, dtype=np.float32)
    hi = np.full(n_features, -np.inf, dtype=np.float32)
    np.minimum.at(lo, features, thresholds)
    np.maximum.at(hi, features, thresholds)
    seen = lo <= hi
    lo = np.where(seen, lo, np.float32(0.0))
    hi = np.where(seen, hi, np.float32(0.0))
    offset = (hi + lo) * np.float32(0.5)
    half = (hi - lo) * np.float32(0.5)
    scale = np.where(half > 0, half / np.float32(127.0), np.float32(1.0))
    return scale.astype(np.float32), offset.astype(np.float32)


class NodeCodec:
    """One point on the precision axis.  Subclasses fill in the tables."""

    #: Codec name as it appears on the ``precision`` axis.
    name: str = "float32"
    #: Bytes per stored threshold on the device.
    threshold_bytes: int = 4
    #: NumPy dtype thresholds are stored as on disk (format v4).
    threshold_dtype: np.dtype = np.dtype(np.float32)
    #: Whether the codec carries a per-feature scale/offset table.
    calibrated: bool = False

    # -- threshold channel -------------------------------------------------
    def encode_thresholds(
        self,
        thresholds: np.ndarray,
        features: np.ndarray,
        n_features: int,
        mask: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Encode float32 thresholds -> (codes, scale, offset).

        ``mask`` marks the slots that genuinely carry thresholds;
        calibrated codecs fit their affine tables on that subset only.
        """
        raise NotImplementedError

    def decode_thresholds(
        self, codes: np.ndarray, features: np.ndarray,
        scale: np.ndarray, offset: np.ndarray,
    ) -> np.ndarray:
        """Decode stored codes back to float32 thresholds.

        This is the *canonical* dequantization expression: the layout
        builders and the forest loader both decode through it, so it must
        stay a pure float32 composition for bit-identity.
        """
        raise NotImplementedError


class Float32Codec(NodeCodec):
    """Identity: the historical layout, untouched."""

    name = "float32"

    def encode_thresholds(self, thresholds, features, n_features, mask=None):
        empty = np.empty(0, dtype=np.float32)
        return thresholds.astype(np.float32), empty, empty

    def decode_thresholds(self, codes, features, scale, offset):
        return codes.astype(np.float32)


class Float16Codec(NodeCodec):
    """Half-precision thresholds; decode is a widening cast."""

    name = "float16"
    threshold_bytes = 2
    threshold_dtype = np.dtype(np.float16)

    def encode_thresholds(self, thresholds, features, n_features, mask=None):
        empty = np.empty(0, dtype=np.float32)
        return thresholds.astype(np.float16), empty, empty

    def decode_thresholds(self, codes, features, scale, offset):
        return codes.astype(np.float32)


class Int8Codec(NodeCodec):
    """Per-feature affine int8 thresholds."""

    name = "int8"
    threshold_bytes = 1
    threshold_dtype = np.dtype(np.int8)
    calibrated = True

    def encode_thresholds(self, thresholds, features, n_features, mask=None):
        thresholds = thresholds.astype(np.float32)
        if mask is None:
            mask = np.ones(thresholds.shape, dtype=bool)
        scale, offset = _calibration(
            thresholds[mask], features[mask], n_features
        )
        normalized = (thresholds - offset[features]) / scale[features]
        codes = np.clip(np.rint(normalized), -127, 127).astype(np.int8)
        return codes, scale, offset

    def decode_thresholds(self, codes, features, scale, offset):
        return codes.astype(np.float32) * scale[features] + offset[features]


class PackedCodec(Int8Codec):
    """int8 thresholds + leaf pooling for the 4/8-byte record layout."""

    name = "packed"

    @staticmethod
    def pool_leaves(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Collapse leaf values into a <=255-entry pool + uint8 codes."""
        pool = np.unique(values.astype(np.float32))
        if pool.size >= LEAF_POOL_MAX:
            raise CodecError(
                f"packed codec needs <= {LEAF_POOL_MAX - 1} distinct leaf "
                f"values, forest has {pool.size}"
            )
        codes = np.searchsorted(pool, values.astype(np.float32)).astype(np.uint8)
        return pool.astype(np.float32), codes


_CODECS: Dict[str, NodeCodec] = {
    c.name: c for c in (Float32Codec(), Float16Codec(), Int8Codec(), PackedCodec())
}


def get_codec(codec: Union[str, NodeCodec]) -> NodeCodec:
    """Resolve a codec name (or pass an instance through)."""
    if isinstance(codec, NodeCodec):
        return codec
    try:
        return _CODECS[codec]
    except KeyError:
        raise CodecError(
            f"unknown codec {codec!r}; choose from {PRECISIONS}"
        ) from None


def quantize_layout_values(
    codec: Union[str, NodeCodec],
    value: np.ndarray,
    feature_id: np.ndarray,
) -> Tuple[np.ndarray, Optional[QuantizedValues]]:
    """Quantize a layout's value channel at build time.

    ``value`` mixes thresholds (slots with ``feature_id >= 0``) and leaf
    labels / padding (``feature_id < 0``); only the threshold half is
    quantized.  Returns the round-tripped float32 value array plus the
    codec's side tables (``None`` for the float32 identity).  ``value``
    must already be float32: the identity codec returns it as is, so a
    builder that widens its value channel ships a float64 layout (caught
    by the layout dtype pin) instead of having the widening cast away here.
    """
    resolved = get_codec(codec)
    if resolved.name == "float32":
        return value, None

    inner = feature_id >= 0
    feat_idx = np.where(inner, feature_id, 0).astype(np.int64)
    n_features = int(feat_idx.max()) + 1 if feat_idx.size else 1
    codes, scale, offset = resolved.encode_thresholds(
        value, feat_idx, n_features, mask=inner
    )
    codes = np.where(inner, codes, np.zeros(1, dtype=codes.dtype))
    decoded = resolved.decode_thresholds(codes, feat_idx, scale, offset)
    roundtripped = np.where(inner, decoded, value).astype(np.float32)

    leaf_pool = np.empty(0, dtype=np.float32)
    leaf_code = np.empty(0, dtype=np.uint8)
    if resolved.name == "packed":
        leaf_pool, leaf_code = PackedCodec.pool_leaves(
            np.where(inner, np.float32(0.0), value).astype(np.float32)
        )
    quant = QuantizedValues(
        codec=resolved.name,
        codes=codes,
        scale=scale,
        offset=offset,
        leaf_pool=leaf_pool,
        leaf_code=leaf_code,
    )
    return roundtripped, quant


def quantize_trees(trees: Sequence, codec: Union[str, NodeCodec]) -> List:
    """Host trees whose inner-node thresholds went through ``codec``.

    Calibration takes per-feature min/max over the inner nodes of the
    whole forest, so it does not depend on node order: the decoded
    thresholds equal those of any layout built from ``trees`` under
    ``codec``, and ``reference_predict`` over the result is the oracle for
    that layout.
    """
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    decoded, _ = quantize_layout_values(codec, threshold, feature)
    bounds = np.cumsum([t.n_nodes for t in trees])[:-1]
    return [
        replace(tree, threshold=part)
        for tree, part in zip(trees, np.split(decoded, bounds))
    ]
