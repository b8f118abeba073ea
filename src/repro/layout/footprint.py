"""Byte-exact memory-footprint accounting (paper §4.2, Fig. 6).

The paper compares the hierarchical representation's memory usage against
CSR as the ratio ``hierarchical_bytes / csr_bytes`` for subtree depths
4 / 6 / 8.  There is one byte model: each layout maps to a dict of
modeled device-resident arrays (:func:`csr_device_arrays` /
:func:`hierarchical_device_arrays`) whose widths derive from the layout's
codec, and the byte totals are the sum of their ``nbytes``.  Fig. 6, the
cost model, the quantization frontier and the transfer model all read
these totals, which is how they see quantized layouts shrink.

Unpacked codecs ship the representations of §2.3/§3.1: 32-bit feature
ids and child/connection indices, 64-bit offsets, and the codec's value
channel (float32 values, or the float16/int8 threshold codes).  The
``packed`` codec switches to record modeling: an 8-byte CSR node record
(16-bit feature, int8 threshold, leaf flags, two 16-bit child refs) and a
4-byte hierarchical slot record, plus the shared leaf pool and
calibration tables.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.layout.codec import CodecError
from repro.layout.csr import CSRForest
from repro.layout.hierarchical import HierarchicalForest

#: Packed CSR node record: feature, quantized threshold, leaf flags and two
#: tree-local child refs (record rank, or leaf-pool index when the matching
#: flag bit is set).  8 bytes/record; leaves themselves store no record.
CSR_PACKED_RECORD = np.dtype(
    [
        ("feature", np.int16),
        ("qthreshold", np.int8),
        ("leaf_flags", np.uint8),
        ("left", np.int16),
        ("right", np.int16),
    ]
)

#: Packed hierarchical slot record: feature, quantized threshold and the
#: leaf-pool index (``aux``).  4 bytes/slot, padding slots included —
#: arithmetic in-subtree indexing needs the complete prefix either way.
HIER_PACKED_RECORD = np.dtype(
    [("feature", np.int16), ("qvalue", np.int8), ("aux", np.uint8)]
)

#: Tree-local refs in packed records are int16.
_PACKED_MAX_TREE_NODES = 32767


#: Feature-id, index and offset widths of the unpacked device arrays
#: (every codec but ``packed``); the value channel is the codec's own.
_FEATURE_DTYPE = np.int32
_INDEX_DTYPE = np.int32
_OFFSET_DTYPE = np.int64


def _value_channel(forest) -> np.ndarray:
    """The device-resident value array: codec codes, or the f32 channel."""
    if forest.quant is not None:
        return forest.quant.codes
    return forest.value.astype(np.float32)


def _calibration_arrays(forest) -> Dict[str, np.ndarray]:
    """Per-feature affine tables a calibrated codec ships to the device."""
    q = forest.quant
    if q is None or not q.calibrated:
        return {}
    return {"threshold_scale": q.scale, "threshold_offset": q.offset}


def _csr_packed_arrays(forest: CSRForest) -> Dict[str, np.ndarray]:
    """Record-packed CSR device arrays (``packed`` codec only).

    One 8-byte record per *inner* node; child refs are tree-local record
    ranks, or leaf-pool indices when the sibling ``leaf_flags`` bit says
    the child is a leaf.
    """
    q = forest.quant
    rec_parts = []
    rec_off = np.zeros(forest.n_trees + 1, dtype=np.int64)
    for t in range(forest.n_trees):
        lo = int(forest.tree_node_offset[t])
        hi = int(forest.tree_node_offset[t + 1])
        if hi - lo > _PACKED_MAX_TREE_NODES:
            raise CodecError(
                f"packed codec limits trees to {_PACKED_MAX_TREE_NODES} "
                f"nodes, tree {t} has {hi - lo}"
            )
        feats = forest.feature_id[lo:hi]
        inner = feats >= 0
        rec_id = (np.cumsum(inner) - 1).astype(np.int64)
        cbase = int(forest.tree_children_offset[t])
        caidx = forest.children_arr_idx[lo:hi][inner]
        left = forest.children_arr[cbase + caidx].astype(np.int64)
        right = forest.children_arr[cbase + caidx + 1].astype(np.int64)
        left_leaf = forest.feature_id[lo + left] < 0
        right_leaf = forest.feature_id[lo + right] < 0
        rec = np.zeros(int(inner.sum()), dtype=CSR_PACKED_RECORD)
        rec["feature"] = feats[inner].astype(np.int16)
        rec["qthreshold"] = q.codes[lo:hi][inner]
        rec["leaf_flags"] = left_leaf.astype(np.uint8) | (
            right_leaf.astype(np.uint8) << 1
        )
        rec["left"] = np.where(
            left_leaf, q.leaf_code[lo + left].astype(np.int64), rec_id[left]
        ).astype(np.int16)
        rec["right"] = np.where(
            right_leaf, q.leaf_code[lo + right].astype(np.int64), rec_id[right]
        ).astype(np.int16)
        rec_parts.append(rec)
        rec_off[t + 1] = rec_off[t] + rec.shape[0]
    return {
        "node_records": np.concatenate(rec_parts)
        if rec_parts
        else np.empty(0, dtype=CSR_PACKED_RECORD),
        "tree_record_offset": rec_off,
        "leaf_pool": forest.quant.leaf_pool,
        **_calibration_arrays(forest),
    }


def _hier_packed_arrays(forest: HierarchicalForest) -> Dict[str, np.ndarray]:
    """Record-packed hierarchical device arrays (``packed`` codec only)."""
    q = forest.quant
    rec = np.zeros(forest.total_slots, dtype=HIER_PACKED_RECORD)
    rec["feature"] = forest.feature_id.astype(np.int16)
    rec["qvalue"] = q.codes
    rec["aux"] = q.leaf_code
    return {
        "slot_records": rec,
        "subtree_node_offset": forest.subtree_node_offset,
        "connection_offset": forest.connection_offset,
        "subtree_connection": forest.subtree_connection,
        "subtree_depth": forest.subtree_depth,
        "tree_root_subtree": forest.tree_root_subtree,
        "leaf_pool": q.leaf_pool,
        **_calibration_arrays(forest),
    }


def csr_device_arrays(forest: CSRForest) -> Dict[str, np.ndarray]:
    """Modeled device-resident arrays of the CSR layout (Fig. 2).

    Widths come from the layout's codec.  ``children_arr_idx`` is modeled
    at index width (a real kernel ships the 32-bit form), matching the
    paper's Fig. 6 accounting.
    """
    if getattr(forest, "codec", "float32") == "packed":
        return _csr_packed_arrays(forest)
    return {
        "feature_id": forest.feature_id.astype(_FEATURE_DTYPE),
        "value": _value_channel(forest),
        "children_arr_idx": forest.children_arr_idx.astype(_INDEX_DTYPE),
        "children_arr": forest.children_arr.astype(_INDEX_DTYPE),
        "tree_node_offset": forest.tree_node_offset.astype(_OFFSET_DTYPE),
        "tree_children_offset": forest.tree_children_offset.astype(
            _OFFSET_DTYPE
        ),
        **_calibration_arrays(forest),
    }


def hierarchical_device_arrays(
    forest: HierarchicalForest,
) -> Dict[str, np.ndarray]:
    """Modeled device-resident arrays of the hierarchical layout (Fig. 3).

    ``subtree_tree`` is host-side build metadata and is deliberately not
    counted, matching the historical Fig. 6 accounting.
    """
    if getattr(forest, "codec", "float32") == "packed":
        return _hier_packed_arrays(forest)
    return {
        "feature_id": forest.feature_id.astype(_FEATURE_DTYPE),
        "value": _value_channel(forest),
        "subtree_node_offset": forest.subtree_node_offset.astype(_OFFSET_DTYPE),
        "connection_offset": forest.connection_offset.astype(_OFFSET_DTYPE),
        "subtree_connection": forest.subtree_connection.astype(_INDEX_DTYPE),
        "subtree_depth": forest.subtree_depth.astype(_INDEX_DTYPE),
        "tree_root_subtree": forest.tree_root_subtree.astype(_INDEX_DTYPE),
        **_calibration_arrays(forest),
    }


def csr_bytes(forest: CSRForest) -> int:
    """Total bytes of the CSR representation (Fig. 2 arrays)."""
    return sum(a.nbytes for a in csr_device_arrays(forest).values())


def hierarchical_bytes(forest: HierarchicalForest) -> int:
    """Total bytes of the hierarchical representation (Fig. 3 arrays)."""
    return sum(a.nbytes for a in hierarchical_device_arrays(forest).values())


def layout_device_arrays(layout):
    """Dispatch :func:`csr_device_arrays` / :func:`hierarchical_device_arrays`."""
    if isinstance(layout, CSRForest):
        return csr_device_arrays(layout)
    if isinstance(layout, HierarchicalForest):
        return hierarchical_device_arrays(layout)
    raise TypeError(f"unknown layout type {type(layout).__name__}")


def footprint_ratio(hier: HierarchicalForest, csr: CSRForest) -> float:
    """``hierarchical_bytes / csr_bytes`` — the y-axis of Fig. 6.

    Each layout is charged at its own codec's widths.
    """
    return hierarchical_bytes(hier) / csr_bytes(csr)
