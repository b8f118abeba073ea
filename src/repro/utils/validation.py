"""Input validation helpers shared across the library.

All public entry points validate their inputs eagerly and raise ``ValueError``
/ ``TypeError`` with actionable messages, so mistakes surface at the API
boundary rather than deep inside a simulator loop.
"""

from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

#: Elements per finiteness check: the ``np.isfinite`` mask of one block is
#: the largest temporary :func:`check_array_2d` allocates (64 KiB).
_FINITE_BLOCK = 1 << 16


def check_array_2d(x, name: str = "X", dtype=np.float32) -> np.ndarray:
    """Coerce ``x`` to a C-contiguous 2-D array of ``dtype``.

    Feature matrices flow through tight NumPy gather loops; enforcing a single
    dtype and contiguity up front keeps the per-level traversal kernels free
    of silent copies (see the hpc guide's "views, not copies" rule).
    """
    arr = np.ascontiguousarray(x, dtype=dtype)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    # One pass over row blocks: a single reduction per block, and no mask
    # larger than one block on a 100k-row query matrix.
    rows = max(1, _FINITE_BLOCK // arr.shape[1])
    for lo in range(0, arr.shape[0], rows):
        if not np.isfinite(arr[lo : lo + rows]).all():
            raise ValueError(f"{name} contains NaN or infinite values")
    return arr


class FeatureWidthError(ValueError, IndexError):
    """A query matrix lacks a feature the forest splits on.

    Both a ``ValueError`` (bad input at the API boundary) and an
    ``IndexError`` (the feature index is out of range), as NumPy's
    ``AxisError`` is.
    """


def check_feature_width(x: np.ndarray, max_feature: int, name: str = "X") -> None:
    """Raise :class:`FeatureWidthError` unless ``x`` has a column for ``max_feature``.

    A lock-step walk over a row-major query matrix reads feature ``f`` of
    row ``r`` at flat offset ``r * width + f``; too narrow an ``x`` would
    silently read the next row's values instead of failing.
    """
    if max_feature >= x.shape[1]:
        raise FeatureWidthError(
            f"{name} has {x.shape[1]} features, but the forest splits on "
            f"feature {max_feature}"
        )


def check_positive_int(value, name: str, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer ``>= minimum`` and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_in_range(value, name: str, low, high) -> float:
    """Validate ``low <= value <= high`` and return ``value`` as float."""
    value = float(value)
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def array_crc32(arr: np.ndarray, start: int = 0) -> int:
    """CRC32 of an array's raw bytes (C order), as an unsigned 32-bit int.

    ``start`` chains checksums across several arrays (``zlib.crc32`` running
    value), which is how per-tree checksums cover a tree's slices of every
    node buffer with one digest.  The checksum covers values only, not dtype
    or shape — callers that need those guarantees must check them separately.
    """
    # zlib reads the contiguous array's own buffer: no ``tobytes()`` copy.
    return zlib.crc32(np.ascontiguousarray(arr), start) & 0xFFFFFFFF


def check_same_length(*arrays: Sequence, names: Sequence[str] = ()) -> int:
    """Validate that all arrays share their first-dimension length."""
    if not arrays:
        raise ValueError("check_same_length needs at least one array")
    lengths = [len(a) for a in arrays]
    if len(set(lengths)) != 1:
        labels = list(names) + [f"arg{i}" for i in range(len(names), len(arrays))]
        detail = ", ".join(f"{n}={l}" for n, l in zip(labels, lengths))
        raise ValueError(f"length mismatch: {detail}")
    return lengths[0]
