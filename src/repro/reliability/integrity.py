"""Layout integrity: CRC32 checksums and degraded ensemble voting.

The hierarchical layout's performance argument assumes node buffers are
bit-exact after host→device transfer; in a production service that
assumption fails routinely (DMA corruption, bad DIMMs, stale caches).  This
module makes corruption *survivable* instead of merely detectable:

* :class:`LayoutIntegrity` — per-array and per-tree CRC32 digests computed
  once at layout-build time (:func:`attach_integrity` is called by
  ``HierarchicalForest.from_trees`` / ``CSRForest.from_trees``).  The clean
  classification path never re-hashes anything; verification runs only where
  the guarded path asks for it (before a kernel launch, after a simulated
  transfer).
* :func:`verify_layout_integrity` — raises :class:`LayoutIntegrityError`
  naming the mismatched arrays.
* :func:`degraded_predict` — majority vote over only the trees whose buffers
  still hash correctly, provided a configurable quorum survives.  This is
  the availability escape hatch: drop poisoned trees, keep answering.  The
  vote is a root mask over the edge table the layout lowered at build time
  (:func:`repro.fastpath.fastpath_predict`), so it never reads a damaged
  buffer.

Everything here is duck-typed over the layout dataclasses (any object whose
``ndarray`` attributes are the node buffers), so the module imports neither
``repro.layout`` nor ``repro.core`` and stays cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fastpath import fastpath_predict
from repro.utils.validation import array_crc32, check_in_range


class LayoutIntegrityError(RuntimeError):
    """A layout buffer no longer matches its build-time checksum."""


class QuorumLostError(LayoutIntegrityError):
    """Too few intact trees survive to form the configured voting quorum."""


def _node_arrays(layout) -> Dict[str, np.ndarray]:
    """All ndarray attributes of a layout, in attribute order."""
    return {
        name: value
        for name, value in vars(layout).items()
        if isinstance(value, np.ndarray)
    }


def _tree_regions(layout, tree: int) -> List[Tuple[str, int, int]]:
    """The ``(array, lo, hi)`` buffer slices owned by one tree.

    Supports both layout families: the hierarchical layout (per-subtree
    slot/connection ranges, mapped through ``subtree_tree``) and the CSR
    layout (per-tree node and children ranges).
    """
    regions: List[Tuple[str, int, int]] = []
    if hasattr(layout, "subtree_tree"):
        for st in np.flatnonzero(layout.subtree_tree == tree):
            st = int(st)
            regions.append(
                (
                    "feature_id",
                    int(layout.subtree_node_offset[st]),
                    int(layout.subtree_node_offset[st + 1]),
                )
            )
            regions.append(
                (
                    "value",
                    int(layout.subtree_node_offset[st]),
                    int(layout.subtree_node_offset[st + 1]),
                )
            )
            regions.append(
                (
                    "subtree_connection",
                    int(layout.connection_offset[st]),
                    int(layout.connection_offset[st + 1]),
                )
            )
    elif hasattr(layout, "tree_node_offset"):
        lo = int(layout.tree_node_offset[tree])
        hi = int(layout.tree_node_offset[tree + 1])
        regions.append(("feature_id", lo, hi))
        regions.append(("value", lo, hi))
        regions.append(("children_arr_idx", lo, hi))
        clo = int(layout.tree_children_offset[tree])
        chi = int(layout.tree_children_offset[tree + 1])
        regions.append(("children_arr", clo, chi))
    elif hasattr(layout, "tree_offset"):  # FIL sparse16 comparator
        lo = int(layout.tree_offset[tree])
        hi = int(layout.tree_offset[tree + 1])
        regions.append(("feature", lo, hi))
        regions.append(("value", lo, hi))
        regions.append(("left_child", lo, hi))
    else:
        raise TypeError(
            f"cannot derive per-tree regions for {type(layout).__name__}"
        )
    return regions


def _tree_crc(layout, tree: int) -> int:
    crc = 0
    for name, lo, hi in _tree_regions(layout, tree):
        crc = array_crc32(getattr(layout, name)[lo:hi], crc)
    return crc


@dataclass
class LayoutIntegrity:
    """Build-time CRC32 digests of a forest layout's node buffers.

    ``array_crc`` digests every ndarray attribute whole (transfer-level
    check); ``tree_crc`` digests each tree's buffer regions separately so
    corruption can be localised and the ensemble degraded instead of failed.
    """

    array_crc: Dict[str, int]
    tree_crc: np.ndarray
    #: Last :meth:`surviving_trees` answer, keyed on the whole-array
    #: digests of the buffers it was computed from.
    _alive_memo: Optional[Tuple[Tuple[Tuple[str, int], ...], np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @classmethod
    def from_layout(cls, layout) -> "LayoutIntegrity":
        """Hash every node buffer of ``layout`` (one pass, build time)."""
        array_crc = {
            name: array_crc32(arr) for name, arr in _node_arrays(layout).items()
        }
        tree_crc = np.asarray(
            [_tree_crc(layout, t) for t in range(layout.n_trees)],
            dtype=np.uint32,
        )
        return cls(array_crc=array_crc, tree_crc=tree_crc)

    # ------------------------------------------------------------------
    def verify_arrays(self, layout) -> List[str]:
        """Names of buffers whose current bytes mismatch the stored CRC."""
        return [
            name
            for name, arr in _node_arrays(layout).items()
            if self.array_crc.get(name) != array_crc32(arr)
        ]

    def surviving_trees(self, layout) -> np.ndarray:
        """Boolean mask of trees whose buffer regions still hash correctly.

        Per-tree digests walk every subtree in Python, so the mask is
        recomputed only when the layout's current whole-array digests
        differ from those of the last call; any change to a tree's bytes
        changes its array's digest.
        """
        key = tuple(
            (name, array_crc32(arr)) for name, arr in _node_arrays(layout).items()
        )
        if self._alive_memo is None or self._alive_memo[0] != key:
            alive = np.asarray(
                [
                    int(self.tree_crc[t]) == _tree_crc(layout, t)
                    for t in range(layout.n_trees)
                ],
                dtype=bool,
            )
            self._alive_memo = (key, alive)
        return self._alive_memo[1].copy()

    def check(self, layout) -> None:
        """Raise :class:`LayoutIntegrityError` if any buffer mismatches."""
        bad = self.verify_arrays(layout)
        if bad:
            raise LayoutIntegrityError(
                "layout buffer checksum mismatch in: " + ", ".join(sorted(bad))
            )


# ----------------------------------------------------------------------
# Attachment / verification entry points
# ----------------------------------------------------------------------
def attach_integrity(layout) -> LayoutIntegrity:
    """Compute and attach checksums to ``layout`` (idempotent)."""
    integ = getattr(layout, "integrity", None)
    if integ is None:
        integ = LayoutIntegrity.from_layout(layout)
        layout.integrity = integ
    return integ


def verify_layout_integrity(layout) -> None:
    """Verify ``layout`` against its attached checksums.

    Layouts built through ``from_trees`` carry checksums already; for
    hand-assembled layouts the first verification establishes the baseline.
    """
    attach_integrity(layout).check(layout)


# ----------------------------------------------------------------------
# Degraded ensemble voting
# ----------------------------------------------------------------------
def quorum_size(n_trees: int, min_quorum_fraction: float) -> int:
    """Smallest surviving-tree count that still constitutes a quorum."""
    check_in_range(min_quorum_fraction, "min_quorum_fraction", 0.0, 1.0)
    return max(1, int(np.ceil(min_quorum_fraction * n_trees)))


def degraded_predict(
    layout,
    X: np.ndarray,
    alive: np.ndarray,
    min_quorum_fraction: float = 0.5,
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Majority vote over only the intact trees of a corrupted layout.

    Returns ``(predictions, dropped_tree_ids)``.  Raises
    :class:`QuorumLostError` when fewer than
    ``ceil(min_quorum_fraction * n_trees)`` trees survive — at that point
    degraded answers would be statistically meaningless and the caller
    should fall back to another platform instead.
    """
    alive = np.asarray(alive, dtype=bool)
    if alive.shape[0] != layout.n_trees:
        raise ValueError("alive mask length does not match tree count")
    needed = quorum_size(layout.n_trees, min_quorum_fraction)
    n_alive = int(alive.sum())
    if n_alive < needed:
        raise QuorumLostError(
            f"only {n_alive}/{layout.n_trees} trees intact, "
            f"quorum requires {needed}"
        )
    preds, _ = fastpath_predict(layout, X, trees=alive)
    dropped = tuple(int(t) for t in np.flatnonzero(~alive))
    return preds, dropped
