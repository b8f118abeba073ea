"""Layout integrity: CRC32 checksums and degraded ensemble voting.

The hierarchical layout's performance argument assumes node buffers are
bit-exact after host→device transfer; in a production service that
assumption fails routinely (DMA corruption, bad DIMMs, stale caches).  This
module makes corruption *survivable* instead of merely detectable:

* :class:`LayoutIntegrity` — per-array and per-tree CRC32 digests computed
  once at build time, for each image a plan can execute: the layout's own
  arrays (:func:`attach_integrity`, called by every ``from_trees``), which
  the trace-model kernels read, and the
  :class:`~repro.fastpath.engine.EdgeTable` that ``trace="off"`` plans
  read (hashed by :func:`repro.fastpath.engine.lower` over
  :func:`table_regions`).  :func:`served_image` names a plan's image.  The
  clean classification path never re-hashes anything; verification runs
  only where the guarded path asks for it: after a simulated transfer, and
  before a launch whose answers nothing else proves.  With the CPU oracle
  on, a trace-off batch is proven by its leaf certificate instead, and the
  table is hashed only after a certificate fails, to name the trees to
  drop.
* :func:`verify_layout_integrity` — raises :class:`LayoutIntegrityError`
  naming the mismatched arrays.
* :func:`degraded_predict` — majority vote over only the trees whose
  served regions still hash correctly, provided a configurable quorum
  survives.  This is the availability escape hatch: drop poisoned trees,
  keep answering.  The vote is a root mask over the edge table
  (:func:`repro.fastpath.fastpath_predict`), so it walks only surviving
  trees.  Given the host trees' leaf boxes, it also certifies every
  surviving lane's leaf against them
  (:func:`repro.baselines.cpu_reference.certify_votes`).

Everything here is duck-typed over the layout dataclasses (any object whose
``ndarray`` attributes are the node buffers), so the module imports neither
``repro.layout`` nor ``repro.core`` and stays cycle-free.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.baselines.cpu_reference import CertificateError, LeafBoxes, certify_votes
from repro.fastpath import FastpathStats, fastpath_predict
from repro.utils.validation import array_crc32, check_in_range

#: Whole-array digests of a layout: ``(name, crc)`` in attribute order.
Digests = Tuple[Tuple[str, int], ...]


class LayoutIntegrityError(RuntimeError):
    """A layout buffer no longer matches its build-time checksum.

    ``digests`` carries the layout's whole-array digests as the failed
    :meth:`LayoutIntegrity.check` computed them, so the degraded path can
    key :meth:`LayoutIntegrity.surviving_trees` without hashing again.
    """

    def __init__(self, message: str, digests: Optional[Digests] = None):
        super().__init__(message)
        self.digests = digests


class QuorumLostError(LayoutIntegrityError):
    """Too few intact trees survive to form the configured voting quorum."""


def _node_arrays(layout) -> Dict[str, np.ndarray]:
    """All ndarray attributes of a layout, in attribute order."""
    return {
        name: value
        for name, value in vars(layout).items()
        if isinstance(value, np.ndarray)
    }


def _array_digests(layout) -> Digests:
    """``(name, crc)`` of each node buffer's current bytes, attribute order."""
    return tuple(
        (name, array_crc32(arr)) for name, arr in _node_arrays(layout).items()
    )


class Regions(NamedTuple):
    """Every tree's buffer regions of one image (a layout or its table).

    Row ``u`` of ``lo``/``hi`` holds one ``[lo, hi)`` range per array of
    ``names`` for unit ``u`` (a subtree, or a whole tree), owned by tree
    ``owner[u]``.
    """

    names: Tuple[str, ...]
    lo: np.ndarray
    hi: np.ndarray
    owner: np.ndarray
    n_trees: int


def _region_table(layout) -> Regions:
    """Every tree's buffer regions of a layout, from its own offsets.

    Supports both layout families: the hierarchical layout (per-subtree
    slot/connection ranges, mapped through ``subtree_tree``) and the flat
    per-tree layouts (CSR, FIL).
    """
    if hasattr(layout, "subtree_tree"):
        names = ("feature_id", "value", "subtree_connection")
        offsets = [layout.subtree_node_offset] * 2 + [layout.connection_offset]
        owner = layout.subtree_tree
    elif hasattr(layout, "tree_node_offset"):
        names = ("feature_id", "value", "children_arr_idx", "children_arr")
        offsets = [layout.tree_node_offset] * 3 + [layout.tree_children_offset]
        owner = np.arange(layout.n_trees, dtype=np.int64)
    elif hasattr(layout, "tree_offset"):  # FIL sparse16 comparator
        names = ("feature", "value", "left_child")
        offsets = [layout.tree_offset] * 3
        owner = np.arange(layout.n_trees, dtype=np.int64)
    else:
        raise TypeError(
            f"cannot derive per-tree regions for {type(layout).__name__}"
        )
    lo = np.stack([off[:-1] for off in offsets], axis=1).astype(np.int64)
    hi = np.stack([off[1:] for off in offsets], axis=1).astype(np.int64)
    return Regions(names, lo, hi, owner, layout.n_trees)


def table_regions(layout) -> Regions:
    """Every tree's regions of the :class:`~repro.fastpath.engine.EdgeTable`
    lowered from ``layout``.

    The table keeps the layout's slot numbering, and every layout stores
    each tree's slots as one run (a hier layout packs its subtrees tree by
    tree).  So tree ``t`` is one unit: the run ``[first[t], first[t + 1])``
    of ``feature`` / ``value`` / ``label`` / ``host`` entries, twice that
    of ``succ``, and ``roots[t]``.  Every byte of the table belongs to
    exactly one tree.
    """
    trees = np.arange(layout.n_trees + 1, dtype=np.int64)
    if hasattr(layout, "subtree_tree"):
        owner = layout.subtree_tree
        if np.any(np.diff(owner) < 0):
            raise ValueError("subtrees are not packed tree by tree")
        first = layout.subtree_node_offset[np.searchsorted(owner, trees)]
    elif hasattr(layout, "tree_node_offset"):
        first = layout.tree_node_offset
    else:  # FIL
        first = layout.tree_offset
    first = np.asarray(first, dtype=np.int64)
    offsets = [first] * 4 + [2 * first, trees]
    lo = np.stack([off[:-1] for off in offsets], axis=1)
    hi = np.stack([off[1:] for off in offsets], axis=1)
    names = ("feature", "value", "label", "host", "succ", "roots")
    return Regions(names, lo, hi, trees[:-1], layout.n_trees)


def _tree_regions(regions: Regions, tree: int) -> List[Tuple[str, int, int]]:
    """The non-empty ``(array, lo, hi)`` slices one tree owns, unit by unit."""
    return [
        (name, int(regions.lo[u, k]), int(regions.hi[u, k]))
        for u in np.flatnonzero(regions.owner == tree)
        for k, name in enumerate(regions.names)
        if regions.hi[u, k] > regions.lo[u, k]
    ]


def _tree_digests(image, regions: Regions) -> np.ndarray:
    """``uint32[n_trees]``: each tree's CRC32 over its regions, in one pass.

    Equals chaining :func:`array_crc32` over :func:`_tree_regions` slice by
    slice.  That is how a tree that is one unit (every table, and CSR and
    FIL layouts) is hashed: its slices chained in place, one
    ``zlib.crc32`` call per array.  Where trees span many units (hier
    layouts' subtrees), every region of every tree is gathered instead —
    tree by tree, as words of the arrays' common item size — into one
    buffer, and each tree's run of it is hashed with a single call.
    """
    names, lo, hi, owner, n_trees = regions
    arrays = [np.ascontiguousarray(getattr(image, n)).ravel() for n in names]
    if np.array_equal(owner, np.arange(n_trees, dtype=np.int64)):
        crc = np.zeros(n_trees, dtype=np.uint32)
        for k, arr in enumerate(arrays):
            crc = [zlib.crc32(arr[a:b], c) for a, b, c in zip(lo[:, k], hi[:, k], crc)]
        return np.array(crc, dtype=np.uint32)
    unit = math.gcd(*(a.itemsize for a in arrays))
    words = np.concatenate([a.view(f"u{unit}") for a in arrays])
    per_item = np.array([a.itemsize // unit for a in arrays])
    size = np.array([a.shape[0] for a in arrays])
    base = np.concatenate(([0], np.cumsum(size * per_item)[:-1]))
    # Python slice semantics, so damaged offsets hash what slicing reads.
    lo = np.clip(np.where(lo < 0, lo + size, lo), 0, size)
    hi = np.maximum(np.clip(np.where(hi < 0, hi + size, hi), 0, size), lo)
    units = np.flatnonzero((owner >= 0) & (owner < n_trees))
    units = units[np.argsort(owner[units], kind="stable")]
    start = (base + lo * per_item)[units].ravel()
    length = ((hi - lo) * per_item)[units].ravel()
    # Gathered word j of region r reads words[start[r] + j - first[r]],
    # where region r begins at ``first[r]`` in the gathered buffer.
    first = np.cumsum(length) - length
    gather = np.repeat((start - first).astype(np.int32), length)
    gather += np.arange(gather.shape[0], dtype=np.int32)
    run = np.bincount(
        np.repeat(owner[units], len(names)), weights=length, minlength=n_trees
    )
    bounds = np.concatenate(([0], np.cumsum(run.astype(np.int64))))
    gathered = words[gather]
    return np.array(
        [zlib.crc32(gathered[a:b]) for a, b in zip(bounds[:-1], bounds[1:])],
        dtype=np.uint32,
    )


@dataclass
class LayoutIntegrity:
    """Build-time CRC32 digests of one image's buffers.

    ``array_crc`` digests every ndarray attribute whole (transfer-level
    check); ``tree_crc`` digests each tree's buffer regions separately so
    corruption can be localised and the ensemble degraded instead of failed.
    ``regions`` are those regions for an image that carries no offsets of
    its own (an :class:`~repro.fastpath.engine.EdgeTable`, see
    :func:`table_regions`); ``None`` derives them from a layout's own
    offsets at every hash.
    """

    array_crc: Dict[str, int]
    tree_crc: np.ndarray
    regions: Optional[Regions] = field(default=None, repr=False, compare=False)
    #: Last :meth:`surviving_trees` answer, keyed on the whole-array
    #: digests of the buffers it was computed from.
    _alive_memo: Optional[Tuple[Digests, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @classmethod
    def from_layout(cls, layout, regions: Optional[Regions] = None) -> "LayoutIntegrity":
        """Hash every buffer of ``layout`` (one pass, build time)."""
        array_crc = {
            name: array_crc32(arr) for name, arr in _node_arrays(layout).items()
        }
        tree_crc = _tree_digests(layout, regions or _region_table(layout))
        return cls(array_crc=array_crc, tree_crc=tree_crc, regions=regions)

    # ------------------------------------------------------------------
    def verify_arrays(self, layout) -> List[str]:
        """Names of buffers whose current bytes mismatch the stored CRC."""
        return self._mismatched(_array_digests(layout))

    def _mismatched(self, digests: Digests) -> List[str]:
        return [name for name, crc in digests if self.array_crc.get(name) != crc]

    def surviving_trees(
        self, layout, digests: Optional[Digests] = None
    ) -> np.ndarray:
        """Boolean mask of trees whose buffer regions still hash correctly.

        The per-tree digests (:func:`_tree_digests`) rehash every tree's
        regions, so the mask is recomputed only when the layout's current
        whole-array digests differ from those of the last call; any change
        to a tree's bytes changes its array's digest.  ``digests`` are
        those current digests when the caller already holds them (a
        :class:`LayoutIntegrityError` that :meth:`check` just raised for
        ``layout`` carries them); otherwise they are hashed here.
        """
        key = digests if digests is not None else _array_digests(layout)
        if self._alive_memo is None or self._alive_memo[0] != key:
            regions = self.regions or _region_table(layout)
            alive = self.tree_crc == _tree_digests(layout, regions)
            self._alive_memo = (key, alive)
        return self._alive_memo[1].copy()

    def check(self, layout) -> None:
        """Raise :class:`LayoutIntegrityError` if any buffer mismatches."""
        digests = _array_digests(layout)
        bad = self._mismatched(digests)
        if bad:
            raise LayoutIntegrityError(
                "layout buffer checksum mismatch in: " + ", ".join(sorted(bad)),
                digests=digests,
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


def served_image(layout, table: bool) -> Tuple[object, LayoutIntegrity]:
    """The buffers a plan over ``layout`` executes, with their digests.

    With ``table`` (every ``trace="off"`` plan) that is the
    :class:`~repro.fastpath.engine.EdgeTable` :func:`~repro.fastpath.engine.lower`
    built and hashed beside the layout; otherwise the layout's own arrays.
    """
    if table:
        return layout._fastpath_edges, layout._fastpath_integrity
    return layout, attach_integrity(layout)


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
    boxes: Optional[LeafBoxes] = None,
) -> Tuple[np.ndarray, Tuple[int, ...], FastpathStats]:
    """Majority vote over only the intact trees of a corrupted layout.

    Returns ``(predictions, dropped_tree_ids, stats)``, ``stats`` being the
    vote's fastpath launch counters (what the guard prices it by).  Raises
    :class:`QuorumLostError` when fewer than
    ``ceil(min_quorum_fraction * n_trees)`` trees survive — at that point
    degraded answers would be statistically meaningless and the caller
    should fall back to another platform instead.

    With ``boxes`` (the host trees' :class:`LeafBoxes`), every surviving
    lane's leaf is certified against them
    (:func:`~repro.baselines.cpu_reference.certify_votes`), and a vote
    that disagrees with the surviving host trees raises
    :class:`~repro.baselines.cpu_reference.CertificateError` instead of
    answering.
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
    leaves = None
    if boxes is not None:
        leaves = np.empty(X.shape[0] * n_alive, dtype=np.int32)
    preds, stats = fastpath_predict(layout, X, trees=alive, leaves=leaves)
    if boxes is not None:
        votes = certify_votes(boxes, X, leaves, trees=np.flatnonzero(alive))
        if not np.array_equal(preds, votes.argmax(axis=1)):
            raise CertificateError(
                "degraded vote disagrees with the CPU reference over the "
                "surviving trees"
            )
    dropped = tuple(int(t) for t in np.flatnonzero(~alive))
    return preds, dropped, stats
