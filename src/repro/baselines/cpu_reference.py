"""CPU reference traversal — the correctness oracle.

Pure NumPy majority-vote classification straight off the
:class:`~repro.forest.tree.DecisionTree` arrays: one lock-step pass over
every (row, tree) lane of the stacked host trees
(:func:`repro.forest.tree.leaf_labels`).  Every layout and every simulated
kernel must produce byte-identical predictions to these functions; the test
suite enforces that, which is what makes the simulators' performance
counters trustworthy (they are derived from genuinely correct traversals).
The oracle reads no layout and shares no code with ``repro.fastpath``, so a
bug there cannot pass its own check.

A served batch is checked without walking the trees a second time.  The
fastpath reports the host leaf each (row, tree) lane claims to reach, and
:func:`certify_votes` checks the claim against that leaf's *box*: the
per-feature interval ``[lo, hi)`` its root-to-leaf path allows
(:func:`leaf_boxes`; every split ``x < t`` goes left, so a left branch
caps ``hi`` at ``t`` and a right branch raises ``lo`` to ``t``).  Within
one tree the leaves' boxes partition float32 space: every finite row lies
in exactly one box, the one of the leaf the walk reaches.  So a claimed
leaf of the lane's own tree whose box holds the row *is* the walk's leaf,
and the check needs no level-by-level loop.  A NaN or ``+inf`` feature
lies in no box and fails closed.

Each box is one row of bounds, ``[lo | -nextafter(hi, -inf)]``, so that
``lo <= x < hi`` is the single compare ``row <= [x | -x]`` on every
column, as an analog CAM matches a stored row of per-feature intervals in
one step.  The table holds ``(leaves + 1) x (max_feature + 1) x 8``
bytes, the extra row an empty sentinel box that every claim of a
non-leaf maps to (2.3 MB on the served 20-tree depth-20 susy forest),
beside a node-to-row and a row-to-tree map of 4 bytes per entry.  The
full walk stays the oracle for the trace-model kernels, the CPU rung and
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.forest.random_forest import vote_counts
from repro.forest.tree import (
    LEAF,
    DecisionTree,
    TreeStack,
    breadth_first_levels,
    stack_trees,
)
from repro.utils.validation import check_array_2d, check_feature_width

#: Upper bound on lanes one certificate block gathers boxes for; keeps the
#: ``(lanes, features)`` temporaries small at any batch size.
CERTIFY_CHUNK_LANES = 65536


def reference_votes(
    trees: Union[Sequence[DecisionTree], TreeStack], X: np.ndarray
) -> np.ndarray:
    """Per-class vote counts, shape ``(n_queries, n_classes)``.

    ``trees`` may be a :class:`~repro.forest.tree.TreeStack` built once by a
    caller that checks many batches against the same trees.
    """
    stack = stack_trees(trees)
    X = check_array_2d(X, "X")
    return vote_counts(stack, X, stack.n_classes)


def reference_predict(
    trees: Union[Sequence[DecisionTree], TreeStack], X: np.ndarray
) -> np.ndarray:
    """Majority-vote class labels (ties break toward the lower label)."""
    return reference_votes(trees, X).argmax(axis=1)


@dataclass(frozen=True)
class LeafBoxes:
    """Every leaf's box over the split features, one row of bounds per leaf.

    Rows follow host node ids (their
    :class:`~repro.forest.tree.TreeStack` global ids), so tree ``t``'s
    leaves hold consecutive rows; one extra row, the *sentinel*, is last.
    Per row:

    * ``bounds`` — ``float32[2 * (max_feature + 1)]``, ``[lo | -hi']``
      with ``hi' = nextafter(hi, -inf)``: for float32 ``x``, ``x < hi``
      holds iff ``x <= hi'`` (at ``hi = -inf`` no ``x`` does, and that
      half stores NaN, which fails every compare).  So a row ``x`` lies
      in the box iff ``bounds <= [x | -x]`` on every column.  The
      sentinel's box, like a leaf no walk reaches, is empty (``lo =
      +inf``).
    * ``tree`` — the row's tree, -1 on the sentinel.
    * ``label`` — the leaf's class (0 on the sentinel).

    ``node_row[node + 1]`` is host node ``node``'s row.  Inner nodes and
    both pads (``node_row[0]`` for a claim of -1, ``node_row[-1]``, which
    a clipped gather returns for every claim past the last node) map to
    the sentinel.
    """

    bounds: np.ndarray
    tree: np.ndarray
    label: np.ndarray
    node_row: np.ndarray
    n_trees: int
    n_classes: int


def leaf_boxes(trees: Union[Sequence[DecisionTree], TreeStack]) -> LeafBoxes:
    """Build the :class:`LeafBoxes` table of ``trees``, one depth at a time."""
    stack = stack_trees(trees)
    n_nodes = int(stack.feature.shape[0])
    width = stack.max_feature + 1
    leaf = stack.feature == LEAF
    n_leaves = int(np.count_nonzero(leaf))
    node_row = np.full(n_nodes + 2, n_leaves, dtype=np.int32)
    node_row[1:-1][leaf] = np.arange(n_leaves, dtype=np.int32)
    # ``hi`` is kept as ``-nextafter(hi, -inf)`` from the root down, so a
    # left branch raises it to its split's ``cap``, as a right branch
    # raises ``lo`` to the threshold.  At ``t = -inf`` no ``x`` lies
    # below the cap: NaN, which fails every compare and every later cap.
    cap = np.negative(np.nextafter(stack.threshold, -np.inf))
    cap[stack.threshold == -np.inf] = np.nan
    # A leaf no walk reaches keeps the sentinel's box, all ``+inf``: its
    # ``lo`` half admits only ``x = +inf`` and its ``hi`` half only
    # ``x = -inf``, so it holds no row.
    bounds = np.full((n_leaves + 1, 2 * width), np.inf, dtype=np.float32)
    level = up = None
    for node, parent in breadth_first_levels(stack):
        if up is None:
            level = np.full((node.shape[0], 2 * width), -np.inf, dtype=np.float32)
            level[:, width:] = -np.finfo(np.float32).max  # ``hi = +inf``
        else:
            # A node's side is its position's parity: a left child raises
            # ``hi``'s column, a right child ``lo``'s.
            level = level.take(parent, axis=0)
            split = up.take(parent[0::2])
            at = np.arange(0, node.shape[0], 2, dtype=np.int64) * (2 * width)
            at += stack.feature.take(split)
            flat = level.reshape(-1)
            at += width
            flat.put(at, np.maximum(flat.take(at), cap.take(split)))
            at += width
            flat.put(at, np.maximum(flat.take(at), stack.threshold.take(split)))
        done = np.flatnonzero(leaf.take(node))
        bounds[node_row.take(node.take(done) + 1)] = level.take(done, axis=0)
        up = node
    tree = np.full(n_leaves + 1, -1, dtype=np.int32)
    tree[:-1] = np.repeat(
        np.arange(stack.roots.shape[0], dtype=np.int32),
        np.add.reduceat(leaf, stack.roots, dtype=np.int64),
    )
    return LeafBoxes(
        bounds=bounds,
        tree=tree,
        label=np.append(stack.value[leaf], np.int32(0)),
        node_row=node_row,
        n_trees=int(stack.roots.shape[0]),
        n_classes=stack.n_classes,
    )


class CertificateError(RuntimeError):
    """Served answers failed their proof against the host trees.

    Raised for a claimed leaf outside its row's box or its lane's tree, and
    for a served vote that differs from the host labels' vote.  Either
    means the image that answered is damaged, or the code that walked it is
    wrong; a caller tells the two apart by hashing that image.
    """


def _disagree(what: str) -> CertificateError:
    return CertificateError(f"claimed leaves disagree with the CPU reference: {what}")


def certify_votes(
    boxes: LeafBoxes,
    X: np.ndarray,
    leaves: np.ndarray,
    trees: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Check claimed leaves against the host trees; return the host votes.

    ``leaves[row * k + j]`` is the host node the lane of ``row`` and tree
    ``trees[j]`` claims to reach (``trees`` defaults to every tree, in
    order; ``k`` is its length).  Every claim must be a leaf of its lane's
    tree whose box holds the row's float32 features; otherwise this raises
    :class:`CertificateError`.  Returns per-class vote counts from the host labels,
    shape ``(n_rows, n_classes)``: their ``argmax`` is what
    :func:`reference_predict` over those trees returns.

    One gather maps every claim to its row (a claim that is no leaf to the
    sentinel), one compare checks every row's tree, and each block of lanes
    gathers its rows of ``bounds`` once and compares them against
    ``[x | -x]`` in one reduction.
    """
    X = np.ascontiguousarray(X, dtype=np.float32)
    width = boxes.bounds.shape[1] // 2
    check_feature_width(X, width - 1)
    if trees is None:
        trees = np.arange(boxes.n_trees, dtype=np.int64)
    trees = np.asarray(trees)
    n_rows, k = int(X.shape[0]), int(trees.shape[0])
    leaves = np.asarray(leaves)
    if leaves.shape != (n_rows * k,):
        raise ValueError(
            f"need {n_rows * k} claimed leaves ({n_rows} rows x {k} trees), "
            f"got shape {leaves.shape}"
        )
    # Shifted by one, a claim of -1 lands on the front pad; clipping sends
    # every other claim outside the host nodes to the back pad.
    rows = boxes.node_row.take(leaves + 1, mode="clip")
    if not (boxes.tree.take(rows).reshape(n_rows, k) == trees).all():
        n_nodes = boxes.node_row.shape[0] - 2
        if leaves.min() < 0 or leaves.max() >= n_nodes:
            raise _disagree("a claim is not a host node")
        raise _disagree("a claim is not a leaf of its lane's tree")
    x = X[:, :width]
    x = np.concatenate((x, -x), axis=1)
    step = max(1, CERTIFY_CHUNK_LANES // max(1, k))
    for r0 in range(0, n_rows, step):
        r1 = min(n_rows, r0 + step)
        bounds = boxes.bounds.take(rows[r0 * k : r1 * k], axis=0)
        if not (bounds.reshape(r1 - r0, k, 2 * width) <= x[r0:r1, None]).all():
            raise _disagree("a row lies outside its claimed leaf's box")
    lane_row = np.arange(n_rows, dtype=np.int64).repeat(k)
    return np.bincount(
        lane_row * boxes.n_classes + boxes.label.take(rows),
        minlength=n_rows * boxes.n_classes,
    ).reshape(n_rows, boxes.n_classes)
