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
lies in no box and fails closed.  The table holds ``leaves x (max_feature
+ 1) x 8`` bytes (2.3 MB on the served 20-tree depth-20 susy forest).  The
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
    """Every leaf's box over the split features.

    ``box`` maps each host node (its :class:`~repro.forest.tree.TreeStack`
    global id) to its leaf row, -1 on inner nodes.  Rows follow node ids,
    so tree ``t``'s leaves hold the rows ``first[t]`` to ``first[t + 1]``.
    Per row: the class ``label``, and ``lo`` / ``hi``, each
    ``float32[max_feature + 1]``; a row ``x`` lies in leaf ``l``'s box iff
    ``lo[l] <= x < hi[l]`` on every feature.
    """

    box: np.ndarray
    first: np.ndarray
    label: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    n_classes: int


def leaf_boxes(trees: Union[Sequence[DecisionTree], TreeStack]) -> LeafBoxes:
    """Build the :class:`LeafBoxes` table of ``trees``, one depth at a time."""
    stack = stack_trees(trees)
    n_nodes = int(stack.feature.shape[0])
    width = stack.max_feature + 1
    leaf = stack.feature == LEAF
    n_leaves = int(np.count_nonzero(leaf))
    box = np.full(n_nodes, -1, dtype=np.int32)
    box[leaf] = np.arange(n_leaves, dtype=np.int32)
    # A leaf no walk reaches keeps an empty box, which holds no row.
    lo = np.full((n_leaves, width), np.inf, dtype=np.float32)
    hi = np.full((n_leaves, width), -np.inf, dtype=np.float32)
    level_lo = level_hi = up = None
    for node, parent in breadth_first_levels(stack):
        if up is None:
            level_lo = np.full((node.shape[0], width), -np.inf, dtype=np.float32)
            level_hi = np.full((node.shape[0], width), np.inf, dtype=np.float32)
        else:
            # A node's side is its position's parity: a left child caps
            # ``hi`` at its parent's threshold, a right child raises ``lo``.
            level_lo = level_lo.take(parent, axis=0)
            level_hi = level_hi.take(parent, axis=0)
            split = up.take(parent[0::2])
            at = np.arange(0, node.shape[0], 2, dtype=np.int64) * width
            at += stack.feature.take(split)
            t = stack.threshold.take(split)
            flat = level_hi.reshape(-1)
            flat.put(at, np.minimum(flat.take(at), t))
            at += width
            flat = level_lo.reshape(-1)
            flat.put(at, np.maximum(flat.take(at), t))
        done = np.flatnonzero(leaf.take(node))
        rows = box.take(node.take(done))
        lo[rows] = level_lo.take(done, axis=0)
        hi[rows] = level_hi.take(done, axis=0)
        up = node
    ends = np.append(stack.roots, n_nodes)
    return LeafBoxes(
        box=box,
        first=np.concatenate([[0], np.cumsum(leaf)])[ends].astype(np.int64),
        label=stack.value[leaf],
        lo=lo,
        hi=hi,
        n_classes=stack.n_classes,
    )


def _disagree(what: str) -> RuntimeError:
    return RuntimeError(f"claimed leaves disagree with the CPU reference: {what}")


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
    ``RuntimeError``.  Returns per-class vote counts from the host labels,
    shape ``(n_rows, n_classes)``: their ``argmax`` is what
    :func:`reference_predict` over those trees returns.
    """
    X = np.ascontiguousarray(X, dtype=np.float32)
    width = boxes.lo.shape[1]
    check_feature_width(X, width - 1)
    if trees is None:
        trees = np.arange(boxes.first.shape[0] - 1, dtype=np.int64)
    trees = np.asarray(trees)
    n_rows, k = int(X.shape[0]), int(trees.shape[0])
    leaves = np.asarray(leaves)
    if leaves.shape != (n_rows * k,):
        raise ValueError(
            f"need {n_rows * k} claimed leaves ({n_rows} rows x {k} trees), "
            f"got shape {leaves.shape}"
        )
    if leaves.size and (leaves.min() < 0 or leaves.max() >= boxes.box.shape[0]):
        raise _disagree("a claim is not a host node")
    rows = boxes.box.take(leaves)
    # Inner nodes map to row -1, below every tree's first row.
    own = rows.reshape(n_rows, k)
    if np.any(own < boxes.first[trees]) or np.any(own >= boxes.first[trees + 1]):
        raise _disagree("a claim is not a leaf of its lane's tree")
    step = max(1, CERTIFY_CHUNK_LANES // max(1, k))
    for r0 in range(0, n_rows, step):
        r1 = min(n_rows, r0 + step)
        shape = (r1 - r0, k, width)
        block = rows[r0 * k : r1 * k]
        x = X[r0:r1, None, :width]
        if not (
            (boxes.lo.take(block, axis=0).reshape(shape) <= x).all()
            and (x < boxes.hi.take(block, axis=0).reshape(shape)).all()
        ):
            raise _disagree("a row lies outside its claimed leaf's box")
    lane_row = np.repeat(np.arange(n_rows, dtype=np.int64), k)
    return np.bincount(
        lane_row * boxes.n_classes + boxes.label.take(rows),
        minlength=n_rows * boxes.n_classes,
    ).reshape(n_rows, boxes.n_classes)
