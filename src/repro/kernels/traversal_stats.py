"""Work-item counts for the FPGA cost models and per-level walks for the GPU
kernels, from one walk of the fastpath core.

The FPGA pipeline algebra (paper §3.2, Table 3) needs work-item counts
rather than addresses: node visits (= inner-loop iterations), subtree
crossings (= extra external accesses) and the levels walked inside the root
subtree (= hybrid stage-1 items).  All three follow from one vector, the
number of ``(row, tree)`` lanes that walk each level, which the shared
traversal core (:func:`repro.fastpath.engine.traverse_edges`) fills in as it
classifies.  Lanes walk in lock-step, so a lane on level ``d`` sits at tree
depth ``d`` in every layout: the vector is the same for every layout of a
forest, and each count is a sum over it (:meth:`WorkloadProfile.from_levels`).
An FPGA kernel prices the counts of its own walk (:func:`profile_workload`);
the planner walks a probe sample once and prices every candidate layout's
counts from that walk, scaled to the workload.

The simulated GPU kernels need addresses, so they keep the walk itself:
:func:`tree_levels` walks one tree and returns the slot every query visits
on every level, from which a kernel counts a whole tree's loads, crossings
and branches as (levels x queries) matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Tuple

import numpy as np

from repro.fastpath.engine import EdgeTable, family_module, select_trees, traverse_edges
from repro.forest.tree import LEAF


@dataclass(frozen=True)
class WorkloadProfile:
    """Work-item counts of one traversal of a query set, over a forest."""

    #: Queries the counts cover.
    n_queries: int
    #: Total node visits across all trees (layout-independent).
    visits: float
    #: Subtree-to-subtree crossings (depends on SD/RSD).
    crossings: float
    #: Levels walked inside root subtrees (hybrid stage-1 items).
    stage1: float
    #: Sum of subtree levels over the forest (collaborative occupancy,
    #: per query; *not* scaled by the query count).
    sum_levels: int

    @classmethod
    def from_levels(cls, walking: np.ndarray, n_queries: int, layout) -> "WorkloadProfile":
        """The counts of a walk of ``n_queries`` queries whose ``walking[d]``
        lanes walked level ``d`` (see :func:`level_counts`), on ``layout``.

        Every lane visits one node per level it walks.  On a hierarchical
        layout a lane walks its first ``rsd`` levels inside the root subtree
        (stage 1), and it crosses into a child subtree once for every level
        ``d + 1`` it walks after a depth ``d`` where the traversal core
        hops: ``rsd - 1``, then every ``sd`` levels.  Every subtree level
        counts towards ``sum_levels`` (the collaborative kernel pushes every
        query through every level of every subtree, paper §3.2.2).  A CSR
        layout has no subtrees: only its visits are priced.
        """
        visits = int(walking.sum())
        params = getattr(layout, "params", None)
        if params is None:
            return cls(int(n_queries), visits, crossings=0, stage1=0, sum_levels=0)
        rsd, sd = params.rsd, params.sd
        depth = np.arange(walking.shape[0] - 1, dtype=np.int64)
        crossings = walking[1:][(depth >= rsd - 1) & ((depth - rsd) % sd == sd - 1)]
        return cls(
            n_queries=int(n_queries),
            visits=visits,
            crossings=int(crossings.sum()),
            stage1=int(walking[:rsd].sum()),
            sum_levels=int(layout.subtree_depth.sum()),
        )

    def scaled(self, n_queries: int) -> "WorkloadProfile":
        """The counts expected for ``n_queries`` queries (query ratio)."""
        scale = n_queries / max(1, self.n_queries)
        return WorkloadProfile(
            n_queries=int(n_queries),
            visits=self.visits * scale,
            crossings=self.crossings * scale,
            stage1=self.stage1 * scale,
            sum_levels=self.sum_levels,
        )


def accumulate_votes(votes: np.ndarray, labels: np.ndarray) -> None:
    """Add one tree's per-query class labels into the vote table.

    A label of -1 marks a lane that reached no leaf, and raises.  Every
    simulated GPU kernel bounds its walk of a tree (:func:`tree_levels` by
    the table's ``max_levels``, the collaborative kernel by each subtree's
    slots): an intact walk never goes further, so a lane still walking
    there follows damaged pointers round a loop (one flipped bit of a CSR
    ``children_arr`` can send a node back to the root).  The raise then
    reaches the reliability guard, which hashes the layout to name the
    damaged tree, where an unbounded walk would hang.
    """
    if np.any(labels < 0):
        raise RuntimeError("traversal left some queries unclassified")
    votes[np.arange(labels.shape[0], dtype=np.int64), labels] += 1


def level_counts(table: EdgeTable, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, walking)`` of one core walk of ``X`` over ``table``.

    ``walking[d]`` is the number of lanes that walked level ``d``, for the
    table's ``max_levels`` levels.  A lane still walking when that bound
    stops it follows a damaged ``succ`` round a loop; as in
    :func:`accumulate_votes`, the walk then raises, so that the guard can
    hash the layout and name the damaged tree.
    """
    walking = np.zeros(table.max_levels + 1, dtype=np.int64)
    preds, _, _ = traverse_edges(table, X, walking=walking)
    if walking[-1]:
        raise RuntimeError("traversal left some queries unclassified")
    return preds, walking[:-1]


def current_table(layout) -> EdgeTable:
    """``layout``'s *current* buffers lowered afresh, as
    :func:`repro.layout.verify.verify_layouts` does.

    Every trace-model launch walks this table, so it reads the bytes the
    reliability guard hashes, not the table cached at build time.  The walk
    is bounded by the build-time table's ``max_levels``, and a query matrix
    is checked against its ``max_feature``: a damaged feature id fails a
    launch only where a query reaches it, as the layout's own read would.
    """
    built = layout._fastpath_edges
    return replace(
        family_module(layout).build_edges(layout),
        max_levels=built.max_levels,
        max_feature=built.max_feature,
    )


def profile_workload(layout, X: np.ndarray) -> Tuple[np.ndarray, WorkloadProfile]:
    """Classify ``X`` over ``layout`` (:func:`current_table`) and count the
    walk's work items.  Returns ``(predictions, counts)``."""
    preds, walking = level_counts(current_table(layout), X)
    return preds, WorkloadProfile.from_levels(walking, X.shape[0], layout)


class TreeLevels(NamedTuple):
    """One tree's walk of a query set, as (levels x queries) matrices."""

    #: The slot each query visits on each level (0 where it walks none).
    slot: np.ndarray
    #: Whether the query walks the level.
    walking: np.ndarray
    #: The split's feature id where ``inner``, 0 elsewhere (a query column
    #: every lane may read).
    feature: np.ndarray
    #: Walking on a split node: the query walks the next level too.
    inner: np.ndarray
    #: Each query's leaf label, -1 where it reached no leaf.
    labels: np.ndarray


def tree_levels(table: EdgeTable, X: np.ndarray, tree: int, feature, value) -> TreeLevels:
    """Walk ``tree`` of ``table`` (:func:`current_table`) for every row of ``X``.

    ``feature`` and ``value`` are the layout's node arrays in the table's
    slot numbering: a query on a slot whose ``feature`` is ``LEAF`` takes
    its label from ``value`` there, as a kernel reads it, and a query on a
    split of a feature ``X`` lacks raises ``IndexError``.  Memory stays at
    one tree's ``max_levels x queries`` matrices.
    """
    slots = np.empty((table.max_levels, X.shape[0]), dtype=np.int64)
    traverse_edges(select_trees(table, [tree]), X, slots=slots)
    walking = slots >= 0
    slot = np.where(walking, slots, 0)
    feats = feature[slot]
    leaf = walking & (feats == LEAF)
    if np.any((feats >= X.shape[1]) & walking):
        raise IndexError("a query reached a split on a feature it lacks")
    labels = np.full(X.shape[0], -1, dtype=np.int64)
    labels[leaf.nonzero()[1]] = value[slot[leaf]].astype(np.int64)
    inner = walking & ~leaf
    return TreeLevels(slot, walking, np.where(inner, feats, 0), inner, labels)
