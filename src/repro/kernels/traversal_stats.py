"""Uninstrumented traversal statistics used by the FPGA cost models.

The FPGA pipeline algebra needs work-item counts rather than addresses:
per query-tree path length (= inner-loop iterations), subtree crossings
(= extra external accesses) and the number of levels walked inside the root
subtree (= hybrid stage-1 items).  This module computes all of them in one
vectorised pass over the hierarchical layout, together with the predicted
labels so FPGA kernels stay functional.  :class:`WorkloadProfile` sums
them over a forest: an FPGA kernel prices the counts of its own walk, the
planner the counts of a probe sample scaled to the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.forest.tree import EMPTY, LEAF
from repro.layout.hierarchical import HierarchicalForest


@dataclass
class TreeTraversalStats:
    """Per-query traversal statistics for one tree."""

    #: Nodes visited (inner-loop iterations), per query.
    path_lengths: np.ndarray
    #: Subtree-to-subtree crossings, per query.
    crossings: np.ndarray
    #: Steps taken inside the root subtree (hybrid stage 1), per query.
    stage1_levels: np.ndarray
    #: Predicted class label, per query.
    labels: np.ndarray

    @property
    def total_visits(self) -> int:
        return int(self.path_lengths.sum())

    @property
    def total_crossings(self) -> int:
        return int(self.crossings.sum())

    @property
    def total_stage1(self) -> int:
        return int(self.stage1_levels.sum())


def traverse_tree_stats(
    layout: HierarchicalForest, X: np.ndarray, tree: int
) -> TreeTraversalStats:
    """Traverse tree ``tree`` for all queries, counting work items."""
    X = np.ascontiguousarray(X, dtype=np.float32)
    n = X.shape[0]
    root = int(layout.tree_root_subtree[tree])
    st = np.full(n, root, dtype=np.int64)
    local = np.zeros(n, dtype=np.int64)
    out = np.full(n, -1, dtype=np.int64)
    path = np.zeros(n, dtype=np.int64)
    crossings = np.zeros(n, dtype=np.int64)
    stage1 = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    rows = np.arange(n, dtype=np.int64)
    # Bounded walk (see accumulate_votes): a longer one loops.
    for _ in range(layout.tree_slots(tree)):
        if not np.any(active):
            break
        g = layout.subtree_node_offset[st] + local
        feats = np.where(active, layout.feature_id[g], EMPTY)
        path[active] += 1
        in_root = active & (st == root)
        stage1[in_root] += 1
        is_leaf = active & (feats == LEAF)
        inner = active & ~is_leaf
        if np.any(is_leaf):
            out[is_leaf] = layout.value[g[is_leaf]].astype(np.int64)
        if np.any(inner):
            gi = g[inner]
            go_right = X[rows[inner], feats[inner]] >= layout.value[gi]
            sd = layout.subtree_depth[st[inner]]
            frontier_start = (np.int64(1) << (sd - 1).astype(np.int64)) - 1
            crossing_local = local[inner] >= frontier_start
            idx = np.flatnonzero(inner)
            stay = idx[~crossing_local]
            cross = idx[crossing_local]
            local[stay] = 2 * local[stay] + 1 + go_right[~crossing_local]
            if cross.size:
                rank = local[cross] - frontier_start[crossing_local]
                cidx = (
                    layout.connection_offset[st[cross]]
                    + 2 * rank
                    + go_right[crossing_local]
                )
                st[cross] = layout.subtree_connection[cidx].astype(np.int64)
                local[cross] = 0
                crossings[cross] += 1
        active = inner
    return TreeTraversalStats(
        path_lengths=path, crossings=crossings, stage1_levels=stage1, labels=out
    )


def subtree_level_totals(layout: HierarchicalForest, tree: int) -> int:
    """Sum of levels over all subtrees of ``tree``.

    This is the collaborative kernel's per-query pipeline occupancy: every
    query is pushed through every level of every subtree whether or not it is
    present (paper §3.2.2).
    """
    first, last = layout.tree_subtrees(tree)
    return int(layout.subtree_depth[first:last].sum())


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
    trace kernel bounds its walk of a tree by the tree's node count from
    the layout's offsets: an intact walk never visits more, so a lane
    still walking there follows damaged pointers round a loop (one flipped
    bit of a CSR ``children_arr`` can send a node back to the root).  The
    raise then reaches the reliability guard, which hashes the layout to
    name the damaged tree, where an unbounded walk would hang.
    """
    if np.any(labels < 0):
        raise RuntimeError("traversal left some queries unclassified")
    votes[np.arange(labels.shape[0], dtype=np.int64), labels] += 1


def profile_workload(
    layout: HierarchicalForest, X: np.ndarray, votes: Optional[np.ndarray] = None
) -> WorkloadProfile:
    """Traverse every tree for ``X``, counting work items.

    With ``votes`` given, each tree's labels are added into it.
    """
    visits = 0
    crossings = 0
    stage1 = 0
    sum_levels = 0
    for t in range(layout.n_trees):
        stats = traverse_tree_stats(layout, X, t)
        if votes is not None:
            accumulate_votes(votes, stats.labels)
        visits += stats.total_visits
        crossings += stats.total_crossings
        stage1 += stats.total_stage1
        sum_levels += subtree_level_totals(layout, t)
    return WorkloadProfile(
        n_queries=int(X.shape[0]),
        visits=visits,
        crossings=crossings,
        stage1=stage1,
        sum_levels=sum_levels,
    )
