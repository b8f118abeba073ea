"""Work-item counts for the FPGA cost models, from one walk of the fastpath core.

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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from repro.fastpath.engine import EdgeTable, family_module, traverse_edges


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
    simulated GPU kernel bounds its walk of a tree by the tree's node
    count from the layout's offsets: an intact walk never visits more, so
    a lane still walking there follows damaged pointers round a loop (one
    flipped bit of a CSR ``children_arr`` can send a node back to the
    root).  The raise then reaches the reliability guard, which hashes the
    layout to name the damaged tree, where an unbounded walk would hang.
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


def profile_workload(layout, X: np.ndarray) -> Tuple[np.ndarray, WorkloadProfile]:
    """Classify ``X`` over ``layout`` and count the walk's work items.

    The layout's *current* buffers are lowered afresh, as
    :func:`repro.layout.verify.verify_layouts` does, so a trace-model launch
    reads the bytes the reliability guard hashes, not the table cached at
    build time.  The walk is bounded by the build-time table's
    ``max_levels``.  Returns ``(predictions, counts)``.
    """
    table = replace(
        family_module(layout).build_edges(layout),
        max_levels=layout._fastpath_edges.max_levels,
    )
    preds, walking = level_counts(table, X)
    return preds, WorkloadProfile.from_levels(walking, X.shape[0], layout)
