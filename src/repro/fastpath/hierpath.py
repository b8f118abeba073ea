"""Edge-table lowering of the hierarchical subtree layout.

Stepping rule: an inner node at local slot ``n`` of a complete subtree
goes to local slot ``2n+1+went_right`` of the same subtree; an inner node
on the subtree's frontier (its deepest stored level) hops instead through
the CSR connection arrays to the root slot of the child subtree
``subtree_connection[connection_offset[st] + 2 * rank + went_right]``,
``rank`` being the node's position on the frontier.  The hops are
resolved *once*, at layout build time, into the flat successor table of an
:class:`~repro.fastpath.engine.EdgeTable`, which also carries the layout's
RSD and SD.  Subtree roots sit at the fixed tree depths 0, RSD, RSD + SD,
..., so the shared :func:`~repro.fastpath.engine.traverse_edges` core
knows from the depth alone which levels hop: it gathers ``succ`` there
and computes the in-subtree child everywhere else.  That holds only if
every subtree with an inner frontier slot is exactly as deep as the
layout's RSD (tree-root subtrees) or SD (the rest), and no subtree is
deeper; the lowering checks both.
"""

from __future__ import annotations

import numpy as np

from repro.fastpath.engine import (
    EdgeTable,
    edge_table,
    make_stats,
    select_trees,
    traverse_edges,
)
from repro.forest.tree import EMPTY
from repro.layout.hierarchical import HierarchicalForest


def _targets(layout, node_off, owner, local, frontier_start, crossing, go):
    """Global successor slot of every inner slot for one branch direction.

    Raises ``RuntimeError`` when a successor would leave the tree: an
    in-subtree step onto padding, or a frontier hop through an absent
    connection.  A clean layout never has either; a damaged one must not
    be lowered into a table that walks out of bounds or votes from a
    padding slot.
    """
    tgt = np.empty(local.shape[0], dtype=np.int64)
    st = owner[~crossing]
    child = (2 * local + 1 + go)[~crossing]
    inside = child < np.diff(node_off)[st]
    child_slot = node_off[st] + np.where(inside, child, 0)
    if not np.all(inside & (layout.feature_id[child_slot] != EMPTY)):
        raise RuntimeError("traversal reached a padding slot")
    tgt[~crossing] = child_slot
    st = owner[crossing]
    rank = (local - frontier_start)[crossing]
    cidx = layout.connection_offset[st] + 2 * rank + go
    present = cidx < layout.connection_offset[st + 1]
    nxt = np.full(cidx.shape, -1, dtype=np.int64)
    nxt[present] = layout.subtree_connection[cidx[present]]
    if not np.all((nxt >= 0) & (nxt < node_off.shape[0] - 1)):
        raise RuntimeError("traversal crossed into a missing subtree")
    tgt[crossing] = node_off[nxt]
    return tgt


def build_edges(layout: HierarchicalForest) -> EdgeTable:
    """Lower the packed subtree arrays to flat successor-table form."""
    node_off = layout.subtree_node_offset.astype(np.int64)
    n_subtrees = int(layout.subtree_depth.shape[0])
    # Per inner slot: owning subtree, local slot index, and the subtree's
    # first frontier slot ((1 << (sd - 1)) - 1) — everything both stepping
    # rules need, computed for all slots at once.
    inner = layout.feature_id >= 0
    owner = np.repeat(np.arange(n_subtrees, dtype=np.int64), np.diff(node_off))
    local = (np.arange(inner.shape[0], dtype=np.int64) - node_off[owner])[inner]
    owner = owner[inner]
    sd = layout.subtree_depth.astype(np.int64)
    frontier_start = ((np.int64(1) << (sd - 1)) - 1)[owner]
    crossing = local >= frontier_start
    # The core hops exactly at each subtree's full depth, so a hop from a
    # shorter subtree, or any subtree deeper than that, breaks its walk.
    rsd = int(layout.params.rsd)
    full = np.full(n_subtrees, layout.params.sd, dtype=np.int64)
    full[layout.tree_root_subtree] = rsd
    if np.any(sd > full) or np.any((sd < full)[owner[crossing]]):
        raise RuntimeError("subtree depth disagrees with the layout's RSD/SD")
    args = (layout, node_off, owner, local, frontier_start, crossing)
    return edge_table(
        layout,
        layout.feature_id,
        inner,
        _targets(*args, 0),
        _targets(*args, 1),
        node_off[layout.tree_root_subtree],
        rsd=rsd,
        sd=int(layout.params.sd),
    )


def traverse(layout: HierarchicalForest, X: np.ndarray, trees=None):
    """Predict ``X`` over ``trees`` (default all); ``(predictions, stats)``."""
    table = select_trees(layout._fastpath_edges, trees)
    preds, levels, lane_levels = traverse_edges(table, X)
    stats = make_stats("hier", int(X.shape[0]), table.roots.shape[0], levels, lane_levels)
    return preds, stats
