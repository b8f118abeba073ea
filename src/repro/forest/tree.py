"""Array-based decision tree structure.

A :class:`DecisionTree` stores one trained CART tree as a struct-of-arrays,
the same canonical form scikit-learn's ``tree_`` attribute exposes.  Every
memory layout in :mod:`repro.layout` (CSR, hierarchical) is a pure function of
this structure, and the CPU reference traversal in
:mod:`repro.baselines.cpu_reference` interprets it directly.

Node conventions (matching the paper's Fig. 2):

* Inner node ``i``: ``feature[i] >= 0`` and the split test is
  ``x[feature[i]] < threshold[i]`` — true goes to ``left_child[i]``,
  false to ``right_child[i]``.
* Leaf node ``i``: ``feature[i] == LEAF`` (-1); ``value[i]`` holds the class
  label the leaf returns.
* Node 0 is always the root.  Every non-root node has exactly one parent and
  inner nodes always have exactly two children (CART produces strictly
  binary trees).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Tuple, Union

import numpy as np

from repro.utils.validation import check_feature_width

#: ``feature`` marker for leaf nodes (paper uses -1 in the CSR node table).
LEAF: int = -1
#: ``feature`` marker for padding/null nodes in padded layouts (never appears
#: in a :class:`DecisionTree` itself, only in derived layouts).
EMPTY: int = -2


@dataclass
class DecisionTree:
    """A trained binary decision tree in struct-of-arrays form.

    Attributes
    ----------
    feature:
        ``int32[n_nodes]``; split feature index for inner nodes, :data:`LEAF`
        for leaves.
    threshold:
        ``float32[n_nodes]``; split threshold for inner nodes, unused
        (0.0) for leaves.
    left_child, right_child:
        ``int32[n_nodes]``; child node ids for inner nodes, -1 for leaves.
    value:
        ``int32[n_nodes]``; predicted class label for leaves, -1 for inner
        nodes.
    n_classes:
        Number of distinct class labels the tree can emit.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left_child: np.ndarray
    right_child: np.ndarray
    value: np.ndarray
    n_classes: int = 2
    #: Depth of each node (root = 0); computed lazily if not provided.
    depth: np.ndarray = field(default=None, repr=False)
    #: Training samples that reached each node (recorded by TreeBuilder;
    #: None for synthetic trees).  Used by depth truncation to label cut
    #: nodes with their true sample-majority class.
    n_samples: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.int32)
        self.threshold = np.asarray(self.threshold, dtype=np.float32)
        self.left_child = np.asarray(self.left_child, dtype=np.int32)
        self.right_child = np.asarray(self.right_child, dtype=np.int32)
        self.value = np.asarray(self.value, dtype=np.int32)
        n = self.feature.shape[0]
        for name in ("threshold", "left_child", "right_child", "value"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(
                    f"{name} has length {getattr(self, name).shape[0]}, "
                    f"expected {n} (length of feature array)"
                )
        if n == 0:
            raise ValueError("a decision tree must have at least one node")
        if self.depth is None:
            self.depth = self._compute_depths()
        else:
            self.depth = np.asarray(self.depth, dtype=np.int32)
        if self.n_samples is not None:
            self.n_samples = np.asarray(self.n_samples, dtype=np.int64)
            if self.n_samples.shape[0] != n:
                raise ValueError("n_samples length mismatch")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total number of nodes (inner + leaf)."""
        return int(self.feature.shape[0])

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        return int(np.count_nonzero(self.feature == LEAF))

    @property
    def max_depth(self) -> int:
        """Depth of the deepest node (root has depth 0)."""
        return int(self.depth.max())

    def is_leaf(self, node: int) -> bool:
        """Return True if ``node`` is a leaf."""
        return bool(self.feature[node] == LEAF)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def leaf(cls, label: int, n_classes: int = 2) -> "DecisionTree":
        """A degenerate single-node tree that always predicts ``label``."""
        return cls(
            feature=np.array([LEAF], dtype=np.int32),
            threshold=np.zeros(1, dtype=np.float32),
            left_child=np.full(1, -1, dtype=np.int32),
            right_child=np.full(1, -1, dtype=np.int32),
            value=np.array([label], dtype=np.int32),
            n_classes=n_classes,
        )

    def _compute_depths(self) -> np.ndarray:
        """BFS from the root to assign a depth to every node."""
        depth = np.full(self.n_nodes, -1, dtype=np.int32)
        depth[0] = 0
        frontier = np.array([0], dtype=np.int32)
        while frontier.size:
            inner = frontier[self.feature[frontier] != LEAF]
            children = np.concatenate(
                [self.left_child[inner], self.right_child[inner]]
            )
            children = children[children >= 0]
            if children.size:
                parent_depth = np.concatenate([depth[inner], depth[inner]])
                depth[children] = parent_depth[: children.size] + 1
            frontier = children
        if np.any(depth < 0):
            unreachable = int(np.count_nonzero(depth < 0))
            raise ValueError(
                f"tree has {unreachable} nodes unreachable from the root"
            )
        return depth

    # ------------------------------------------------------------------
    # Traversal / prediction (reference semantics)
    # ------------------------------------------------------------------
    def decision_path(self, x: np.ndarray) -> Iterator[int]:
        """Yield the node ids visited classifying a single sample ``x``."""
        node = 0
        while True:
            yield node
            f = int(self.feature[node])
            if f == LEAF:
                return
            if x[f] < self.threshold[node]:
                node = int(self.left_child[node])
            else:
                node = int(self.right_child[node])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Vectorised level-synchronous prediction for a batch of samples.

        The single-tree case of :func:`leaf_labels`, the library's ground
        truth.
        """
        X = np.ascontiguousarray(X, dtype=np.float32)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        return leaf_labels(stack_trees([self]), X).astype(np.int64)

    # ------------------------------------------------------------------
    # Structural validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation.

        Invariants: children ids in range; inner nodes have two distinct
        children; leaves have none; each non-root node has exactly one
        parent; leaf values are valid class labels.
        """
        n = self.n_nodes
        inner = self.feature >= 0
        leaf = self.feature == LEAF
        if not np.all(inner | leaf):
            bad = np.flatnonzero(~(inner | leaf))
            raise ValueError(f"nodes {bad[:5].tolist()} have invalid feature ids")
        lc, rc = self.left_child, self.right_child
        if np.any((lc[inner] < 0) | (lc[inner] >= n)):
            raise ValueError("inner node with out-of-range left child")
        if np.any((rc[inner] < 0) | (rc[inner] >= n)):
            raise ValueError("inner node with out-of-range right child")
        if np.any(lc[inner] == rc[inner]):
            raise ValueError("inner node whose children coincide")
        if np.any(lc[leaf] != -1) or np.any(rc[leaf] != -1):
            raise ValueError("leaf node with children")
        parents = np.zeros(n, dtype=np.int64)
        np.add.at(parents, lc[inner], 1)
        np.add.at(parents, rc[inner], 1)
        if parents[0] != 0:
            raise ValueError("root node has a parent")
        if n > 1 and np.any(parents[1:] != 1):
            bad = np.flatnonzero(parents[1:] != 1)[:5] + 1
            raise ValueError(f"nodes {bad.tolist()} do not have exactly one parent")
        vals = self.value[leaf]
        if np.any((vals < 0) | (vals >= self.n_classes)):
            raise ValueError("leaf value outside [0, n_classes)")

    def node_count_by_depth(self) -> np.ndarray:
        """Number of nodes at each depth level (index = depth)."""
        return np.bincount(self.depth, minlength=self.max_depth + 1)

    def subtree_sizes(self) -> np.ndarray:
        """Return, for every node, the size of the subtree rooted there."""
        sizes = np.ones(self.n_nodes, dtype=np.int64)
        # Process nodes deepest-first so children are done before parents.
        order = np.argsort(self.depth)[::-1]
        for node in order:
            if self.feature[node] != LEAF:
                sizes[node] += sizes[self.left_child[node]]
                sizes[node] += sizes[self.right_child[node]]
        return sizes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DecisionTree(n_nodes={self.n_nodes}, n_leaves={self.n_leaves}, "
            f"max_depth={self.max_depth}, n_classes={self.n_classes})"
        )


@dataclass(frozen=True, eq=False)
class TreeStack:
    """Several trees' node arrays concatenated into one node-array set.

    Node ``i`` of tree ``t`` is global node ``roots[t] + i``.  ``child``
    interleaves the rebased children: ``child[2 * g + went_right]`` is
    global node ``g``'s successor.  Both entries of a leaf point back at
    the leaf, so a lane that reached one can keep stepping in place.
    """

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    value: np.ndarray
    #: Largest label count over the stacked trees.
    n_classes: int
    #: Highest feature index any split reads (-1 for all-leaf forests).
    max_feature: int

    @property
    def n_trees(self) -> int:
        return int(self.roots.shape[0])


def max_split_feature(trees: Iterable[DecisionTree]) -> int:
    """Highest feature index any split of ``trees`` reads (-1 if none split)."""
    return max(int(t.feature.max()) for t in trees)


def stack_trees(trees: Union[Iterable[DecisionTree], TreeStack]) -> TreeStack:
    """Stack ``trees`` for :func:`leaf_labels`; a ``TreeStack`` passes through."""
    if isinstance(trees, TreeStack):
        return trees
    trees = list(trees)
    if not trees:
        raise ValueError("need at least one tree")
    sizes = np.array([t.n_nodes for t in trees], dtype=np.int64)
    roots = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(sizes[:-1])])
    child = np.concatenate(
        [
            np.stack([t.left_child, t.right_child], axis=1).astype(np.int64) + r
            for t, r in zip(trees, roots.tolist())
        ]
    )
    feature = np.concatenate([t.feature for t in trees])
    leaf = np.flatnonzero(feature == LEAF)
    child[leaf] = leaf[:, None]
    child = child.ravel()
    return TreeStack(
        roots=roots,
        feature=feature,
        threshold=np.concatenate([t.threshold for t in trees]),
        child=child,
        value=np.concatenate([t.value for t in trees]),
        n_classes=max(t.n_classes for t in trees),
        max_feature=max_split_feature(trees),
    )


def breadth_first_levels(stack: TreeStack) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every tree's nodes, one depth level at a time, all trees together.

    Yields ``(node, parent)`` per level, root level first: ``node`` holds
    global node ids ordered by tree, then by parent's position in the
    previous level, left child before right — so a node's side is its
    position's parity; ``parent`` is that position (-1 at the roots).
    Concatenating one tree's slices of the levels gives its breadth-first
    (FIFO) order.
    """
    node = stack.roots
    parent = np.full(node.shape[0], -1, dtype=np.int64)
    children = stack.child.reshape(-1, 2)
    while node.size:
        yield node, parent
        parent = np.flatnonzero(stack.feature[node] != LEAF)
        node = children[node[parent]].ravel()
        parent = np.repeat(parent, 2)


def leaf_labels(stack: TreeStack, X: np.ndarray) -> np.ndarray:
    """Leaf label of every (row, tree) lane, lane ``row * n_trees + tree``.

    One lock-step pass over all lanes (the paper's Fig. 1a
    ``tree_traverse``, every tree at once): each level gathers the carried
    lanes' nodes and tests ``x[feature] < threshold`` in float32 — true
    goes left.  A lane that reached a leaf keeps stepping on the leaf's
    self-loop (reading feature 0) until at least half of the carried lanes
    have; then their labels are written and they are dropped.  No gather
    uses a negative index, as on a device, which does not wrap one around
    the way NumPy does.  ``X`` must be 2-D C-contiguous float32; its rows
    are all live at once, so callers bound the lane count by chunking rows.
    """
    check_feature_width(X, stack.max_feature)
    n_rows, n_features = X.shape
    n_lanes = n_rows * stack.n_trees
    labels = np.empty(n_lanes, dtype=np.int32)
    lane = np.arange(n_lanes, dtype=np.int64)
    node = np.tile(stack.roots, n_rows)
    base = lane // stack.n_trees * n_features  # lane's row start in x
    x = X.ravel()
    while lane.size:
        feat = stack.feature.take(node)
        leaf = feat == LEAF
        n_leaf = np.count_nonzero(leaf)
        if 2 * n_leaf >= lane.size:
            done = np.flatnonzero(leaf)
            labels[lane.take(done)] = stack.value.take(node.take(done))
            live = np.flatnonzero(~leaf)
            lane, node, base = lane.take(live), node.take(live), base.take(live)
            feat = feat.take(live)
            if not lane.size:
                break
        elif n_leaf:
            np.maximum(feat, 0, out=feat)  # LEAF is the only negative feature
        went_right = ~(x.take(base + feat) < stack.threshold.take(node))
        node = stack.child.take(2 * node + went_right)
    return labels


def random_tree(
    rng,
    n_features: int,
    max_depth: int,
    leaf_prob: float = 0.3,
    n_classes: int = 2,
    min_nodes: int = 1,
) -> DecisionTree:
    """Generate a random tree topology (for tests and synthetic workloads).

    Grows a binary tree top-down: each node at depth < ``max_depth`` becomes a
    leaf with probability ``leaf_prob``, otherwise an inner node with two
    children.  Nodes at ``max_depth`` are always leaves.  Useful to exercise
    layouts and kernels on controlled shapes (e.g. Table 3's synthetic
    forest) without paying for training.
    """
    from repro.utils.rng import as_rng

    rng = as_rng(rng)
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")

    feature, threshold, left, right, value, depths = [], [], [], [], [], []

    def add_node(depth: int) -> int:
        idx = len(feature)
        feature.append(0)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(-1)
        depths.append(depth)
        return idx

    # Iterative growth with an explicit stack (post-order child creation).
    root = add_node(0)
    stack = [root]
    while stack:
        node = stack.pop()
        d = depths[node]
        force_inner = node == root and max_depth > 0 and min_nodes > 1
        is_leaf = d >= max_depth or (rng.random() < leaf_prob and not force_inner)
        if is_leaf:
            feature[node] = LEAF
            value[node] = int(rng.integers(n_classes))
        else:
            feature[node] = int(rng.integers(n_features))
            threshold[node] = float(rng.normal())
            l = add_node(d + 1)
            r = add_node(d + 1)
            left[node], right[node] = l, r
            stack.append(l)
            stack.append(r)

    return DecisionTree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float32),
        left_child=np.array(left, dtype=np.int32),
        right_child=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.int32),
        n_classes=n_classes,
        depth=np.array(depths, dtype=np.int32),
    )
