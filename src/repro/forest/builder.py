"""CART decision-tree builder (Gini impurity).

Implements the training substrate the paper delegates to scikit-learn's
``RandomForestClassifier``.  One split engine serves both splitters; they
differ only in how a feature value becomes an integer code and how a
chosen code boundary becomes a float threshold:

* ``splitter="hist"`` (default): codes are at most ``max_bins`` quantile
  bins (:class:`FeatureBinner`, the LightGBM-style approach that makes
  depth 30-50 forests tractable in pure NumPy); the threshold sits just
  above the bin's upper edge.
* ``splitter="exact"``: codes are dense ranks over each feature's distinct
  values, so every value change is a candidate, as in scikit-learn's
  sort-based CART; the threshold is the midpoint between the chosen value
  and the next larger value present at the node.

Trees grow level by level (breadth-first, as in Breadth-first, Depth-next
training, arXiv 1910.06853): one pass handles every node of a depth.  The
nodes that may split draw their ``k`` features together, one row each of
``rng.random((A, n_features))`` in breadth-first order, whose first ``k``
``argsort`` entries are the node's features; that is the same stream as a
per-node ``rng.random(n_features).argsort()[:k]`` in FIFO order.  One sort
of ``(node, feature slot, code, class)`` keys counts the classes per
occupied code, running counts that restart at each (node, slot) are the
left side of every candidate, one :func:`_gini_gain` call scores them all,
and each node keeps its first ``argmax``, so ties go to the earlier-drawn
feature, then the lower code.  Only occupied codes are candidates: the gain
is flat from one occupied code up to the next, so a scan over every bin
would pick the same split.  Splits then route every sample at once, and the
finished tree is numbered in depth-first preorder.

Both splitters honour ``max_depth``, ``min_samples_split``,
``min_samples_leaf`` (per candidate) and ``max_features`` (feature
subsampling per node, as random forests require).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.forest.tree import DecisionTree, LEAF
from repro.utils.rng import as_rng
from repro.utils.validation import check_array_2d, check_positive_int


def _resolve_max_features(max_features: Union[str, int, float, None], n_features: int) -> int:
    """Translate a scikit-learn-style ``max_features`` spec into a count."""
    if max_features is None or max_features == "all":
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features))) if n_features > 1 else 1
    if isinstance(max_features, (int, np.integer)) and not isinstance(max_features, bool):
        if not 1 <= max_features <= n_features:
            raise ValueError(
                f"max_features={max_features} outside [1, {n_features}]"
            )
        return int(max_features)
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValueError(f"max_features fraction must be in (0, 1], got {max_features}")
        return max(1, int(round(max_features * n_features)))
    raise TypeError(f"cannot interpret max_features={max_features!r}")


class FeatureBinner:
    """Quantile pre-binning of a feature matrix for histogram splitting.

    Bin edges are the unique quantiles of each feature; a value ``v`` maps to
    the number of edges strictly below it, so the split test
    ``bin(v) <= b``  is exactly equivalent to ``v < edge[b]`` — the float
    threshold written into the tree therefore reproduces the binned decision
    on the training data and generalises to unseen values.
    """

    def __init__(self, max_bins: int = 256):
        self.max_bins = check_positive_int(max_bins, "max_bins", minimum=2)
        self.edges_: Optional[list] = None

    def fit(self, X: np.ndarray) -> "FeatureBinner":
        """Compute per-feature bin edges from the training matrix.

        One sort per column of a feature-major copy gives every column's
        distinct values; the columns with more than ``max_bins`` of them
        share one ``np.quantile`` call.
        """
        X = check_array_2d(X, "X")
        cols = np.ascontiguousarray(X.T)
        cols.sort(axis=1)
        distinct = np.ones(cols.shape, dtype=bool)
        np.not_equal(cols[:, 1:], cols[:, :-1], out=distinct[:, 1:])
        n_distinct = distinct.sum(axis=1)
        many = n_distinct > self.max_bins
        quantiles = np.linspace(0, 1, self.max_bins + 1)[1:-1]
        # One row of quantiles per feature in ``many``, in feature order.
        # Those rows are not read again, so the quantile may reorder them.
        qs = np.quantile(
            cols if many.all() else cols[many], quantiles, axis=1, overwrite_input=True
        )
        qs = iter(qs.T)
        edges = []
        for j in range(cols.shape[0]):
            if many[j]:
                e = np.unique(next(qs)).astype(np.float32)
            elif n_distinct[j] > 1:
                # One bin per distinct value; split points at midpoints.
                uniq = cols[j][distinct[j]]
                e = ((uniq[:-1] + uniq[1:]) / 2.0).astype(np.float32)
            else:
                e = np.empty(0, dtype=np.float32)
            edges.append(e)
        self.edges_ = edges
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map ``X`` to per-feature bin codes (``uint16``).

        Per column: sort it once, find where each edge falls in the sorted
        values, and count the edges passed at every sorted position.
        """
        if self.edges_ is None:
            raise RuntimeError("FeatureBinner.transform called before fit")
        X = check_array_2d(X, "X")
        if X.shape[1] != len(self.edges_):
            raise ValueError(
                f"X has {X.shape[1]} features, binner was fit on {len(self.edges_)}"
            )
        n = X.shape[0]
        cols = np.ascontiguousarray(X.T)
        codes = np.empty(X.shape, dtype=np.uint16)
        for j, e in enumerate(self.edges_):
            order = np.argsort(cols[j])
            # The sorted values from ``first`` on lie above the edge.
            first = np.searchsorted(cols[j].take(order), e, side="right")
            codes[order, j] = np.cumsum(np.bincount(first, minlength=n + 1)[:n])
        return codes

    def n_bins(self, feature: int) -> int:
        """Number of occupied bins for ``feature`` (edges + 1)."""
        return len(self.edges_[feature]) + 1

    def threshold_for(self, feature, bin_split):
        """Float threshold equivalent to ``bin <= bin_split goes left``.

        ``transform`` maps ``v`` to ``#{edges < v}`` so ``code <= b`` is
        ``v <= edges[b]``; the tree's test is the strict ``v < threshold``,
        hence the threshold is the next float32 above the edge.  Takes
        scalars or equal-shaped arrays of features and bins.
        """
        edge = _pad_rows(self.edges_)[feature, bin_split]
        return np.nextafter(edge, np.float32(np.inf))


def _gini_gain(n_left, sq_left, sq_right, total, sq_total) -> np.ndarray:
    """Weighted Gini impurity decrease of candidate splits, from class sums.

    Every argument is ``float64[n_splits]`` (or broadcasts to it): the
    samples going left, the sums of squared class counts on each side, and
    the node's sample count and sum of squared class counts.  The decrease
    is un-normalised by n, since only candidates of one node are compared.
    Invalid splits (empty side) get ``-inf``.
    """
    n_right = total - n_left
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_left = n_left - sq_left / n_left
        gini_right = n_right - sq_right / n_right
    parent = total - sq_total / total
    # An empty side divides 0 by 0; every such NaN is replaced here.
    gain = parent - (gini_left + gini_right)
    return np.where((n_left > 0) & (n_right > 0), gain, -np.inf)


def _gini_gain_from_counts(
    left_counts: np.ndarray, total_counts: np.ndarray
) -> np.ndarray:
    """:func:`_gini_gain` of ``float64[n_splits, n_classes]`` left-side class
    counts at a node with ``float64[n_classes]`` class counts."""
    right_counts = total_counts[None, :] - left_counts
    return _gini_gain(
        left_counts.sum(axis=1),
        (left_counts**2).sum(axis=1),
        (right_counts**2).sum(axis=1),
        total_counts.sum(),
        (total_counts**2).sum(),
    )


def _pad_rows(rows: List[np.ndarray]) -> np.ndarray:
    """Stack 1-D ``float32`` arrays into rows padded with zeros."""
    out = np.zeros((len(rows), max(r.size for r in rows)), dtype=np.float32)
    for j, r in enumerate(rows):
        out[j, : r.size] = r
    return out


def _rank_codes(X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dense rank of every value among its column's distinct values.

    Returns ``int32`` codes shaped like ``X`` and, one zero-padded row per
    feature, the sorted distinct values the codes index.
    """
    codes = np.empty(X.shape, dtype=np.int32)
    values = []
    for j in range(X.shape[1]):
        uniq, codes[:, j] = np.unique(X[:, j], return_inverse=True)
        values.append(uniq)
    return codes, _pad_rows(values)


def _midpoint(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Float32 thresholds ``t`` with ``lower < t <= upper`` (``lower < upper``).

    The float32 midpoint of adjacent floats rounds down to ``lower``; the
    next float32 above ``lower`` is then used instead, the same rule as
    :meth:`FeatureBinner.threshold_for`.
    """
    mid = (lower + upper) / 2.0
    return np.where(mid > lower, mid, np.nextafter(lower, np.float32(np.inf)))


class TreeBuilder:
    """Grows a single CART tree on (possibly pre-binned) training data.

    Parameters
    ----------
    max_depth:
        Maximum node depth (root = 0); leaves are forced at this depth.
        ``None`` means unbounded.
    min_samples_split / min_samples_leaf:
        Standard CART stopping controls.
    max_features:
        Per-node feature subsample: ``"sqrt"``, ``"log2"``, ``"all"``/None,
        an int count or a float fraction.
    splitter:
        ``"hist"`` or ``"exact"`` (see module docstring).
    max_bins:
        Histogram resolution for ``splitter="hist"``.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Union[str, int, float, None] = "sqrt",
        splitter: str = "hist",
        max_bins: int = 256,
    ):
        if max_depth is not None:
            max_depth = check_positive_int(max_depth, "max_depth", minimum=0)
        self.max_depth = max_depth
        self.min_samples_split = check_positive_int(
            min_samples_split, "min_samples_split", minimum=2
        )
        self.min_samples_leaf = check_positive_int(
            min_samples_leaf, "min_samples_leaf", minimum=1
        )
        self.max_features = max_features
        if splitter not in ("hist", "exact"):
            raise ValueError(f"splitter must be 'hist' or 'exact', got {splitter!r}")
        self.splitter = splitter
        self.max_bins = max_bins

    # ------------------------------------------------------------------
    def build(
        self,
        X: np.ndarray,
        y: np.ndarray,
        n_classes: int,
        rng=None,
        binner: Optional[FeatureBinner] = None,
        codes: Optional[np.ndarray] = None,
    ) -> DecisionTree:
        """Train and return one :class:`DecisionTree`.

        ``binner``/``codes`` allow a forest to share the (expensive)
        quantisation across its trees; when omitted they are computed here.
        The exact splitter ignores both.
        """
        rng = as_rng(rng)
        X = check_array_2d(X, "X")
        y = np.asarray(y, dtype=np.int32)
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("y must be 1-D and aligned with X")
        if np.any((y < 0) | (y >= n_classes)):
            raise ValueError("labels must lie in [0, n_classes)")
        k_features = _resolve_max_features(self.max_features, X.shape[1])

        if self.splitter == "hist":
            if binner is None:
                binner = FeatureBinner(self.max_bins).fit(X)
            if codes is None:
                codes = binner.transform(X)
            n_codes = max(binner.n_bins(f) for f in range(X.shape[1]))

            def threshold(f, code, next_code):
                return binner.threshold_for(f, code)

        else:
            codes, values = _rank_codes(X)
            n_codes = values.shape[1]

            def threshold(f, code, next_code):
                return _midpoint(values[f, code], values[f, next_code])

        return self._grow(codes, n_codes, y, n_classes, k_features, rng, threshold)

    # ------------------------------------------------------------------
    def _grow(
        self, codes, n_codes, y, n_classes, k_features, rng, threshold
    ) -> DecisionTree:
        """Level-wise growth: one split search per depth, over all its nodes.

        ``codes`` holds every feature's integer codes in ``[0, n_codes)``;
        a split sends ``code <= c`` left, and ``threshold(f, c, c_next)``
        turns arrays of chosen splits into the tree's float tests, given the
        next larger code present at each node.
        """
        n_samples = codes.shape[0]
        by_feature = np.ascontiguousarray(
            codes.T, dtype=np.min_scalar_type(n_codes - 1)
        )
        # Every sample still in play: its row, its label and its node's
        # index within the current level.
        idx = np.arange(n_samples, dtype=np.int64)
        label = y.astype(np.int64)
        node = np.zeros(n_samples, dtype=np.int64)
        levels = []
        n_nodes = 1
        while n_nodes:
            counts = np.bincount(
                node * n_classes + label, minlength=n_nodes * n_classes
            ).reshape(n_nodes, n_classes)
            size = counts.sum(axis=1)
            value = counts.argmax(axis=1).astype(np.int32)
            feature = np.full(n_nodes, LEAF, dtype=np.int32)
            thresholds = np.zeros(n_nodes, dtype=np.float32)
            code = np.zeros(n_nodes, dtype=np.int64)
            tries = (np.count_nonzero(counts, axis=1) > 1) & (
                size >= self.min_samples_split
            )
            if self.max_depth is not None and len(levels) >= self.max_depth:
                tries[:] = False
            if tries.any():
                searched = np.flatnonzero(tries)
                rank = np.cumsum(tries) - 1
                member = tries.take(node)
                found, f, c, t = _level_splits(
                    by_feature,
                    idx[member],
                    label[member],
                    rank.take(node[member]),
                    counts[searched],
                    n_codes,
                    k_features,
                    self.min_samples_leaf,
                    rng,
                    threshold,
                )
                at = searched[found]
                feature[at], code[at], thresholds[at], value[at] = f, c, t, -1
            split = feature != LEAF
            levels.append((feature, thresholds, value, size, split))
            # The r-th split node's children are nodes 2r and 2r + 1 of the
            # next level.
            keep = split.take(node)
            idx, label, node = idx[keep], label[keep], node[keep]
            column = feature.astype(np.int64) * n_samples
            goes_right = by_feature.take(column.take(node) + idx) > code.take(node)
            node = 2 * (np.cumsum(split) - 1).take(node) + goes_right
            n_nodes = 2 * int(np.count_nonzero(split))
        return _preorder_tree(levels, n_classes)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal ``values``."""
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def _cell_histogram(keys: np.ndarray, n_classes: int):
    """Occupied cells of sorted ``cell * n_classes + class`` keys, ascending,
    and their ``(n_classes, n_cells)`` class counts (``float64``, exact).

    Each distinct key is an occupied (cell, class) pair; its run length is
    the count.
    """
    starts = np.flatnonzero(_run_starts(keys))
    pairs = keys[starts].astype(np.int64)
    cell_of_pair = pairs // n_classes
    new_cell = _run_starts(cell_of_pair)
    cells = cell_of_pair[new_cell]
    hist = np.zeros((n_classes, cells.size), dtype=np.float64)
    hist.put(
        (pairs - cell_of_pair * n_classes) * cells.size + (np.cumsum(new_cell) - 1),
        np.diff(starts, append=keys.size),
    )
    return cells, hist


def _level_splits(
    by_feature, idx, label, node, totals, n_codes, k, min_leaf, rng, threshold
):
    """Best split of each of one level's searched nodes, in one pass.

    ``idx``, ``label`` and ``node`` describe the samples of those ``A``
    nodes (row, class, node rank in ``[0, A)``) and ``totals`` is their
    ``(A, n_classes)`` class counts.  Each node draws its ``k`` features
    from one row of ``rng.random((A, n_features))``.  One sort of ``(node,
    slot, code, class)`` keys counts the classes per occupied code; running
    counts that restart at each (node, slot) are the left side of every
    candidate; one :func:`_gini_gain` call scores them all, and each node
    keeps its first ``argmax``.

    Returns ``(ranks, features, codes, thresholds)`` for the nodes whose
    best gain is positive.
    """
    n_nodes, n_classes = totals.shape
    n_features, n_samples = by_feature.shape
    totals = totals.astype(np.float64)
    feats = np.argsort(rng.random((n_nodes, n_features)), axis=1)[:, :k]
    # Key of a (node, slot, code, class) quadruple, in the narrowest dtype;
    # a (node, slot) pair is a "group", a (group, code) pair a "cell".
    key_dtype = np.min_scalar_type(n_nodes * k * n_codes * n_classes)
    groups = np.arange(n_nodes * k, dtype=key_dtype).reshape(n_nodes, k)
    keys = (groups * key_dtype.type(n_codes)).take(node, axis=0)
    at = (feats * n_samples).take(node, axis=0)
    at += idx[:, None]
    keys += by_feature.take(at)
    # Freeing each large temporary once used keeps the peak memory low.
    del at
    keys *= key_dtype.type(n_classes)
    keys += label.astype(key_dtype)[:, None]
    cells, left = _cell_histogram(np.sort(keys, axis=None), n_classes)
    del keys
    group = cells // n_codes
    cells_per_group = np.bincount(group, minlength=n_nodes * k)
    group_start = np.cumsum(cells_per_group) - cells_per_group
    group_totals = np.repeat(totals.T, k, axis=1)
    # Each group holds its node's samples once, so the running counts
    # restart if each group's first cell subtracts the previous group.
    left[:, group_start[1:]] -= group_totals[:, :-1]
    np.cumsum(left, axis=1, out=left)
    right = np.repeat(group_totals, cells_per_group, axis=1)
    right -= left
    n_left = left.sum(axis=0)
    sq_left = np.einsum("cj,cj->j", left, left)
    sq_right = np.einsum("cj,cj->j", right, right)
    del left, right
    size = np.repeat(np.repeat(totals.sum(axis=1), k), cells_per_group)
    sq_total = np.repeat(np.repeat((totals * totals).sum(axis=1), k), cells_per_group)
    # Counts, squares and their sums are integers held exactly in float64,
    # so the gains equal those of :func:`_gini_gain_from_counts` node by
    # node.
    gains = _gini_gain(n_left, sq_left, sq_right, size, sq_total)
    gains[(n_left < min_leaf) | (size - n_left < min_leaf)] = -np.inf
    # First argmax per node: a node's cells run in slot-then-code order, so
    # ties go to the earlier-drawn feature, then the lower code.
    node_start = group_start[::k]
    best_gain = np.maximum.reduceat(gains, node_start)
    cells_per_node = np.diff(node_start, append=cells.size)
    hits = np.flatnonzero(gains == np.repeat(best_gain, cells_per_node))
    found = np.flatnonzero(best_gain > 0)
    best = hits[np.searchsorted(hits, node_start[found])]
    # A positive gain leaves samples on the right, so the next occupied
    # code is in the same group.
    f = feats[found, group[best] % k]
    code = cells[best] % n_codes
    return found, f, code, threshold(f, code, cells[best + 1] % n_codes)


def _preorder_tree(levels, n_classes: int) -> DecisionTree:
    """Assemble per-level node arrays into a tree numbered in preorder.

    ``levels[d]`` is ``(feature, threshold, value, n_samples, split)`` for
    the nodes of depth ``d``; the children of its ``r``-th split node are
    nodes ``2r`` and ``2r + 1`` of depth ``d + 1``.
    """
    # Subtree sizes, deepest level first.
    sizes, below = [], None
    for *_, split in reversed(levels):
        size = np.ones(split.size, dtype=np.int64)
        if below is not None:
            size[split] += below[0::2] + below[1::2]
        sizes.append(size)
        below = size
    sizes.reverse()
    n = int(sizes[0][0])
    feature = np.empty(n, dtype=np.int32)
    threshold = np.empty(n, dtype=np.float32)
    value = np.empty(n, dtype=np.int32)
    n_samples = np.empty(n, dtype=np.int64)
    depth = np.empty(n, dtype=np.int32)
    left = np.full(n, -1, dtype=np.int32)
    right = np.full(n, -1, dtype=np.int32)
    pre = np.zeros(1, dtype=np.int64)
    for d, (f, t, v, size, split) in enumerate(levels):
        feature[pre], threshold[pre], value[pre], n_samples[pre] = f, t, v, size
        depth[pre] = d
        if d + 1 == len(levels):
            break
        # A left child follows its parent; the right child follows the
        # left child's subtree.
        parents = pre[split]
        children = np.empty(2 * parents.size, dtype=np.int64)
        children[0::2] = parents + 1
        children[1::2] = parents + 1 + sizes[d + 1][0::2]
        left[parents], right[parents] = children[0::2], children[1::2]
        pre = children
    return DecisionTree(
        feature=feature,
        threshold=threshold,
        left_child=left,
        right_child=right,
        value=value,
        n_classes=n_classes,
        depth=depth,
        n_samples=n_samples,
    )
