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

At each node the engine draws ``k`` features (one ``rng.choice`` per node,
in depth-first order) and scores all of them in one pass: it sorts
``(feature slot, code, class)`` keys to count classes per occupied code,
takes running counts that restart at each slot as the left side of every
candidate, scores every candidate with one :func:`_gini_gain_from_counts`
call and keeps the first ``argmax``, so ties go to the earlier-drawn
feature, then the lower code.  Only occupied codes are candidates: the gain
is flat from one occupied code up to the next, so a scan over every bin
would pick the same split.

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
        """Compute per-feature bin edges from the training matrix."""
        X = check_array_2d(X, "X")
        edges = []
        quantiles = np.linspace(0, 1, self.max_bins + 1)[1:-1]
        for j in range(X.shape[1]):
            col = X[:, j]
            uniq = np.unique(col)
            if uniq.size <= 1:
                e = np.empty(0, dtype=np.float32)
            elif uniq.size <= self.max_bins:
                # One bin per distinct value; split points at midpoints.
                e = ((uniq[:-1] + uniq[1:]) / 2.0).astype(np.float32)
            else:
                e = np.unique(np.quantile(col, quantiles)).astype(np.float32)
            edges.append(e)
        self.edges_ = edges
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map ``X`` to per-feature bin codes (``uint16``)."""
        if self.edges_ is None:
            raise RuntimeError("FeatureBinner.transform called before fit")
        X = check_array_2d(X, "X")
        if X.shape[1] != len(self.edges_):
            raise ValueError(
                f"X has {X.shape[1]} features, binner was fit on {len(self.edges_)}"
            )
        codes = np.empty(X.shape, dtype=np.uint16)
        for j, e in enumerate(self.edges_):
            codes[:, j] = np.searchsorted(e, X[:, j], side="left")
        return codes

    def n_bins(self, feature: int) -> int:
        """Number of occupied bins for ``feature`` (edges + 1)."""
        return len(self.edges_[feature]) + 1

    def threshold_for(self, feature: int, bin_split: int) -> float:
        """Float threshold equivalent to ``bin <= bin_split goes left``.

        ``transform`` maps ``v`` to ``#{edges < v}`` so ``code <= b`` is
        ``v <= edges[b]``; the tree's test is the strict ``v < threshold``,
        hence the threshold is the next float32 above the edge.
        """
        edge = np.float32(self.edges_[feature][bin_split])
        return float(np.nextafter(edge, np.float32(np.inf), dtype=np.float32))


def _gini_gain_from_counts(
    left_counts: np.ndarray, total_counts: np.ndarray
) -> np.ndarray:
    """Weighted Gini impurity decrease for every candidate split.

    Parameters
    ----------
    left_counts:
        ``float64[n_splits, n_classes]`` class counts going left.
    total_counts:
        ``float64[n_classes]`` class counts at the node.

    Returns
    -------
    ``float64[n_splits]`` impurity decrease (un-normalised by n; comparing
    within one node so the constant factor is irrelevant).  Invalid splits
    (empty side) get ``-inf``.
    """
    total = total_counts.sum()
    right_counts = total_counts[None, :] - left_counts
    n_left = left_counts.sum(axis=1)
    n_right = total - n_left
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_left = n_left - (left_counts**2).sum(axis=1) / n_left
        gini_right = n_right - (right_counts**2).sum(axis=1) / n_right
    parent = total - (total_counts**2).sum() / total
    # An empty side divides 0 by 0; every such NaN is replaced here.
    gain = parent - (gini_left + gini_right)
    return np.where((n_left > 0) & (n_right > 0), gain, -np.inf)


def _rank_codes(X: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Dense rank of every value among its column's distinct values.

    Returns ``int32`` codes shaped like ``X`` and, per feature, the sorted
    distinct values the codes index.
    """
    codes = np.empty(X.shape, dtype=np.int32)
    values = []
    for j in range(X.shape[1]):
        uniq, codes[:, j] = np.unique(X[:, j], return_inverse=True)
        values.append(uniq)
    return codes, values


def _midpoint(lower: np.float32, upper: np.float32) -> float:
    """Float32 threshold ``t`` with ``lower < t <= upper`` (``lower < upper``).

    The float32 midpoint of adjacent floats rounds down to ``lower``; the
    next float32 above ``lower`` is then used instead, the same rule as
    :meth:`FeatureBinner.threshold_for`.
    """
    mid = (lower + upper) / 2.0
    if not mid > lower:
        mid = np.nextafter(lower, np.float32(np.inf), dtype=np.float32)
    return float(mid)


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
            n_codes = max(v.size for v in values)

            def threshold(f, code, next_code):
                return _midpoint(values[f][code], values[f][next_code])

        return self._grow(codes, n_codes, y, n_classes, k_features, rng, threshold)

    # ------------------------------------------------------------------
    def _grow(
        self, codes, n_codes, y, n_classes, k_features, rng, threshold
    ) -> DecisionTree:
        """Depth-first growth with the one-pass split search.

        ``codes`` holds every feature's integer codes in ``[0, n_codes)``;
        a split sends ``code <= c`` left, and ``threshold(f, c, c_next)``
        turns it into the tree's float test, given the next larger code
        present at the node.
        """
        n_samples, n_features = codes.shape
        min_leaf = self.min_samples_leaf
        # Sort key of a (slot, code, class) triple, in the narrowest dtype.
        key_dtype = np.min_scalar_type(k_features * n_codes * n_classes)
        slot_base = np.arange(k_features, dtype=np.int64) * (n_codes * n_classes)
        slot_base = slot_base.astype(key_dtype)
        y_key = y.astype(key_dtype)
        by_feature = np.ascontiguousarray(codes.T)

        def find_split(idx: np.ndarray, counts: np.ndarray):
            """Best ``(feature, code, threshold)`` at the node, or ``None``."""
            feats = rng.choice(n_features, size=k_features, replace=False)
            keys = by_feature.take(feats[:, None] * n_samples + idx).astype(key_dtype)
            keys *= n_classes
            keys += slot_base[:, None]
            keys += y_key[idx]
            keys = np.sort(keys, axis=None)
            cell_of_key = keys // n_classes  # slot * n_codes + code
            first = np.empty(keys.size, dtype=bool)
            first[0] = True
            np.not_equal(cell_of_key[1:], cell_of_key[:-1], out=first[1:])
            cells = cell_of_key[first]  # occupied (slot, code) cells, ascending
            hist = np.bincount(
                (np.cumsum(first) - 1) * n_classes + (keys - cell_of_key * n_classes),
                minlength=cells.size * n_classes,
            ).reshape(-1, n_classes)
            # Left-side counts restart at each slot: every earlier slot
            # holds each of the node's samples once.
            slot = cells // n_codes
            left_counts = np.cumsum(hist, axis=0) - slot[:, None] * counts
            gains = _gini_gain_from_counts(
                left_counts.astype(np.float64), counts.astype(np.float64)
            )
            n_left = left_counts.sum(axis=1)
            gains[(n_left < min_leaf) | (idx.size - n_left < min_leaf)] = -np.inf
            best = int(gains.argmax())
            if not gains[best] > 0:
                return None
            # A positive gain leaves samples on the right, so the next
            # occupied code is in the same slot.
            f = int(feats[slot[best]])
            code, next_code = (int(c % n_codes) for c in cells[best : best + 2])
            return f, code, threshold(f, code, next_code)

        feature, thresholds, left, right, value, depths = [], [], [], [], [], []
        samples = []

        def new_node(depth: int) -> int:
            i = len(feature)
            feature.append(LEAF)
            thresholds.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(0)
            depths.append(depth)
            samples.append(0)
            return i

        stack = [(new_node(0), np.arange(n_samples, dtype=np.int64))]
        while stack:
            node, idx = stack.pop()
            d = depths[node]
            samples[node] = idx.size
            counts = np.bincount(y[idx], minlength=n_classes)
            value[node] = int(counts.argmax())
            pure = np.count_nonzero(counts) <= 1
            depth_stop = self.max_depth is not None and d >= self.max_depth
            if pure or depth_stop or idx.size < self.min_samples_split:
                continue
            split = find_split(idx, counts)
            if split is None:
                continue
            f, code, thresholds[node] = split
            feature[node] = f
            value[node] = -1
            goes_left = by_feature[f, idx] <= code
            l = new_node(d + 1)
            r = new_node(d + 1)
            left[node], right[node] = l, r
            stack.append((r, idx[~goes_left]))
            stack.append((l, idx[goes_left]))

        return DecisionTree(
            feature=np.array(feature, dtype=np.int32),
            threshold=np.array(thresholds, dtype=np.float32),
            left_child=np.array(left, dtype=np.int32),
            right_child=np.array(right, dtype=np.int32),
            value=np.array(value, dtype=np.int32),
            n_classes=n_classes,
            depth=np.array(depths, dtype=np.int32),
            n_samples=np.array(samples, dtype=np.int64),
        )
