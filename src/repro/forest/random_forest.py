"""Random forest classifier (bootstrap-aggregated CART trees).

Mirrors the scikit-learn semantics the paper relies on: ``n_estimators``
bootstrap-resampled trees, per-node ``sqrt`` feature subsampling, majority
vote at prediction time (the paper's Fig. 1a accumulates per-tree votes and
compares against ``N/2`` for the binary case; we keep the general
``argmax``-of-votes form, which reduces to that comparison for two classes).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.forest.builder import FeatureBinner, TreeBuilder
from repro.forest.tree import DecisionTree, TreeStack, leaf_labels, stack_trees
from repro.utils.rng import as_rng, bootstrap_indices, spawn_rngs
from repro.utils.validation import check_array_2d, check_positive_int

#: Most (row, tree) lanes one :func:`vote_counts` chunk keeps live; rows
#: are traversed ``VOTE_CHUNK_LANES // n_trees`` at a time, so no
#: ``n_rows x n_trees`` label matrix is ever built.
VOTE_CHUNK_LANES: int = 1 << 15


def vote_counts(
    trees: Union[Sequence[DecisionTree], TreeStack], X: np.ndarray, n_classes: int
) -> np.ndarray:
    """Per-class vote counts of ``trees`` over ``X``, ``(n_queries, n_classes)``.

    ``trees`` may be pre-stacked (:func:`~repro.forest.tree.stack_trees`)
    by a caller that votes the same trees many times.
    """
    stack = stack_trees(trees)
    X = np.ascontiguousarray(X, dtype=np.float32)
    votes = np.zeros((X.shape[0], n_classes), dtype=np.int64)
    step = max(1, VOTE_CHUNK_LANES // stack.n_trees)
    for lo in range(0, X.shape[0], step):
        chunk = X[lo : lo + step]
        labels = leaf_labels(stack, chunk)
        if labels.min() < 0 or labels.max() >= n_classes:
            raise IndexError(f"leaf label outside [0, {n_classes})")
        row = np.repeat(np.arange(chunk.shape[0], dtype=np.int64), stack.n_trees)
        votes[lo : lo + step] = np.bincount(
            row * n_classes + labels, minlength=chunk.shape[0] * n_classes
        ).reshape(chunk.shape[0], n_classes)
    return votes


class RandomForestClassifier:
    """Ensemble of CART trees with majority-vote classification.

    Parameters
    ----------
    n_estimators:
        Number of trees (the paper sweeps 10-150, settling on 100).
    max_depth:
        Maximum tree depth (the paper sweeps 5-50).  ``None`` = unbounded.
    max_features:
        Per-node feature subsample ("sqrt" default, as in scikit-learn).
    bootstrap:
        Draw each tree's training set with replacement (True, the RF default).
    store_oob:
        Keep each tree's bootstrap row indices so :meth:`oob_score` can
        compute the out-of-bag accuracy after fitting.
    splitter, max_bins, min_samples_split, min_samples_leaf:
        Forwarded to :class:`~repro.forest.builder.TreeBuilder`.
    seed:
        Seed or Generator; each tree gets an independent spawned stream.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: Optional[int] = None,
        max_features: Union[str, int, float, None] = "sqrt",
        bootstrap: bool = True,
        splitter: str = "hist",
        max_bins: int = 256,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        store_oob: bool = False,
        seed=None,
    ):
        self.n_estimators = check_positive_int(n_estimators, "n_estimators")
        self.max_depth = max_depth
        self.max_features = max_features
        self.bootstrap = bool(bootstrap)
        self.splitter = splitter
        self.max_bins = max_bins
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.store_oob = bool(store_oob)
        self.seed = seed
        self.trees_: List[DecisionTree] = []
        self.bootstrap_indices_: List[np.ndarray] = []
        self.n_classes_: Optional[int] = None
        self.n_features_: Optional[int] = None

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Train the forest on ``(X, y)``; labels must be 0..K-1 integers."""
        X = check_array_2d(X, "X")
        y = np.asarray(y, dtype=np.int32).ravel()
        if y.shape[0] != X.shape[0]:
            raise ValueError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} labels"
            )
        if y.size == 0:
            raise ValueError("cannot fit on an empty dataset")
        if y.min() < 0:
            raise ValueError("labels must be non-negative integers")
        self.n_classes_ = int(y.max()) + 1
        self.n_features_ = X.shape[1]

        builder = TreeBuilder(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            splitter=self.splitter,
            max_bins=self.max_bins,
        )
        binner = codes = None
        if self.splitter == "hist":
            binner = FeatureBinner(self.max_bins).fit(X)
            codes = binner.transform(X)

        rngs = spawn_rngs(self.seed, self.n_estimators)
        self.trees_ = []
        self.bootstrap_indices_ = []
        for rng in rngs:
            if self.bootstrap:
                idx = bootstrap_indices(rng, X.shape[0])
                Xb, yb = X[idx], y[idx]
                cb = codes[idx] if codes is not None else None
                if self.store_oob:
                    self.bootstrap_indices_.append(idx)
            else:
                Xb, yb, cb = X, y, codes
            tree = builder.build(
                Xb, yb, self.n_classes_, rng=rng, binner=binner, codes=cb
            )
            self.trees_.append(tree)
        return self

    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if not self.trees_:
            raise RuntimeError("forest is not fitted; call fit() first")

    def predict_votes(self, X: np.ndarray) -> np.ndarray:
        """Per-class vote counts, shape ``(n_queries, n_classes)``."""
        self._check_fitted()
        X = check_array_2d(X, "X")
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, forest expects {self.n_features_}"
            )
        return vote_counts(self.trees_, X, self.n_classes_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority-vote class labels for each query (ties -> lowest label)."""
        return self.predict_votes(X).argmax(axis=1)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy on ``(X, y)``."""
        y = np.asarray(y).ravel()
        return float(np.mean(self.predict(X) == y))

    # ------------------------------------------------------------------
    def oob_score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Out-of-bag accuracy (requires ``store_oob=True`` and bootstrap);
        ``X``/``y`` must be the training data passed to :meth:`fit`."""
        from repro.forest.importance import oob_score

        self._check_fitted()
        if not self.bootstrap_indices_:
            raise RuntimeError(
                "oob_score needs store_oob=True and bootstrap=True at fit time"
            )
        return oob_score(
            self.trees_, self.bootstrap_indices_, X, y, self.n_classes_
        )

    @property
    def feature_importances_(self) -> np.ndarray:
        """Normalised per-feature importances (see repro.forest.importance)."""
        from repro.forest.importance import forest_feature_importances

        self._check_fitted()
        return forest_feature_importances(self.trees_, self.n_features_)

    @property
    def max_tree_depth_(self) -> int:
        """Deepest depth over all trained trees."""
        self._check_fitted()
        return max(t.max_depth for t in self.trees_)

    @property
    def total_nodes_(self) -> int:
        """Total node count over the forest."""
        self._check_fitted()
        return sum(t.n_nodes for t in self.trees_)

    @classmethod
    def from_trees(
        cls, trees: List[DecisionTree], n_features: int
    ) -> "RandomForestClassifier":
        """Wrap externally built trees (e.g. ``random_tree``) into a forest."""
        if not trees:
            raise ValueError("need at least one tree")
        clf = cls(n_estimators=len(trees))
        clf.trees_ = list(trees)
        clf.n_classes_ = max(t.n_classes for t in trees)
        clf.n_features_ = int(n_features)
        return clf

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fitted = f", fitted({len(self.trees_)} trees)" if self.trees_ else ""
        return (
            f"RandomForestClassifier(n_estimators={self.n_estimators}, "
            f"max_depth={self.max_depth}{fitted})"
        )
