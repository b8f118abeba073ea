"""Forest-friendly synthetic classification data (teacher-tree generator).

The ground-truth label function is itself a random decision tree (the
"teacher") over a subset of informative features:

* Split thresholds are drawn in CDF space of the standard-normal marginals,
  so every split is reachable and roughly balanced — a greedy CART learner
  can actually recover the teacher's structure level by level.
* Each teacher node carries a latent bias that evolves as a random walk down
  the tree with per-level step ``signal_decay**level``.  A leaf's base label
  is the sign of its bias, so *shallow prefixes of the teacher are already
  predictive* and accuracy climbs smoothly with learner depth until the
  teacher is exhausted.
* Labels are flipped independently with probability ``noise``, pinning the
  Bayes-optimal accuracy at ``1 - noise``.

Together these give the two independent knobs needed to mimic the paper's
Fig. 5 heat-maps: the accuracy *ceiling* (noise) and the *depth at which the
ceiling is reached* (teacher_depth, signal_decay).
"""

from __future__ import annotations

from statistics import NormalDist
from typing import Tuple

import numpy as np

from repro.forest.tree import LEAF, DecisionTree
from repro.utils.rng import as_rng
from repro.utils.validation import check_in_range, check_positive_int


def make_teacher_tree(
    rng,
    n_features: int,
    n_informative: int,
    depth: int,
    signal_decay: float = 0.9,
    branch_prob: float = 0.8,
    min_depth: int = 4,
) -> DecisionTree:
    """Build a sparse random teacher :class:`DecisionTree` up to ``depth``.

    Thresholds are drawn per node inside the node's own CDF-space box, so no
    split is degenerate; leaf labels follow the sign of a per-path bias
    random walk whose step at level ``l`` is ``signal_decay**l``.

    Nodes always split until ``min_depth``; beyond that they split with
    probability ``branch_prob``, so the tree is sparse (a complete depth-20
    teacher would need 2M nodes) and, as in real data, only part of the
    feature space carries deep structure.
    """
    rng = as_rng(rng)
    n_informative = min(n_informative, n_features)
    info = rng.permutation(n_features)[:n_informative]

    feature, threshold, left, right, value, depths = [], [], [], [], [], []

    def add_node(d: int) -> int:
        i = len(feature)
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0)
        depths.append(d)
        return i

    # Stack entries: (node, depth, bias, cdf_lo, cdf_hi) where the cdf bounds
    # track the remaining probability box per informative feature.
    root = add_node(0)
    stack = [
        (
            root,
            0,
            0.0,
            np.zeros(n_informative, dtype=np.float64),
            np.ones(n_informative, dtype=np.float64),
        )
    ]
    while stack:
        node, d, bias, lo, hi = stack.pop()
        stop = d >= depth or (d >= min_depth and rng.random() > branch_prob)
        if stop:
            value[node] = int(bias > 0) if bias != 0 else int(rng.random() < 0.5)
            continue
        # Pick the informative feature with the widest remaining box to keep
        # regions from collapsing, with some randomness.
        widths = hi - lo
        probs = widths / widths.sum()
        j = int(rng.choice(n_informative, p=probs))
        span = hi[j] - lo[j]
        u = lo[j] + span * rng.uniform(0.35, 0.65)
        feature[node] = int(info[j])
        threshold[node] = NormalDist().inv_cdf(u)
        value[node] = -1
        l = add_node(d + 1)
        r = add_node(d + 1)
        left[node], right[node] = l, r
        step = signal_decay**d
        delta = step * rng.choice([-1.0, 1.0])
        lo_l, hi_l = lo.copy(), hi.copy()
        hi_l[j] = u
        lo_r, hi_r = lo.copy(), hi.copy()
        lo_r[j] = u
        stack.append((l, d + 1, bias + delta, lo_l, hi_l))
        stack.append((r, d + 1, bias - delta, lo_r, hi_r))

    return DecisionTree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float32),
        left_child=np.array(left, dtype=np.int32),
        right_child=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.int32),
        n_classes=2,
        depth=np.array(depths, dtype=np.int32),
    )


def make_forest_classification(
    n_samples: int,
    n_features: int,
    noise: float = 0.2,
    teacher_depth: int = 12,
    signal_decay: float = 0.9,
    branch_prob: float = 0.8,
    n_informative: int = None,
    n_classes: int = 2,
    seed=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate ``(X, y)`` with tunable depth-vs-accuracy behaviour.

    Parameters
    ----------
    n_samples, n_features:
        Output shape; features are i.i.d. standard normal.
    noise:
        Independent label-flip probability; the Bayes-optimal accuracy is
        ``1 - noise``, which is what a saturated forest converges to.
    teacher_depth:
        Depth of the ground-truth decision tree; learner accuracy stops
        improving once ``max_depth`` comfortably exceeds this.
    signal_decay:
        Per-level decay of the teacher's bias walk.  Small values front-load
        the signal (accuracy plateaus at shallow depth, Susy-like); values
        near 1 spread it evenly (long climb, Covertype-like).
    n_informative:
        Number of signal-carrying features (default ``min(12, n_features)``).
    n_classes:
        Number of classes.  For ``K > 2`` the binary teacher labels are
        refined into ``K`` buckets by a secondary teacher, so class
        boundaries remain axis-aligned and greedily learnable.  (The paper's
        datasets are all binary — Covertype is "a binarized form" — so 2 is
        the default; multiclass exercises the vote machinery end-to-end.)
    seed:
        Seed or Generator.

    Returns
    -------
    ``X`` (``float32[n_samples, n_features]``), ``y`` (``int64`` in
    ``[0, n_classes)``).
    """
    rng = as_rng(seed)
    n_samples = check_positive_int(n_samples, "n_samples")
    n_features = check_positive_int(n_features, "n_features")
    noise = check_in_range(noise, "noise", 0.0, 0.5)
    teacher_depth = check_positive_int(teacher_depth, "teacher_depth")
    signal_decay = check_in_range(signal_decay, "signal_decay", 0.05, 1.5)
    n_classes = check_positive_int(n_classes, "n_classes", minimum=2)
    if n_informative is None:
        n_informative = min(12, n_features)
    n_informative = min(check_positive_int(n_informative, "n_informative"), n_features)

    teacher = make_teacher_tree(
        rng, n_features, n_informative, teacher_depth, signal_decay, branch_prob
    )
    X = rng.standard_normal((n_samples, n_features), dtype=np.float32)
    y = teacher.predict(X)
    if n_classes > 2:
        # Refine each binary region with a shallow secondary teacher so the
        # K classes stay axis-aligned: class = 2*secondary + primary capped.
        refiner = make_teacher_tree(
            rng, n_features, n_informative, max(2, teacher_depth // 2),
            signal_decay, branch_prob,
        )
        y = (2 * refiner.predict(X) + y) % n_classes
    flip = rng.random(n_samples) < noise
    if n_classes == 2:
        y[flip] = 1 - y[flip]
    else:
        # Flip to a uniformly random *other* class.
        shift = rng.integers(1, n_classes, size=int(flip.sum()))
        y[flip] = (y[flip] + shift) % n_classes
    return X, y


def train_test_split_half(
    X: np.ndarray, y: np.ndarray, seed=None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle and split 1:1 into train/test, as the paper does (§4)."""
    rng = as_rng(seed)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    perm = rng.permutation(n)
    half = n // 2
    tr, te = perm[:half], perm[half:]
    return X[tr], y[tr], X[te], y[te]
