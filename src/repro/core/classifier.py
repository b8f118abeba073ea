"""The library's front door: train, plan, classify, measure.

Typical use (see ``examples/quickstart.py``)::

    from repro import HierarchicalForestClassifier, RunConfig

    clf = HierarchicalForestClassifier(n_estimators=50, max_depth=20)
    clf.fit(X_train, y_train)
    result = clf.classify(
        X_test, RunConfig(platform="gpu", variant="auto"),
        y_true=y_test,
    )
    print(result.seconds, result.accuracy)

Since the runtime refactor this class is a thin wrapper over
:mod:`repro.runtime`: every ``classify()`` call compiles the config into
an :class:`~repro.runtime.ExecutionPlan` (or, for ``variant="auto"``,
lets the :class:`~repro.runtime.Planner` autotune one) and executes it
through a :class:`~repro.runtime.RuntimeSession`.  The legacy signature
and behaviour are unchanged: explicit configs reproduce the pre-runtime
wiring byte-for-byte (same layouts, same kernels, same seconds).

Layouts are built lazily per :class:`LayoutParams` and cached, so sweeping
kernels over one forest re-uses the conversion work.  Every simulated run's
predictions are checked against the CPU reference — a wrong layout or kernel
cannot silently produce plausible timings.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.cpu_reference import reference_predict
from repro.core.config import KernelVariant, RunConfig
from repro.core.results import RunResult
from repro.forest.metrics import accuracy_score
from repro.forest.random_forest import RandomForestClassifier
from repro.forest.tree import DecisionTree
from repro.fpgasim.device import ALVEO_U250, FPGASpec
from repro.gpusim.device import GPUSpec, TITAN_XP
from repro.runtime.planner import Planner, compile_plan
from repro.runtime.session import RuntimeSession
from repro.utils.validation import check_array_2d, check_feature_width


class HierarchicalForestClassifier:
    """Random-forest classification through the paper's full pipeline.

    Parameters are forwarded to
    :class:`~repro.forest.random_forest.RandomForestClassifier`; an already
    trained forest (or hand-built trees) can be adopted via
    :meth:`from_forest` / :meth:`from_trees`.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: Optional[int] = None,
        gpu: GPUSpec = TITAN_XP,
        fpga: FPGASpec = ALVEO_U250,
        verify_against_reference: bool = True,
        seed=None,
        **forest_kwargs,
    ):
        self.forest = RandomForestClassifier(
            n_estimators=n_estimators, max_depth=max_depth, seed=seed,
            **forest_kwargs,
        )
        self.gpu = gpu
        self.fpga = fpga
        self.verify_against_reference = verify_against_reference
        self._layout_cache: Dict[Tuple, object] = {}
        self._session: Optional[RuntimeSession] = None
        self._session_trees: Optional[list] = None
        self._planner: Optional[Planner] = None

    # ------------------------------------------------------------------
    # Construction / training
    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "HierarchicalForestClassifier":
        """Train the underlying forest; invalidates cached layouts."""
        self.forest.fit(X, y)
        self._layout_cache.clear()
        self._session = None
        self._planner = None
        return self

    @classmethod
    def from_forest(
        cls, forest: RandomForestClassifier, **kwargs
    ) -> "HierarchicalForestClassifier":
        """Adopt an already fitted :class:`RandomForestClassifier`."""
        forest._check_fitted()
        clf = cls(**kwargs)
        clf.forest = forest
        return clf

    @classmethod
    def from_trees(
        cls, trees: Sequence[DecisionTree], n_features: int, **kwargs
    ) -> "HierarchicalForestClassifier":
        """Adopt hand-built trees (e.g. the Table 3 synthetic forest)."""
        return cls.from_forest(
            RandomForestClassifier.from_trees(list(trees), n_features), **kwargs
        )

    @property
    def trees(self) -> List[DecisionTree]:
        self.forest._check_fitted()
        return self.forest.trees_

    # ------------------------------------------------------------------
    # Runtime seam
    # ------------------------------------------------------------------
    @property
    def runtime(self) -> RuntimeSession:
        """The session executing this classifier's plans (rebuilt on refit).

        The session shares this classifier's ``_layout_cache`` dict, so
        layouts keep their historical cache keys and external code that
        seeds or inspects the cache keeps working.
        """
        trees = self.trees
        if self._session is None or self._session_trees is not trees:
            self._session = RuntimeSession(
                trees,
                gpu=self.gpu,
                fpga=self.fpga,
                verify_against_reference=self.verify_against_reference,
                layout_cache=self._layout_cache,
            )
            self._session_trees = trees
            self._planner = None
        return self._session

    @property
    def planner(self) -> Planner:
        """The autotuner serving this classifier's ``variant="auto"`` runs."""
        session = self.runtime
        if self._planner is None:
            self._planner = Planner(session)
        return self._planner

    # ------------------------------------------------------------------
    # Layouts
    # ------------------------------------------------------------------
    def layout_for(self, config: RunConfig):
        """Build (or fetch from cache) the layout ``config`` needs."""
        return self.runtime.layout_for(compile_plan(self.forest, config))

    def invalidate_layouts(self) -> None:
        """Drop every cached layout so the next run rebuilds from the trees.

        The host trees are authoritative; after detected device-buffer
        corruption (see :mod:`repro.reliability`) this is the "re-upload the
        forest" recovery action.
        """
        self._layout_cache.clear()

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _resolve(self, X: np.ndarray, config: RunConfig):
        """(plan, result config) for one call; autotunes ``auto`` variants."""
        plan = self.planner.plan(X, config)
        if config.variant is KernelVariant.AUTO:
            config = plan.to_run_config()
        return plan, config

    def classify(
        self,
        X: np.ndarray,
        config: RunConfig = RunConfig(),
        y_true: Optional[np.ndarray] = None,
        include_transfer: bool = False,
        launch_gate: Optional[Callable[[], float]] = None,
        observer=None,
    ) -> RunResult:
        """Run one simulated classification and return its result.

        ``X`` must be a non-empty, finite 2-D matrix with a column for
        every feature the forest splits on; it is checked (and coerced to
        C-contiguous float32) before planning or any launch.
        Predictions are verified against the CPU reference unless
        ``verify_against_reference=False`` (useful only for very large
        sweeps where the reference pass dominates).

        ``config.variant="auto"`` routes through the
        :class:`~repro.runtime.Planner`: the returned result carries the
        resolved config, and the chosen plan is cached under the plan
        cache for identical (forest, workload) pairs.

        ``include_transfer=True`` adds host-to-device transfer time (query
        round trip; the one-time layout upload goes into ``details``) — the
        paper reports kernel time only, so the default matches the paper.

        ``launch_gate`` is forwarded to the kernel (fault injection /
        guarded execution; see :mod:`repro.reliability`); with
        ``config.verify_integrity`` the kernel re-checks the layout's
        build-time checksums before traversing.

        ``observer`` is an observability sink (duck-typed, e.g.
        :class:`repro.obs.ObsSession`): the kernel reports each launch to
        it, and with ``include_transfer=True`` the query round trip is
        reported via ``on_transfer``.
        """
        X = check_array_2d(X, "X")
        check_feature_width(X, self.runtime.max_feature)
        plan, config = self._resolve(X, config)
        session = self.runtime
        session.verify_against_reference = self.verify_against_reference
        return session.run(
            plan,
            X,
            y_true=y_true,
            include_transfer=include_transfer,
            launch_gate=launch_gate,
            observer=observer,
            config=config,
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Plain CPU reference prediction (no simulation)."""
        return reference_predict(self.trees, X)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """CPU reference accuracy."""
        return accuracy_score(y, self.predict(X))
