"""Shared machinery for the experiment harness.

* :class:`Scale` — the smoke / default / full experiment sizes (queries,
  trees, depth grids) used consistently by every table/figure module.
* :func:`get_dataset` / :func:`get_forest` — memoised dataset generation and
  forest training with an on-disk forest cache (training deep forests in
  pure NumPy dominates wall-clock, so benches and experiments share trained
  forests through ``.cache/forests/`` under the repository root, overridable
  via ``REPRO_CACHE_DIR``).
* :func:`get_session` / :func:`execute` — the runtime seam: every
  experiment driver runs its configurations through a shared
  :class:`~repro.runtime.RuntimeSession` per forest (plan compilation,
  layout reuse, observability wiring in one place; source rule API003 in
  ``tests/test_source_rules.py`` keeps kernel classes out of experiment
  modules).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import KernelVariant, RunConfig
from repro.core.results import RunResult
from repro.datasets.profiles import Dataset, PROFILES, load_dataset
from repro.forest.io import ForestIntegrityError, load_forest, save_forest
from repro.forest.random_forest import RandomForestClassifier
from repro.runtime.planner import Planner, compile_plan
from repro.runtime.session import RuntimeSession


@dataclass(frozen=True)
class Scale:
    """One experiment size tier."""

    name: str
    #: Queries used for timing runs (test rows are truncated to this).
    queries: int
    #: Trees per timing forest.
    n_trees: int
    #: Total dataset rows (train = rows/2); None = profile default.
    rows: Optional[int]
    #: Depths per dataset band to actually run (1 = band midpoint only).
    depths_per_band: int
    #: Subtree depths swept.
    subtree_depths: Tuple[int, ...] = (4, 6, 8)
    #: Fig. 5 grids.
    fig5_depths: Tuple[int, ...] = (5, 8, 12, 16, 22, 30)
    fig5_tree_counts: Tuple[int, ...] = (10, 25, 50)
    fig5_estimators: int = 25


SCALES: Dict[str, Scale] = {
    "smoke": Scale(
        name="smoke",
        queries=1024,
        n_trees=8,
        rows=4000,
        depths_per_band=1,
        subtree_depths=(4, 6),
        fig5_depths=(4, 8),
        fig5_tree_counts=(5, 10),
        fig5_estimators=10,
    ),
    "default": Scale(
        name="default",
        queries=4096,
        n_trees=20,
        rows=12000,
        depths_per_band=1,
    ),
    "full": Scale(
        name="full",
        queries=8192,
        n_trees=50,
        rows=None,
        depths_per_band=3,
        fig5_tree_counts=(10, 25, 50, 100),
    ),
}


def get_scale(scale) -> Scale:
    """Resolve a scale name or pass through a :class:`Scale`."""
    if isinstance(scale, Scale):
        return scale
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; available: {sorted(SCALES)}")
    return SCALES[scale]


def band_depths(dataset: str, scale: Scale) -> Tuple[int, ...]:
    """The tree depths run for a dataset's paper band at this scale."""
    band = PROFILES[dataset].depth_band
    if scale.depths_per_band >= len(band):
        return tuple(band)
    mid = len(band) // 2
    return tuple(band[mid : mid + scale.depths_per_band])


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------
_DATASETS: Dict[Tuple, Dataset] = {}
_FORESTS: Dict[Tuple, RandomForestClassifier] = {}
# id(forest) -> (forest, session, planner).  The forest is kept in the
# value so a recycled id() of a garbage-collected forest can't alias a
# stale session (checked with ``is`` on lookup).
_SESSIONS: Dict[int, Tuple[RandomForestClassifier, RuntimeSession, Planner]] = {}


def _cache_root() -> str:
    """Root of the on-disk cache (``REPRO_CACHE_DIR`` or ``<repo>/.cache``)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root is None:
        here = os.path.dirname(os.path.abspath(__file__))
        repo = os.path.dirname(os.path.dirname(os.path.dirname(here)))
        root = os.path.join(repo, ".cache")
    return root


def cache_dir() -> str:
    """On-disk cache directory for trained forests."""
    path = os.path.join(_cache_root(), "forests")
    os.makedirs(path, exist_ok=True)
    return path


def manifest_dir() -> str:
    """Where run manifests land (``REPRO_MANIFEST_DIR`` overrides)."""
    path = os.environ.get("REPRO_MANIFEST_DIR")
    if path is None:
        path = os.path.join(_cache_root(), "manifests")
    os.makedirs(path, exist_ok=True)
    return path


def get_dataset(name: str, scale) -> Dataset:
    """Memoised dataset generation at the scale's row count."""
    scale = get_scale(scale)
    key = (name, scale.rows)
    if key not in _DATASETS:
        _DATASETS[key] = load_dataset(name, rows=scale.rows)
    return _DATASETS[key]


def get_forest(
    name: str,
    max_depth: int,
    n_trees: int,
    scale,
    seed: int = 0,
) -> RandomForestClassifier:
    """Train (or load from cache) a forest for one timing configuration."""
    scale = get_scale(scale)
    key = (name, max_depth, n_trees, scale.rows, seed)
    if key in _FORESTS:
        return _FORESTS[key]
    fname = f"{name}_d{max_depth}_t{n_trees}_r{scale.rows}_s{seed}.npz"
    path = os.path.join(cache_dir(), fname)
    forest = None
    if os.path.exists(path):
        try:
            forest = load_forest(path)
        except ForestIntegrityError as e:
            # Self-heal: a truncated/corrupt cache entry (interrupted write,
            # bit rot) is discarded and retrained rather than poisoning every
            # experiment that shares it.
            print(f"[cache] discarding corrupt forest {fname}: {e}")
            os.remove(path)
    if forest is None:
        ds = get_dataset(name, scale)
        forest = RandomForestClassifier(
            n_estimators=n_trees, max_depth=max_depth, seed=seed
        ).fit(ds.X_train, ds.y_train)
        save_forest(path, forest)
    _FORESTS[key] = forest
    return _FORESTS[key]


def queries_for(ds: Dataset, scale) -> np.ndarray:
    """Test-set queries truncated to the scale's query count."""
    scale = get_scale(scale)
    return ds.X_test[: scale.queries]


def clear_memo() -> None:
    """Drop in-memory caches (tests use this to bound memory)."""
    _DATASETS.clear()
    _FORESTS.clear()
    _SESSIONS.clear()


# ----------------------------------------------------------------------
# Runtime seam
# ----------------------------------------------------------------------
def get_session(forest: RandomForestClassifier) -> RuntimeSession:
    """Memoised :class:`RuntimeSession` for one trained forest.

    Experiments sweep many configurations over the same forest; sharing the
    session shares its layout cache, so e.g. the CSR baseline layout is
    built once per (dataset, depth) rather than once per variant row.
    """
    entry = _SESSIONS.get(id(forest))
    if entry is None or entry[0] is not forest:
        session = RuntimeSession.from_forest(forest)
        entry = (forest, session, Planner(session))
        _SESSIONS[id(forest)] = entry
    return entry[1]


def get_planner(forest: RandomForestClassifier) -> Planner:
    """The autotuner bound to :func:`get_session`'s session for ``forest``."""
    get_session(forest)
    return _SESSIONS[id(forest)][2]


def execute(
    forest: RandomForestClassifier,
    X: np.ndarray,
    config: RunConfig = RunConfig(),
    y_true: Optional[np.ndarray] = None,
    include_transfer: bool = False,
    observer=None,
) -> RunResult:
    """Run one experiment configuration through the runtime seam.

    This is the single path from experiment drivers to kernels: the config
    is compiled into an :class:`~repro.runtime.ExecutionPlan` (autotuned by
    the shared :class:`~repro.runtime.Planner` for ``variant="auto"``) and
    executed by the forest's memoised session.  Source rule API003
    (``tests/test_source_rules.py``) rejects experiment modules that import
    kernel classes directly.
    """
    session = get_session(forest)
    if config.variant is KernelVariant.AUTO:
        plan = get_planner(forest).plan(X, config)
        config = plan.to_run_config()
    else:
        plan = compile_plan(forest, config)
    return session.run(
        plan,
        X,
        y_true=y_true,
        include_transfer=include_transfer,
        observer=observer,
        config=config,
    )


def save_rows(rows, path: str) -> None:
    """Write experiment rows as JSON (numpy scalars coerced to Python)."""

    def default(o):
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(f"not JSON-serialisable: {type(o).__name__}")

    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(rows, f, indent=1, default=default)


def load_rows(path: str):
    """Read rows previously written by :func:`save_rows`."""
    with open(path) as f:
        return json.load(f)


def emit_manifest(
    experiment: str,
    scale,
    rows,
    extra_counters: Optional[Dict[str, float]] = None,
    path: Optional[str] = None,
) -> str:
    """Write the run manifest every experiment entry point must emit.

    Aggregates the experiment's row dicts into deterministic counters
    (``rows.count`` plus per-column sum/min/max), merges any
    ``extra_counters`` and writes one JSONL manifest under
    :func:`manifest_dir` (or an explicit ``path``).  ``repro.obs diff``
    compares two such files; source rule OBS001
    (``tests/test_source_rules.py``) enforces that every experiment module
    routes through here.  Returns the path written.
    """
    from repro.obs.manifest import (
        build_manifest,
        rows_to_counters,
        write_manifest,
    )

    scale = get_scale(scale)
    counters = rows_to_counters(rows)
    if extra_counters:
        counters.update(extra_counters)
    manifest = build_manifest(experiment, scale.name, counters)
    if path is None:
        path = os.path.join(
            manifest_dir(), f"{experiment}_{scale.name}.jsonl"
        )
    write_manifest(path, manifest)
    print(f"[run manifest: {path}]")
    return path
