"""Vectorized trace-free inference — the serving-speed execution mode.

Every kernel in :mod:`repro.kernels` executes in warp-lockstep NumPy so the
simulators can count memory transactions; faithful to the paper's Fig. 7/8
modeling, and orders of magnitude too slow to serve traffic.  This package
is the other half of the execution-mode axis (``trace="off"`` on a
:class:`~repro.runtime.ExecutionPlan`): fully array-oriented batched
traversal over the *same* device layouts, with no per-row or per-warp
Python loop anywhere — one level-synchronous frontier loop bounded by tree
depth, gather/where over the packed node-record arrays, one
``bincount``-based majority vote.

Predictions are bit-identical to the trace path and the CPU host-tree
oracle (the golden suite in ``tests/test_fastpath.py`` pins this for every
registered (platform, variant) pair).  This is the one inference core:
outside the trace kernels, nothing else walks a layout.  Each layout
family gets its own lowering to the shared edge table:

* :mod:`repro.fastpath.hierpath` — hierarchical subtree layout
  (``independent`` / ``collaborative`` / ``hybrid`` variants);
* :mod:`repro.fastpath.csrpath` — CSR children-array layout;
* :mod:`repro.fastpath.filpath` — cuML-FIL packed-node layout.

Source rule PERF001 (``tests/test_source_rules.py``) bans Python ``for``
loops (and comprehensions) in this package, keeping the fast path honest
as it grows.
"""

from repro.fastpath.engine import (
    FASTPATH_LAUNCH_OVERHEAD_S,
    FASTPATH_SECONDS_PER_LANE_LEVEL,
    FastpathStats,
    family_for_variant,
    fastpath_predict,
    fastpath_seconds,
    supports_variant,
)

__all__ = [
    "FASTPATH_LAUNCH_OVERHEAD_S",
    "FASTPATH_SECONDS_PER_LANE_LEVEL",
    "FastpathStats",
    "family_for_variant",
    "fastpath_predict",
    "fastpath_seconds",
    "supports_variant",
]
