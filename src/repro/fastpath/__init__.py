"""Vectorized trace-free inference — the serving-speed execution mode.

The kernels in :mod:`repro.kernels` count memory transactions, branches
and pipeline work items on top of a traversal, so the simulators can
reproduce the paper's Fig. 7/8 and Table 3; that accounting is orders of
magnitude too slow to serve traffic.  This package is the other half of
the execution-mode axis (``trace="off"`` on a
:class:`~repro.runtime.ExecutionPlan`): fully array-oriented batched
traversal over the *same* device layouts, with no per-row or per-warp
Python loop anywhere — one level-synchronous frontier loop bounded by tree
depth, gather/where over the packed node-record arrays, one
``bincount``-based majority vote.

Predictions are bit-identical to the trace path and the CPU host-tree
oracle (the golden suite in ``tests/test_fastpath.py`` pins this for every
registered (platform, variant) pair).  This is the one inference core:
the FPGA kernels price its walk's per-level lane counts, and the CSR,
independent, hybrid and cuML-FIL GPU kernels count their loads from its
per-level slots (``traverse_edges(..., slots=)``).  Only the
collaborative GPU kernel and the greedy extension still step their own
loops over a layout; the CPU oracle walks the host trees.  Each layout
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
    fastpath_predict,
    fastpath_seconds,
)

__all__ = [
    "FASTPATH_LAUNCH_OVERHEAD_S",
    "FASTPATH_SECONDS_PER_LANE_LEVEL",
    "FastpathStats",
    "fastpath_predict",
    "fastpath_seconds",
]
