"""GPU CSR baseline kernel (paper §2.3).

One thread per query; each thread walks every tree through the CSR
indirection.  Per traversal step a thread loads, from global memory:

* ``feature_id[node]`` (4 B) and ``value[node]`` (4 B) — node attributes,
* its query feature ``X[q, f]`` (4 B),
* ``children_arr_idx[node]`` (8 B) and ``children_arr[idx + dir]`` (4 B) —
  the two indirect topology accesses the paper identifies as the layout's
  bottleneck (two potentially irregular loads per child).

All addresses are real (derived from the layout arrays), so coalescing,
cold-miss and divergence counters come from the actual traversal trace.
"""

from __future__ import annotations

import numpy as np

from repro.forest.tree import LEAF
from repro.gpusim.engine import WarpGrid
from repro.gpusim.memory import CoalescingTracker
from repro.gpusim.metrics import KernelMetrics
from repro.kernels.base import AddressSpace, GPUKernel
from repro.kernels.traversal_stats import accumulate_votes
from repro.layout.csr import CSRForest


class GPUCSRKernel(GPUKernel):
    """Baseline: per-thread CSR traversal (the paper's reference point)."""

    name = "gpu-csr"
    #: Warp instructions per traversal step (loads, compare, address
    #: arithmetic, branches) — CSR pays for the double indirection.
    INSTR_PER_STEP = 18

    def _run(self, layout: CSRForest, X, grid: WarpGrid, metrics, votes):
        if not isinstance(layout, CSRForest):
            raise TypeError("GPUCSRKernel expects a CSRForest layout")
        n, n_features = X.shape
        space = AddressSpace()
        space.alloc("feature_id", layout.total_nodes, 4)
        space.alloc("value", layout.total_nodes, 4)
        space.alloc("children_arr_idx", layout.total_nodes, 8)
        space.alloc("children_arr", layout.total_children_entries, 4)
        space.alloc("X", n * n_features, 4)

        tr_feat = CoalescingTracker("feature_id", metrics, l1_hit_rate=0.10)
        tr_val = CoalescingTracker("value", metrics, l1_hit_rate=0.10)
        # The two topology loads form a dependent chain (children_arr_idx
        # must return before children_arr can issue), halving the warp's
        # memory-level parallelism — the bottleneck the paper attacks.
        tr_caidx = CoalescingTracker(
            "children_arr_idx", metrics, element_bytes=8, issue_cost=2.5,
            l1_hit_rate=0.10,
        )
        tr_ca = CoalescingTracker(
            "children_arr", metrics, issue_cost=2.5, l1_hit_rate=0.10
        )
        tr_x = CoalescingTracker("X", metrics, l1_resident=True)
        self._register_sites([tr_feat, tr_val, tr_caidx, tr_ca, tr_x])

        rows = np.arange(n, dtype=np.int64)
        for t in range(layout.n_trees):
            base = layout.tree_node_offset[t]
            cbase = layout.tree_children_offset[t]
            cur = np.zeros(n, dtype=np.int64)
            out = np.full(n, -1, dtype=np.int64)
            active = np.ones(n, dtype=bool)
            # Bounded walk (see accumulate_votes): a longer one loops.
            for _ in range(layout.tree_node_offset[t + 1] - base):
                if not np.any(active):
                    break
                g = base + cur
                # Node attribute loads (masked to active lanes).
                tr_feat.record(space.addr("feature_id", g), active)
                tr_val.record(space.addr("value", g), active)
                feats = np.where(active, layout.feature_id[g], 0)
                is_leaf = active & (feats == LEAF)
                inner = active & ~is_leaf
                if np.any(is_leaf):
                    out[is_leaf] = layout.value[g[is_leaf]].astype(np.int64)
                # Inner lanes: query feature + double topology indirection.
                if np.any(inner):
                    f_safe = np.where(inner, feats, 0).astype(np.int64)
                    tr_x.record(
                        self._query_addresses(space, f_safe, rows, n_features),
                        inner,
                    )
                    go_left = np.zeros(n, dtype=bool)
                    gi = g[inner]
                    go_left[inner] = (
                        X[rows[inner], feats[inner]] < layout.value[gi]
                    )
                    tr_caidx.record(space.addr("children_arr_idx", g), inner)
                    ci = np.zeros(n, dtype=np.int64)
                    ci[inner] = layout.children_arr_idx[gi] + np.where(
                        go_left[inner], 0, 1
                    )
                    tr_ca.record(space.addr("children_arr", cbase + ci), inner)
                    cur[inner] = layout.children_arr[cbase + ci[inner]]
                grid.record_step(metrics, active, self.INSTR_PER_STEP)
                new_active = inner
                grid.record_loop_branch(metrics, active, new_active)
                active = new_active
            accumulate_votes(votes, out)
