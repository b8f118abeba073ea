"""GPU CSR baseline kernel (paper §2.3).

One thread per query; each thread walks every tree through the CSR
indirection.  Per traversal step a thread loads, from global memory:

* ``feature_id[node]`` (4 B) and ``value[node]`` (4 B) — node attributes,
* its query feature ``X[q, f]`` (4 B),
* ``children_arr_idx[node]`` (8 B) and ``children_arr[idx + dir]`` (4 B) —
  the two indirect topology accesses the paper identifies as the layout's
  bottleneck (two potentially irregular loads per child).

All addresses are real (derived from the layout arrays along one fastpath
walk of each tree), so coalescing, cold-miss and divergence counters come
from the actual traversal trace.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.engine import WarpGrid
from repro.gpusim.memory import CoalescingTracker, record_levels
from repro.kernels.base import AddressSpace, GPUKernel
from repro.kernels.traversal_stats import accumulate_votes, current_table, tree_levels
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

        table = current_table(layout)
        queries = np.arange(n, dtype=np.int64)
        for t in range(layout.n_trees):
            levels = tree_levels(table, X, t, layout.feature_id, layout.value)
            g, walking, features, inner, _ = levels
            # Inner lanes: query feature + double topology indirection.
            go_left = X[queries, features] < layout.value[g]
            child = layout.children_arr_idx[g] + np.where(go_left, 0, 1)
            record_levels([
                (tr_feat, space.addr("feature_id", g), walking),
                (tr_val, space.addr("value", g), walking),
                (tr_x, self._query_addresses(space, features, queries, n_features), inner),
                (tr_caidx, space.addr("children_arr_idx", g), inner),
                (
                    tr_ca,
                    space.addr("children_arr", layout.tree_children_offset[t] + child),
                    inner,
                ),
            ])
            grid.record_step(metrics, walking, self.INSTR_PER_STEP)
            grid.record_loop_branch(metrics, walking, inner)
            accumulate_votes(votes, levels.labels)
