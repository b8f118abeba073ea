"""FPGA CSR baseline kernel (paper Table 3, "Baseline (CSR)").

The traversal loop's carried dependency chain runs through four external
loads (node attributes, the query feature, ``children_arr_idx`` and
``children_arr``) before the next node index is known, giving the paper's
II of 292 cycles.  Work items are node visits; every item presents the SLR
channel with four random external accesses.
"""

from __future__ import annotations

import numpy as np

from repro.fpgasim.pipeline import PipelineTimer, derive_ii
from repro.forest.tree import LEAF
from repro.kernels.fpga_base import FPGAKernel
from repro.kernels.traversal_stats import WorkloadProfile, accumulate_votes
from repro.layout.csr import CSRForest


class FPGACSRKernel(FPGAKernel):
    """Baseline CSR pipeline."""

    name = "fpga-csr"
    #: Loop-carried dependency chain (see module docstring): 4*72 + 4 = 292.
    II_CHAIN = (
        "ext_load",  # node attributes
        "ext_load",  # query feature
        "ext_load",  # children_arr_idx
        "ext_load",  # children_arr
        "compare",
        "arith",
        "select",
        "arith",
    )
    RANDOM_ACCESSES_PER_ITEM = 4.0
    LAYOUT = CSRForest

    def _walk(self, layout: CSRForest, X, votes) -> WorkloadProfile:
        rows = np.arange(X.shape[0], dtype=np.int64)
        total_visits = 0
        for t in range(layout.n_trees):
            visits, labels = self._tree_visits(layout, X, t, rows)
            total_visits += visits
            accumulate_votes(votes, labels)
        # CSR has no subtrees: only the visits are priced.
        return WorkloadProfile(
            n_queries=X.shape[0],
            visits=total_visits,
            crossings=0,
            stage1=0,
            sum_levels=0,
        )

    @classmethod
    def _timing(cls, counts, layout, replication, spec):
        return PipelineTimer(spec).time(
            work_items=counts.visits,
            ii=derive_ii(cls.II_CHAIN, spec),
            replication=replication,
            random_accesses_per_item=cls.RANDOM_ACCESSES_PER_ITEM,
            launches=layout.n_trees,
        )

    @staticmethod
    def _tree_visits(layout: CSRForest, X, t, rows):
        """Count node visits + compute labels for one tree (vectorised)."""
        base = layout.tree_node_offset[t]
        cbase = layout.tree_children_offset[t]
        n = X.shape[0]
        cur = np.zeros(n, dtype=np.int64)
        out = np.full(n, -1, dtype=np.int64)
        active = np.ones(n, dtype=bool)
        visits = 0
        # Bounded walk (see accumulate_votes): a longer one loops.
        for _ in range(layout.tree_node_offset[t + 1] - base):
            if not np.any(active):
                break
            visits += int(np.count_nonzero(active))
            g = base + cur[active]
            feats = layout.feature_id[g]
            leaf = feats == LEAF
            act_idx = np.flatnonzero(active)
            if np.any(leaf):
                done = act_idx[leaf]
                out[done] = layout.value[base + cur[done]].astype(np.int64)
                active[done] = False
                act_idx = act_idx[~leaf]
                if act_idx.size == 0:
                    break
                g = base + cur[act_idx]
                feats = layout.feature_id[g]
            go_left = X[rows[act_idx], feats] < layout.value[g]
            ci = layout.children_arr_idx[g] + np.where(go_left, 0, 1)
            cur[act_idx] = layout.children_arr[cbase + ci]
        return visits, out
