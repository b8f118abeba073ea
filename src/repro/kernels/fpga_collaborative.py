"""FPGA collaborative kernel (paper Table 3 "Collaborative").

Each subtree is burst-loaded into BRAM/URAM and *all* queries are pushed
through its pipeline whether they traverse it or not, achieving a very low
II (3 cycles, everything on-chip) but paying two structural costs the paper
identifies:

* **Starvation**: pipeline slots are occupied by queries not present in the
  subtree — work items are ``n_queries x sum(levels of every subtree)``,
  which grows with depth while useful work shrinks as ``2^-s``.
* **Query-state round trip**: between subtrees each query's state (current
  subtree, node, progress) lives in external memory; the load->update->store
  dependency adds ~``2 x ext_load_latency`` serial cycles per (query,
  subtree) pair.  This term is what drives the paper's measured ~90% stall.

Together these make the collaborative variant the slowest despite its
best-in-class II — the paper's headline observation for this kernel.
"""

from __future__ import annotations

from repro.fpgasim.pipeline import PipelineTimer, derive_ii
from repro.kernels.fpga_base import FPGAKernel


class FPGACollaborativeKernel(FPGAKernel):
    """Burst-loaded subtrees, all queries through every subtree."""

    name = "fpga-collaborative"
    #: Fully on-chip chain: BRAM node + compare = 3.
    II_CHAIN = ("bram_load", "compare")
    #: External round trips of query state per (query, subtree) pair.
    STATE_ROUNDTRIPS = 2.0

    @classmethod
    def _timing(cls, counts, layout, replication, spec):
        # Every query occupies every level of every subtree, and its state
        # round-trips once per subtree.
        work_items = counts.n_queries * counts.sum_levels
        state_pairs = counts.n_queries * layout.n_subtrees
        serial_per_item = (
            cls.STATE_ROUNDTRIPS
            * spec.ext_load_latency
            * state_pairs
            / max(1, work_items)
        )
        # Burst-staging every subtree once per run (bandwidth bytes).
        stage_bytes = layout.total_slots * 8
        return PipelineTimer(spec).time(
            work_items=work_items,
            ii=derive_ii(cls.II_CHAIN, spec),
            replication=replication,
            random_accesses_per_item=0.0,
            stream_bytes_per_item=stage_bytes / max(1, work_items),
            extra_stall_cycles_per_item=serial_per_item,
            launches=layout.n_subtrees,
        )
