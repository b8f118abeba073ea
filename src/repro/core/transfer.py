"""Host-to-device transfer accounting.

The paper times kernels only — both its platforms keep the forest resident
in device memory and stream queries in ("data transferred from the host CPU
to the FPGA are stored in the FPGA's external memory", §2.2).  A deployment
nevertheless pays the uploads, so the classifier API can optionally include
them: one-time layout upload (amortisable across query batches) plus the
per-batch query upload and prediction download over PCIe.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.layout.footprint import csr_bytes, hierarchical_bytes
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class TransferModel:
    """PCIe-style link model (defaults: Gen3 x16, the paper's era)."""

    #: Achievable host->device bandwidth, bytes/second.
    bandwidth: float = 12.0e9
    #: Per-transfer fixed latency (DMA setup, driver), seconds.
    latency_s: float = 10e-6

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")

    def seconds(self, n_bytes: int) -> float:
        """Time to move ``n_bytes`` in one transfer."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        return self.latency_s + n_bytes / self.bandwidth

    # ------------------------------------------------------------------
    def layout_bytes(self, layout) -> int:
        """Device bytes of a forest layout (any of the three formats).

        CSR and hierarchical layouts upload their codec's device arrays,
        the same bytes the cost model and Fig. 6 charge.
        """
        from repro.baselines.cuml_fil import FILForest
        from repro.layout.csr import CSRForest
        from repro.layout.hierarchical import HierarchicalForest

        if isinstance(layout, CSRForest):
            return csr_bytes(layout)
        if isinstance(layout, HierarchicalForest):
            return hierarchical_bytes(layout)
        if isinstance(layout, FILForest):
            return layout.total_nodes * layout.NODE_BYTES
        raise TypeError(f"unknown layout type {type(layout).__name__}")

    def upload_layout_seconds(self, layout) -> float:
        """One-time forest upload (amortised across batches in practice)."""
        return self.seconds(self.layout_bytes(layout))

    def query_roundtrip_seconds(self, n_queries: int, n_features: int) -> float:
        """Per-batch query upload + prediction download."""
        check_positive_int(n_queries, "n_queries")
        check_positive_int(n_features, "n_features")
        up = self.seconds(n_queries * n_features * 4)
        down = self.seconds(n_queries * 8)
        return up + down
