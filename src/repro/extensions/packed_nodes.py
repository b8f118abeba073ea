"""Packed 48-bit node attributes (paper §3.2: "48 bits to store a node's
attributes").

The collaborative kernel's shared-memory capacity formula in the paper,
``s = log2(M/48)``, assumes node attributes packed into 48 bits: a 16-bit
feature id plus a 32-bit value.  The default kernels model the plain 32+32
layout of Fig. 3; this variant narrows the feature-id array to 16 bits
(``FEATURE_BYTES = 2`` beside the 4-byte value), which halves its
transaction footprint and squeezes ~1.3x more nodes into any cache line.
The paper's 48-bit node lives here, in the kernels' address model, and
not in :mod:`repro.layout.footprint`, whose byte totals follow the
layout's codec.
"""

from __future__ import annotations

from repro.kernels.gpu_hybrid import GPUHybridKernel
from repro.kernels.gpu_independent import GPUIndependentKernel


class GPUPackedIndependentKernel(GPUIndependentKernel):
    """Independent kernel over 48-bit packed node attributes."""

    name = "gpu-independent-packed"
    FEATURE_BYTES = 2


class GPUPackedHybridKernel(GPUHybridKernel):
    """Hybrid kernel over 48-bit packed node attributes."""

    name = "gpu-hybrid-packed"
    FEATURE_BYTES = 2
