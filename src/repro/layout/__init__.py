"""Forest memory layouts (the paper's §2.3 baseline and §3.1 contribution).

* :class:`~repro.layout.csr.CSRForest` — the Compressed Sparse Row baseline
  of Fig. 2: node attributes indexed by node id plus a ``children_arr`` /
  ``children_arr_idx`` indirection for the topology.
* :class:`~repro.layout.hierarchical.HierarchicalForest` — the paper's
  hierarchical layout of Fig. 3: trees partitioned into complete binary
  subtrees of max depth ``SD`` (root subtree ``RSD``), arithmetic child
  indexing inside subtrees, CSR-style indirection only between subtrees.
* :mod:`~repro.layout.footprint` — byte-exact memory accounting used by the
  Fig. 6 experiment.
* :mod:`~repro.layout.codec` — the precision axis: per-node value codecs
  (float32 / float16 / int8 / packed) every builder accepts via
  ``from_trees(..., codec=...)``.

Both layouts are pure functions of a list of :class:`repro.forest.DecisionTree`
objects and carry enough metadata for byte-exact footprint accounting and for
the simulated kernels to derive memory addresses.
"""

from repro.layout.codec import (
    CodecError,
    NodeCodec,
    PRECISIONS,
    QuantizedValues,
    get_codec,
    quantize_trees,
)
from repro.layout.csr import CSRForest
from repro.layout.hierarchical import HierarchicalForest, LayoutParams
from repro.layout.footprint import (
    csr_bytes,
    csr_device_arrays,
    footprint_ratio,
    hierarchical_bytes,
    hierarchical_device_arrays,
    layout_device_arrays,
)
from repro.layout.verify import VerificationReport, verify_layouts

__all__ = [
    "VerificationReport",
    "verify_layouts",
    "CSRForest",
    "HierarchicalForest",
    "LayoutParams",
    "csr_bytes",
    "csr_device_arrays",
    "hierarchical_bytes",
    "hierarchical_device_arrays",
    "layout_device_arrays",
    "footprint_ratio",
    "CodecError",
    "NodeCodec",
    "PRECISIONS",
    "QuantizedValues",
    "get_codec",
    "quantize_trees",
]
