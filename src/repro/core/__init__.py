"""User-facing API tying training, layouts, kernels and devices together.

:class:`~repro.core.classifier.HierarchicalForestClassifier` is the library's
front door: train (or adopt) a random forest, choose a memory layout
(``SD`` / ``RSD``), and classify query batches on a simulated GPU or FPGA
with full performance accounting.  :mod:`~repro.core.config` holds the
configuration dataclasses and :mod:`~repro.core.results` the result
containers shared with the experiment harness.
"""

from repro.core.classifier import HierarchicalForestClassifier
from repro.core.config import KernelVariant, Platform, RunConfig
from repro.core.results import RunResult, ComparisonTable

__all__ = [
    "HierarchicalForestClassifier",
    "KernelVariant",
    "Platform",
    "RunConfig",
    "RunResult",
    "ComparisonTable",
]
