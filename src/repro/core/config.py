"""Configuration enums and dataclasses for classification runs."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.fpgasim.replication import Replication
from repro.layout.hierarchical import LayoutParams

#: Execution-mode axis (see docs/architecture.md §11).  ``"model"`` runs the
#: paper's instrumented warp-lockstep kernels so the simulators can count
#: memory transactions; ``"off"`` runs the vectorized serving fast path
#: (:mod:`repro.fastpath`) — same predictions, no per-warp accounting.
TRACE_MODEL = "model"
TRACE_OFF = "off"
TRACE_MODES = (TRACE_MODEL, TRACE_OFF)


class Platform(str, enum.Enum):
    """Target device of a simulated run."""

    GPU = "gpu"
    FPGA = "fpga"


class KernelVariant(str, enum.Enum):
    """The paper's code variants plus the comparators."""

    CSR = "csr"
    INDEPENDENT = "independent"
    COLLABORATIVE = "collaborative"
    HYBRID = "hybrid"
    #: cuML-FIL-style baseline (GPU only).
    CUML = "cuml"
    #: Let the runtime planner pick variant + layout (see ``repro.runtime``).
    AUTO = "auto"

    @classmethod
    def paper_variants(cls):
        """The four variants evaluated on both platforms."""
        return (cls.CSR, cls.INDEPENDENT, cls.COLLABORATIVE, cls.HYBRID)


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to time one classification run.

    Attributes
    ----------
    platform, variant:
        Where and how to run.
    layout:
        Hierarchical layout parameters (ignored for CSR / cuML variants).
    replication:
        FPGA CU/SLR replication (ignored on GPU).
    trace:
        Execution mode (:data:`TRACE_MODEL` or :data:`TRACE_OFF`).
        ``"model"`` (default, the historical behaviour) executes the
        instrumented transaction-counting kernels; ``"off"`` executes the
        vectorized :mod:`repro.fastpath` traversal — bit-identical
        predictions, serving-grade speed, no device counters.
    precision:
        Layout codec on the precision axis
        (:data:`repro.layout.codec.PRECISIONS`); ``"float32"`` is the
        historical identity.  The cuML baseline models a fixed 16-byte
        node record and has no quantized form.
    memory_budget_bytes:
        Optional device-memory ceiling for ``variant="auto"``: the
        autotuner only considers plans whose footprint fits it (the served
        edge table under ``trace="off"``; under ``trace="model"`` the
        layout's arrays, enumerating quantized codecs to get under it).
        ``None`` (default) keeps the historical float32-only space.
    """

    platform: Platform = Platform.GPU
    variant: KernelVariant = KernelVariant.HYBRID
    layout: LayoutParams = field(default_factory=LayoutParams)
    replication: Replication = field(default_factory=Replication)
    trace: str = TRACE_MODEL
    precision: str = "float32"
    memory_budget_bytes: Optional[int] = None

    def __post_init__(self):
        platform = Platform(self.platform)
        variant = KernelVariant(self.variant)
        object.__setattr__(self, "platform", platform)
        object.__setattr__(self, "variant", variant)
        if platform is Platform.FPGA and variant is KernelVariant.CUML:
            raise ValueError("the cuML baseline exists only on GPU")
        if self.trace not in TRACE_MODES:
            raise ValueError(
                f"trace must be one of {TRACE_MODES}, got {self.trace!r}"
            )
        from repro.layout.codec import PRECISIONS

        if self.precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {PRECISIONS}, "
                f"got {self.precision!r}"
            )
        if variant is KernelVariant.CUML and self.precision != "float32":
            raise ValueError(
                "the cuML baseline models a fixed 16-byte node record; "
                "precision applies to the paper's layouts only"
            )
        if self.memory_budget_bytes is not None:
            budget = int(self.memory_budget_bytes)
            if budget <= 0:
                raise ValueError(
                    f"memory_budget_bytes must be positive, got {budget}"
                )
            object.__setattr__(self, "memory_budget_bytes", budget)

    @property
    def label(self) -> str:
        """Short human-readable description."""
        if self.variant is KernelVariant.AUTO:
            return f"{self.platform.value}-auto"
        parts = [self.platform.value, self.variant.value]
        if self.variant not in (KernelVariant.CSR, KernelVariant.CUML):
            parts.append(f"SD{self.layout.sd}")
            if self.layout.rsd != self.layout.sd:
                parts.append(f"RSD{self.layout.rsd}")
        if self.platform is Platform.FPGA and self.replication.total_cus > 1:
            parts.append(self.replication.label)
        if self.precision != "float32":
            parts.append(self.precision)
        if self.trace == TRACE_OFF:
            parts.append("serve")
        return "-".join(parts)
