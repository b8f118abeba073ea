"""The paper's RF classification code variants (§3.2), GPU and FPGA.

GPU kernels (simulated on :mod:`repro.gpusim`):

* :class:`GPUCSRKernel` — baseline CSR traversal (one thread per query).
* :class:`GPUIndependentKernel` — hierarchical layout, per-thread traversal.
* :class:`GPUCollaborativeKernel` — subtree batches staged in shared memory,
  all queries pushed through every subtree (the paper keeps it for analysis;
  it is 10-20x slower than independent).
* :class:`GPUHybridKernel` — root subtree staged in shared memory (stage 1),
  independent traversal below (stage 2); the paper's best GPU variant.

FPGA kernels (simulated on :mod:`repro.fpgasim`): the same four variants as
pipeline cost models with the paper's initiation intervals.

Every kernel executes *functionally*: it really classifies the queries, and
tests assert the predictions equal the CPU reference, so the performance
counters are derived from genuine traversal traces.  The traversal is one
walk of the fastpath core (:mod:`repro.fastpath`) over the layout's
current buffers (:mod:`repro.kernels.traversal_stats`): the FPGA kernels
price its per-level lane counts, and the GPU CSR, independent and hybrid
kernels (and the cuML-FIL baseline) derive every address, crossing and
branch from the slot each query visits on each level, one tree at a time.
The collaborative kernel keeps its block-serial step loop and records one
level per call.
"""

from importlib import import_module
from typing import Dict, List, Tuple, Union

from repro.kernels.base import GPUKernel, GPUKernelResult, AddressSpace
from repro.kernels.gpu_csr import GPUCSRKernel
from repro.kernels.gpu_independent import GPUIndependentKernel
from repro.kernels.gpu_collaborative import GPUCollaborativeKernel
from repro.kernels.gpu_hybrid import GPUHybridKernel
from repro.kernels.fpga_csr import FPGACSRKernel
from repro.kernels.fpga_independent import FPGAIndependentKernel
from repro.kernels.fpga_collaborative import FPGACollaborativeKernel
from repro.kernels.fpga_hybrid import FPGAHybridKernel

#: The single declarative (platform, variant) -> kernel-class registry.
#:
#: Backends (:mod:`repro.runtime.backends`) and the planner
#: (:mod:`repro.runtime.planner`) both consume this mapping, so a new
#: kernel registers in exactly one place.  Values are either a kernel
#: class or an ``"importable.module:ClassName"`` string resolved lazily on
#: first use — the cuML baseline lives in :mod:`repro.baselines.cuml_fil`,
#: which itself imports :mod:`repro.kernels.base`, and a lazy entry keeps
#: that edge from becoming an import cycle.
KERNEL_REGISTRY: Dict[Tuple[str, str], Union[type, str]] = {
    ("gpu", "csr"): GPUCSRKernel,
    ("gpu", "independent"): GPUIndependentKernel,
    ("gpu", "collaborative"): GPUCollaborativeKernel,
    ("gpu", "hybrid"): GPUHybridKernel,
    ("gpu", "cuml"): "repro.baselines.cuml_fil:CuMLFILKernel",
    ("fpga", "csr"): FPGACSRKernel,
    ("fpga", "independent"): FPGAIndependentKernel,
    ("fpga", "collaborative"): FPGACollaborativeKernel,
    ("fpga", "hybrid"): FPGAHybridKernel,
}


def _key(platform, variant) -> Tuple[str, str]:
    """Normalise enum members or plain strings into a registry key."""
    return (
        str(getattr(platform, "value", platform)),
        str(getattr(variant, "value", variant)),
    )


def registered_pairs() -> List[Tuple[str, str]]:
    """Sorted (platform, variant) pairs that have a kernel."""
    return sorted(KERNEL_REGISTRY)


def has_kernel(platform, variant) -> bool:
    return _key(platform, variant) in KERNEL_REGISTRY


def kernel_for(platform, variant) -> type:
    """Resolve the kernel class for ``(platform, variant)``.

    Accepts :class:`~repro.core.config.Platform` /
    :class:`~repro.core.config.KernelVariant` members or their string
    values.  Raises :class:`KeyError` listing the valid pairs when the
    combination has no kernel (the runtime layer wraps this into a
    :class:`~repro.runtime.plan.PlanError`).
    """
    key = _key(platform, variant)
    try:
        entry = KERNEL_REGISTRY[key]
    except KeyError:
        pairs = ", ".join(f"{p}/{v}" for p, v in registered_pairs())
        raise KeyError(
            f"no kernel registered for platform={key[0]!r} "
            f"variant={key[1]!r}; valid combinations: {pairs}"
        ) from None
    if isinstance(entry, str):
        module, _, name = entry.partition(":")
        entry = getattr(import_module(module), name)
        KERNEL_REGISTRY[key] = entry
    return entry


__all__ = [
    "GPUKernel",
    "GPUKernelResult",
    "AddressSpace",
    "GPUCSRKernel",
    "GPUIndependentKernel",
    "GPUCollaborativeKernel",
    "GPUHybridKernel",
    "FPGACSRKernel",
    "FPGAIndependentKernel",
    "FPGACollaborativeKernel",
    "FPGAHybridKernel",
    "KERNEL_REGISTRY",
    "kernel_for",
    "has_kernel",
    "registered_pairs",
]
