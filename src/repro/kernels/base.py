"""Common infrastructure for the simulated GPU kernels.

:class:`AddressSpace` assigns each device array a disjoint, 128-byte-aligned
byte range so kernels can turn (array, index) pairs into global addresses —
the coalescing model operates on those addresses exactly as the hardware
would.  :class:`GPUKernel` provides the run loop shared by all variants:
majority-vote accumulation across trees, metrics/timing assembly, and the
correctness contract (``run`` returns real predictions).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

import numpy as np

from repro.gpusim.device import GPUSpec, TITAN_XP
from repro.gpusim.engine import WarpGrid
from repro.gpusim.memory import CoalescingTracker
from repro.gpusim.metrics import KernelMetrics
from repro.gpusim.timing import KernelTiming, TimingModel
from repro.utils.validation import check_array_2d


class AddressSpace:
    """Sequential 128-byte-aligned allocator of device byte ranges."""

    def __init__(self, alignment: int = 128):
        self.alignment = alignment
        self._cursor = 0
        self._regions: Dict[str, tuple] = {}

    def alloc(self, name: str, n_elements: int, element_bytes: int) -> int:
        """Reserve a region; returns its base byte address."""
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        base = self._cursor
        nbytes = int(n_elements) * int(element_bytes)
        self._cursor += -(-nbytes // self.alignment) * self.alignment
        self._regions[name] = (base, element_bytes)
        return base

    def addr(self, name: str, index: np.ndarray) -> np.ndarray:
        """Byte addresses of ``index`` elements within region ``name``."""
        base, ebytes = self._regions[name]
        return base + np.asarray(index, dtype=np.int64) * ebytes


@dataclass
class GPUKernelResult:
    """Outcome of one simulated kernel run."""

    #: Majority-vote class per query (must equal the CPU reference).
    predictions: np.ndarray
    #: Per-class vote counts.
    votes: np.ndarray
    metrics: KernelMetrics
    timing: KernelTiming
    #: Per-load-site statistics (one entry per device array the kernel
    #: read), for nvprof-style reports — see repro.analysis.profiler.
    site_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.timing.seconds

    def summary(self) -> Dict[str, float]:
        out = {"seconds": self.timing.seconds, "bound_by": self.timing.bound_by}
        out.update(self.metrics.as_dict())
        return out


class GPUKernel(ABC):
    """Base class for simulated GPU RF-classification kernels.

    Subclasses implement :meth:`_run` over their layout type; the public
    :meth:`run` validates inputs, assembles metrics and timing, and returns a
    :class:`GPUKernelResult` whose predictions are the actual majority votes.
    """

    #: Human-readable variant name (used in reports).
    name: str = "base"

    def __init__(
        self,
        spec: GPUSpec = TITAN_XP,
        timing_model: Optional[TimingModel] = None,
        record_trace: bool = False,
        launch_gate: Optional[Callable[[], float]] = None,
        observer=None,
    ):
        self.spec = spec
        self.timing_model = timing_model or TimingModel(spec)
        self.record_trace = bool(record_trace)
        #: Called at launch; may raise (failed launch) or return simulated
        #: hang seconds.  Wired up by the reliability guard / fault plans.
        self.launch_gate = launch_gate
        #: Observability sink (duck-typed, e.g. repro.obs.ObsSession); its
        #: ``on_gpu_kernel(kernel, result, grid)`` fires after each run.
        self.observer = observer
        #: TraceLog of the most recent run (when record_trace is set).
        self.trace = None

    # ------------------------------------------------------------------
    def run(self, layout, X: np.ndarray) -> GPUKernelResult:
        """Classify ``X`` against ``layout``, accumulating counters."""
        X = check_array_2d(X, "X")
        hang_s = 0.0
        if self.launch_gate is not None:
            hang_s = float(self.launch_gate() or 0.0)
        metrics = KernelMetrics(launches=1)
        if self.record_trace:
            from repro.gpusim.trace import TraceLog

            self.trace = metrics.trace = TraceLog()
        grid = WarpGrid(X.shape[0], self.spec)
        votes = np.zeros((X.shape[0], layout.n_classes), dtype=np.int64)
        self._site_trackers = {}
        self._run(layout, X, grid, metrics, votes)
        timing = self.timing_model.time(metrics)
        timing = self._finalize_timing(timing, grid, metrics)
        if hang_s > 0.0:
            timing = replace(timing, seconds=timing.seconds + hang_s)
        site_stats = {
            name: {
                "requests": tr.requests,
                "transactions": tr.transactions,
                "cold_transactions": tr.cold_transactions,
                "footprint_bytes": tr.footprint_bytes,
                "issue_cost": tr.issue_cost,
                "l1_resident": tr.l1_resident,
                "l1_hit_rate": tr.l1_hit_rate,
            }
            for name, tr in self._site_trackers.items()
        }
        result = GPUKernelResult(
            predictions=votes.argmax(axis=1),
            votes=votes,
            metrics=metrics,
            timing=timing,
            site_stats=site_stats,
        )
        if self.observer is not None:
            self.observer.on_gpu_kernel(self, result, grid)
        return result

    def _finalize_timing(self, timing, grid, metrics):
        """Hook for kernels with costs outside the counter roofline (e.g.
        the collaborative kernel's block-serial critical path)."""
        return timing

    def _register_sites(self, trackers) -> None:
        """Record load-site trackers so run() can export their stats."""
        if isinstance(trackers, dict):
            self._site_trackers.update(trackers)
        else:
            for tr in trackers:
                self._site_trackers[tr.name] = tr

    @abstractmethod
    def _run(
        self,
        layout,
        X: np.ndarray,
        grid: WarpGrid,
        metrics: KernelMetrics,
        votes: np.ndarray,
    ) -> None:
        """Traverse every tree for every query, updating counters/votes."""

    # ------------------------------------------------------------------
    def _query_addresses(
        self,
        space: AddressSpace,
        features: np.ndarray,
        query_idx: np.ndarray,
        n_features: int,
    ) -> np.ndarray:
        """Byte addresses of ``X[q, f]`` loads (row-major query matrix)."""
        return space.addr("X", query_idx * np.int64(n_features) + features)
