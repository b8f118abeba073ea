"""Seeded, deterministic fault injection for reliability testing.

A :class:`FaultPlan` is the single source of every injected failure, driven
by one ``numpy`` generator so a fixed seed reproduces the exact same fault
sequence — corrupted trees, failed launches, hangs — run after run.  Three
fault families are covered:

* **Buffer corruption** — :meth:`FaultPlan.corrupt_layout` flips one random
  bit inside a randomly chosen buffer region of each afflicted tree of a
  ``HierarchicalForest`` / ``CSRForest`` (in place, exactly what a DMA error
  or bad DIMM does to a device-resident forest), and one bit of the same
  tree in the edge table lowered from it, which ``trace="off"`` plans
  execute instead.
* **Cache-file corruption** — :meth:`FaultPlan.corrupt_file` flips bytes in,
  or truncates, a cached ``.npz`` forest so ``load_forest`` must turn the
  damage into a clear :class:`~repro.forest.io.ForestIntegrityError`.
* **Launch faults** — :meth:`FaultPlan.launch_gate` is called by the kernel
  bases at launch time and either raises :class:`TransientKernelError`
  (launch failed, retryable) or returns a simulated-seconds hang penalty
  that pushes the run past any reasonable deadline.

The injector never sleeps and never uses wall-clock entropy; hangs are
modelled as simulated seconds so the whole reliability test surface stays
fast and bit-deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.reliability.integrity import _region_table, _tree_regions
from repro.utils.validation import check_in_range
from repro.utils.rng import as_rng


def _flip(arr: np.ndarray, lo: int, pos: int, bit: int) -> None:
    """XOR ``bit`` of byte ``pos`` of the slice ``arr[lo:]``, in place."""
    arr[lo:].view(np.uint8)[pos] ^= np.uint8(1 << bit)


def _flip_tree(image, regions, tree: int, offset: int, bit: int) -> str:
    """Flip ``bit`` of byte ``offset`` of ``tree``'s regions of ``image``,
    counted across those regions in order (modulo their total size)."""
    spans = _tree_regions(regions, tree)
    sizes = [(hi - lo) * getattr(image, name).itemsize for name, lo, hi in spans]
    offset %= sum(sizes)
    k = int(np.searchsorted(np.cumsum(sizes), offset, side="right"))
    name, lo, _ = spans[k]
    pos = offset - sum(sizes[:k])
    _flip(getattr(image, name), lo, pos, bit)
    return f"edges.{name} byte {lo * getattr(image, name).itemsize + pos} bit {bit}"


class TransientKernelError(RuntimeError):
    """A simulated kernel launch failed transiently (retry may succeed)."""


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for post-hoc accounting in tests and sweeps."""

    kind: str  # "bitflip" | "file" | "launch-fail" | "launch-hang"
    target: str
    detail: str = ""


@dataclass
class FaultPlan:
    """Deterministic schedule of injected faults.

    Parameters
    ----------
    seed:
        Seeds the single generator behind every random draw.
    tree_corruption_rate:
        Per-tree probability that :meth:`corrupt_layout` flips a bit in one
        of that tree's buffer regions.
    launch_fail_rate, launch_hang_rate:
        Per-launch probabilities drawn by :meth:`launch_gate`.
    hang_seconds:
        Simulated seconds a hanging launch adds (chosen to overrun any
        per-call deadline by orders of magnitude).
    """

    seed: int = 0
    tree_corruption_rate: float = 0.0
    launch_fail_rate: float = 0.0
    launch_hang_rate: float = 0.0
    hang_seconds: float = 60.0
    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self):
        check_in_range(self.tree_corruption_rate, "tree_corruption_rate", 0, 1)
        check_in_range(self.launch_fail_rate, "launch_fail_rate", 0, 1)
        check_in_range(self.launch_hang_rate, "launch_hang_rate", 0, 1)
        if self.launch_fail_rate + self.launch_hang_rate > 1:
            raise ValueError("launch fail + hang rates must not exceed 1")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")
        self._rng = as_rng(self.seed)

    # ------------------------------------------------------------------
    # Buffer corruption
    # ------------------------------------------------------------------
    def corrupt_layout(
        self, layout, rate: Optional[float] = None
    ) -> Tuple[int, ...]:
        """Flip one bit in each afflicted tree's buffers; returns their ids.

        Each tree is hit independently with probability ``rate`` (default
        ``tree_corruption_rate``).  The flipped bit lands in a random
        non-empty ``(array, element, bit)`` of the tree's own layout
        regions, so per-tree checksums localise the damage exactly.  The
        same tree's regions of the lowered edge table
        (``layout._fastpath_edges``, when there is one) get one flip too:
        the same bit, at the same byte offset into the tree's table bytes
        as into its layout bytes.  That takes no draw of its own, so
        trace-model runs replay unchanged, and two different layout flips
        of one tree never cancel in the table (a tree's table bytes
        outnumber its layout bytes).
        """
        rate = self.tree_corruption_rate if rate is None else rate
        check_in_range(rate, "rate", 0.0, 1.0)
        table = getattr(layout, "_fastpath_edges", None)
        layout_regions = _region_table(layout)
        corrupted = []
        for t in range(layout.n_trees):
            if self._rng.random() >= rate:
                continue
            regions = _tree_regions(layout_regions, t)
            if not regions:  # pragma: no cover - every tree has nodes
                continue
            k = int(self._rng.integers(len(regions)))
            name, lo, hi = regions[k]
            arr = getattr(layout, name)
            pos = int(self._rng.integers((hi - lo) * arr.itemsize))
            bit = int(self._rng.integers(8))
            offset = pos + sum(
                (b - a) * getattr(layout, n).itemsize for n, a, b in regions[:k]
            )
            detail = f"byte {lo * arr.itemsize + pos} bit {bit}"
            _flip(arr, lo, pos, bit)
            if table is not None:
                detail += "; " + _flip_tree(
                    table, layout._fastpath_integrity.regions, t, offset, bit
                )
            corrupted.append(t)
            self.events.append(
                FaultEvent(kind="bitflip", target=f"tree{t}/{name}", detail=detail)
            )
        return tuple(corrupted)

    # ------------------------------------------------------------------
    # Cache-file corruption
    # ------------------------------------------------------------------
    def corrupt_file(self, path: str, mode: str = "flip", n_bytes: int = 4) -> None:
        """Damage an on-disk forest cache file in place.

        ``mode="flip"`` XOR-flips ``n_bytes`` random bytes (zip/zlib CRC or
        our array checksums must catch it); ``mode="truncate"`` cuts the
        file roughly in half (the classic interrupted-write artefact).
        """
        size = os.path.getsize(path)
        if size == 0:
            raise ValueError(f"{path!r} is empty; nothing to corrupt")
        if mode == "truncate":
            with open(path, "r+b") as f:
                f.truncate(max(1, size // 2))
            self.events.append(
                FaultEvent(kind="file", target=path, detail="truncated")
            )
        elif mode == "flip":
            with open(path, "r+b") as f:
                for _ in range(n_bytes):
                    pos = int(self._rng.integers(size))
                    f.seek(pos)
                    byte = f.read(1)
                    f.seek(pos)
                    f.write(bytes([byte[0] ^ (1 << int(self._rng.integers(8)))]))
            self.events.append(
                FaultEvent(kind="file", target=path, detail=f"{n_bytes} byte flips")
            )
        else:
            raise ValueError(f"unknown corruption mode {mode!r}")

    # ------------------------------------------------------------------
    # Launch faults
    # ------------------------------------------------------------------
    def next_launch_fault(self) -> Optional[str]:
        """Draw the fate of the next kernel launch (deterministic sequence)."""
        u = self._rng.random()
        if u < self.launch_fail_rate:
            return "fail"
        if u < self.launch_fail_rate + self.launch_hang_rate:
            return "hang"
        return None

    def launch_gate(self) -> float:
        """Kernel-launch hook: raise on failure, return hang penalty seconds.

        Wired into ``GPUKernel.run`` / ``FPGAKernel.run`` via their
        ``launch_gate`` parameter (the guarded classifier does this).
        """
        kind = self.next_launch_fault()
        if kind == "fail":
            self.events.append(
                FaultEvent(kind="launch-fail", target="kernel")
            )
            raise TransientKernelError("injected transient launch failure")
        if kind == "hang":
            self.events.append(
                FaultEvent(
                    kind="launch-hang",
                    target="kernel",
                    detail=f"+{self.hang_seconds}s",
                )
            )
            return self.hang_seconds
        return 0.0
