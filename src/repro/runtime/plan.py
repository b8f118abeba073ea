"""ExecutionPlan: the serializable contract between planner and backends.

A plan pins down *everything* the runtime needs to execute one
classification — platform, code variant, hierarchical layout parameters,
FPGA CU/SLR replication, codec and execution mode — so a run is
replayable byte-for-byte from the JSON form alone (same forest, same
queries, same seconds).  One plan always executes as one backend launch
over the whole query matrix; serving splits traffic upstream, in
:class:`repro.serving.batching.MicroBatcher`.  Plans are produced by
:func:`repro.runtime.planner.compile_plan` (explicit configs) or by the
:class:`repro.runtime.planner.Planner` autotuner, and consumed by
:class:`repro.runtime.session.RuntimeSession`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.config import (
    TRACE_MODEL,
    TRACE_MODES,
    TRACE_OFF,
    KernelVariant,
    Platform,
    RunConfig,
)
from repro.fpgasim.replication import Replication
from repro.kernels import has_kernel, registered_pairs
from repro.layout.hierarchical import LayoutParams

#: Pseudo-platform used by the reliability ladder's last rung: the host CPU
#: reference oracle.  It is not in the kernel registry (there is no device
#: model behind it) — :class:`repro.runtime.backends.CPUBackend` serves it.
CPU_PLATFORM = "cpu"


class PlanError(ValueError):
    """Raised for a (platform, variant) pair that has no kernel."""


def valid_pairs_message() -> str:
    pairs = ", ".join(f"{p}/{v}" for p, v in registered_pairs())
    return f"valid (platform, variant) combinations: {pairs}; plus cpu/* (reference oracle)"


def check_pair(platform: str, variant: str) -> None:
    """Raise :class:`PlanError` unless the pair resolves to an executor."""
    if platform == CPU_PLATFORM:
        return  # the CPU oracle runs any variant's semantics (plain traversal)
    if not has_kernel(platform, variant):
        raise PlanError(
            f"no kernel registered for platform={platform!r} variant={variant!r}; "
            + valid_pairs_message()
        )


@dataclass(frozen=True)
class ExecutionPlan:
    """One fully-resolved way to run a classification.

    ``platform`` / ``variant`` are plain strings (enum *values*) so the
    JSON form is the natural one; :meth:`to_run_config` recovers the enum
    world at the classifier boundary.
    """

    platform: str = Platform.GPU.value
    variant: str = KernelVariant.HYBRID.value
    layout: LayoutParams = field(default_factory=LayoutParams)
    replication: Replication = field(default_factory=Replication)
    #: "explicit" (compiled from a caller's RunConfig), "autotuned"
    #: (trace-model ``variant="auto"``, ranked by the cost model), or
    #: "resolved" (trace-off ``variant="auto"``, picked without tuning).
    source: str = "explicit"
    #: The analytic cost model's estimate, seconds (None for explicit plans).
    cost_estimate_s: Optional[float] = None
    #: Execution mode: :data:`~repro.core.config.TRACE_MODEL` runs the
    #: instrumented transaction-counting kernels, ``"off"`` runs the
    #: vectorized :mod:`repro.fastpath` traversal (same predictions, no
    #: per-warp accounting).  See docs/architecture.md §11.
    trace: str = TRACE_MODEL
    #: Layout codec on the precision axis (see :mod:`repro.layout.codec`
    #: and docs/architecture.md §12); ``"float32"`` is the historical
    #: identity and the default for plans deserialized from older JSON.
    precision: str = "float32"

    def __post_init__(self):
        object.__setattr__(self, "platform", str(getattr(self.platform, "value", self.platform)))
        object.__setattr__(self, "variant", str(getattr(self.variant, "value", self.variant)))
        if not isinstance(self.layout, LayoutParams):
            raise PlanError(f"layout must be LayoutParams, got {type(self.layout).__name__}")
        if not isinstance(self.replication, Replication):
            raise PlanError(
                f"replication must be Replication, got {type(self.replication).__name__}"
            )
        if self.trace not in TRACE_MODES:
            raise PlanError(
                f"trace must be one of {TRACE_MODES}, got {self.trace!r}"
            )
        from repro.layout.codec import PRECISIONS

        if self.precision not in PRECISIONS:
            raise PlanError(
                f"precision must be one of {PRECISIONS}, "
                f"got {self.precision!r}"
            )
        if self.variant == "cuml" and self.precision != "float32":
            raise PlanError(
                "the cuML baseline models a fixed 16-byte node record; "
                "precision applies to the paper's layouts only"
            )
        check_pair(self.platform, self.variant)

    # ------------------------------------------------------------------
    # Labels / config bridge
    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        parts = [self.platform, self.variant]
        if self.platform != CPU_PLATFORM and self.variant not in ("csr", "cuml"):
            parts.append(f"SD{self.layout.sd}")
            if self.layout.rsd != self.layout.sd:
                parts.append(f"RSD{self.layout.rsd}")
        if self.platform == Platform.FPGA.value and self.replication.total_cus > 1:
            parts.append(self.replication.label)
        if self.precision != "float32":
            parts.append(self.precision)
        if self.trace == TRACE_OFF:
            parts.append("serve")
        return "-".join(parts)

    def to_run_config(self) -> RunConfig:
        """The equivalent :class:`RunConfig` (accelerator plans only)."""
        if self.platform == CPU_PLATFORM:
            raise PlanError("the CPU fallback rung has no RunConfig equivalent")
        return RunConfig(
            platform=self.platform,
            variant=self.variant,
            layout=self.layout,
            replication=self.replication,
            trace=self.trace,
            precision=self.precision,
        )

    # ------------------------------------------------------------------
    # Exact JSON round-trip
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "platform": self.platform,
            "variant": self.variant,
            "layout": {
                "subtree_depth": int(self.layout.subtree_depth),
                "root_subtree_depth": (
                    None
                    if self.layout.root_subtree_depth is None
                    else int(self.layout.root_subtree_depth)
                ),
            },
            "replication": {
                "n_slrs": int(self.replication.n_slrs),
                "cus_per_slr": int(self.replication.cus_per_slr),
                "freq_mhz": (
                    None
                    if self.replication.freq_mhz is None
                    else float(self.replication.freq_mhz)
                ),
                "split_stage1": bool(self.replication.split_stage1),
            },
            "source": self.source,
            "cost_estimate_s": self.cost_estimate_s,
            "trace": self.trace,
            "precision": self.precision,
        }

    def to_json(self) -> str:
        """Deterministic JSON: sorted keys, no whitespace variance."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExecutionPlan":
        """Inverse of :meth:`as_dict`; keys it does not name are ignored
        and fields it lacks take their defaults, so plan JSON written
        before a field was added still loads."""
        layout = data.get("layout") or {}
        repl = data.get("replication") or {}
        return cls(
            platform=str(data["platform"]),
            variant=str(data["variant"]),
            layout=LayoutParams(
                subtree_depth=int(layout.get("subtree_depth", 6)),
                root_subtree_depth=(
                    None
                    if layout.get("root_subtree_depth") is None
                    else int(layout["root_subtree_depth"])
                ),
            ),
            replication=Replication(
                n_slrs=int(repl.get("n_slrs", 1)),
                cus_per_slr=int(repl.get("cus_per_slr", 1)),
                freq_mhz=(
                    None if repl.get("freq_mhz") is None else float(repl["freq_mhz"])
                ),
                split_stage1=bool(repl.get("split_stage1", False)),
            ),
            source=str(data.get("source", "explicit")),
            cost_estimate_s=(
                None
                if data.get("cost_estimate_s") is None
                else float(data["cost_estimate_s"])
            ),
            trace=str(data.get("trace", TRACE_MODEL)),
            precision=str(data.get("precision", "float32")),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExecutionPlan":
        return cls.from_dict(json.loads(text))
