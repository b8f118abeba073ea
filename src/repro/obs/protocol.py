"""The typed observer protocol: every hook, named once, no-op by default.

Before this module the runtime, guard and front door dispatched their
observability hooks through string ``hasattr`` checks — a typo'd hook name
silently disabled observability (source rule OBS002 in
``tests/test_source_rules.py`` now flags that pattern).  The contract lives
here instead:

* :class:`Observer` is the no-op base defining the full hook surface;
  subclass it (as :class:`repro.obs.ObsSession` does) and override what
  you need.
* :func:`ensure_observer` adapts *anything* to that surface once, at a
  component boundary: ``None`` becomes the shared no-op, a complete
  observer passes through untouched, and a partial duck-typed observer
  (e.g. a test double with only ``on_response``) is wrapped so missing
  hooks no-op instead of raising.

The module is dependency-free on purpose — serving, runtime and
reliability all import it without dragging in the exporters.
"""

from __future__ import annotations


class Observer:
    """No-op base implementing the full observability hook surface.

    Hook arguments are positional and stable; see
    :class:`repro.obs.ObsSession` for the reference implementation that
    turns them into metrics and trace spans.
    """

    # -- kernels / transfers -------------------------------------------
    def on_gpu_kernel(self, kernel, result, grid=None) -> None:
        """One simulated GPU kernel launch completed."""

    def on_fpga_kernel(self, kernel, result, replication) -> None:
        """One simulated FPGA kernel launch completed."""

    def on_transfer(self, direction, seconds, nbytes=None) -> None:
        """One simulated PCIe transfer completed."""

    # -- runtime --------------------------------------------------------
    def on_plan(self, plan) -> None:
        """The planner chose an :class:`ExecutionPlan`."""

    def on_fastpath(self, plan, stats, seconds) -> None:
        """One trace-off fast-path launch completed."""

    # -- reliability guard ---------------------------------------------
    def on_rung_attempt(self, plan, attempt, retries) -> None:
        """The guard is attempting one ladder rung (``attempt`` 0-based)."""

    def on_guarded_call(self, result, report) -> None:
        """One guarded call finished with its reliability accounting."""

    # -- serving front door --------------------------------------------
    def on_request_admitted(self, request) -> None:
        """One request passed admission and entered the queue."""

    def on_batch_start(self, ctx, batch_id, members, start_s) -> None:
        """A micro-batch is about to execute (``ctx`` may be None)."""

    def on_serving_batch(self, rows, seconds, platform, hedged) -> None:
        """A micro-batch finished executing."""

    def on_response(self, response) -> None:
        """One request reached its terminal :class:`Response`."""

    def on_queue_depth(self, depth) -> None:
        """The front-door queue depth changed."""


#: Every hook name, derived from the base class so the list cannot drift.
HOOKS = tuple(
    sorted(
        name
        for name in vars(Observer)
        if name.startswith("on_") and callable(getattr(Observer, name))
    )
)

#: Shared no-op instance (``ensure_observer(None)`` returns it).
NULL_OBSERVER = Observer()


class PartialObserver(Observer):
    """Adapter binding a duck-typed observer's present hooks, once.

    Hooks the wrapped object implements are bound as instance attributes
    (no per-call string lookup); everything else inherits the base no-op.
    """

    def __init__(self, inner):
        self.inner = inner
        for name in HOOKS:
            hook = getattr(inner, name, None)
            if callable(hook):
                setattr(self, name, hook)


def ensure_observer(observer) -> Observer:
    """Adapt ``observer`` to the full :class:`Observer` surface.

    ``None`` maps to the shared no-op; an object already implementing
    every hook (e.g. an :class:`Observer` subclass) passes through by
    identity; anything else gets a :class:`PartialObserver` wrapper.
    Call it once at a component boundary, then dispatch hooks directly.
    """
    if observer is None:
        return NULL_OBSERVER
    if isinstance(observer, Observer):
        return observer
    if all(callable(getattr(observer, name, None)) for name in HOOKS):
        return observer
    return PartialObserver(observer)
