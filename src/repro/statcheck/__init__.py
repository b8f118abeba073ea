"""``repro.statcheck`` — repo-specific static analysis for the simulator.

A Python-AST rule engine plus seven rule families that encode the
invariants the reproduction's *performance* conclusions depend on (see
``docs/architecture.md`` § Static checks).  Each file is checked on its
own; invariants that need more than one file's syntax are pinned by
runtime tests instead.

* **DET** (determinism) — all randomness through ``repro.utils.rng``, no
  wall-clock reads, no unordered-set iteration in result-producing code.
* **KRN** (kernel discipline) — shared-memory staging in the simulated GPU
  kernels is fenced by a sync before it is read (static race detection
  over the warp-lockstep DSL).
* **NUM** (numeric safety) — explicit dtypes, checksummed ``.npz``
  persistence.
* **API** (hygiene) — experiments route through ``experiments.common``
  and the runtime seam.
* **OBS** (observability) — experiment entry points write a run manifest;
  observer hooks are not duck-typed through ``hasattr``.
* **PERF** (fastpath) — no Python loops in ``repro/fastpath``.
* **REL** (reliability) — no bare or swallowed catch-all exceptions in
  serving/reliability code.

Run it as ``python -m repro.statcheck src`` (see :mod:`repro.statcheck.cli`).
"""

from repro.statcheck.core import (
    FileContext,
    Rule,
    Violation,
    all_rules,
    check_file,
    check_paths,
    check_source,
    register,
)

__all__ = [
    "FileContext",
    "Rule",
    "Violation",
    "all_rules",
    "check_file",
    "check_paths",
    "check_source",
    "register",
]
