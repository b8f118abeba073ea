"""KRN rule — shared-memory discipline for the warp-lockstep kernel DSL.

The simulated kernels under ``src/repro/kernels/`` are the repo's measuring
instruments: their coalescing/divergence counters *are* the paper's Fig. 8
evidence.  **KRN003** keeps the shared-memory path honest: a cooperative
staging write must be separated from the first shared-memory read by a
block synchronisation (the ``__syncthreads()`` analogue), otherwise the
simulated kernel encodes a read-after-write shared-memory race.

The detector works on DSL markers rather than types: staging writes are
``metrics.bytes_staged_shared`` accumulations, shared reads are
``metrics.shared_load_requests`` accumulations, and syncs are calls whose
name contains ``sync`` (``WarpGrid.record_sync``) or accumulations naming a
``*SYNC*`` cycle constant.  Calls to functions defined in the same module
are inlined recursively (cycle-guarded), so staging/traversal helpers are
followed to any depth.

The other kernel invariants are pinned at run time: untracked layout loads
change the counters that ``tests/test_runtime_session_golden.py`` pins, and
an unmasked lane write changes the predictions that
``tests/test_kernels_gpu.py::TestCorrectness`` checks against the oracle.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.statcheck.astutils import (
    dotted_name,
    last_segment,
    statements_in_order,
    walk_functions,
)
from repro.statcheck.core import FileContext, Rule, Violation, register

KERNEL_PREFIX = ("repro/kernels/",)


# ----------------------------------------------------------------------
# KRN003 — static shared-memory race detection
# ----------------------------------------------------------------------
Event = Tuple[str, int]  # ("write" | "read" | "sync", lineno)


def _function_table(tree: ast.Module) -> Dict[str, ast.AST]:
    table: Dict[str, ast.AST] = {}
    for _parent, fn in walk_functions(tree):
        table[fn.name] = fn
    return table


def _marker_events_of_stmt(stmt: ast.stmt) -> List[Event]:
    """Direct DSL-marker events of one simple statement (no call inlining)."""
    events: List[Event] = []
    if isinstance(stmt, ast.AugAssign):
        text_names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute):
                text_names.add(node.attr)
            elif isinstance(node, ast.Name):
                text_names.add(node.id)
        if "bytes_staged_shared" in text_names:
            events.append(("write", stmt.lineno))
        if "shared_load_requests" in text_names:
            events.append(("read", stmt.lineno))
        if any("SYNC" in n for n in text_names):
            events.append(("sync", stmt.lineno))
    return events


def _calls_of_stmt(stmt: ast.stmt) -> List[ast.Call]:
    """Call nodes of one statement; for compound statements only the header
    expression (test / iter) is scanned so body calls are not double
    counted by the statement walk."""
    if isinstance(stmt, ast.While):
        scan: List[ast.AST] = [stmt.test]
    elif isinstance(stmt, ast.For):
        scan = [stmt.iter]
    elif isinstance(stmt, ast.If):
        scan = [stmt.test]
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scan = []
    else:
        scan = [stmt]
    calls: List[ast.Call] = []
    for root in scan:
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                calls.append(node)
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    return calls


def _events_of_function(
    fn: ast.AST, table: Dict[str, ast.AST], visited: set
) -> List[Event]:
    """Ordered shared-memory events of a function body.

    Calls to same-module functions (looked up by name in ``table``) are
    inlined recursively, so ``_run -> _stage -> _stage_inner`` chains of
    any depth order correctly.  ``visited`` inlines each helper at most
    once, so recursion and mutual calls terminate.
    """
    events: List[Event] = []
    for stmt in statements_in_order(fn.body):
        for call in _calls_of_stmt(stmt):
            name = last_segment(dotted_name(call.func))
            if "sync" in name.lower():
                events.append(("sync", call.lineno))
                continue
            callee = table.get(name)
            if callee is None or id(callee) in visited:
                continue
            visited.add(id(callee))
            callee_events = _events_of_function(callee, table, visited)
            events.extend((kind, call.lineno) for kind, _ in callee_events)
        events.extend(_marker_events_of_stmt(stmt))
    return events


@register
class SharedMemoryRaceRule(Rule):
    id = "KRN003"
    summary = (
        "shared-memory staging writes must be fenced by a block sync "
        "before the first shared-memory read"
    )
    path_prefixes = KERNEL_PREFIX

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        table = _function_table(ctx.tree)
        for _parent, fn in walk_functions(ctx.tree):
            events = _events_of_function(fn, table, {id(fn)})
            pending_write: Optional[int] = None
            for kind, line in events:
                if kind == "write":
                    pending_write = line
                elif kind == "sync":
                    pending_write = None
                elif kind == "read" and pending_write is not None:
                    yield Violation(
                        path=ctx.path,
                        line=line,
                        col=0,
                        rule_id=self.id,
                        message=(
                            f"in {fn.name!r}: shared-memory read at line "
                            f"{line} follows the staging write at line "
                            f"{pending_write} with no intervening block sync "
                            "(record_sync / SYNC_CYCLES) — a read-after-"
                            "write shared-memory race on real hardware"
                        ),
                    )
                    pending_write = None  # one report per unfenced write
