"""Shared AST helpers for the statcheck rules.

The rules reason about *resolved* dotted names: ``np.random.rand`` is
reported as ``numpy.random.rand`` regardless of how numpy was imported, and
``from time import time`` resolves bare ``time()`` calls to ``time.time``.
Resolution is purely lexical (module-level and function-level imports are
merged into one alias table), which is exactly the fidelity a lint needs.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple


def build_alias_map(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the dotted module/object path they were bound to."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports stay unresolved
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def dotted_name(node: ast.AST) -> Optional[str]:
    """Unresolved dotted path of a Name/Attribute chain (else ``None``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolved_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted path with the leading segment resolved through ``aliases``."""
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    head = aliases.get(head, head)
    return f"{head}.{rest}" if rest else head


def call_name(node: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """Resolved dotted name of a call's callee."""
    return resolved_name(node.func, aliases)


def last_segment(dotted: Optional[str]) -> str:
    return dotted.rsplit(".", 1)[-1] if dotted else ""


def walk_functions(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AST, "ast.FunctionDef | ast.AsyncFunctionDef"]]:
    """Yield ``(parent, function)`` for every def, including methods."""
    parents = {tree: None}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield parents.get(node, tree), node


def has_keyword(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


def statements_in_order(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Flatten a statement list in document order, descending into compound
    statements (loop/branch bodies) but not into nested function defs."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, field, None)
            if inner:
                yield from statements_in_order(inner)
        for handler in getattr(stmt, "handlers", []) or []:
            yield from statements_in_order(handler.body)
