"""Whole-program view for the interprocedural rules: modules, call graph.

A :class:`Project` is the parsed closure of every file a run checks.  It
gives the rules that follow helper calls (KRN003, SRV001) two things a
single file cannot:

* **module resolution** — which project module a ``repro.x.y`` import
  resolves to;
* **function call graph** — every ``def`` in the project keyed by
  ``(module key, qualname)``, with call expressions resolved through the
  per-file alias tables (bare names, ``from mod import f`` names,
  ``mod.helper`` attribute calls and same-class ``self.method`` calls).

Projects are cheap: construction only parses and indexes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.statcheck.astutils import build_alias_map, dotted_name

#: Hard cap on call-chain depth when following helper calls; real helper
#: chains in this repo are 2-4 deep, the cap only guards pathological
#: recursion in fixture inputs.
MAX_CALL_DEPTH = 16


@dataclass
class FunctionInfo:
    """One ``def`` (function or method) somewhere in the project."""

    module: "ModuleInfo"
    qualname: str  # "helper" or "Class.method"
    node: ast.AST  # FunctionDef | AsyncFunctionDef

    @property
    def key(self) -> Tuple[str, str]:
        return (self.module.key, self.qualname)


@dataclass
class ModuleInfo:
    """One parsed file plus its local name-resolution tables."""

    key: str  # module key, e.g. "repro/fastpath/engine.py"
    path: str  # path as reported (may be a virtual path)
    tree: ast.Module
    lines: List[str]
    aliases: Dict[str, str] = field(default_factory=dict)
    #: qualname -> FunctionInfo for every def in the module.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def dotted(self) -> str:
        """Dotted module name for the key (``repro.fastpath.engine``)."""
        stem = self.key[:-3] if self.key.endswith(".py") else self.key
        if stem.endswith("/__init__"):
            stem = stem[: -len("/__init__")]
        return stem.replace("/", ".")


def _index_functions(mod: ModuleInfo) -> None:
    """Fill ``mod.functions`` with qualified names (one class level deep)."""

    def visit(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                # First definition wins (overloads/redefs are rare and the
                # first is the one textual callers see).
                mod.functions.setdefault(
                    qual, FunctionInfo(module=mod, qualname=qual, node=node)
                )
                visit(node.body, f"{qual}.")
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")

    visit(mod.tree.body, "")


class Project:
    """Parsed closure of the files under analysis."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}  # key -> ModuleInfo
        self._by_dotted: Dict[str, ModuleInfo] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_source(self, source: str, path: str, key: str) -> Optional[ModuleInfo]:
        """Parse and index one file; returns None if it does not parse."""
        try:
            tree = ast.parse(source)
        except SyntaxError:
            return None
        mod = ModuleInfo(
            key=key,
            path=path,
            tree=tree,
            lines=source.splitlines(),
            aliases=build_alias_map(tree),
        )
        _index_functions(mod)
        self.modules[key] = mod
        self._by_dotted[mod.dotted] = mod
        return mod

    # ------------------------------------------------------------------
    # Module resolution
    # ------------------------------------------------------------------
    def module_for_dotted(self, dotted: str) -> Optional[ModuleInfo]:
        mod = self._by_dotted.get(dotted)
        if mod is not None:
            return mod
        # ``repro.fastpath`` may resolve to the package __init__.
        return self._by_dotted.get(f"{dotted}.__init__")

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def resolve_call(
        self, call: ast.Call, mod: ModuleInfo, enclosing: Optional[FunctionInfo] = None
    ) -> Optional[FunctionInfo]:
        """Resolve a call expression to a project function, if it is one.

        Handles, in order: bare names defined in (or imported into) the
        module, ``self.method()`` within the enclosing class, and dotted
        ``alias.attr`` calls where the alias resolves to a project module.
        """
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in mod.functions:
                return mod.functions[name]
            target = mod.aliases.get(name)
            if target and "." in target:
                owner, _, attr = target.rpartition(".")
                owner_mod = self.module_for_dotted(owner)
                if owner_mod is not None:
                    return owner_mod.functions.get(attr)
            return None
        if isinstance(func, ast.Attribute):
            # self.method() / cls.method(): look up within the enclosing class.
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and enclosing is not None
                and "." in enclosing.qualname
            ):
                cls_prefix = enclosing.qualname.rsplit(".", 1)[0]
                hit = mod.functions.get(f"{cls_prefix}.{func.attr}")
                if hit is not None:
                    return hit
            dotted = dotted_name(func.value)
            if dotted is not None:
                head, _, rest = dotted.partition(".")
                head = mod.aliases.get(head, head)
                owner = f"{head}.{rest}" if rest else head
                owner_mod = self.module_for_dotted(owner)
                if owner_mod is not None:
                    return owner_mod.functions.get(func.attr)
        return None


def single_file_project(source: str, path: str, key: str) -> Project:
    """Project containing exactly one module (per-file fallback)."""
    project = Project()
    project.add_source(source, path, key)
    return project
