"""Whole-program view for the v2 analyses: modules, imports, call graph.

A :class:`Project` is the parsed closure of every file a run checks.  It
gives the flow-based rules three things the per-file v1 engine could not:

* **module resolution** — which project module a ``repro.x.y`` import
  resolves to;
* **function call graph** — every ``def`` in the project keyed by
  ``(module key, qualname)``, with call expressions resolved through the
  per-file alias tables (bare names, ``from mod import f`` names,
  ``mod.helper`` attribute calls and same-class ``self.method`` calls);
* **summary cache** — memoised per-``(domain, function)`` interprocedural
  summaries (:mod:`repro.statcheck.dataflow`), so a helper analyzed once
  serves every caller.

Projects are cheap: construction only parses and indexes.  All dataflow
work happens lazily when a rule asks for a summary.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.statcheck.astutils import build_alias_map, dotted_name

#: Hard cap on call-chain depth when computing summaries; real helper
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

    @property
    def param_names(self) -> List[str]:
        a = getattr(self.node, "args", None)
        if a is None:  # module-level pseudo-function
            return []
        return [p.arg for p in a.posonlyargs] + [p.arg for p in a.args]


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
    #: Module-level ``NAME = expr`` bindings (last one wins), so constants
    #: like ``DT = np.float64`` resolve inside function bodies.
    constants: Dict[str, ast.expr] = field(default_factory=dict)

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
    for node in mod.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                mod.constants[target.id] = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                mod.constants[node.target.id] = node.value


class Project:
    """Parsed closure of the files under analysis."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}  # key -> ModuleInfo
        self._by_dotted: Dict[str, ModuleInfo] = {}
        #: (domain name, module key, qualname) -> summary object.
        self._summaries: Dict[Tuple[str, str, str], object] = {}
        #: Summary keys currently being computed (cycle guard).
        self._in_flight: Set[Tuple[str, str, str]] = set()

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

    def calls_in(
        self, fn: FunctionInfo
    ) -> Iterator[Tuple[ast.Call, Optional[FunctionInfo]]]:
        """(call node, resolved project callee or None) inside ``fn``."""
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                yield node, self.resolve_call(node, fn.module, enclosing=fn)

    # ------------------------------------------------------------------
    # Summary cache (used by repro.statcheck.dataflow)
    # ------------------------------------------------------------------
    def summary_cached(self, domain: str, fn: FunctionInfo):
        return self._summaries.get((domain, *fn.key))

    def summary_store(self, domain: str, fn: FunctionInfo, summary) -> None:
        self._summaries[(domain, *fn.key)] = summary

    def summary_begin(self, domain: str, fn: FunctionInfo) -> bool:
        """Mark a summary as in flight; False if already being computed
        (a call cycle — the caller must fall back to the unknown value)."""
        key = (domain, *fn.key)
        if key in self._in_flight:
            return False
        self._in_flight.add(key)
        return True

    def summary_end(self, domain: str, fn: FunctionInfo) -> None:
        self._in_flight.discard((domain, *fn.key))


def analysis_units(mod: ModuleInfo) -> Iterator[FunctionInfo]:
    """Every def in the module plus a ``<module>`` pseudo-function for the
    top-level statements, so module-scope code is analyzed too."""
    yield FunctionInfo(module=mod, qualname="<module>", node=mod.tree)
    yield from mod.functions.values()


def single_file_project(source: str, path: str, key: str) -> Project:
    """Project containing exactly one module (per-file fallback)."""
    project = Project()
    project.add_source(source, path, key)
    return project
