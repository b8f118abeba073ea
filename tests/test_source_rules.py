"""Source rules: thirteen AST checks over every module in ``src/repro``.

Each rule encodes an invariant the reproduction's results depend on
(docs/architecture.md §7).  A rule is a pattern over one file's syntax;
KRN003 also follows calls to helpers defined in the same module.
Invariants that need values tracked through variables, helpers or other
modules are pinned by runtime tests instead.

:func:`hits` returns one file's raw hits.  Each ``test_<rule>`` runs its
rule over the package and fails on any hit that :data:`ALLOWLIST` does not
name.  The snippet tests hold every rule to the shapes it must flag and to
the sanctioned shapes no rule may flag.
"""

from __future__ import annotations

import ast
import functools
import re
import textwrap
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: One rule hit: (rule id, line).
Hit = Tuple[str, int]


class Module(NamedTuple):
    """What a rule sees of one file."""

    path: str  # under src/, e.g. "repro/kernels/base.py"; drives scoping
    tree: ast.Module
    aliases: Dict[str, str]


# ----------------------------------------------------------------------
# Name resolution
# ----------------------------------------------------------------------
def _aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> the dotted path an import bound it to.

    Imports at every depth share one table; relative imports stay
    unresolved.  ``from time import time`` makes a bare ``time()`` resolve
    to ``time.time``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for a in node.names:
                if a.name != "*":
                    aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def _dotted(node: ast.AST) -> Optional[str]:
    """Unresolved dotted path of a Name/Attribute chain (else ``None``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _resolved(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted path with its leading name resolved through ``aliases``."""
    dotted = _dotted(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    head = aliases.get(head, head)
    return f"{head}.{rest}" if rest else head


def _call_name(call: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    return _resolved(call.func, aliases)


def _last(dotted: Optional[str]) -> str:
    return dotted.rsplit(".", 1)[-1] if dotted else ""


def _calls(m: Module) -> Iterator[Tuple[ast.Call, str]]:
    """Every call in the file with its resolved callee name ("" if none)."""
    for node in ast.walk(m.tree):
        if isinstance(node, ast.Call):
            yield node, _call_name(node, m.aliases) or ""


# ----------------------------------------------------------------------
# API — experiments go through the harness (repro.experiments.common)
# ----------------------------------------------------------------------
EXPERIMENTS = ("repro/experiments/",)
HARNESS = ("repro/experiments/common.py", "repro/experiments/__init__.py")

CACHE_BYPASS = {"load_dataset", "load_forest", "save_forest", "RandomForestClassifier"}

COMMON_HELPERS = {
    "get_scale",
    "get_dataset",
    "get_forest",
    "band_depths",
    "queries_for",
    "execute",
    "get_session",
    "get_planner",
}

KERNEL_MODULES = ("repro.kernels", "repro.baselines")


def api001(m: Module) -> Iterator[int]:
    """Datasets and forests come from get_dataset/get_forest: training or
    loading directly skips the shared cache and its input validation."""
    for call, name in _calls(m):
        if _last(name) in CACHE_BYPASS:
            yield call.lineno


def api002(m: Module) -> Iterator[int]:
    """A top-level run() calls some harness helper, and nothing indexes
    SCALES directly (get_scale validates the scale name)."""
    for node in m.tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "run":
            if not any(
                isinstance(sub, ast.Call)
                and _last(_call_name(sub, m.aliases)) in COMMON_HELPERS
                for sub in ast.walk(node)
            ):
                yield node.lineno
    for node in ast.walk(m.tree):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "SCALES"
        ):
            yield node.lineno


def _is_kernel_module(module: str) -> bool:
    return any(module == p or module.startswith(p + ".") for p in KERNEL_MODULES)


def api003(m: Module) -> Iterator[int]:
    """Experiments import no kernel classes: execution goes through the
    runtime seam (experiments.common.execute)."""
    for node in ast.walk(m.tree):
        if isinstance(node, ast.Import):
            if any(_is_kernel_module(a.name) for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None and _is_kernel_module(node.module):
                yield node.lineno


# ----------------------------------------------------------------------
# DET — every published number is a pure function of explicit seeds
# ----------------------------------------------------------------------
WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.ctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

MONOTONIC = {
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
}

#: The one module allowed monotonic timers: the sanctioned clock seam.
CLOCK_MODULE = "repro/utils/clock.py"

#: Legacy numpy.random module functions (hidden global RNG state).
LEGACY_NP_RANDOM = {
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "ranf",
    "sample",
    "seed",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "standard_normal",
    "exponential",
    "poisson",
    "binomial",
    "get_state",
    "set_state",
    "RandomState",
}

OTHER_ENTROPY = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}

#: The one module allowed to call numpy.random.default_rng: it is the
#: sanctioned wrapper (as_rng / spawn_rngs).
RNG_MODULE = "repro/utils/rng.py"


def det001(m: Module) -> Iterator[int]:
    """No wall-clock reads; monotonic timers only in the clock seam."""
    for call, name in _calls(m):
        if name in WALL_CLOCK or (name in MONOTONIC and m.path != CLOCK_MODULE):
            yield call.lineno


def det002(m: Module) -> Iterator[int]:
    """No global-state randomness (stdlib random, legacy numpy.random,
    OS entropy), and default_rng only inside repro.utils.rng."""
    for node in ast.walk(m.tree):
        if not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        name = _resolved(node, m.aliases)
        if name is None:
            continue
        bound = m.aliases.get(_dotted(node).split(".", 1)[0], "")
        if bound.split(".")[0] == "random":
            yield node.lineno
        elif name.startswith("numpy.random."):
            member = name.split(".")[2]
            if member in LEGACY_NP_RANDOM or (
                member == "default_rng" and m.path != RNG_MODULE
            ):
                yield node.lineno
        elif name in OTHER_ENTROPY:
            yield node.lineno


def _is_set(node: ast.AST, aliases: Dict[str, str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and _call_name(node, aliases) in (
        "set",
        "frozenset",
    )


def det003(m: Module) -> Iterator[int]:
    """No iteration over a set: its order depends on the hash seed."""
    for node in ast.walk(m.tree):
        iters: List[ast.AST] = []
        if isinstance(node, ast.For):
            iters.append(node.iter)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            iters.extend(gen.iter for gen in node.generators)
        elif isinstance(node, ast.Call) and _call_name(node, m.aliases) in (
            "enumerate",
            "list",
            "tuple",
            "zip",
            "map",
        ):
            iters.extend(node.args)
        for it in iters:
            if _is_set(it, m.aliases):
                yield it.lineno


# ----------------------------------------------------------------------
# KRN003 — shared-memory staging is fenced before it is read
# ----------------------------------------------------------------------
# The simulated kernels' counters are the paper's Fig. 8 evidence.  In the
# warp-lockstep DSL a staging write is a ``bytes_staged_shared``
# accumulation, a shared read a ``shared_load_requests`` accumulation, and
# a fence a call whose name contains ``sync`` (``WarpGrid.record_sync``)
# or an accumulation naming a ``*SYNC*`` constant.  Unmasked lane writes
# and untracked layout loads are pinned at run time instead
# (tests/test_kernels_gpu.py, tests/test_runtime_session_golden.py).
Event = Tuple[str, int]  # ("write" | "read" | "sync", line)


def _statements(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements in document order, descending into compound statements
    but not into nested defs or classes."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, field, None) or [])
        for handler in getattr(stmt, "handlers", None) or []:
            yield from _statements(handler.body)


def _marker_events(stmt: ast.stmt) -> List[Event]:
    if not isinstance(stmt, ast.AugAssign):
        return []
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    events: List[Event] = []
    if "bytes_staged_shared" in names:
        events.append(("write", stmt.lineno))
    if "shared_load_requests" in names:
        events.append(("read", stmt.lineno))
    if any("SYNC" in n for n in names):
        events.append(("sync", stmt.lineno))
    return events


def _header_calls(stmt: ast.stmt) -> List[ast.Call]:
    """Calls of one statement in source order; a loop or branch contributes
    only its header, since the statement walk visits its body."""
    if isinstance(stmt, (ast.While, ast.If)):
        scan: List[ast.AST] = [stmt.test]
    elif isinstance(stmt, ast.For):
        scan = [stmt.iter]
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scan = []
    else:
        scan = [stmt]
    calls = [n for root in scan for n in ast.walk(root) if isinstance(n, ast.Call)]
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    return calls


def _events(fn: ast.AST, table: Dict[str, ast.AST], visited: Set[int]) -> List[Event]:
    """Ordered shared-memory events of a function body.

    Calls to same-module functions (looked up by name) are inlined
    recursively and reported at the call's line.  ``visited`` inlines each
    helper at most once, so recursion and mutual calls terminate.
    """
    events: List[Event] = []
    for stmt in _statements(fn.body):
        for call in _header_calls(stmt):
            name = _last(_dotted(call.func))
            if "sync" in name.lower():
                events.append(("sync", call.lineno))
                continue
            callee = table.get(name)
            if callee is None or id(callee) in visited:
                continue
            visited.add(id(callee))
            events.extend(
                (kind, call.lineno) for kind, _ in _events(callee, table, visited)
            )
        events.extend(_marker_events(stmt))
    return events


def krn003(m: Module) -> Iterator[int]:
    """A staging write is fenced by a block sync before the next shared
    read; otherwise the kernel encodes a read-after-write race."""
    functions = [
        n
        for n in ast.walk(m.tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    table = {fn.name: fn for fn in functions}
    for fn in functions:
        pending = False  # an unfenced staging write precedes this event
        for kind, line in _events(fn, table, {id(fn)}):
            if kind == "read" and pending:
                yield line  # once per unfenced write
            pending = kind == "write"


# ----------------------------------------------------------------------
# NUM — explicit dtypes, checksummed persistence
# ----------------------------------------------------------------------
DTYPE_REQUIRED = {
    "numpy.zeros",
    "numpy.ones",
    "numpy.empty",
    "numpy.full",
    "numpy.arange",
}

SAVERS = {"numpy.savez", "numpy.savez_compressed", "numpy.save"}


def num001(m: Module) -> Iterator[int]:
    """Array constructors state their dtype: the float64/platform-int
    defaults break the float32-value / int64-index layout contract."""
    for call, name in _calls(m):
        if name in DTYPE_REQUIRED and all(kw.arg != "dtype" for kw in call.keywords):
            yield call.lineno


def num003(m: Module) -> Iterator[int]:
    """np.save/np.savez only in modules that checksum with array_crc32,
    so load-time integrity checks can reject a corrupt cache."""
    for node in ast.walk(m.tree):
        if (
            (isinstance(node, ast.Name) and node.id == "array_crc32")
            or (isinstance(node, ast.Attribute) and node.attr == "array_crc32")
            or (
                isinstance(node, ast.ImportFrom)
                and any(a.name == "array_crc32" for a in node.names)
            )
        ):
            return
    for call, name in _calls(m):
        if name in SAVERS:
            yield call.lineno


# ----------------------------------------------------------------------
# OBS — run manifests and typed observer hooks
# ----------------------------------------------------------------------
#: Harness plumbing, not experiment entry points: common.py implements
#: emit_manifest; cli.py and report.py drive modules that already emit.
OBS_HARNESS = HARNESS + ("repro/experiments/cli.py", "repro/experiments/report.py")


def obs001(m: Module) -> Iterator[int]:
    """An experiment module with a main() calls emit_manifest, so
    ``python -m repro.obs diff`` can compare its runs."""
    mains = [
        n for n in m.tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"
    ]
    if mains and not any(_last(name) == "emit_manifest" for _, name in _calls(m)):
        yield mains[0].lineno


def obs002(m: Module) -> Iterator[int]:
    """No ``hasattr(obs, "on_...")`` probes: a typo'd hook name would
    silently drop events.  Adapt once with ensure_observer instead."""
    for call, name in _calls(m):
        if (
            _last(name) == "hasattr"
            and len(call.args) >= 2
            and isinstance(call.args[1], ast.Constant)
            and isinstance(call.args[1].value, str)
            and call.args[1].value.startswith("on_")
        ):
            yield call.lineno


# ----------------------------------------------------------------------
# PERF001 — the fastpath stays vectorized
# ----------------------------------------------------------------------
LOOPS = (
    ast.For,
    ast.AsyncFor,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def perf001(m: Module) -> Iterator[int]:
    """No ``for`` loop or comprehension: traversal is a depth-bounded
    ``while`` over compact index arrays, never O(rows) interpreter time."""
    for node in ast.walk(m.tree):
        if isinstance(node, LOOPS):
            yield node.lineno


# ----------------------------------------------------------------------
# REL001 — fault-classifying code does not swallow faults
# ----------------------------------------------------------------------
CATCH_ALL = {"Exception", "BaseException"}


def _is_catch_all(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Tuple):
        return any(_is_catch_all(e) for e in expr.elts)
    return _last(_dotted(expr)) in CATCH_ALL


def _swallows(body: List[ast.stmt]) -> bool:
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in body
    )


def rel001(m: Module) -> Iterator[int]:
    """No bare ``except:`` and no catch-all whose body is only pass/...:
    either would record a genuine defect as a success."""
    for node in ast.walk(m.tree):
        if isinstance(node, ast.ExceptHandler) and (
            node.type is None or (_is_catch_all(node.type) and _swallows(node.body))
        ):
            yield node.lineno


# ----------------------------------------------------------------------
# The rule table
# ----------------------------------------------------------------------
class Rule(NamedTuple):
    check: Callable[[Module], Iterator[int]]
    prefixes: Tuple[str, ...] = ()  # paths in scope; () is all of src
    exempt: Tuple[str, ...] = ()


RULES: Dict[str, Rule] = {
    "API001": Rule(api001, EXPERIMENTS, HARNESS),
    "API002": Rule(api002, EXPERIMENTS, HARNESS),
    "API003": Rule(api003, EXPERIMENTS, HARNESS),
    "DET001": Rule(det001),
    "DET002": Rule(det002),
    "DET003": Rule(det003),
    "KRN003": Rule(krn003, ("repro/kernels/",)),
    "NUM001": Rule(num001),
    "NUM003": Rule(num003),
    "OBS001": Rule(obs001, EXPERIMENTS, OBS_HARNESS),
    "OBS002": Rule(obs002),
    "PERF001": Rule(perf001, ("repro/fastpath/",)),
    "REL001": Rule(rel001, ("repro/serving/", "repro/reliability/")),
}


def hits(path: str, source: str) -> Set[Hit]:
    """Raw hits of every rule in scope for ``path`` (relative to ``src/``),
    before the allowlist."""
    tree = ast.parse(source)
    m = Module(path, tree, _aliases(tree))
    return {
        (rule_id, line)
        for rule_id, rule in RULES.items()
        if path not in rule.exempt
        and (not rule.prefixes or path.startswith(rule.prefixes))
        for line in rule.check(m)
    }


#: Deliberate hits, keyed by (rule, path, stripped source line) rather than
#: by line number; each entry waives one hit, so a second one still fails.
ALLOWLIST: Dict[Tuple[str, str, str], str] = {
    (
        "API001",
        "repro/experiments/fig5_accuracy.py",
        "deep = RandomForestClassifier(",
    ): (
        "Fig. 5 carves its whole (depth, trees) grid out of one deepest, "
        "widest forest by truncation and prefixing, which the shared "
        "(depth, trees) cache key cannot express"
    ),
}


def _matching(entry: Tuple[str, str, str], source: str, found: Set[Hit]) -> List[Hit]:
    """The hits of ``found`` an allowlist entry names, in line order."""
    rule_id, _, text = entry
    lines = source.splitlines()
    return sorted(
        h for h in found if h[0] == rule_id and lines[h[1] - 1].strip() == text
    )


def unwaived(path: str, source: str, found: Set[Hit]) -> Set[Hit]:
    """``found`` less the first hit each allowlist entry matches."""
    out = set(found)
    for entry in ALLOWLIST:
        if entry[1] == path:
            out -= set(_matching(entry, source, found)[:1])
    return out


@functools.lru_cache(maxsize=None)
def _package() -> Dict[str, Tuple[str, Set[Hit]]]:
    """Every module under ``src/repro``, parsed once: path -> (source, hits).

    Fails when the walk misses the tree or a rule's scope, so a wrong root
    cannot let every rule test pass while checking nothing.
    """
    files = sorted((SRC / "repro").rglob("*.py"))
    assert files, f"no Python files under {SRC / 'repro'}"
    out = {}
    for f in files:
        path = f.relative_to(SRC).as_posix()
        source = f.read_text(encoding="utf-8")
        out[path] = (source, hits(path, source))
    for rule in RULES.values():
        for prefix in rule.prefixes:
            assert any(p.startswith(prefix) for p in out), f"no module under {prefix}"
    return out


def _assert_holds(rule_id: str) -> None:
    package = _package()
    found = [
        f"{path}:{line}: {source.splitlines()[line - 1].strip()}"
        for path, (source, raw) in package.items()
        for r, line in sorted(unwaived(path, source, raw))
        if r == rule_id
    ]
    doc = " ".join(RULES[rule_id].check.__doc__.split())
    assert not found, f"{rule_id}: {doc}\n" + "\n".join(found)
    for entry in ALLOWLIST:
        if entry[0] == rule_id:
            source, raw = package.get(entry[1], ("", set()))
            assert _matching(entry, source, raw), f"stale allowlist entry {entry}"


def test_api001():
    _assert_holds("API001")


def test_api002():
    _assert_holds("API002")


def test_api003():
    _assert_holds("API003")


def test_det001():
    _assert_holds("DET001")


def test_det002():
    _assert_holds("DET002")


def test_det003():
    _assert_holds("DET003")


def test_krn003():
    _assert_holds("KRN003")


def test_num001():
    _assert_holds("NUM001")


def test_num003():
    _assert_holds("NUM003")


def test_obs001():
    _assert_holds("OBS001")


def test_obs002():
    _assert_holds("OBS002")


def test_perf001():
    _assert_holds("PERF001")


def test_rel001():
    _assert_holds("REL001")


# ----------------------------------------------------------------------
# Shapes every rule must flag, and sanctioned shapes none may flag
# ----------------------------------------------------------------------
GENERAL = "repro/x.py"
EXPERIMENT = "repro/experiments/x.py"
KERNEL = "repro/kernels/x.py"
FASTPATH = "repro/fastpath/x.py"
SERVING = "repro/serving/x.py"

#: case id -> (path, source); the line marked ``# RULE`` must be the
#: source's only hit.
BAD: Dict[str, Tuple[str, str]] = {
    "API001-load_dataset": (EXPERIMENT, """
        from repro.datasets.profiles import load_dataset
        ds = load_dataset("susy", rows=1000)  # API001
        """),
    "API001-RandomForestClassifier": (EXPERIMENT, """
        from repro.forest.random_forest import RandomForestClassifier
        forest = RandomForestClassifier(  # API001
            n_estimators=8, max_depth=8, seed=0
        ).fit(X, y)
        """),
    "API002-run-without-helper": (EXPERIMENT, """
        def run(scale="default"):  # API002
            return [{"scale": scale}]
        """),
    "API002-SCALES-subscript": (EXPERIMENT, """
        from repro.experiments.common import SCALES, get_scale
        def run(scale="default"):
            get_scale(scale)
            return [{"queries": SCALES[scale].queries}]  # API002
        """),
    "API003-import-kernels": (EXPERIMENT, """
        import repro.kernels  # API003
        """),
    "API003-from-baselines": (EXPERIMENT, """
        from repro.baselines.cuml_fil import CuMLFILKernel  # API003
        """),
    "API003-from-kernel-module": (EXPERIMENT, """
        from repro.kernels.gpu_hybrid import GPUHybridKernel  # API003
        """),
    "OBS001-main-without-manifest": (EXPERIMENT, """
        def main(scale="default"):  # OBS001
            return run(scale)
        """),
    "PERF001-for": (FASTPATH, """
        def predict_rows(X, out):
            for i in range(X.shape[0]):  # PERF001
                out[i] = X[i, 0]
        """),
    "PERF001-comprehension": (FASTPATH, """
        votes = [t.predict_one(x) for t in trees]  # PERF001
        """),
    "PERF001-generator": (FASTPATH, """
        total = sum(s.lane_levels for s in stats)  # PERF001
        """),
    "DET001-time.time": (GENERAL, """
        import time
        started = time.time()  # DET001
        """),
    "DET001-datetime.now": (GENERAL, """
        from datetime import datetime
        at = datetime.now()  # DET001
        """),
    "DET001-perf_counter-outside-clock": (GENERAL, """
        import time
        t0 = time.perf_counter()  # DET001
        """),
    "DET002-np.random.seed": (GENERAL, """
        import numpy as np
        np.random.seed(0)  # DET002
        """),
    "DET002-np.random.randint": (GENERAL, """
        import numpy as np
        idx = np.random.randint(0, 10, size=4)  # DET002
        """),
    "DET002-default_rng-outside-rng": (GENERAL, """
        import numpy as np
        rng = np.random.default_rng(0)  # DET002
        """),
    "DET002-stdlib-random": (GENERAL, """
        from random import shuffle
        order = [2, 0, 1]
        shuffle(order)  # DET002
        """),
    "DET003-for-over-set": (GENERAL, """
        def names(rows, out):
            for name in {r["dataset"] for r in rows}:  # DET003
                out.append(name)
        """),
    "DET003-comprehension-over-set": (GENERAL, """
        labels = [x for x in {"a", "b", "c"}]  # DET003
        """),
    "DET003-enumerate-set": (GENERAL, """
        pairs = list(enumerate(set(out)))  # DET003
        """),
    "NUM001-zeros": (GENERAL, """
        import numpy as np
        votes = np.zeros(n)  # NUM001
        """),
    "NUM001-arange": (GENERAL, """
        import numpy as np
        rows = np.arange(n)  # NUM001
        """),
    "NUM001-ones": (GENERAL, """
        import numpy as np
        ones = np.ones((n, 2))  # NUM001
        """),
    "NUM001-full": (GENERAL, """
        import numpy as np
        out = np.full(n, -1)  # NUM001
        """),
    "NUM003-unchecksummed-save": (GENERAL, """
        import numpy as np
        np.savez_compressed(path, feature_id=f, value=v)  # NUM003
        """),
    "OBS002-guarded-hook": (GENERAL, """
        def emit(observer, response):
            if observer is not None and hasattr(observer, "on_response"):  # OBS002
                observer.on_response(response)
        """),
    "OBS002-attribute-observer": (GENERAL, """
        def note_depth(self, depth):
            if hasattr(self.observer, "on_queue_depth"):  # OBS002
                self.observer.on_queue_depth(depth)
        """),
    "OBS002-typo-prone-probe": (GENERAL, """
        def notify(obs, plan):
            if obs and hasattr(obs, "on_plan"):  # OBS002
                obs.on_plan(plan)
        """),
    "KRN003-helper-read": (KERNEL, """
        class Kernel:
            def _stage(self, grid, metrics, slots):
                metrics.bytes_staged_shared += slots * 8

            def _walk(self, grid, metrics, active):
                metrics.shared_load_requests += 2 * grid.active_warps(active)

            def _run(self, grid, metrics, slots, active):
                self._stage(grid, metrics, slots)
                self._walk(grid, metrics, active)  # KRN003
        """),
    "KRN003-read-two-helpers-deep": (KERNEL, """
        class DeepKernel:
            def _stage(self, grid, metrics, slots):
                metrics.bytes_staged_shared += slots * 8

            def _walk_inner(self, grid, metrics, active):
                metrics.shared_load_requests += grid.active_warps(active)

            def _walk_outer(self, grid, metrics, active):
                self._walk_inner(grid, metrics, active)

            def _run(self, grid, metrics, slots, active):
                self._stage(grid, metrics, slots)
                self._walk_outer(grid, metrics, active)  # KRN003
        """),
    "KRN003-read-in-loop-body": (KERNEL, """
        class LoopKernel:
            def _stage_batch(self, grid, metrics, slots):
                metrics.bytes_staged_shared += slots * 8

            def _run(self, grid, metrics, active):
                self._stage_batch(grid, metrics, 512)
                while active.any():
                    metrics.shared_load_requests += grid.active_warps(active)  # KRN003
                    active = active[1:]
        """),
    "KRN003-mutual-recursion": (KERNEL, """
        def stage_then_walk(grid, metrics):
            metrics.bytes_staged_shared += 8
            return walk_then_stage(grid, metrics)  # KRN003

        def walk_then_stage(grid, metrics):
            metrics.shared_load_requests += 1
            return stage_then_walk(grid, metrics)
        """),
    # Inlining stops at the visited-set guard, so this terminates.
    "KRN003-recursion-terminates": (KERNEL, """
        def f(grid, metrics):
            metrics.bytes_staged_shared += 8
            return g(grid, metrics)  # KRN003

        def g(grid, metrics):
            metrics.shared_load_requests += 1
            return f(grid, metrics)
        """),
    "REL001-bare-except": (SERVING, """
        def serve_batch(guard, X):
            try:
                return guard.classify(X)
            except:  # REL001
                return None
        """),
    "REL001-catch-all-pass": (SERVING, """
        def pump_once(batcher):
            try:
                batcher.flush()
            except Exception:  # REL001
                pass
        """),
    "REL001-catch-all-in-tuple": (SERVING, """
        def drain(queue):
            try:
                queue.pop()
            except (ValueError, BaseException):  # REL001
                ...
        """),
}

#: case id -> (path, source) that no rule may flag.
GOOD: Dict[str, Tuple[str, str]] = {
    "API001-harness-helpers": (EXPERIMENT, """
        from repro.experiments.common import get_dataset, get_forest, get_scale
        def run(scale="default"):
            scale = get_scale(scale)
            ds = get_dataset("susy", scale)
            forest = get_forest("susy", 8, scale.n_trees, scale, seed=0)
            return [{"acc": forest.score(ds.X_test, ds.y_test)}]
        """),
    "API001-inside-the-harness": ("repro/experiments/common.py", """
        from repro.datasets.profiles import load_dataset
        def get_dataset(name, scale):
            return load_dataset(name, rows=scale.rows)
        """),
    "API002-run-uses-get_scale": (EXPERIMENT, """
        from repro.experiments.common import get_scale
        def run(scale="default"):
            cfg = get_scale(scale)
            return [{"queries": cfg.queries}]
        """),
    "API003-runtime-seam": (EXPERIMENT, """
        from repro.core.config import RunConfig
        from repro.experiments.common import execute, get_dataset, get_forest
        from repro.experiments.common import get_scale, queries_for
        def run(scale="default"):
            scale = get_scale(scale)
            ds = get_dataset("susy", scale)
            forest = get_forest("susy", 8, scale.n_trees, scale)
            res = execute(forest, queries_for(ds, scale), RunConfig(variant="hybrid"))
            return [{"seconds": res.seconds}]
        """),
    "OBS001-main-emits-manifest": (EXPERIMENT, """
        from repro.experiments.common import emit_manifest, get_scale
        def run(scale="default"):
            return [{"queries": get_scale(scale).queries}]
        def main(scale="default"):
            rows = run(scale)
            emit_manifest("obs_demo", scale, rows)
            return rows
        """),
    "PERF001-while-over-index-array": (FASTPATH, """
        import numpy as np
        def step_lanes(feature_id, value, X, rows):
            cur = np.zeros(rows.shape[0], dtype=np.int64)
            labels = np.full(rows.shape[0], -1, dtype=np.int64)
            active = np.arange(rows.shape[0], dtype=np.int64)
            while active.size:
                g = cur[active]
                feats = feature_id[g].astype(np.int64)
                leaf = feats == -1
                labels[active[leaf]] = value[g[leaf]].astype(np.int64)
                active = active[~leaf]
                go_left = X[rows[active], feats[~leaf]] < value[cur[active]]
                cur[active] = 2 * cur[active] + np.where(go_left, 1, 2)
            return labels
        """),
    "PERF001-loop-outside-fastpath": (GENERAL, """
        total = sum(s.lane_levels for s in stats)
        """),
    "DET001-timestamp-as-input": (GENERAL, """
        def stamp_result(rows, started_at):
            rows.append({"started": started_at})
            return rows
        """),
    "DET001-perf_counter-in-clock-seam": (CLOCK_MODULE, """
        import time
        def now():
            return time.perf_counter()
        """),
    "DET002-generator-plumbing": (GENERAL, """
        import numpy as np
        from repro.utils.rng import as_rng, spawn_rngs
        def sample(n, seed=None):
            idx = as_rng(seed).integers(0, 10, size=n, dtype=np.int64)
            return idx, spawn_rngs(seed, 2), np.random.SeedSequence(7)
        """),
    "DET002-default_rng-in-rng-module": (RNG_MODULE, """
        import numpy as np
        def as_rng(seed):
            return np.random.default_rng(seed)
        """),
    "DET003-sorted-sets": (GENERAL, """
        def summarise(rows, out):
            for name in sorted({r["dataset"] for r in rows}):
                out.append(name)
            labels = [x for x in sorted({"a", "b", "c"})]
            return labels, list(enumerate(sorted(set(out))))
        """),
    "NUM001-explicit-dtypes": (GENERAL, """
        import numpy as np
        def make_state(n):
            votes = np.zeros(n, dtype=np.int64)
            rows = np.arange(n, dtype=np.int64)
            ones = np.ones((n, 2), dtype=np.float32)
            return votes, rows, ones, np.full(n, -1, dtype=np.int64)
        """),
    "NUM003-checksummed-save": (GENERAL, """
        import numpy as np
        from repro.utils.validation import array_crc32
        def save(path, f, v):
            crcs = np.asarray([array_crc32(f), array_crc32(v)], dtype=np.uint32)
            np.savez_compressed(path, feature_id=f, value=v, crcs=crcs)
        """),
    "OBS002-adapted-observer": (GENERAL, """
        from repro.obs.protocol import ensure_observer
        class FrontDoor:
            def __init__(self, observer=None):
                self._obs = ensure_observer(observer)
            def emit(self, response):
                self._obs.on_response(response)
        def has_layout_field(layout):
            return hasattr(layout, "tree_offset")
        """),
    "KRN003-fence-between": (KERNEL, """
        class Kernel:
            def _stage(self, grid, metrics, slots):
                metrics.bytes_staged_shared += slots * 8

            def _walk(self, grid, metrics, active):
                metrics.shared_load_requests += 2 * grid.active_warps(active)

            def _run(self, grid, metrics, slots, active):
                self._stage(grid, metrics, slots)
                grid.record_sync(metrics)
                self._walk(grid, metrics, active)
        """),
    "KRN003-fence-inside-helper": (KERNEL, """
        class DeepKernel:
            def _stage(self, grid, metrics, slots):
                metrics.bytes_staged_shared += slots * 8

            def _walk_inner(self, grid, metrics, active):
                metrics.shared_load_requests += grid.active_warps(active)

            def _walk_outer(self, grid, metrics, active):
                grid.record_sync(metrics)
                self._walk_inner(grid, metrics, active)

            def _run(self, grid, metrics, slots, active):
                self._stage(grid, metrics, slots)
                self._walk_outer(grid, metrics, active)
        """),
    "KRN003-fence-before-loop": (KERNEL, """
        class LoopKernel:
            def _stage_batch(self, grid, metrics, slots):
                metrics.bytes_staged_shared += slots * 8

            def _run(self, grid, metrics, active):
                self._stage_batch(grid, metrics, 512)
                grid.record_sync(metrics)
                while active.any():
                    metrics.shared_load_requests += grid.active_warps(active)
                    active = active[1:]
        """),
    "REL001-named-faults": (SERVING, """
        from repro.reliability.faults import TransientKernelError
        from repro.runtime.session import ExecutionError
        def serve_batch(guard, X, stats):
            try:
                return guard.classify(X)
            except (TransientKernelError, ExecutionError):
                stats.note_shed("backend-fault")
                return None
        def pump_once(batcher, log):
            try:
                batcher.flush()
            except Exception as exc:
                log.append(repr(exc))
                raise
        """),
}

_MARK = re.compile(r"#\s*([A-Z]{3,4}\d{3})\b")


@pytest.mark.parametrize("case", list(BAD))
def test_bad_shape_is_flagged(case):
    path, snippet = BAD[case]
    source = textwrap.dedent(snippet)
    marked = {
        (mark.group(1), line)
        for line, text in enumerate(source.splitlines(), start=1)
        for mark in _MARK.finditer(text)
    }
    assert len(marked) == 1 and next(iter(marked))[0] == case.split("-")[0]
    assert hits(path, source) == marked


@pytest.mark.parametrize("case", list(GOOD))
def test_sanctioned_shape_is_clean(case):
    """The rule the case is named after does not flag it."""
    path, snippet = GOOD[case]
    rule_id = case.split("-")[0]
    found = hits(path, textwrap.dedent(snippet))
    assert {hit for hit in found if hit[0] == rule_id} == set()


@pytest.mark.parametrize("case", list(GOOD))
def test_sanctioned_shape_is_fully_clean(case):
    """Sanctioned shapes model house style: no rule at all may flag them."""
    path, snippet = GOOD[case]
    assert hits(path, textwrap.dedent(snippet)) == set()


def test_allowlist_entry_waives_one_hit():
    """A second bypass in fig5, even on an identical line, still fails."""
    path = "repro/experiments/fig5_accuracy.py"
    source, found = _package()[path]
    assert unwaived(path, source, found) == set()
    n = len(source.splitlines())
    extra = source + "deep = RandomForestClassifier(\n)\nload_forest('x')\n"
    assert unwaived(path, extra, hits(path, extra)) == {
        ("API001", n + 1),
        ("API001", n + 3),
    }
