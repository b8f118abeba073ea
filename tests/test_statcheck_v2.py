"""Tests for statcheck's whole-program view and the rules that use it.

Covers the Project substrate (imports, call resolution), multi-level
KRN003 through a cross-module helper, and SRV001 deadline propagation.
Multi-module cases build an explicit
:class:`~repro.statcheck.project.Project`, which the corpus's per-file
parametrization cannot express.
"""

from __future__ import annotations

import ast
import textwrap

from repro.statcheck.core import check_source
from repro.statcheck.project import Project


def make_project(**modules: str) -> Project:
    """Build a Project from ``{dotted_suffix: source}`` where the key is a
    path under src/repro with dots for slashes (``kernels_k`` won't do —
    pass e.g. ``{"repro/kernels/k.py": ...}`` via dict splat-free call)."""
    project = Project()
    for key, source in modules.items():
        norm = key.replace("__", "/") + ".py"
        project.add_source(
            textwrap.dedent(source), f"src/{norm}", norm
        )
    return project


# ----------------------------------------------------------------------
# Project: imports, call resolution
# ----------------------------------------------------------------------
def test_project_resolves_from_import_calls_across_modules():
    project = make_project(
        repro__a="""
        def helper(x):
            return x
        """,
        repro__b="""
        from repro.a import helper

        def caller(y):
            return helper(y)
        """,
    )
    mod_b = project.modules["repro/b.py"]
    call = next(
        n for n in ast.walk(mod_b.tree) if isinstance(n, ast.Call)
    )
    callee = project.resolve_call(call, mod_b)
    assert callee is not None
    assert callee.key == ("repro/a.py", "helper")


def test_project_resolves_module_attribute_calls():
    project = make_project(
        repro__utils__m="""
        def f():
            return 1
        """,
        repro__c="""
        import repro.utils.m as m

        def caller():
            return m.f()
        """,
    )
    mod_c = project.modules["repro/c.py"]
    call = next(n for n in ast.walk(mod_c.tree) if isinstance(n, ast.Call))
    callee = project.resolve_call(call, mod_c)
    assert callee is not None and callee.qualname == "f"


# ----------------------------------------------------------------------
# Acceptance: multi-level KRN003 and SRV001
# ----------------------------------------------------------------------
def test_krn003_race_through_cross_module_helper():
    project = Project()
    project.add_source(
        "def walk(grid, metrics, active):\n"
        "    metrics.shared_load_requests += grid.active_warps(active)\n",
        "src/repro/kernels/traverse.py",
        "repro/kernels/traverse.py",
    )
    src = (
        "from repro.kernels.traverse import walk\n\n\n"
        "def run(grid, metrics, slots, active):\n"
        "    metrics.bytes_staged_shared += slots * 8\n"
        "    walk(grid, metrics, active)\n"
    )
    out = check_source(src, "src/repro/kernels/k.py", project=project)
    krn = [v for v in out if v.rule_id == "KRN003"]
    assert krn and krn[0].line == 6


def test_srv001_deadline_consulted_three_levels_down():
    src = (
        "from repro.serving.request import RequestStatus\n\n\n"
        "class Door:\n"
        "    def _check3(self, req, now):\n"
        "        return req.slack(now) <= 0\n\n"
        "    def _check2(self, req, now):\n"
        "        return self._check3(req, now)\n\n"
        "    def _check1(self, req, now):\n"
        "        return self._check2(req, now)\n\n"
        "    def shed(self, req, now):\n"
        "        if self._check1(req, now):\n"
        "            return (req, RequestStatus.SHED_DEADLINE_LATE)\n"
        "        return None\n"
    )
    out = check_source(src, "src/repro/serving/door.py")
    assert not [v for v in out if v.rule_id == "SRV001"]


def test_recursive_functions_terminate():
    """Helper inlining (KRN003) and deadline search (SRV001) follow the
    call graph; mutual recursion ends at their visited-set guard."""
    kernel = (
        "def f(grid, metrics):\n"
        "    metrics.bytes_staged_shared += 8\n"
        "    return g(grid, metrics)\n\n\n"
        "def g(grid, metrics):\n"
        "    metrics.shared_load_requests += 1\n"
        "    return f(grid, metrics)\n"
    )
    out = check_source(kernel, "src/repro/kernels/k.py")
    assert "KRN003" in {v.rule_id for v in out}
    door = (
        "from repro.serving.request import RequestStatus\n\n\n"
        "class Door:\n"
        "    def _a(self, req):\n"
        "        return self._b(req)\n\n"
        "    def _b(self, req):\n"
        "        return self._a(req)\n\n"
        "    def shed(self, req):\n"
        "        if self._a(req):\n"
        "            return self._a(req, RequestStatus.SHED_DEADLINE_LATE)\n"
        "        return None\n"
    )
    out = check_source(door, "src/repro/serving/door.py")
    assert [v.rule_id for v in out] == ["SRV001"]

