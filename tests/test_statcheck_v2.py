"""Tests for the statcheck v2 interprocedural engine.

Covers the Project substrate (imports, call resolution), the
CFG + dataflow framework, and the acceptance cases from the v2 issue:
flow-based NUM002 across functions *and modules*, DET004 unseeded-RNG
provenance through helpers, multi-level KRN003, and SRV001 deadline
propagation.  Multi-module cases build an explicit
:class:`~repro.statcheck.project.Project`, which the corpus's per-file
parametrization cannot express.
"""

from __future__ import annotations

import ast
import textwrap

from repro.statcheck.cfg import build_cfg, reaching_definitions
from repro.statcheck.core import check_source
from repro.statcheck.dataflow import FunctionAnalysis, summarize
from repro.statcheck.lattices import DtypeDomain, RngDomain
from repro.statcheck.project import Project, analysis_units


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


def test_analysis_units_include_module_scope():
    project = make_project(
        repro__m="""
        X = 1

        def f():
            return X
        """,
    )
    units = list(analysis_units(project.modules["repro/m.py"]))
    assert [u.qualname for u in units] == ["<module>", "f"]


# ----------------------------------------------------------------------
# CFG + reaching definitions
# ----------------------------------------------------------------------
def _fn(src: str):
    tree = ast.parse(textwrap.dedent(src))
    return next(
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
    )


def test_cfg_branches_rejoin():
    fn = _fn(
        """
        def f(c):
            if c:
                x = 1
            else:
                x = 2
            return x
        """
    )
    cfg = build_cfg(fn)
    reach = reaching_definitions(cfg)
    # The block holding `return x` sees both definitions of x.
    ret_block = next(
        bid
        for bid, block in cfg.blocks.items()
        if any(isinstance(s, ast.Return) for s in block.stmts)
    )
    assert len(reach[ret_block].get("x", ())) == 2


def test_cfg_loop_reaches_fixpoint():
    fn = _fn(
        """
        def f(n):
            x = 0
            while n:
                x = x + 1
                n = n - 1
            return x
        """
    )
    cfg = build_cfg(fn)
    reach = reaching_definitions(cfg)
    ret_block = next(
        bid
        for bid, block in cfg.blocks.items()
        if any(isinstance(s, ast.Return) for s in block.stmts)
    )
    # Both the init and the loop-body definition reach the return.
    assert len(reach[ret_block].get("x", ())) == 2


# ----------------------------------------------------------------------
# Dataflow: dtype lattice
# ----------------------------------------------------------------------
def test_dtype_summary_tracks_float64_through_return():
    project = make_project(
        repro__h="""
        import numpy as np

        def wide(n):
            buf = np.zeros(n, dtype=np.float64)
            return buf
        """,
    )
    fn = project.modules["repro/h.py"].functions["wide"]
    summary = summarize(project, DtypeDomain(), fn)
    assert "arr:f64" in summary.ret.tags


def test_dtype_summary_is_parametric_in_inputs():
    project = make_project(
        repro__h="""
        def ident(x):
            return x
        """,
    )
    fn = project.modules["repro/h.py"].functions["ident"]
    summary = summarize(project, DtypeDomain(), fn)
    assert summary.ret.params == frozenset({0})


def test_branch_join_unions_dtype_tags():
    project = make_project(
        repro__h="""
        import numpy as np

        def pick(c, n):
            if c:
                x = np.zeros(n, dtype=np.float32)
            else:
                x = np.zeros(n, dtype=np.float64)
            return x
        """,
    )
    fn = project.modules["repro/h.py"].functions["pick"]
    summary = summarize(project, DtypeDomain(), fn)
    assert {"arr:f32", "arr:f64"} <= set(summary.ret.tags)


def test_rng_summary_records_sampling_from_parameter():
    project = make_project(
        repro__h="""
        def draw(rng, n):
            return rng.normal(size=n)
        """,
    )
    fn = project.modules["repro/h.py"].functions["draw"]
    summary = summarize(project, RngDomain(), fn)
    assert summary.facts["samples_params"] == frozenset({0})


def test_recursive_functions_terminate():
    project = make_project(
        repro__h="""
        def f(x):
            return g(x)

        def g(x):
            return f(x)
        """,
    )
    fn = project.modules["repro/h.py"].functions["f"]
    summary = summarize(project, DtypeDomain(), fn)  # must not hang/raise
    assert summary is not None


# ----------------------------------------------------------------------
# Acceptance: cross-module NUM002
# ----------------------------------------------------------------------
CROSS_HELPER = """
import numpy as np


def make_buffer(n):
    return np.zeros(n, dtype=np.float64)


def make_default(n):
    return np.ones(n)
"""

CROSS_KERNEL = """
import numpy as np
from repro.experiments.helpers import make_buffer, make_default


def kern_explicit(n):
    buf = make_buffer(n)
    return buf


def kern_default(n):
    buf = make_default(n)
    return buf
"""


def _cross_module_project():
    project = Project()
    project.add_source(
        textwrap.dedent(CROSS_HELPER),
        "src/repro/experiments/helpers.py",
        "repro/experiments/helpers.py",
    )
    return project


def test_num002_flags_cross_module_float64_return():
    """ISSUE acceptance: float64 introduced two calls away, flagged at the
    call site inside the float32 package.  v1 passes this file."""
    project = _cross_module_project()
    out = check_source(
        textwrap.dedent(CROSS_KERNEL),
        "src/repro/kernels/k.py",
        project=project,
    )
    num002_lines = {v.line for v in out if v.rule_id == "NUM002"}
    src_lines = textwrap.dedent(CROSS_KERNEL).splitlines()
    explicit = next(
        i + 1 for i, l in enumerate(src_lines) if "make_buffer(n)" in l
    )
    default = next(
        i + 1 for i, l in enumerate(src_lines) if "make_default(n)" in l
    )
    assert explicit in num002_lines, "explicit float64 via helper missed"
    assert default in num002_lines, "implicit-default float64 via helper missed"
    messages = {
        v.line: v.message for v in out if v.rule_id == "NUM002"
    }
    assert "implicit-dtype" in messages[default]


def test_num002_clean_when_helper_returns_float32():
    project = Project()
    project.add_source(
        "import numpy as np\n\n\ndef make(n):\n"
        "    return np.zeros(n, dtype=np.float32)\n",
        "src/repro/experiments/helpers.py",
        "repro/experiments/helpers.py",
    )
    out = check_source(
        "from repro.experiments.helpers import make\n\n\n"
        "def kern(n):\n    return make(n)\n",
        "src/repro/kernels/k.py",
        project=project,
    )
    assert not [v for v in out if v.rule_id == "NUM002"]


def test_num002_same_file_astype_variable_is_flow_flagged():
    """ISSUE acceptance: `dt = np.float64; x.astype(dt)` — every token at
    the astype site is innocent; only dataflow sees the f64."""
    out = check_source(
        "import numpy as np\n\n\ndef widen(x):\n"
        "    dt = np.float64\n    return x.astype(dt)\n",
        "src/repro/kernels/k.py",
    )
    assert [v.rule_id for v in out] == ["NUM002"]
    assert out[0].line == 6


# ----------------------------------------------------------------------
# Acceptance: DET004 through a cross-module helper
# ----------------------------------------------------------------------
def test_det004_flags_unseeded_rng_through_cross_module_helper():
    project = Project()
    project.add_source(
        "def draw(rng, n):\n    return rng.normal(size=n)\n",
        "src/repro/experiments/sampling.py",
        "repro/experiments/sampling.py",
    )
    src = (
        "from repro.utils.rng import as_rng\n"
        "from repro.experiments.sampling import draw\n\n\n"
        "def run():\n"
        "    rng = as_rng(None)\n"
        "    return draw(rng, 8)\n"
    )
    out = check_source(src, "src/repro/experiments/run.py", project=project)
    det = [v for v in out if v.rule_id == "DET004"]
    assert det and det[0].line == 7


def test_det004_seeded_rng_through_helper_is_clean():
    project = Project()
    project.add_source(
        "def draw(rng, n):\n    return rng.normal(size=n)\n",
        "src/repro/experiments/sampling.py",
        "repro/experiments/sampling.py",
    )
    src = (
        "from repro.utils.rng import as_rng\n"
        "from repro.experiments.sampling import draw\n\n\n"
        "def run(seed):\n"
        "    rng = as_rng(seed)\n"
        "    return draw(rng, 8)\n"
    )
    out = check_source(src, "src/repro/experiments/run.py", project=project)
    assert not [v for v in out if v.rule_id == "DET004"]


def test_det004_two_level_helper_chain():
    src = (
        "from repro.utils.rng import as_rng\n\n\n"
        "def _inner(rng):\n"
        "    return rng.random()\n\n\n"
        "def _outer(rng):\n"
        "    return _inner(rng)\n\n\n"
        "def run():\n"
        "    return _outer(as_rng(None))\n"
    )
    out = check_source(src, "src/repro/experiments/run.py")
    det = [v for v in out if v.rule_id == "DET004"]
    assert det and det[0].line == 13


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
