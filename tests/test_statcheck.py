"""Tests for repro.statcheck: engine, rules (via the fixture corpus), CLI.

The corpus under ``tests/statcheck_corpus/`` pairs one good and one bad
fixture per rule; fixtures are checked with a ``virtual_path`` under
``src/repro/...`` so path-scoped rules see them in scope.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.statcheck import cli
from repro.statcheck.core import (
    PARSE_RULE,
    all_rules,
    check_file,
    check_source,
    module_key,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS = REPO_ROOT / "tests" / "statcheck_corpus"

#: Corpus subdirectory -> virtual src/ package the fixtures pretend to be in.
VIRTUAL_DIRS = {
    "general": "src/repro",
    "kernels": "src/repro/kernels",
    "experiments": "src/repro/experiments",
    "serving": "src/repro/serving",
    "fastpath": "src/repro/fastpath",
}


def corpus_cases(kind: str):
    """(fixture path, rule id, virtual path) for every ``*_{kind}.py``."""
    cases = []
    for sub, virtual in VIRTUAL_DIRS.items():
        for path in sorted((CORPUS / sub).glob(f"*_{kind}.py")):
            stem = path.name[: -len(f"_{kind}.py")]
            rule_id = stem.upper()
            cases.append(
                pytest.param(path, rule_id, f"{virtual}/{path.name}", id=f"{sub}/{stem}")
            )
    return cases


def check_fixture(path: Path, virtual_path: str):
    return check_file(str(path), virtual_path=virtual_path)


@pytest.mark.parametrize("path,rule_id,virtual", corpus_cases("bad"))
def test_bad_fixture_is_flagged(path, rule_id, virtual):
    hits = [v for v in check_fixture(path, virtual) if v.rule_id == rule_id]
    assert hits, f"{path.name}: expected at least one {rule_id} violation"
    # Every marked line (`# RULEID...` comment) must be flagged.
    marked = {
        i + 1
        for i, line in enumerate(path.read_text().splitlines())
        if f"# {rule_id}" in line
    }
    assert marked <= {v.line for v in hits}, f"{path.name}: missed a marked line"


@pytest.mark.parametrize("path,rule_id,virtual", corpus_cases("good"))
def test_good_fixture_is_clean(path, rule_id, virtual):
    hits = [v for v in check_fixture(path, virtual) if v.rule_id == rule_id]
    assert not hits, f"{path.name}: false positives: {[v.format() for v in hits]}"


@pytest.mark.parametrize("path,rule_id,virtual", corpus_cases("good"))
def test_good_fixture_is_fully_clean(path, rule_id, virtual):
    """Good fixtures model sanctioned style: no rule at all may fire."""
    hits = check_fixture(path, virtual)
    assert not hits, f"{path.name}: {[v.format() for v in hits]}"


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------
def test_module_key_truncates_at_repro():
    assert module_key("src/repro/kernels/base.py") == "repro/kernels/base.py"
    assert module_key("repro/utils/rng.py") == "repro/utils/rng.py"
    assert module_key("/abs/x/src/repro/a.py") == "repro/a.py"
    assert module_key("scripts/tool.py") == "scripts/tool.py"


def test_rule_registry_ids_are_unique_and_nonempty():
    rules = all_rules()
    assert rules, "no rules registered"
    for rule_id, rule in rules.items():
        assert rule.id == rule_id
        assert rule.summary


def test_parse_error_reports_pseudo_rule():
    out = check_source("def broken(:\n", "src/repro/x.py")
    assert [v.rule_id for v in out] == [PARSE_RULE]


def test_same_line_suppression_with_justification():
    src = "import time\nt = time.time()  # statcheck: disable=DET001 wall demo\n"
    assert check_source(src, "src/repro/x.py") == []


def test_suppression_of_other_rule_does_not_silence():
    src = "import time\nt = time.time()  # statcheck: disable=NUM001\n"
    # The DET001 still fires, and the useless NUM001 waiver is itself
    # flagged as an unused suppression (v2).
    assert [v.rule_id for v in check_source(src, "src/repro/x.py")] == [
        "DET001",
        "SUP001",
    ]


def test_unused_suppression_flagged_and_nameable():
    src = "x = 1  # statcheck: disable=DET001 stale waiver\n"
    out = check_source(src, "src/repro/x.py")
    assert [v.rule_id for v in out] == ["SUP001"]
    assert out[0].line == 1
    # Naming SUP001 explicitly is the sanctioned way to silence it...
    src2 = "x = 1  # statcheck: disable=DET001,SUP001 grandfathered\n"
    assert check_source(src2, "src/repro/x.py") == []


def test_unused_disable_all_cannot_hide_its_own_warning():
    src = "x = 1  # statcheck: disable=all\n"
    assert [v.rule_id for v in check_source(src, "src/repro/x.py")] == ["SUP001"]


def test_waiver_for_rule_outside_the_run_is_not_judged(tmp_path, capsys):
    """``--select``/``--ignore`` skip rules, so a waiver naming a skipped
    rule cannot be called unused; ``disable=all`` is judged only on a full
    run, and a waiver naming no registered rule is always flagged."""
    waived = _write(
        tmp_path, "waived.py",
        "import time\nt = time.time()  # statcheck: disable=DET001 demo\n",
    )
    assert cli.main([waived, "--select", "NUM001"]) == 0
    assert cli.main([waived, "--ignore", "DET001"]) == 0
    assert cli.main([waived]) == 0
    blanket = _write(tmp_path, "blanket.py", "x = 1  # statcheck: disable=all\n")
    assert cli.main([blanket, "--select", "NUM001"]) == 0
    assert cli.main([blanket]) == 1
    stale = _write(tmp_path, "stale.py", "x = 1  # statcheck: disable=SRV001\n")
    assert cli.main([stale, "--select", "NUM001"]) == 1
    # The repo's one waiver (API001 in fig5) survives a partial run.
    fig5 = str(REPO_ROOT / "src" / "repro" / "experiments" / "fig5_accuracy.py")
    assert cli.main([fig5, "--select", "KRN003"]) == 0
    assert cli.main([fig5, "--ignore", "API001"]) == 0
    capsys.readouterr()


def test_unused_file_wide_suppression_flagged():
    src = "# statcheck: disable-file=KRN001 old debt\nx = 1\n"
    out = check_source(src, "src/repro/x.py")
    assert [v.rule_id for v in out] == ["SUP001"]
    assert out[0].line == 1


def test_disable_all_suppression():
    src = "import time\nt = time.time()  # statcheck: disable=all\n"
    assert check_source(src, "src/repro/x.py") == []


def test_file_wide_suppression():
    src = (
        "# statcheck: disable-file=DET001 timing helper module\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.time()\n"
    )
    assert check_source(src, "src/repro/x.py") == []


def test_violations_sorted_and_deduped():
    src = "import numpy as np\nb = np.zeros(3)\na = np.random.rand(2)\n"
    out = check_source(src, "src/repro/x.py")
    assert [(v.line, v.rule_id) for v in out] == [(2, "NUM001"), (3, "DET002")]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_clean_file_exits_zero(tmp_path, capsys):
    f = _write(tmp_path, "clean.py", "import numpy as np\nx = np.zeros(3, dtype=np.float32)\n")
    assert cli.main([f]) == 0
    assert "0 violation" in capsys.readouterr().out


def test_cli_violations_exit_one_and_json(tmp_path, capsys):
    f = _write(tmp_path, "dirty.py", "import numpy as np\nx = np.zeros(3)\n")
    assert cli.main([f, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"][0]["rule"] == "NUM001"


def test_cli_select_and_ignore(tmp_path, capsys):
    f = _write(tmp_path, "dirty.py", "import numpy as np\nx = np.zeros(3)\n")
    assert cli.main([f, "--select", "DET001"]) == 0
    assert cli.main([f, "--ignore", "NUM001"]) == 0
    assert cli.main([f, "--select", "NOPE"]) == 2
    capsys.readouterr()


def test_cli_missing_path_exits_two(capsys):
    assert cli.main(["definitely/not/here.py"]) == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert cli.main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = {line.split()[0] for line in out.splitlines() if line[:1].isalpha()}
    assert listed == {
        "API001", "API002", "API003", "DET001", "DET002", "DET003", "KRN003",
        "NUM001", "NUM003", "OBS001", "OBS002", "PERF001", "REL001",
    }


def test_cli_ignores_stale_baseline_file(tmp_path, capsys, monkeypatch):
    """A debt file left in the cwd absorbs nothing: every run is full."""
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "dirty.py", "import numpy as np\nx = np.zeros(3)\n")
    _write(
        tmp_path,
        "statcheck-baseline.json",
        json.dumps({"version": 1, "counts": {"dirty.py::NUM001": 1}}),
    )
    assert cli.main(["dirty.py"]) == 1
    assert "NUM001" in capsys.readouterr().out


def test_repo_source_tree_is_clean(monkeypatch, capsys):
    """The headline acceptance check: `python -m repro.statcheck src` == 0."""
    monkeypatch.chdir(REPO_ROOT)
    assert cli.main(["src"]) == 0
    capsys.readouterr()
