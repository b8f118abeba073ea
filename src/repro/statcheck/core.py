"""Rule engine: registry, file contexts, suppressions, and the checker.

Design notes
------------
* A :class:`Rule` sees one :class:`FileContext` (path, parsed tree, source
  lines, resolved import aliases) and yields :class:`Violation` objects.
  Each file is checked on its own; no rule looks across files.
* Scoping is by *module key*: the repo-relative posix path truncated to
  start at ``repro/`` (so ``src/repro/kernels/base.py`` and a test fixture
  checked with ``virtual_path="src/repro/kernels/x.py"`` scope the same
  way).  Rules declare path prefixes over that key.
* Suppressions: a ``disable=RULE[,RULE]`` comment (prefixed with the
  checker's name, or ``disable=all``) on the violation's first physical
  line silences it; the ``disable-file=RULE`` form anywhere silences the
  rule for the whole file.  Suppression comments should say *why*, and
  ones that silence nothing are themselves flagged (SUP001).  A waiver
  for a registered rule the run skipped (``--select``/``--ignore``) is
  not judged, and ``disable=all`` is judged only on a full run.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.statcheck.astutils import build_alias_map

#: Pseudo-rule id used for files that fail to parse.
PARSE_RULE = "PARSE"

#: Pseudo-rule id for suppression comments that silenced nothing.
UNUSED_SUPPRESSION_RULE = "SUP001"

# Rule lists stop at the first token that is not a rule id / comma, so a
# trailing justification after the rule list is allowed (and encouraged).
_RULE_LIST = r"(all|[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
_SUPPRESS_RE = re.compile(r"#\s*statcheck:\s*disable=" + _RULE_LIST)
_SUPPRESS_FILE_RE = re.compile(r"#\s*statcheck:\s*disable-file=" + _RULE_LIST)


@dataclass(frozen=True)
class Violation:
    """One rule hit at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


@dataclass
class FileContext:
    """Everything a rule needs to know about one file."""

    path: str
    tree: ast.Module
    lines: List[str]
    aliases: Dict[str, str] = field(default_factory=dict)

    @property
    def module_key(self) -> str:
        return module_key(self.path)

    def violation(self, node: ast.AST, rule_id: str, message: str) -> Violation:
        return Violation(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=rule_id,
            message=message,
        )


def module_key(path: str) -> str:
    """Scope key: the path from its first ``repro/`` component onward."""
    posix = path.replace(os.sep, "/")
    marker = "/repro/"
    if posix.startswith("repro/"):
        return posix
    idx = posix.find(marker)
    if idx >= 0:
        return posix[idx + 1 :]
    return posix


class Rule:
    """Base class for statcheck rules.

    Subclasses set ``id``/``summary``, optionally ``path_prefixes`` (module
    keys the rule applies to; empty = everywhere under ``repro/``), and
    implement :meth:`check`.
    """

    id: str = ""
    summary: str = ""
    #: Module-key prefixes this rule applies to; () means everywhere.
    path_prefixes: Sequence[str] = ()
    #: Module keys (exact) the rule skips entirely.
    exempt_modules: Sequence[str] = ()

    def applies(self, key: str) -> bool:
        if key in self.exempt_modules:
            return False
        if not self.path_prefixes:
            return True
        return any(key.startswith(p) for p in self.path_prefixes)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def register(cls):
    """Class decorator: instantiate and register a rule by its id."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> Dict[str, Rule]:
    """The registered rules, importing the bundled rule modules on demand."""
    # Import for side effect: each module registers its rules at import.
    from repro.statcheck.rules import (  # noqa: F401
        api,
        determinism,
        kernels,
        numeric,
        obs,
        perf,
        reliability,
    )

    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def _parse_rule_list(raw: str) -> Optional[set]:
    raw = raw.strip()
    if raw == "all":
        return None  # None = every rule
    return {part.strip() for part in raw.split(",") if part.strip()}


@dataclass
class _Suppression:
    """One suppression comment, with usage tracking for SUP001."""

    line: int
    col: int
    rules: Optional[set]  # None = all
    file_wide: bool
    used: bool = False

    def covers(self, rule_id: str) -> bool:
        return self.rules is None or rule_id in self.rules


class SuppressionTable:
    """Every ``# statcheck: disable[-file]=`` comment in one file.

    ``check_source`` consults it per violation; suppressions that silenced
    nothing become :data:`UNUSED_SUPPRESSION_RULE` (SUP001) violations —
    a suppression that no longer fires is debt rotting in place.
    """

    def __init__(self, lines: List[str]):
        self.entries: List[_Suppression] = []
        for i, line in enumerate(lines, start=1):
            m = _SUPPRESS_FILE_RE.search(line)
            if m:
                self.entries.append(
                    _Suppression(i, m.start(), _parse_rule_list(m.group(1)), True)
                )
                continue
            m = _SUPPRESS_RE.search(line)
            if m:
                self.entries.append(
                    _Suppression(i, m.start(), _parse_rule_list(m.group(1)), False)
                )

    def suppressed(self, v: Violation) -> bool:
        hit = False
        for s in self.entries:
            if not s.covers(v.rule_id):
                continue
            # A dead waiver must not waive its own unused-warning via
            # ``disable=all``; silencing SUP001 takes naming it.
            if v.rule_id == UNUSED_SUPPRESSION_RULE and s.rules is None:
                continue
            if s.file_wide or s.line == v.line:
                s.used = True
                hit = True
        return hit

    def unused(self, path: str, skipped: set) -> Iterator[Violation]:
        """SUP001s for waivers that silenced nothing.  A waiver naming a
        ``skipped`` rule (registered, but not run) may still be live, so it
        is not judged; neither is ``disable=all`` unless nothing was
        skipped."""
        for s in self.entries:
            if s.used:
                continue
            if skipped and (s.rules is None or s.rules & skipped):
                continue
            scope = "disable-file" if s.file_wide else "disable"
            what = "all rules" if s.rules is None else ",".join(sorted(s.rules))
            yield Violation(
                path=path,
                line=s.line,
                col=s.col,
                rule_id=UNUSED_SUPPRESSION_RULE,
                message=(
                    f"unused suppression ({scope}={what}): it no longer "
                    "silences any violation — delete the comment so dead "
                    "waivers cannot hide future regressions"
                ),
            )


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
def check_source(
    source: str,
    path: str,
    rules: Optional[Iterable[Rule]] = None,
) -> List[Violation]:
    """Check one source string; ``path`` drives rule scoping and reports."""
    try:
        tree = ast.parse(source)
    except SyntaxError as e:
        return [
            Violation(
                path=path,
                line=e.lineno or 1,
                col=e.offset or 0,
                rule_id=PARSE_RULE,
                message=f"file does not parse: {e.msg}",
            )
        ]
    key = module_key(path)
    lines = source.splitlines()
    ctx = FileContext(
        path=path, tree=tree, lines=lines, aliases=build_alias_map(tree)
    )
    suppressions = SuppressionTable(lines)
    registered = all_rules()
    rules = list(registered.values() if rules is None else rules)
    skipped = set(registered) - {rule.id for rule in rules}
    out: List[Violation] = []
    seen = set()
    for rule in rules:
        if not rule.applies(key):
            continue
        for v in rule.check(ctx):
            # One report per (rule, location): nested attribute chains can
            # re-resolve to the same offending expression.
            loc = (v.rule_id, v.line, v.col)
            if loc in seen:
                continue
            seen.add(loc)
            if not suppressions.suppressed(v):
                out.append(v)
    for v in suppressions.unused(path, skipped):
        if not suppressions.suppressed(v):
            out.append(v)
    out.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return out


def check_file(
    path: str,
    virtual_path: Optional[str] = None,
    rules: Optional[Iterable[Rule]] = None,
) -> List[Violation]:
    """Check one file on disk.

    ``virtual_path`` overrides the path used for scoping/reporting — the
    fixture corpus uses it to exercise path-scoped rules from ``tests/``.
    """
    with open(path, encoding="utf-8") as f:
        source = f.read()
    return check_source(source, virtual_path or path, rules=rules)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                dirs[:] = [d for d in dirs if d not in ("__pycache__", ".git")]
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            yield path


def check_paths(
    paths: Sequence[str],
    rules: Optional[Iterable[Rule]] = None,
) -> List[Violation]:
    """Check every python file under ``paths`` (files or directories)."""
    out: List[Violation] = []
    for f in iter_python_files(paths):
        out.extend(check_file(f, rules=rules))
    return out
