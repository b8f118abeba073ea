"""``python -m repro.statcheck`` — the statcheck command line.

Every run is the same full analysis of ``paths``, one file at a time.

Exit codes: 0 = clean, 1 = violations, 2 = usage or internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.statcheck.core import all_rules, check_paths, iter_python_files
from repro.statcheck.reporters import render_json, render_rule_list, render_text


def _select_rules(select: Optional[str], ignore: Optional[str]):
    rules = all_rules()
    if select:
        wanted = {s.strip() for s in select.split(",") if s.strip()}
        unknown = wanted - set(rules)
        if unknown:
            raise SystemExit(f"statcheck: unknown rule(s): {sorted(unknown)}")
        rules = {k: v for k, v in rules.items() if k in wanted}
    if ignore:
        dropped = {s.strip() for s in ignore.split(",") if s.strip()}
        rules = {k: v for k, v in rules.items() if k not in dropped}
    return list(rules.values())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.statcheck",
        description="Repo-specific static analysis: determinism, kernel "
        "discipline, numeric safety and API hygiene "
        "(see docs/architecture.md § Static checks).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_list())
        return 0

    try:
        rules = _select_rules(args.select, args.ignore)
    except SystemExit as e:
        print(e, file=sys.stderr)
        return 2

    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        print(f"statcheck: no such path(s): {missing}", file=sys.stderr)
        return 2

    files = list(iter_python_files(args.paths))
    violations = check_paths(files, rules=rules)
    render = render_json if args.format == "json" else render_text
    print(render(violations, len(files)))
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
