"""Human-readable and JSON reporters for statcheck runs."""

from __future__ import annotations

import json
from typing import List

from repro.statcheck.core import Violation, all_rules


def render_text(violations: List[Violation], files_checked: int = 0) -> str:
    lines = [v.format() for v in violations]
    lines.append(
        f"statcheck: {len(violations)} violation"
        f"{'s' if len(violations) != 1 else ''} "
        f"across {files_checked} file{'s' if files_checked != 1 else ''}"
    )
    return "\n".join(lines)


def render_json(violations: List[Violation], files_checked: int = 0) -> str:
    return json.dumps(
        {
            "violations": [v.as_dict() for v in violations],
            "count": len(violations),
            "files_checked": files_checked,
        },
        indent=1,
    )


def render_rule_list() -> str:
    lines = []
    for rule_id, rule in sorted(all_rules().items()):
        scope = ", ".join(rule.path_prefixes) if rule.path_prefixes else "repro/**"
        lines.append(f"{rule_id}  [{scope}]\n    {rule.summary}")
    return "\n".join(lines)
