"""Termination of statcheck's helper inlining on recursive call graphs.

KRN003 inlines same-module helpers by name; a visited-set guard ends the
walk on mutual recursion, and the race is still reported.
"""

from __future__ import annotations

from repro.statcheck.core import check_source


def test_recursive_functions_terminate():
    """Helper inlining (KRN003) follows the call graph; mutual recursion
    ends at its visited-set guard."""
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
