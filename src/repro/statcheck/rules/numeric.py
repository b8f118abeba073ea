"""NUM rules — dtype and persistence discipline.

The paper's layouts are float32 values + int32/int64 indices by design
(§3.1: memory footprint is part of the result).  NumPy's constructors
default to float64/platform int, so an implicit dtype is either a silent
2x memory inflation or a platform-dependent index width; NUM001 flags a
dtype-less constructor.  A float64 that reaches a layout is caught at run
time by the layout dtype pin
(``tests/test_layout_codec.py::TestLayoutDtypes``), and a float64 decode
of quantized codes by the boundary-row golden input in
``tests/test_fastpath.py::TestQuantizedGolden``.

Persisted ``.npz`` artifacts must carry per-array CRCs so the integrity
layer (``repro.reliability.integrity``) can catch corruption before it
skews a benchmark (NUM003).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.statcheck.astutils import call_name, has_keyword
from repro.statcheck.core import FileContext, Rule, Violation, register

#: Constructors whose dtype defaults are platform/precision traps.
DTYPE_REQUIRED = {
    "numpy.zeros",
    "numpy.ones",
    "numpy.empty",
    "numpy.full",
    "numpy.arange",
}

SAVERS = {"numpy.savez", "numpy.savez_compressed", "numpy.save"}


@register
class ImplicitDtypeRule(Rule):
    id = "NUM001"
    summary = (
        "array constructors must pass an explicit dtype (float64/platform-"
        "int defaults break the paper's float32/int64 layout contract)"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, ctx.aliases)
            if name in DTYPE_REQUIRED and not has_keyword(node, "dtype"):
                yield ctx.violation(
                    node,
                    self.id,
                    f"{name}() without dtype= defaults to float64/platform "
                    "int; state the layout dtype explicitly "
                    "(np.float32 values, np.int64 indices)",
                )


@register
class UnchecksummedSaveRule(Rule):
    id = "NUM003"
    summary = (
        ".npz/.npy persistence must be covered by per-array array_crc32 "
        "checksums (see repro.forest.io)"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        has_crc = any(
            (isinstance(n, ast.Name) and n.id == "array_crc32")
            or (isinstance(n, ast.Attribute) and n.attr == "array_crc32")
            or (
                isinstance(n, ast.ImportFrom)
                and any(a.name == "array_crc32" for a in n.names)
            )
            for n in ast.walk(ctx.tree)
        )
        if has_crc:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and call_name(
                node, ctx.aliases
            ) in SAVERS:
                yield ctx.violation(
                    node,
                    self.id,
                    "array persistence without array_crc32 coverage; "
                    "checksum every saved array so load-time integrity "
                    "checks can reject corrupt caches "
                    "(repro.utils.validation.array_crc32)",
                )
