"""DET rules — the bit-exact-reproduction invariants.

Every result the repo publishes (EXPERIMENTS.md, calibration tables) must be
a pure function of explicit seeds: the same seed must yield the same forest,
layout and simulated trace on any machine.  These rules ban the three ways
that property silently breaks: wall-clock reads, legacy global-state
randomness, and iteration order that depends on hash seeds.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.statcheck.astutils import call_name, dotted_name, resolved_name
from repro.statcheck.core import FileContext, Rule, Violation, register

#: Wall-clock sources: never legitimate in result-producing code.
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

#: Monotonic timers: fine for progress printing, but only in modules whose
#: job is wall-clock reporting — results themselves must not depend on them.
MONOTONIC = {
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
}

#: Modules allowed to use monotonic timers.  Exactly one: the sanctioned
#: clock seam (repro.utils.clock).  Everything else — CLI progress printing
#: included — must go through its Stopwatch/MonotonicClock wrappers, so
#: wall-clock access stays greppable at a single site.
TIMING_ALLOWLIST = frozenset(
    {
        "repro/utils/clock.py",
    }
)

#: Legacy numpy.random module-level functions (global-state RNG).
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

#: numpy.random members that are part of the sanctioned Generator API.
ALLOWED_NP_RANDOM = {"Generator", "SeedSequence", "BitGenerator", "PCG64"}

#: Other nondeterministic entropy sources.
OTHER_ENTROPY = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}

#: The one module allowed to call numpy.random.default_rng directly — it
#: *is* the sanctioned wrapper.
RNG_MODULE = "repro/utils/rng.py"


@register
class WallClockRule(Rule):
    id = "DET001"
    summary = (
        "wall-clock reads (time.time, datetime.now) are banned; monotonic "
        "timers only in allowlisted timing modules"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, ctx.aliases)
            if name in WALL_CLOCK:
                yield ctx.violation(
                    node,
                    self.id,
                    f"{name}() is a wall-clock read; use time.perf_counter() "
                    "for durations or pass timestamps in explicitly",
                )
            elif name in MONOTONIC and ctx.module_key not in TIMING_ALLOWLIST:
                yield ctx.violation(
                    node,
                    self.id,
                    f"{name}() in a result-producing module; timing belongs "
                    "in the allowlisted CLI/reporting layer "
                    f"({', '.join(sorted(TIMING_ALLOWLIST))})",
                )


@register
class LegacyRandomRule(Rule):
    id = "DET002"
    summary = (
        "global-state randomness is banned; route seeds through "
        "repro.utils.rng.as_rng / spawn_rngs"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            name = resolved_name(node, ctx.aliases)
            if name is None:
                continue
            # Stdlib random: flag any use of a name that an import bound to
            # the random module (``import random`` / ``from random import
            # shuffle``).  Duplicate hits along one attribute chain collapse
            # in check_source's (line, col) dedupe.
            raw = dotted_name(node) or ""
            mapped = ctx.aliases.get(raw.split(".", 1)[0])
            if mapped == "random" or (mapped or "").startswith("random."):
                yield ctx.violation(
                    node,
                    self.id,
                    f"stdlib {name} uses hidden global RNG state; use "
                    "repro.utils.rng.as_rng(seed) and Generator methods",
                )
                continue
            if name.startswith("numpy.random."):
                member = name.split(".", 2)[2].split(".")[0]
                if member in LEGACY_NP_RANDOM:
                    yield ctx.violation(
                        node,
                        self.id,
                        f"legacy {name} uses hidden global RNG state; use "
                        "repro.utils.rng.as_rng(seed) and Generator methods",
                    )
                elif (
                    member == "default_rng" and ctx.module_key != RNG_MODULE
                ):
                    yield ctx.violation(
                        node,
                        self.id,
                        "call repro.utils.rng.as_rng instead of "
                        "numpy.random.default_rng so SeedLike inputs are "
                        "normalised consistently",
                    )
            elif name in OTHER_ENTROPY:
                yield ctx.violation(
                    node,
                    self.id,
                    f"{name} is a nondeterministic entropy source",
                )


def _is_set_expr(node: ast.AST, aliases) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return call_name(node, aliases) in ("set", "frozenset")
    return False


@register
class UnorderedIterationRule(Rule):
    id = "DET003"
    summary = (
        "iterating a set has hash-seed-dependent order; wrap in sorted()"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            iters = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) and call_name(
                node, ctx.aliases
            ) in ("enumerate", "list", "tuple", "zip", "map"):
                iters.extend(node.args)
            for it in iters:
                if _is_set_expr(it, ctx.aliases):
                    yield ctx.violation(
                        it,
                        self.id,
                        "iteration over a set is unordered (PYTHONHASHSEED-"
                        "dependent for str keys); wrap in sorted() to make "
                        "downstream results reproducible",
                    )
