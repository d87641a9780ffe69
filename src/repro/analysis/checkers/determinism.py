"""Rule ``determinism``: no unseeded or global-state randomness in
``src/repro/``, and no clock read in a selector.

The reproduction claim of the source paper rests on bit-identical
replays: the backend-equivalence suite asserts that the in-process,
cluster, socket, and async paths select the *same* sub-table for the same
seeded request stream.  One unseeded RNG — or one draw from the process
-global ``random``/``numpy.random`` state, whose sequence depends on
everything else that ran in the process — silently breaks that
property on some machine, some day.  All randomness must flow through
explicitly seeded generators (see ``repro.utils.rng.ensure_rng``/
``spawn_rng``).

Flagged in modules whose path contains ``repro``:

* ``numpy.random.default_rng()`` / ``RandomState()`` with no seed (or a
  literal ``None``) — entropy-seeded, never replayable;
* ``random.Random()`` with no seed — same;
* any draw from the legacy numpy global state (``np.random.rand``,
  ``.randint``, ``.shuffle``, ``.seed``, ...) or the stdlib ``random``
  module functions (``random.random``, ``.choice``, ``.seed``, ...) —
  even seeded, global state is shared across the process and not
  replayable per-request.

**Strict mode** for ``src/repro/loadgen/`` and the greedy baselines
(``src/repro/baselines/greedy*``): there, even
``repro.utils.rng.ensure_rng()`` with no argument (or a literal
``None``) is flagged.  ``ensure_rng(None)`` deliberately falls back to
fresh entropy — acceptable for exploratory callers, but a load
schedule must be a pure function of its seed (the committed
``BENCH_loadgen.json`` embeds the schedule fingerprint as proof), and
the greedy family feeds the committed quality-vs-latency tradeoff
records (``BENCH_kernel_qps.json``) whose curves must replay from the
recorded seeds — the sampling-based variant re-seeds per select
precisely so every serving topology returns the same sub-table.  The
entropy loophole is closed for both scopes.

**No clock in a selector** (``repro/baselines/``): a call resolving to
``time.time``, ``time.perf_counter``, ``time.monotonic`` or
``time.process_time`` (or an ``_ns`` form) is flagged.  A selector loop
that stops on a deadline answers by how fast and how loaded the host is,
so the same request gets different sub-tables on different machines;
every loop must end on a count.  ``repro.utils.timer.timed`` is not a
clock read here, so fit timings (EmbDI's embedding) stay legal.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch

from repro.analysis.framework import (
    Checker,
    ModuleContext,
    import_table,
    resolve_call,
)

_NUMPY_GLOBAL_DRAWS = {
    "rand", "randn", "randint", "random", "random_sample", "sample",
    "choice", "shuffle", "permutation", "normal", "uniform", "seed",
    "standard_normal", "beta", "gamma", "poisson", "binomial", "bytes",
}
_STDLIB_GLOBAL_DRAWS = {
    "random", "randint", "choice", "choices", "shuffle", "sample",
    "uniform", "randrange", "seed", "gauss", "betavariate",
    "gammavariate", "randbytes", "getrandbits",
}
_SEEDABLE_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "random.Random",
}
#: In strict scopes these seed-or-entropy helpers must get an explicit seed.
_STRICT_CONSTRUCTORS = {
    "repro.utils.rng.ensure_rng",
}
#: Clock reads flagged in the selector modules (see module docstring).
_CLOCK_READS = {
    f"time.{name}{suffix}"
    for name in ("time", "perf_counter", "monotonic", "process_time")
    for suffix in ("", "_ns")
}


class DeterminismChecker(Checker):
    name = "determinism"
    description = (
        "no unseeded RNG construction or global random/numpy.random "
        "state in src/repro/, and no clock read in a selector"
    )
    scope = ("repro",)

    #: Path parts that put a module in strict mode (see module docstring).
    strict_parts = ("loadgen",)
    #: ``fnmatch`` patterns against the display path that also force
    #: strict mode — finer-grained than whole-directory parts (the greedy
    #: modules share ``baselines/`` with selectors that keep the entropy
    #: fallback).
    #: (both spellings: paths are root-relative, so ``repro/`` may sit at
    #: the front or below ``src/``/a fixture root.)
    strict_globs = ("repro/baselines/greedy*", "*/repro/baselines/greedy*")
    #: ``fnmatch`` patterns against the display path where a clock read
    #: is a finding: the selectors.
    clock_free_globs = ("repro/baselines/*", "*/repro/baselines/*")

    def check_module(self, ctx: ModuleContext) -> list:
        imports = import_table(ctx.tree)
        strict = any(
            part in ctx.display_path.split("/") for part in self.strict_parts
        ) or any(
            fnmatch(ctx.display_path, pattern) for pattern in self.strict_globs
        )
        clock_free = any(
            fnmatch(ctx.display_path, pattern)
            for pattern in self.clock_free_globs
        )
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = resolve_call(node.func, imports)
            if qual is None:
                continue
            message = self._violation(qual, node, strict=strict,
                                      clock_free=clock_free)
            if message is not None:
                findings.append(ctx.finding(self.name, node, message))
        return findings

    @staticmethod
    def _violation(qual: str, call: ast.Call, strict: bool = False,
                   clock_free: bool = False) -> str | None:
        if clock_free and qual in _CLOCK_READS:
            return (
                f"{qual}() reads the clock in a selector; a loop that stops "
                f"on a deadline answers by host speed, so end it on a count"
            )
        if qual in _SEEDABLE_CONSTRUCTORS or (
            strict and qual in _STRICT_CONSTRUCTORS
        ):
            unseeded = not call.args and not call.keywords
            literal_none = (
                call.args
                and isinstance(call.args[0], ast.Constant)
                and call.args[0].value is None
            )
            if unseeded or literal_none:
                if qual in _STRICT_CONSTRUCTORS:
                    return (
                        f"{qual}(None) falls back to fresh entropy; this "
                        f"strict determinism scope (load schedules, greedy "
                        f"tradeoff baselines) requires an explicit seed"
                    )
                return (
                    f"{qual}() without a seed is entropy-seeded and never "
                    f"replayable; thread a seed (repro.utils.rng.ensure_rng)"
                )
            return None
        if qual.startswith("numpy.random."):
            name = qual.rsplit(".", 1)[1]
            if name in _NUMPY_GLOBAL_DRAWS:
                return (
                    f"{qual} draws from numpy's process-global RNG state; "
                    f"use an explicitly seeded Generator instead"
                )
        if qual.startswith("random."):
            name = qual.rsplit(".", 1)[1]
            if name in _STDLIB_GLOBAL_DRAWS:
                return (
                    f"{qual} draws from the stdlib's process-global RNG "
                    f"state; use a seeded random.Random or numpy Generator"
                )
        return None
