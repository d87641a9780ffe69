"""Timing statistics, request-stream fingerprints and /proc readers.

One timing rule holds for every number the benchmark prints: a median plus
the highest percentile that leaves at least ten samples beyond it, with the
sample count.  Percentiles are nearest-rank, so a reported value is always
one that was measured.
"""

from __future__ import annotations

import os
import statistics
from typing import Iterable, Optional, Sequence

from repro.api.cache import stable_hash64

#: Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Samples a reported tail percentile must leave beyond it.
MIN_BEYOND = 10


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of ``pct`` among ``n`` samples, in integer
    arithmetic on tenths of a percent (``0.999 * 10000`` is not 9990 in
    floating point)."""
    tenths = round(pct * 10)
    return max(1, -(-tenths * n // 1000))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank ``pct`` percentile of ``values`` (which need not be sorted)."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), pct) - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct`` percentile."""
    return n - _rank(n, pct)


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ``MIN_BEYOND`` samples beyond it."""
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def timing_summary(values: Sequence[float], scale: float = 1.0) -> dict:
    """``{"n", "median", "tail_pct", "tail"}`` of ``values`` times ``scale``.

    ``tail_pct`` is ``None`` (and ``tail`` absent) when fewer than
    ``MIN_BEYOND + 1`` samples exist: no percentile qualifies then.
    """
    n = len(values)
    summary: dict = {"n": n, "median": statistics.median(values) * scale if n else None}
    pct = tail_percentile(n)
    summary["tail_pct"] = pct
    if pct is not None:
        summary["tail"] = percentile(values, pct) * scale
    return summary


def stream_fingerprint(requests: Iterable) -> str:
    """16 hex digits over the canonical wire text of a request stream, in order.

    The same digest :meth:`repro.loadgen.OpenLoopSchedule.fingerprint` uses:
    two runs with equal fingerprints sent byte-identical request streams.
    """
    text = "\n".join(request.to_json() for request in requests)
    return f"{stable_hash64(text.encode('utf-8')):016x}"


def process_cpu_seconds(pid: "int | str" = "self") -> float:
    """User plus system CPU seconds of process ``pid``, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        text = handle.read()
    # The command name may hold spaces; the fields after it are fixed.
    fields = text.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size (``VmHWM``) of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in /proc/{pid}/status")
