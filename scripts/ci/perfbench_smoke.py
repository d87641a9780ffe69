"""Perfbench smoke: check the last line of each saved ``perfbench/run.py`` run.

CI runs every perfbench workload at smoke scale, plus one traced
``explore_cold`` run, and saves each run's standard output::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 1 --trace 0 \
        > perfbench-out/ingest.txt
    python3 perfbench/run.py --workload explore_cold --seed 1 --seconds 1 \
        --trace 1 > perfbench-out/explore_cold-traced.txt

then passes the saved files here::

    python scripts/ci/perfbench_smoke.py perfbench-out/*.txt

A run prints two JSON lines: its report (which names the ``workload``
and, when traced, carries a ``trace`` section), then its result.  The
gate: the run checked its outputs (``correct``), failed no step
(``failed`` is 0) and attempted at least one.  A traced ``explore_cold``
run must also read nonzero for every :data:`TRACED_LAYERS` metric: the
tracer patches the selection and k-means functions by module global, so
moving one of them out from under its patch silently drops that layer to
0.  A seed-1 run's ``stream.fingerprint`` must equal
:data:`SEED1_FINGERPRINTS`, so a change that alters a generated table or
the session stream fails here.  The time metrics are printed for the
record but not gated: shared CI runners are too noisy to hold them to a
bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Per-layer totals a traced ``explore_cold`` run must report as nonzero.
TRACED_LAYERS = ("core.selection_self_ms.total", "cluster.kmeans_calls.total")

#: Each workload's ``stream.fingerprint`` at seed 1: the raw tables for
#: ``ingest``, the request stream for ``explore_cold`` and ``replay_warm``.
#: A change meant to alter a workload's inputs records the new value here.
SEED1_FINGERPRINTS = {
    "ingest": "eb20737cbebb542a",
    "explore_cold": "14ee9022949f77eb",
    "replay_warm": "4283317e562cd17c",
}


def _empty_layers(report: dict, result: dict) -> list:
    """The :data:`TRACED_LAYERS` a traced explore_cold run reads 0 for
    (none for any other run)."""
    if report.get("workload") != "explore_cold" or not report.get("trace"):
        return []
    metrics = result.get("metrics", {})
    return [name for name in TRACED_LAYERS
            if not metrics.get(name, {}).get("value")]


def _input_drift(report: dict) -> "str | None":
    """Why a seed-1 run's inputs differ from :data:`SEED1_FINGERPRINTS`,
    or ``None``."""
    if report.get("seed") != 1:
        return None
    expected = SEED1_FINGERPRINTS.get(report.get("workload"))
    actual = report.get("stream", {}).get("fingerprint")
    if expected is None or actual == expected:
        return None
    return f"stream fingerprint {actual} at seed 1, recorded {expected}"


def main(paths: list) -> int:
    if not paths:
        print("usage: perfbench_smoke.py RUN_OUTPUT [RUN_OUTPUT ...]",
              file=sys.stderr)
        return 2
    failures = 0
    for path in paths:
        lines = Path(path).read_text().splitlines()
        try:
            report, result = json.loads(lines[-2]), json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError) as error:
            print(f"perfbench smoke: FAIL {path}: no report and result lines "
                  f"({error})")
            failures += 1
            continue
        empty = _empty_layers(report, result)
        drift = _input_drift(report)
        ok = (result.get("correct") is True and result.get("failed") == 0
              and result.get("attempted", 0) > 0 and not empty and not drift)
        metrics = "   ".join(
            f"{name}={metric['value']:g}{metric['unit']}"
            for name, metric in sorted(result.get("metrics", {}).items())
        )
        print(f"perfbench smoke: {'ok  ' if ok else 'FAIL'} {path}: "
              f"correct={result.get('correct')} "
              f"attempted={result.get('attempted')} "
              f"failed={result.get('failed')}\n    {metrics}")
        if empty:
            print(f"    traced layers read 0: {', '.join(empty)}")
        if drift:
            print(f"    {drift}")
        if not ok:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
