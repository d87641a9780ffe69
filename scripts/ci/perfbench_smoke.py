"""Perfbench smoke: check the last line of each saved ``perfbench/run.py`` run.

CI runs every perfbench workload at smoke scale and saves each run's
standard output::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 1 --trace 0 \
        > perfbench-out/ingest.txt

then passes the saved files here::

    python scripts/ci/perfbench_smoke.py perfbench-out/*.txt

The last line of a run is one JSON object.  The gate: the run checked its
outputs (``correct``), failed no step (``failed`` is 0) and attempted at
least one.  The time metrics are printed for the record but not gated:
shared CI runners are too noisy to hold them to a bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(paths: list) -> int:
    if not paths:
        print("usage: perfbench_smoke.py RUN_OUTPUT [RUN_OUTPUT ...]",
              file=sys.stderr)
        return 2
    failures = 0
    for path in paths:
        lines = Path(path).read_text().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError) as error:
            print(f"perfbench smoke: FAIL {path}: no result line ({error})")
            failures += 1
            continue
        ok = (result.get("correct") is True and result.get("failed") == 0
              and result.get("attempted", 0) > 0)
        metrics = "   ".join(
            f"{name}={metric['value']:g}{metric['unit']}"
            for name, metric in sorted(result.get("metrics", {}).items())
        )
        print(f"perfbench smoke: {'ok  ' if ok else 'FAIL'} {path}: "
              f"correct={result.get('correct')} "
              f"attempted={result.get('attempted')} "
              f"failed={result.get('failed')}\n    {metrics}")
        if not ok:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
