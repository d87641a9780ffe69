"""The repository benchmark: one command, three seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload explore_cold --seed 1 --seconds 15 --trace 0

Workloads are ``ingest``, ``explore_cold`` and ``replay_warm`` (see
``workloads.py``).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` measures half the time untraced and half with spans around
every layer, and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``); the line before it is the run's
report (workload provenance, checks, timings and, when traced, the layer
table).  Every file the run writes lives under ``.perfbench_work/`` and is
removed when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest", "explore_cold", "replay_warm")


def _metric_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    units = _metric_units()[args.trace]

    import workloads

    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               args.trace == "1", work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    values = result["metrics"]
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print(json.dumps(result["report"], sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
