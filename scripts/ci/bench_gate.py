"""Bench-regression gate: fresh QPS vs the committed trajectory records.

For every committed ``BENCH_*.json`` at the repo root, find the fresh
record the benchmark step just wrote under ``benchmarks/out/`` and
compare the headline QPS figures.  A fresh figure more than
``--tolerance`` (default 40%) below its committed counterpart fails the
gate — CI runners are noisy, so the tolerance is wide; a genuine
serving-path regression (a lost cache, a serialized drain, a broken
pipeline) blows through it anyway.

Latency records gate in the opposite direction: a fresh p99 more than
``--latency-tolerance`` (default 1.5x, i.e. 2.5x the committed value)
*above* its committed counterpart fails.  Tail latency needs samples to
mean anything, so a p99 backed by fewer than ``--min-samples``
observations (on either side) is reported but never gated.

Runs in CI after the benchmark steps, and locally:
``python scripts/ci/bench_gate.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_OUT_DIR = REPO_ROOT / "benchmarks" / "out"


def _headline_qps(record: dict) -> dict:
    """The comparable ``{label: qps}`` figures of one bench record, keyed
    by the record's ``experiment`` field."""
    experiment = record.get("experiment")
    if experiment == "cluster_qps":
        members = record["members"]
        biggest = max(members, key=int)
        return {f"cluster_x{biggest}": members[biggest]["qps"]}
    if experiment == "async_qps":
        figures = {
            "pipelined": record["pipelined_client"]["qps"],
            "replica_round_robin": record["replica_round_robin"]["qps"],
        }
        if record.get("replica_hash"):
            figures["replica_hash"] = record["replica_hash"]["qps"]
        return figures
    if experiment == "loadgen":
        knee = record.get("knee")
        if not knee:
            return {}
        return {"knee_achieved": knee["achieved_qps"]}
    if experiment == "http_qps":
        return {
            "gateway": record["gateway"]["achieved_qps"],
            "raw_socket": record["raw_socket"]["achieved_qps"],
        }
    if experiment == "http_cache":
        return {
            "cache_on": record["cache_on"]["achieved_qps"],
            "cache_off": record["cache_off"]["achieved_qps"],
            "raw_socket": record["raw_socket"]["achieved_qps"],
        }
    if experiment == "kernel_qps":
        return {"kernel_cold": record["cold"]["qps"]}
    raise ValueError(f"no QPS extraction for experiment {experiment!r}")


def _headline_p99(record: dict) -> dict:
    """``{label: (p99_seconds, sample_count)}`` latency figures of one
    bench record (empty for experiments without latency headlines)."""
    experiment = record.get("experiment")
    if experiment == "loadgen":
        knee = record.get("knee")
        if not knee:
            return {}
        latency = knee.get("latency", {})
        if "p99" not in latency:
            return {}
        return {"knee_p99": (latency["p99"], latency.get("count", 0))}
    if experiment == "http_qps":
        latency = record.get("gateway", {}).get("latency", {})
        if "p99" not in latency:
            return {}
        return {"gateway_p99": (latency["p99"], latency.get("count", 0))}
    if experiment == "http_cache":
        # cache_on's p99 is its pass-1 miss tail — gate the uncached
        # leg, whose tail is the comparable serving figure.
        latency = record.get("cache_off", {}).get("latency", {})
        if "p99" not in latency:
            return {}
        return {"cache_off_p99": (latency["p99"], latency.get("count", 0))}
    return {}


def compare(reference_path: Path, fresh_path: Path, tolerance: float,
            latency_tolerance: float = 1.5, min_samples: int = 50) -> list:
    """``(label, committed, fresh, ok)`` rows for one record pair.

    QPS rows fail when fresh drops more than ``tolerance`` below
    committed; latency (p99) rows fail when fresh rises more than
    ``latency_tolerance`` above committed — unless either side's
    histogram holds fewer than ``min_samples`` observations, in which
    case the row passes unconditionally (a tail estimated from a
    handful of samples gates nothing).
    """
    committed_record = json.loads(reference_path.read_text())
    fresh_record = json.loads(fresh_path.read_text())
    committed = _headline_qps(committed_record)
    fresh = _headline_qps(fresh_record)
    rows = []
    for label, committed_qps in committed.items():
        fresh_qps = fresh.get(label, 0.0)
        ok = fresh_qps >= (1.0 - tolerance) * committed_qps
        rows.append((label, committed_qps, fresh_qps, ok))
    fresh_p99 = _headline_p99(fresh_record)
    for label, (committed_value, committed_n) in \
            _headline_p99(committed_record).items():
        fresh_value, fresh_n = fresh_p99.get(label, (0.0, 0))
        enough = committed_n >= min_samples and fresh_n >= min_samples
        ok = (not enough) or (
            fresh_value <= (1.0 + latency_tolerance) * committed_value
        )
        rows.append((f"{label}[s]", committed_value, fresh_value, ok))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=0.40,
                        help="allowed fractional QPS regression "
                             "(default: 0.40)")
    parser.add_argument("--latency-tolerance", type=float, default=1.5,
                        help="allowed fractional p99 latency increase "
                             "(default: 1.5, i.e. fresh <= 2.5x committed)")
    parser.add_argument("--min-samples", type=int, default=50,
                        help="minimum histogram sample count before a p99 "
                             "record gates (default: 50)")
    parser.add_argument("--out-dir", type=Path, default=DEFAULT_OUT_DIR,
                        help="directory of fresh bench records")
    parser.add_argument("--reference-dir", type=Path, default=REPO_ROOT,
                        help="directory of committed BENCH_*.json records")
    parser.add_argument("--allow-missing", action="store_true",
                        help="skip committed records whose fresh "
                             "counterpart was not produced (default: fail)")
    args = parser.parse_args(argv)

    references = sorted(args.reference_dir.glob("BENCH_*.json"))
    if not references:
        print(f"bench gate: no committed BENCH_*.json under "
              f"{args.reference_dir}", file=sys.stderr)
        return 1

    failures = 0
    for reference in references:
        fresh = args.out_dir / reference.name.replace("BENCH_", "bench_")
        if not fresh.is_file():
            if args.allow_missing:
                print(f"bench gate: SKIP {reference.name} "
                      f"(no fresh {fresh.name})")
                continue
            print(f"bench gate: FAIL {reference.name}: fresh record "
                  f"{fresh} missing — did the benchmark step run?",
                  file=sys.stderr)
            failures += 1
            continue
        for label, committed, measured, ok in compare(
            reference, fresh, args.tolerance,
            latency_tolerance=args.latency_tolerance,
            min_samples=args.min_samples,
        ):
            verdict = "ok" if ok else "FAIL"
            unit = "s  " if label.endswith("[s]") else "QPS"
            print(f"bench gate: {verdict:4s} {reference.name} [{label}] "
                  f"committed {committed:8.3f} {unit}  fresh "
                  f"{measured:8.3f} {unit}  ({measured / committed:5.1%})"
                  if committed else
                  f"bench gate: {verdict:4s} {reference.name} [{label}] "
                  f"committed 0 {unit}")
            if not ok:
                failures += 1
    if failures:
        print(f"bench gate: {failures} figure(s) regressed more than "
              f"{args.tolerance:.0%} below the committed records",
              file=sys.stderr)
        return 1
    print("bench gate: all fresh QPS figures within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
