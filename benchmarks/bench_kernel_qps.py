"""Vectorized-kernel throughput + sampling-based Greedy tradeoff curve.

Two claims ride on this record.  First, the kernel claim: after moving
the per-row/per-cluster python loops (k-means++ seeding, lockstep Lloyd,
centroid accumulation, row collapse, coverage unions) onto batched numpy
primitives — bit-identical to the ``REPRO_KERNEL=reference`` loops by
construction — a *cold* single engine (``use_cache=False``, every select
pays the full pipeline) serves at least 3x the committed ~78.6 QPS
pre-kernel single-engine figure (``committed_baseline_qps`` in
``BENCH_kernel_qps.json``) on the same workload shape.  The per-stage profile (fast vs reference backend on the same
selects) records where the time went.

Second, the Sec. 4 approximation claim: the registry's ``greedy-approx``
(stochastic greedy, ``(1 - 1/e - eps)`` expected bound) trades a bounded
coverage loss for a large latency win over exact Greedy.  The tradeoff
sweep runs both — plus SubTab for scale — on every registry dataset and
must find a sampled point with >= 5x lower select latency at <= 5% cell
-coverage loss on at least one dataset.

Output: ``benchmarks/out/bench_kernel_qps.json`` (override the directory
with ``REPRO_BENCH_OUT``).  The committed record lives at the repo root
as ``BENCH_kernel_qps.json`` and is gated by ``scripts/ci/bench_gate.py``.
"""

import json
import os
from pathlib import Path

from repro.bench import (
    best_tradeoff_point,
    render_record,
    run_kernel_qps_experiment,
)

DEFAULT_OUT_DIR = Path(__file__).resolve().parent / "out"
REPO_ROOT = Path(__file__).resolve().parent.parent

#: QPS floor = 3x the committed pre-kernel single-engine baseline (same
#: dataset, k, l, seed, and session-state workload shape).
BASELINE_MULTIPLE = 3.0


def _out_path() -> Path:
    out_dir = Path(os.environ.get("REPRO_BENCH_OUT", DEFAULT_OUT_DIR))
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / "bench_kernel_qps.json"


def _committed_baseline_qps() -> float:
    record = json.loads((REPO_ROOT / "BENCH_kernel_qps.json").read_text())
    return float(record["committed_baseline_qps"])


def test_kernel_qps_and_greedy_approx_tradeoff(benchmark, once, capsys):
    record = once(
        benchmark,
        run_kernel_qps_experiment,
        dataset_name="cyber",
        n_sessions=12,
        n_rows=1500,
        k=10,
        l=7,
        seed=0,
        max_states=48,
        passes=5,
        committed_baseline_qps=_committed_baseline_qps(),
    )
    with capsys.disabled():
        print()
        print(render_record(record))

    path = _out_path()
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    with capsys.disabled():
        print(f"wrote {path}")

    # Kernel claim: cold selects beat the committed baseline by 3x on the
    # same workload shape, and the profile shows the fast backend actually
    # ran faster than the reference loops it mirrors.
    assert record["speedup_vs_committed"] >= BASELINE_MULTIPLE, (
        f"cold QPS {record['cold']['qps']:.1f} is only "
        f"{record['speedup_vs_committed']:.2f}x the committed "
        f"{record['committed_baseline_qps']:.1f} QPS baseline"
    )
    fast = record["profile"]["fast"]
    reference = record["profile"]["reference"]
    assert fast["select_total"] > 0 and reference["select_total"] > 0
    assert fast["select_total"] < reference["select_total"], (
        f"fast backend not faster end-to-end: {record['profile']}"
    )

    # Approximation claim: on at least one registry dataset a sampled
    # point is >= 5x faster than exact greedy within 5% coverage loss.
    assert len(record["tradeoff"]) >= 5, "tradeoff must sweep the registry"
    best = best_tradeoff_point(record)
    assert best is not None, "no sampled point within 5% coverage loss"
    assert best["speedup"] >= 5.0, (
        f"best within-5%-loss point is only {best['speedup']:.1f}x "
        f"({best['dataset']} @ rate {best['sample_rate']})"
    )
