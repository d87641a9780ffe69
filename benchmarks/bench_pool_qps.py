"""Pooled serving throughput — EnginePool vs. one warm engine (serving layer).

The scale-out claim: the fitted artifact makes multi-process serving cheap
(workers ``Engine.load`` it and skip normalize/bin/embed entirely), and
hash-routed pooling shards the selection LRUs so the pool's aggregate cache
capacity is ``workers x cache_size``.  This benchmark serves the same
cyclic session workload — more distinct states than one process's LRU
holds, the LRU-adversarial access pattern — through a single warm-started
engine and through ``EnginePool(workers=4)``, and records both paths'
aggregate QPS to JSON.

On a single-core host the pooled win is pure cache sharding (the workers
time-share the CPU); on multi-core hosts CPU parallelism compounds it.

Output: ``benchmarks/out/bench_pool_qps.json`` (override the directory
with ``REPRO_BENCH_OUT``).  The committed trajectory record lives at the
repo root as ``BENCH_pool_qps.json``.

Reproduction target: pooled aggregate QPS is at least 2x the
single-process warm-LRU baseline, with every repeated round served from
the workers' sharded LRUs.
"""

import json
import os
from pathlib import Path

from repro.bench import render_record, run_pool_qps_experiment

DEFAULT_OUT_DIR = Path(__file__).resolve().parent / "out"


def _out_path() -> Path:
    out_dir = Path(os.environ.get("REPRO_BENCH_OUT", DEFAULT_OUT_DIR))
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / "bench_pool_qps.json"


def test_pool_qps_vs_single_warm_lru(benchmark, once, capsys):
    record = once(
        benchmark,
        run_pool_qps_experiment,
        dataset_name="cyber",
        n_sessions=12,
        n_rows=1500,
        k=10,
        l=7,
        seed=0,
        workers=4,
        rounds=6,
        routing="hash",
    )
    with capsys.disabled():
        print()
        print(render_record(record))

    path = _out_path()
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    with capsys.disabled():
        print(f"wrote {path}")

    # The pool must actually pool: every worker served requests, the
    # sharded LRUs caught the repeated rounds, and aggregate throughput
    # beats the single warm process by the reproduction target's margin.
    pool, baseline = record["pool"], record["baseline"]
    assert record["n_states"] > record["cache_size"], (
        "workload too small to stress the single-process LRU"
    )
    assert pool["served"] == baseline["served"]
    assert all(count > 0 for count in pool["per_worker"].values()), (
        f"idle workers: {pool['per_worker']}"
    )
    assert pool["hits"] >= record["n_states"] * (record["rounds"] - 2), (
        f"sharded LRUs missed repeated rounds: {pool}"
    )
    assert record["qps_speedup"] >= 2.0, (
        f"pooled QPS {pool['qps']:.1f} is only {record['qps_speedup']:.2f}x "
        f"the single-process baseline {baseline['qps']:.1f}"
    )
