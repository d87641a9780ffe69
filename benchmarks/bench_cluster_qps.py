"""Cluster serving throughput — consistent-hash members over sockets.

The multi-host claim, staged on one machine: the fitted artifact makes
spinning up a serving *member* cheap (each is a subprocess socket server
whose engine ``Engine.load``-s the shared artifact), and consistent-hash
routing shards the request stream so the ring's aggregate selection-LRU
capacity is ``members x cache_size``.  This benchmark serves the same
cyclic session workload — more distinct states than one member's LRU
holds — through clusters of 1, 2, and 4 members and records each ring's
aggregate QPS next to the single-warm-engine baseline and the committed
single-host pool numbers (``BENCH_pool_qps.json``).

On a single-core host the scaling is pure cache sharding plus pipelined
socket I/O (members time-share the CPU); on multi-host deployments CPU
parallelism compounds it.

Output: ``benchmarks/out/bench_cluster_qps.json`` (override the directory
with ``REPRO_BENCH_OUT``).  The committed trajectory record lives at the
repo root as ``BENCH_cluster_qps.json``.

Reproduction target: the 4-member ring clearly out-serves the 1-member
ring on the LRU-adversarial workload, with the full ring absorbing the
repeated rounds in its sharded LRUs.
"""

import json
import os
from pathlib import Path

from repro.bench import render_record, run_cluster_qps_experiment

DEFAULT_OUT_DIR = Path(__file__).resolve().parent / "out"
POOL_REFERENCE = Path(__file__).resolve().parent.parent / "BENCH_pool_qps.json"


def _out_path() -> Path:
    out_dir = Path(os.environ.get("REPRO_BENCH_OUT", DEFAULT_OUT_DIR))
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / "bench_cluster_qps.json"


def test_cluster_qps_scaling(benchmark, once, capsys):
    record = once(
        benchmark,
        run_cluster_qps_experiment,
        dataset_name="cyber",
        n_sessions=12,
        n_rows=1500,
        k=10,
        l=7,
        seed=0,
        member_counts=(1, 2, 4),
        rounds=6,
        pool_reference_path=str(POOL_REFERENCE),
    )
    with capsys.disabled():
        print()
        print(render_record(record))

    path = _out_path()
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    with capsys.disabled():
        print(f"wrote {path}")

    # The ring must actually shard: the workload overflows one member's
    # LRU, every member of the full ring serves, nothing fails over, and
    # aggregate throughput grows with the member count.
    assert record["n_states"] > record["cache_size"], (
        "workload too small to stress a single member's LRU"
    )
    members = record["members"]
    for count in record["member_counts"]:
        leg = members[str(count)]
        assert leg["served"] == record["baseline"]["served"]
        assert leg["errors"] == 0
        assert leg["failovers"] == 0
    biggest = str(max(record["member_counts"]))
    full = members[biggest]
    assert all(served > 0 for served in full["per_member"].values()), (
        f"idle members: {full['per_member']}"
    )
    scaling = record["qps_scaling"][biggest]
    first = members[str(record["member_counts"][0])]
    assert scaling >= 1.5, (
        f"4-member ring is only {scaling:.2f}x the 1-member ring "
        f"({full['qps']:.1f} vs {first['qps']:.1f} QPS)"
    )
