"""Async transport throughput — pipelined frames and read-from-replica.

Two serving-layer claims, measured on one machine with the cyclic session
workload of the cluster benchmark:

1. **Pipelining beats round-tripping on the same single member.**  The
   sync ``RemoteBackend`` can never have more than one frame in flight
   per connection, so every request pays the full encode → socket →
   dispatch → decode chain in sequence.  The pipelined
   ``AsyncRemoteBackend`` streams the same requests as id-tagged frames
   (``window`` in flight, corked burst writes, micro-batched server
   dispatch), amortizing the per-frame syscalls and thread handoffs.

2. **Read replicas beat failover-only replication.**  A 2-member
   ``replication=2`` ring is served under ``primary`` (replicas are
   failover-only, consistent hashing splits traffic unevenly) and
   ``round_robin`` (every replica serves reads, traffic balances).  The
   committed failover-only 2-member record from ``BENCH_cluster_qps.json``
   (89.6 QPS over the sync transport) is embedded as the trajectory
   reference this PR is measured against.

3. **Cache-affinity routing recovers round-robin's duplicated cold
   misses.**  ``round_robin`` alternates the *same* request hash across
   replicas, so every distinct state is computed cold once per replica
   (the committed trajectory shows the price: ~209 QPS vs primary's
   ~409).  The ``hash`` policy serves reads from every replica but pins
   each request hash to one owner — balanced split, every state cold
   exactly once — and must out-serve round-robin on the same ring.

On a single-core container, balancing cannot buy CPU parallelism and
round-robin pays each state's cold miss once per replica, so ``primary``
stays ahead in wall-clock there; the round-robin record is the honest
single-core price of keeping every replica's LRU read-warm, and it still
clears the committed failover-only reference by an integer factor thanks
to the pipelined member clients.  On multi-core hosts the balanced split
(``per_member`` is even under round-robin and hash) converts into real
scaling.

Output: ``benchmarks/out/bench_async_qps.json`` (override the directory
with ``REPRO_BENCH_OUT``).  The committed trajectory record lives at the
repo root as ``BENCH_async_qps.json``.
"""

import json
import os
from pathlib import Path

from repro.bench import render_record, run_async_qps_experiment

DEFAULT_OUT_DIR = Path(__file__).resolve().parent / "out"
CLUSTER_REFERENCE = (
    Path(__file__).resolve().parent.parent / "BENCH_cluster_qps.json"
)


def _out_path() -> Path:
    out_dir = Path(os.environ.get("REPRO_BENCH_OUT", DEFAULT_OUT_DIR))
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / "bench_async_qps.json"


def test_async_qps(benchmark, once, capsys):
    record = once(
        benchmark,
        run_async_qps_experiment,
        dataset_name="cyber",
        n_sessions=12,
        n_rows=1500,
        k=10,
        l=7,
        seed=0,
        window=64,
        rounds=6,
        cluster_reference_path=str(CLUSTER_REFERENCE),
    )
    with capsys.disabled():
        print()
        print(render_record(record))

    path = _out_path()
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    with capsys.disabled():
        print(f"wrote {path}")

    # Every path served the whole workload without failovers.
    expected = record["n_states"] * record["rounds"]
    sync, pipelined = record["sync_client"], record["pipelined_client"]
    primary, round_robin, hashed = (record["replica_primary"],
                                    record["replica_round_robin"],
                                    record["replica_hash"])
    reference = record["cluster_reference"]
    for leg in (sync, pipelined, primary, round_robin, hashed):
        assert leg["served"] == expected
    for leg in (primary, round_robin, hashed):
        assert leg["errors"] == 0
        assert leg["failovers"] == 0

    # Claim 1: the pipelined client out-serves sync round trips on the
    # same single member (the margin is far larger than run-to-run noise).
    assert record["pipeline_speedup"] > 1.1, (
        f"pipelined client is only {record['pipeline_speedup']:.2f}x the sync "
        f"client ({pipelined['qps']:.1f} vs {sync['qps']:.1f} QPS)"
    )

    # Claim 2: replicas genuinely serve reads — the round-robin split is
    # balanced where primary's consistent-hash split is lopsided...
    spread = round_robin["per_member"].values()
    assert max(spread) <= 1.5 * min(spread), (
        f"round-robin reads did not balance: {round_robin['per_member']}"
    )
    # ...and the read-replica ring clears the committed failover-only
    # 2-member record it supersedes.
    if reference:
        assert round_robin["qps"] > reference["qps"], (
            f"read-replica ring ({round_robin['qps']:.1f} "
            f"QPS) does not beat the committed failover-only 2-member "
            f"record ({reference['qps']:.1f} QPS)"
        )

    # Claim 3: cache-affinity routing splits work across both replicas
    # (the hash parity of the seeded state set decides the exact ratio,
    # so the bound only guards against one member going idle) but pays
    # each cold miss once, so it must out-serve round-robin...
    hash_spread = hashed["per_member"].values()
    assert min(hash_spread) >= 0.1 * sum(hash_spread), (
        f"hash routing left a replica idle: {hashed['per_member']}"
    )
    assert record["affinity_gain"] > 1.1, (
        f"hash routing is only {record['affinity_gain']:.2f}x round_robin "
        f"({hashed['qps']:.1f} vs {round_robin['qps']:.1f} QPS)"
    )
    # ...and clears the committed failover-only reference too.
    if reference:
        assert hashed["qps"] > reference["qps"]
