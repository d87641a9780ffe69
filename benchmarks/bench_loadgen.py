"""Open-loop load harness — the saturation knee of one async server.

The closed-loop QPS benchmarks (cluster/async) measure ceilings:
how fast a topology drains a queue that is always full.  This benchmark
measures what analysts experience on the way to that ceiling: seeded
sessions arrive open-loop (Poisson arrivals at a fixed rate, exponential
think times, zipf-skewed dataset popularity) against one multi-dataset
``spawn_store_server`` subprocess, and arrivals never wait for
completions — so once the server saturates, queueing delay lands in the
latency percentiles instead of silently throttling offered load.

The sweep raises the arrival rate until the achieved/offered ratio
drops; the *knee* is the highest rate still delivering >=90%.  Every
request carries a trace id, so the record also pins per-stage p50s
(client queue / transport / server / backend / select) across a real
socket hop — the telemetry substrate's end-to-end proof.

Reproducibility is asserted, not assumed: each schedule is built twice
from its seed and the fingerprints must match before a single request
is sent.

Output: ``benchmarks/out/bench_loadgen.json`` (override the directory
with ``REPRO_BENCH_OUT``).  The committed trajectory record lives at the
repo root as ``BENCH_loadgen.json``.
"""

import json
import os
from pathlib import Path

from repro.bench import render_record, run_loadgen_experiment

DEFAULT_OUT_DIR = Path(__file__).resolve().parent / "out"


def _out_path() -> Path:
    out_dir = Path(os.environ.get("REPRO_BENCH_OUT", DEFAULT_OUT_DIR))
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / "bench_loadgen.json"


def test_loadgen_knee(benchmark, once, capsys):
    # The two low rates leave headroom (long scheduled spans, warm LRU);
    # the top rate compresses 48 arrivals into under a second, which one
    # core cannot absorb — the knee must land between them.
    record = once(
        benchmark,
        run_loadgen_experiment,
        dataset_names=("cyber", "flights"),
        arrival_rates=(4.0, 8.0, 64.0),
        n_sessions=48,
        sessions_per_dataset=8,
        n_rows=900,
        k=10,
        l=7,
        seed=0,
        window=64,
    )
    with capsys.disabled():
        print()
        print(render_record(record))

    path = _out_path()
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    with capsys.disabled():
        print(f"wrote {path}")

    # Open loop delivered: every rate ran every scheduled session to the
    # end with zero backend errors (generated degenerate states may be
    # rejected; that is workload shape, not serving failure).
    runs = record["runs"]
    assert len(runs) == 3
    for run in runs.values():
        assert run["completed_sessions"] == run["offered_sessions"]
        assert run["errors"] == 0
        assert run["completed_requests"] > 0
        assert run["latency"]["count"] == run["completed_requests"]

    # The schedule is a pure function of its seed (the experiment builds
    # each one twice and compares), and the zipf mix touched every
    # dataset with rank-1 hottest.
    assert record["schedule_fingerprint"]
    mix = record["dataset_mix"]
    assert set(mix) == {"cyber", "flights"}
    assert mix["cyber"] > mix["flights"]

    # Latency percentiles are ordered and the knee exists at some rate.
    for run in runs.values():
        latency = run["latency"]
        assert latency["p50"] <= latency["p95"] <= latency["p99"]
    assert record["knee"] is not None, "even the lowest rate saturated"

    # Trace ids crossed the socket hop: the client reassembled per-stage
    # timings for both its own stages and the server-side ones.
    example = record["trace_example"]
    assert example and example["id"]
    stages = {stage["stage"] for stage in example["stages"]}
    assert {"server", "transport"} <= stages
    assert {"client_queue", "transport", "server"} <= set(record["trace_stages"])
