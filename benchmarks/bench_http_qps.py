"""HTTP gateway throughput — the front door vs the raw socket path.

The gateway satellite's measured claim: putting an HTTP/1.1 face (with
API-key tenancy and admission control) on the serving stack keeps it a
*front door*, not a bottleneck.  One store-backed asyncio server
subprocess hosts the fitted engine; the same seeded open-loop schedule
is replayed twice:

1. **raw socket** — a pipelined ``AsyncRemoteBackend``, the fastest
   client the stack offers (the upper bound on what the server leg can
   deliver for this workload);
2. **http gateway** — an ``HttpGateway`` fronting an identical pipelined
   client, driven by three authenticated tenants round-robinning their
   sessions over keep-alive HTTP connections, exactly how external
   tooling would arrive.

Both legs rebuild the schedule from the same seed and assert fingerprint
equality, so the committed record doubles as a reproducibility proof —
and both must serve the whole workload with zero errors (admission is
configured wide; this bench measures overhead, not shedding).

Output: ``benchmarks/out/bench_http_qps.json`` (override the directory
with ``REPRO_BENCH_OUT``).  The committed trajectory record lives at the
repo root as ``BENCH_http_qps.json`` and gates in CI via
``scripts/ci/bench_gate.py``.
"""

import json
import os
from pathlib import Path

from repro.bench import render_record, run_http_qps_experiment

DEFAULT_OUT_DIR = Path(__file__).resolve().parent / "out"


def _out_path() -> Path:
    out_dir = Path(os.environ.get("REPRO_BENCH_OUT", DEFAULT_OUT_DIR))
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / "bench_http_qps.json"


def test_http_qps(benchmark, once, capsys):
    record = once(
        benchmark,
        run_http_qps_experiment,
        dataset_name="cyber",
        arrival_rate=8.0,
        n_sessions=24,
        sessions_per_dataset=8,
        n_rows=1500,
        k=10,
        l=7,
        seed=0,
        window=64,
        n_tenants=3,
    )
    with capsys.disabled():
        print()
        print(render_record(record))

    path = _out_path()
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    with capsys.disabled():
        print(f"wrote {path}")

    # The workload regenerated bit-identically for both legs.
    raw, gateway = record["raw_socket"], record["gateway"]
    assert record["schedule_fingerprint"]
    assert raw["schedule_fingerprint"] == record["schedule_fingerprint"]
    assert gateway["schedule_fingerprint"] == record["schedule_fingerprint"]

    # Both front ends served the whole workload, error-free (generated
    # degenerate states are rejected identically on both paths).
    assert raw["errors"] == 0
    assert gateway["errors"] == 0
    assert gateway["completed_requests"] == raw["completed_requests"]
    assert gateway["rejected"] == raw["rejected"]

    # Every tenant genuinely carried traffic through the front door.
    tenants = record["tenant_served"]
    assert len(tenants) == 3
    assert all(count > 0 for count in tenants.values()), (
        f"idle tenant: {tenants}"
    )
    # No request was shed: this record measures overhead, not admission.
    assert record["gateway_status"].get("4xx", 0) == 0
    assert record["gateway_status"].get("5xx", 0) == 0

    # The front door must stay in the same league as the raw socket.
    # Open-loop with think times is latency-tolerant, so the bar guards
    # against pathology (a serialized gateway, a per-request dial), not
    # against the honest per-request parsing cost.
    assert record["gateway_fraction"] > 0.5, (
        f"gateway delivers only {record['gateway_fraction']:.2f}x the raw "
        f"socket throughput ({gateway['achieved_qps']:.1f} vs "
        f"{raw['achieved_qps']:.1f} QPS)"
    )
