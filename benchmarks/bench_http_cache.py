"""Gateway response cache — replayed-session QPS, cache on vs off.

The cache tentpole's measured claim: for replayed analyst sessions the
fingerprint-keyed response cache turns the HTTP front door into the
*fastest* path the stack offers, not merely a cheap one.  The open-loop
HTTP bench is arrival-limited and cannot show this, so this bench is
closed-loop: a deduplicated list of session-derived requests is replayed
``passes`` times, back to back, through three front ends of one
store-backed asyncio server (its own selection LRU pinned to one slot so
repeats always recompute):

1. **raw socket** — a blocking ``RemoteBackend``, the stack's floor;
2. **gateway, cache off** — ``HttpGateway`` with ``cache_size=0``, the
   price of HTTP parsing + auth + admission + the executor hop;
3. **gateway, cache on** — a fresh gateway whose response cache serves
   passes 2+ from stored entry bytes without touching the backend.

Correctness is asserted inside the experiment and again here: the cached
reply is byte-identical to the cold one (``X-Cache: miss`` → ``hit``,
strong ``ETag`` match) and a conditional request round-trips ``304 Not
Modified`` with an empty body.

Output: ``benchmarks/out/bench_http_cache.json`` (override the directory
with ``REPRO_BENCH_OUT``).  The committed trajectory record lives at the
repo root as ``BENCH_http_cache.json`` and gates in CI via
``scripts/ci/bench_gate.py``.
"""

import json
import os
from pathlib import Path

from repro.bench import render_record, run_http_cache_experiment

DEFAULT_OUT_DIR = Path(__file__).resolve().parent / "out"


def _out_path() -> Path:
    out_dir = Path(os.environ.get("REPRO_BENCH_OUT", DEFAULT_OUT_DIR))
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / "bench_http_cache.json"


def test_http_cache(benchmark, once, capsys):
    record = once(
        benchmark,
        run_http_cache_experiment,
        dataset_name="cyber",
        n_requests=16,
        passes=5,
        sessions_per_dataset=8,
        k=10,
        l=7,
        seed=0,
        window=64,
        cache_size=256,
    )
    with capsys.disabled():
        print()
        print(render_record(record))

    path = _out_path()
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    with capsys.disabled():
        print(f"wrote {path}")

    # Every leg served the identical replay, error-free.
    assert record["raw_socket"]["errors"] == 0
    assert record["cache_off"]["errors"] == 0
    assert record["cache_on"]["errors"] == 0
    assert record["cache_on"]["requests"] == record["cache_off"]["requests"]

    # The replay populated on pass 1 and served the rest from entries
    # (the identity probe adds one miss/store before the timed replay).
    assert record["cache_counters"].get("hits", 0) > 0
    assert record["cache_counters"].get("misses", 0) >= record["n_requests"]

    # The correctness proofs baked into the record.
    assert record["bit_identical"]
    assert record["revalidated_304"]

    # The headline: caching the front door pays for the whole stack —
    # at least 3x the uncached gateway on this replay.
    assert record["speedup"] >= 3.0, (
        f"cache-on/cache-off speedup {record['speedup']:.2f}x < 3x"
    )
