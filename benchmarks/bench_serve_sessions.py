"""Session-serving latency — cold vs. cached select() (serving layer).

The serving layer's claim: fit once, precompute the full-table vectors, and
session replay (revisited states, back-navigation, shared dashboards) is
answered from the selection LRU without re-running clustering.  This
benchmark replays synthetic EDA sessions through :class:`repro.api.Engine`,
records per-select wall-clock for the cold pass (every state distinct, LRU
empty) and the cached pass (full replay, every select an LRU hit), and
emits a JSON record so the serving trajectory can be tracked run over run.

Output: ``benchmarks/out/bench_serve_sessions.json`` (override the
directory with ``REPRO_BENCH_OUT``).

Reproduction target: cached replay is measurably faster than cold
selection — the mean cached select must beat the mean cold select by a wide
margin, and every replayed step must hit the cache.
"""

import json
import os
from pathlib import Path

from repro.bench import render_record, run_serve_session_experiment

DEFAULT_OUT_DIR = Path(__file__).resolve().parent / "out"


def _out_path() -> Path:
    out_dir = Path(os.environ.get("REPRO_BENCH_OUT", DEFAULT_OUT_DIR))
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / "bench_serve_sessions.json"


def test_serve_session_replay_latency(benchmark, once, capsys):
    record = once(
        benchmark,
        run_serve_session_experiment,
        dataset_name="cyber",
        n_sessions=12,
        n_rows=1500,
        k=10,
        l=7,
        seed=0,
    )
    with capsys.disabled():
        print()
        print(render_record(record))

    path = _out_path()
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    with capsys.disabled():
        print(f"wrote {path}")

    # The serving layer must actually serve: selections happened, replay hit
    # the cache on every step, and cached selects are measurably faster.
    assert record["n_cold_selects"], "no cold selections ran"
    assert record["n_cached_selects"], "no cached selections ran"
    assert record["cache"]["hits"] >= record["n_cached_selects"]
    cached, cold = record["cached_mean_seconds"], record["cold_mean_seconds"]
    assert cached < cold / 10, (
        f"cached mean {cached:.6f}s not measurably faster than "
        f"cold mean {cold:.6f}s"
    )
