"""Self-test of the benchmark's own arithmetic, at toy scale, in seconds.

Covers span nesting and self time across two processes, the unattributed
share, the percentile rule, the request-stream fingerprint and that
``BENCHMARK.json`` lists the per-layer metrics ``layers.py`` defines.  Run from
the repository root: ``python3 perfbench/selftest.py`` (exit code 0 when
every check holds).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

FAILURES: list = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-9


def test_nesting_and_self_time() -> None:
    # One client step [0, 10]; the server's spans carry no step and must be
    # placed by time inside the client's HTTP exchange, which is timed as
    # three calls and merged into one span.
    client = [Span("client.http_send", 1.0, 1.5, 0), Span("client.http_wait", 1.5, 8.0, 0),
              Span("client.http_read", 8.0, 8.2, 0), Span("client.decode", 8.5, 9.0, 0)]
    server = [Span("gateway.handle", 2.0, 7.0), Span("serve.dispatch", 3.0, 6.0),
              Span("api.engine", 3.5, 5.5), Span("cluster.kmeans", 4.0, 4.5, count=80),
              Span("cluster.kmeans", 4.6, 5.1, count=20),
              Span("gateway.handle", 11.0, 12.0)]          # between steps: an orphan
    profiles, anomalies = tracing.profile_steps(client + server, [(0, 0.0, 10.0)])
    layers_of = profiles[0]["layers"]
    expect(anomalies == {"orphans": 1, "crossings": 0}, "one orphan, no crossing")
    expect(close(layers_of["client.http"][layers.SELF], 7.2 - 5.0),
           "transport = exchange minus the server's handle span")
    expect(close(layers_of["gateway.handle"][layers.SELF], 2.0), "handle self time")
    expect(close(layers_of["serve.dispatch"][layers.SELF], 1.0), "dispatch self time")
    expect(close(layers_of["api.engine"][layers.SELF], 1.0), "engine self time")
    expect(layers_of["cluster.kmeans"][:2] == [2, 100], "kmeans calls and points")
    expect(close(profiles[0]["covered"], 7.7), "covered = exchange + decode")
    metrics = layers.span_metrics(profiles)
    expect(close(metrics["unattributed_share"], 0.23), "unattributed share")
    expect(close(metrics["transport.wait_ms"], 2200.0), "transport.wait_ms")
    expect(close(metrics["cluster.kmeans_ms.total"], 1000.0), "run total")
    selves = sum(row["self_s_total"] for row in layers.self_time_table(profiles).values())
    expect(close(selves, 10.0), "self times plus unattributed add up to the step")

    crossing = [Span("a", 0.0, 2.0, 0), Span("b", 1.0, 3.0, 0)]
    _, anomalies = tracing.profile_steps(crossing, [(0, 0.0, 4.0)])
    expect(anomalies["crossings"] == 1, "a span crossing its parent's end is counted")


CHILD = """
import sys, time
sys.path.insert(0, {perfbench!r})
import tracing

class Layer:
    def work(self):
        time.sleep(0.05)

recorder = tracing.Recorder()
recorder.patch(Layer, "work", "server.work")
recorder.active = True
Layer().work()
recorder.dump({path!r})
"""


def test_two_processes(work: Path) -> None:
    # A real second process: its span must land inside the parent's step,
    # because both read CLOCK_MONOTONIC through perf_counter.
    path = work / "child-spans.json"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", CHILD.format(perfbench=str(HERE), path=str(path))],
                   check=True, timeout=60)
    end = time.perf_counter()
    spans = [Span(*row) for row in tracing.load_spans(str(path))]
    parent = [Span("client.http_wait", start, end, 0)]
    profiles, anomalies = tracing.profile_steps(parent + spans, [(0, start, end)])
    child = profiles[0]["layers"].get("server.work")
    expect(anomalies == {"orphans": 0, "crossings": 0} and child is not None
           and child[2] >= 0.05, "a child process's span nests in the parent's step")


def test_percentile_rule() -> None:
    values = list(range(1, 1001))
    expect(measure.percentile(values, 99.0) == 990, "nearest-rank p99 of 1..1000")
    expect(measure.tail_percentile(1000) == 99.0, "1000 samples support p99")
    expect(measure.tail_percentile(999) == 95.0, "999 samples do not")
    expect(measure.tail_percentile(10_000) == 99.9, "10000 samples support p99.9")
    expect(measure.tail_percentile(39) is None, "39 samples support no tail")
    summary = measure.timing_summary([0.001] * 40, scale=1e3)
    expect(summary["tail_pct"] == 75.0 and close(summary["median"], 1.0),
           "summary scales and picks p75 at 40 samples")


def test_stream_fingerprint() -> None:
    import workloads
    from repro.binning.normalize import normalize_table
    from repro.binning.pipeline import TableBinner
    from repro.core.config import SubTabConfig

    def build(seed: int) -> tuple:
        tables = workloads.generate_tables(seed, rows=300)
        binner = TableBinner.from_config(SubTabConfig())
        binned = {name: binner.bin_table(normalize_table(dataset.frame))
                  for name, dataset in tables.items()}
        cold = workloads.cold_stream(binned, tables, seed, limit=60)
        replay = [request for _, request in
                  workloads.replay_sequence(binned, tables, seed, distinct=20)]
        return (measure.stream_fingerprint(cold), measure.stream_fingerprint(replay),
                workloads.table_fingerprint(tables))

    first, second, other = build(7), build(7), build(8)
    expect(first == second, "two builds from one seed send the same streams")
    expect(all(a != b for a, b in zip(first, other)), "another seed sends other streams")


def test_metric_list() -> None:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        listed = [(m["name"], m["unit"], m["better"]) for m in json.load(handle)["per_layer"]]
    expect(listed == layers.per_layer_names(),
           "BENCHMARK.json lists the per-layer metrics layers.py defines")


def main() -> int:
    work = HERE.parent / ".perfbench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        test_nesting_and_self_time()
        test_two_processes(work)
        test_percentile_rule()
        test_stream_fingerprint()
        test_metric_list()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
