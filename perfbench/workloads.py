"""The three workloads: ``ingest``, ``explore_cold`` and ``replay_warm``.

Every workload uses one table from the ``cyber`` generator (15 columns) and
one from the ``flights`` generator (26 columns, many missing values), each
of ``ROWS`` rows, generated from the seed.  The serving workloads drive the
gateway the way ``docs/operations.md`` deploys it (see ``server.py``) from
one client process: one thread, one keep-alive ``HttpBackend`` connection,
a closed loop with no think time.
"""

from __future__ import annotations

import gc
import itertools
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

import layers
import measure
import tracing
from server import API_KEY, ENGINE_LRU, ENGINES, RESPONSE_CACHE

from repro.api import ArtifactStore, Engine, SelectionRequest
from repro.api.cache import stable_hash64
from repro.api.wire import encode_subtable
from repro.core.config import SubTabConfig
from repro.datasets import make_dataset
from repro.gateway import HttpBackend
from repro.metrics.combined import SubTableScorer
from repro.queries import SessionGenerator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

K, L = 10, 7  # noqa: E741 -- the paper's symbols, as in docs/operations.md
ROWS = 2000
TABLES = ("cyber", "flights")
#: The client's ETag memo (HttpBackend's default).
ETAG_MEMO = 128

#: explore_cold: distinct steps prepared, and the least it sends.
COLD_STREAM = 3000
MIN_COLD_STEPS = 1000
#: Quality is scored on the sub-tables of the first ``SCORED_STEPS``
#: distinct steps of the seed's session stream, on every workload, so per
#: seed it does not depend on host speed; ``SAMPLE_EVERY`` is the stride of
#: explore_cold's comparison with the in-process engine.
SCORED_STEPS = 1000
SAMPLE_EVERY = 25
#: replay_warm: distinct steps in the working set, between the ETag memo and
#: the response cache.
REPLAY_DISTINCT = 200
#: ingest: raw-table generations whose median is ``setup_s``, and the least
#: number of steps (each fits both tables) it times.
INGEST_SETUPS = 5
MIN_INGEST_STEPS = 3
#: Traced runs alternate untraced and traced blocks of this many steps.
TRACE_BLOCK = 50
STARTUP_TIMEOUT = 120.0

WHY = {
    "ingest": "write path: normalize, bin and word2vec each table, then save, "
              "open and show its first display; embedding and binning do the work",
    "explore_cold": "distinct steps, each sent once: every cache misses, so "
                    "clustering and selection dominate each step",
    "replay_warm": "~200 distinct steps replayed: all response-cache hits, "
                   "304s on repeats; gateway, HTTP and decoding are the cost",
}


# -- inputs ------------------------------------------------------------------

def generate_tables(seed: int, rows: int = ROWS) -> dict:
    """The raw tables of one run, one per generator."""
    return {name: make_dataset(name, n_rows=rows, seed=seed * len(TABLES) + i)
            for i, name in enumerate(TABLES)}


def ingest_tables(tables: dict, seed: int, store: ArtifactStore) -> tuple:
    """Fit, save, open and display every table: ``(fit seconds, [(name,
    fitted engine, store record, reopened display)])``."""
    fit_seconds, fitted = 0.0, []
    for name, dataset in tables.items():
        engine = Engine("subtab", SubTabConfig(k=K, l=L, seed=seed))
        start = time.perf_counter()
        engine.fit(dataset.frame)
        fit_seconds += time.perf_counter() - start
        record = store.save(name, engine)
        fitted.append((name, engine, record,
                       store.open(name).select(SelectionRequest(k=K, l=L))))
    return fit_seconds, fitted


def sessions(binned: dict, tables: dict, seed: int) -> Iterator[tuple]:
    """Endless ``(table, session)`` pairs: one analyst alternating tables.

    ``binned`` maps each table to its fitted ``BinnedTable``.
    """
    generators = [
        (name, SessionGenerator(binned[name],
                                pattern_columns=tables[name].pattern_columns,
                                seed=seed * len(TABLES) + i))
        for i, name in enumerate(TABLES)
    ]
    while True:
        for name, generator in generators:
            yield name, generator.generate(1)[0]


def servable_sessions(binned: dict, tables: dict, seed: int) -> Iterator[list]:
    """Each session as ``[(key, request)]`` in step order, minus states the
    engine would reject (no rows or no columns left)."""
    for name, session in sessions(binned, tables, seed):
        frame = binned[name].frame
        yield [((name, step.state.fingerprint()),
                SelectionRequest(k=K, l=L, query=step.state, dataset=name))
               for step in session
               if len(step.state.row_indices(frame)) and step.state.output_columns(frame)]


def cold_stream(binned: dict, tables: dict, seed: int, limit: int = COLD_STREAM) -> list:
    """``limit`` distinct steps in session order, each once."""
    seen, stream = set(), []
    for session in servable_sessions(binned, tables, seed):
        for key, request in session:
            if key not in seen:
                seen.add(key)
                stream.append(request)
                if len(stream) == limit:
                    return stream
    raise AssertionError("unreachable: sessions never end")


def replay_sequence(binned: dict, tables: dict, seed: int,
                    distinct: int = REPLAY_DISTINCT) -> list:
    """Whole sessions, repeats kept, until ``distinct`` distinct steps are
    in; ``[(key, request)]`` in session order."""
    sequence, seen = [], set()
    for session in servable_sessions(binned, tables, seed):
        if len(seen) >= distinct:
            return sequence
        sequence.extend(session)
        seen.update(key for key, _ in session)
    raise AssertionError("unreachable: sessions never end")


def table_shapes(engines: dict) -> dict:
    return {name: {"rows": engine.binned.n_rows, "columns": engine.binned.n_cols,
                   "tokens": engine.binned.n_tokens}
            for name, engine in engines.items()}


def table_fingerprint(tables: dict) -> str:
    """16 hex digits over the raw tables' cells: ingest's input stream."""
    parts = []
    for name, dataset in tables.items():
        for column_name in dataset.frame.columns:
            column = dataset.frame.column(column_name)
            parts.append(f"{name}.{column_name}:".encode("utf-8"))
            parts.append(column.values.tobytes() if column.is_numeric else json.dumps(
                [None if v is None else str(v) for v in column.values]).encode("utf-8"))
    return f"{stable_hash64(b''.join(parts)):016x}"


def same_display(left, right) -> bool:
    return encode_subtable(left.subtable) == encode_subtable(right.subtable)


def quality(engines: dict, tables: dict, seed: int,
            served: Optional[list] = None) -> tuple:
    """Mean cell coverage and diversity, against each full table's rules, of
    the sub-tables for the first ``SCORED_STEPS`` distinct session steps.

    ``served`` holds them as ``[(table, subtable)]`` when the workload was
    served them; otherwise ``engines`` select them in process.
    """
    if served is None:
        binned = {name: engine.binned for name, engine in engines.items()}
        served = [(request.dataset, engines[request.dataset].select(request).subtable)
                  for request in cold_stream(binned, tables, seed, SCORED_STEPS)]
    scorers = {name: SubTableScorer(engine.binned) for name, engine in engines.items()}
    scores = [scorers[name].score(sub.row_indices, sub.columns) for name, sub in served]
    return (statistics.fmean(s.cell_coverage for s in scores),
            statistics.fmean(s.diversity for s in scores))


# -- the server process ------------------------------------------------------

class GatewayProcess:
    """``server.py`` in a child process, driven over its stdin/stdout."""

    def __init__(self, store: Path, trace: bool):
        command = [sys.executable, str(HERE / "server.py"), "--store", str(store)]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(command, cwd=ROOT, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)
        try:
            ready = self._read(STARTUP_TIMEOUT)
        except BaseException:
            self.close()
            raise
        self.pid = ready["pid"]
        self.address = (ready["host"], ready["port"])

    def _read(self, timeout: float) -> dict:
        readable, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if readable else ""
        if not line:
            raise RuntimeError(f"gateway process gave no answer within {timeout:.0f} s "
                               f"(exit code {self.process.poll()})")
        return json.loads(line)

    def command(self, text: str) -> None:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        reply = self._read(30.0)
        if not reply.get("ok"):
            raise RuntimeError(f"gateway process refused {text!r}: {reply}")

    def __enter__(self) -> "GatewayProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        try:
            if self.process.poll() is None:
                self.process.stdin.write("quit\n")
            self.process.stdin.close()
            self.process.wait(timeout=20.0)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait(timeout=20.0)
        self.process.stdout.close()


def gateway_counters(client: HttpBackend) -> dict:
    server = client.stats()["server"]
    cache = server["gateway"]["cache"]
    return {"hits": cache["hits"], "misses": cache["misses"],
            "revalidations": cache["revalidations"],
            "served": server["workspace"]["served"]}


# -- the closed loop ---------------------------------------------------------

def set_tracing(gateway: GatewayProcess, recorder: tracing.Recorder, on: bool) -> None:
    """Switch span recording in both processes, outside any step."""
    if on:
        gateway.command("trace on")
        recorder.active = True
    else:
        recorder.active = False
        gateway.command("trace off")


class Run:
    """The timed steps of one run."""

    def __init__(self) -> None:
        self.steps: list = []        # (index, start, end, traced) per step
        self.replies: list = []      # (index, request, response or None)
        self.failed = 0
        self.errors: list = []
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self.counters: dict = {}

    def latencies(self, traced: bool = False) -> list:
        return [end - start for _, start, end, on in self.steps if on == traced]

    def traced_steps(self) -> list:
        return [(index, start, end) for index, start, end, on in self.steps if on]


def drive(client: HttpBackend, gateway: GatewayProcess, requests: Iterator[tuple],
          seconds: float, min_steps: int, check, keep: int,
          recorder: Optional[tracing.Recorder] = None) -> Run:
    """Send each request once the previous reply is in, for ``seconds`` and
    at least ``min_steps`` steps (or until ``requests`` runs out).

    ``requests`` yields ``(index, request)``; ``check(index, request,
    response)`` returns an error text or ``None``.  Only the first ``keep``
    replies are kept (for the checks after the clock stops), so the client's
    heap, and with it the collector's work, stays flat.  With a ``recorder``,
    blocks of ``TRACE_BLOCK`` steps alternate between untraced and traced,
    so both see the same mix of steps and their difference is the
    tracing overhead.
    """
    run = Run()
    before = gateway_counters(client)
    gc.collect()
    cpu_before = measure.process_cpu_seconds(gateway.pid)
    clock = time.perf_counter
    start = clock()
    for count, (index, request) in enumerate(requests):
        if count >= min_steps and clock() - start >= seconds:
            break
        traced = False
        if recorder is not None:
            traced = (count // TRACE_BLOCK) % 2 == 1
            if traced != recorder.active:
                set_tracing(gateway, recorder, traced)
            recorder.step = index
        step_start = clock()
        try:
            response = client.select(request)
        # The loop must keep going: a failed step is counted, not fatal.
        except Exception as error:
            response, problem = None, f"{type(error).__name__}: {error}"
        else:
            problem = None
        step_end = clock()
        if problem is None:
            problem = check(index, request, response)
        if problem is not None:
            run.failed += 1
            if len(run.errors) < 5:
                run.errors.append(problem)
        run.steps.append((index, step_start, step_end, traced))
        if count < keep:
            run.replies.append((index, request, response))
    run.seconds = clock() - start
    run.cpu_seconds = measure.process_cpu_seconds(gateway.pid) - cpu_before
    if recorder is not None and recorder.active:
        set_tracing(gateway, recorder, False)
    after = gateway_counters(client)
    run.counters = {key: after[key] - before[key] for key in before}
    return run


def step_metrics(latencies: list, cpu_seconds: float) -> dict:
    return {"step_p50_ms": statistics.median(latencies) * 1e3,
            "cpu_ms_per_step": cpu_seconds * 1e3 / len(latencies)}


def traced_metrics(workload: str, spans: list, steps: list, ratios: dict,
                   untraced: list, traced: list, fit_overhead: float) -> tuple:
    """Per-layer metrics of the traced steps plus the report's trace section."""
    profiles, anomalies = tracing.profile_steps(spans, steps)
    values = layers.span_metrics(profiles)
    values.update(ratios)
    values["trace.overhead_step_p50_ms"] = (
        statistics.median(traced) - statistics.median(untraced)) * 1e3
    values["trace.overhead_fit_s"] = fit_overhead
    tail = measure.timing_summary(untraced, 1e3)
    values["step_tail_ms"] = tail.get("tail", max(untraced) * 1e3)
    table = layers.self_time_table(profiles)
    report = {
        "traced_steps": len(steps),
        "self_times": table,
        "anomalies": anomalies,
        "untraced_steps": tail,
        "traced_step_ms": measure.timing_summary(traced, 1e3),
        "predictions": layers.check_predictions(workload, values, table),
        "layer_map": layers.layer_map(),
    }
    return values, report


def gateway_ratios(counters: dict) -> dict:
    lookups = counters["hits"] + counters["misses"]
    return {
        "gateway.cache_hit_ratio": counters["hits"] / lookups if lookups else 0.0,
        "gateway.revalidated_ratio":
            counters["revalidations"] / counters["hits"] if counters["hits"] else 0.0,
    }


# -- workloads ---------------------------------------------------------------

def run_serving(workload: str, seed: int, seconds: int, trace: bool,
                work: Path) -> dict:
    setup_start = time.perf_counter()
    tables = generate_tables(seed)
    store_path = work / "store"
    fit_seconds, fitted = ingest_tables(tables, seed, ArtifactStore(store_path))
    engines = {name: engine for name, engine, _, _ in fitted}
    shapes = table_shapes(engines)
    binned = {name: engine.binned for name, engine in engines.items()}
    if workload == "explore_cold":
        stream = cold_stream(binned, tables, seed)
        keyed = None
    else:
        keyed = replay_sequence(binned, tables, seed)
        stream = [request for _, request in keyed]
    del fitted, engines, binned  # the client holds only its requests while timing
    report: dict = {"tables": shapes,
                    "stream": {"fingerprint": measure.stream_fingerprint(stream),
                               "prepared": len(stream)}}

    recorder = tracing.Recorder()
    if trace:
        tracing.install_client_layers(recorder)
    with GatewayProcess(store_path, trace) as gateway, HttpBackend(
            gateway.address, api_key=API_KEY, etag_cache_size=ETAG_MEMO) as client:
        # Fault each Workspace engine in (and build its lazy caches) with a
        # full-table display, a request no session step sends.
        for name in TABLES:
            client.select(SelectionRequest(k=K, l=L, dataset=name))
        first: dict = {}
        if keyed is None:
            report["working_set"] = {
                "distinct_steps": len(stream), "engine_lru": ENGINE_LRU,
                "response_cache": RESPONSE_CACHE,
                "note": "no step repeats, so every lookup misses"}
            requests = iter(enumerate(stream))

            def check(index, request, response):
                if response.cache_hit:
                    return f"step {index}: engine LRU hit on a cold step"
                return None
        else:
            for key, request in keyed:
                if key not in first:
                    first[key] = client.select(request)
            report["stream"]["distinct"] = len(first)
            report["working_set"] = {
                "distinct_steps": len(first), "warmup_entries": len(TABLES),
                "response_cache": RESPONSE_CACHE, "etag_memo": ETAG_MEMO,
                "fits_response_cache": len(first) + len(TABLES) <= RESPONSE_CACHE,
                "exceeds_etag_memo": len(first) > ETAG_MEMO}
            requests = ((i, keyed[i % len(keyed)][1]) for i in itertools.count())

            def check(index, request, response):
                expected = first[keyed[index % len(keyed)][0]]
                if (response.request != request
                        or response.select_seconds != expected.select_seconds
                        or response.subtable.row_indices != expected.subtable.row_indices
                        or response.subtable.columns != expected.subtable.columns):
                    return f"step {index}: reply differs from the step's first answer"
                return None

        setup_s = time.perf_counter() - setup_start
        run = drive(client, gateway, requests, float(seconds),
                    MIN_COLD_STEPS if keyed is None else 1, check,
                    SCORED_STEPS if keyed is None else len(keyed),
                    recorder if trace else None)
        rss_mb = measure.peak_rss_mb(gateway.pid)
        server_spans: list = []
        if trace:
            spans_path = work / "server-spans.json"
            gateway.command(f"dump {spans_path}")
            server_spans = tracing.load_spans(str(spans_path))

    counters = run.counters
    checks: dict = {}
    if keyed is None:
        checks["no_response_cache_hit"] = counters["hits"] == 0
        checks["every_step_reached_the_engine"] = counters["served"] == len(run.steps)
    else:
        checks["response_cache_hit_ratio_1"] = (counters["hits"] == len(run.steps)
                                                and counters["misses"] == 0)
        checks["no_engine_select"] = counters["served"] == 0

    # Off the clock: compare with the in-process engine on the same artifact.
    store = ArtifactStore(store_path)
    reference = {name: store.open(name) for name in TABLES}
    if keyed is None:
        sampled = [entry for entry in run.replies[:SCORED_STEPS:SAMPLE_EVERY]
                   if entry[2] is not None]
        checks["sample_equals_in_process_engine"] = all(
            same_display(response, reference[request.dataset].select(request))
            for _, request, response in sampled)
        report["sampled_steps"] = len(sampled)
        served = [(request.dataset, response.subtable)
                  for _, request, response in run.replies if response is not None]
    else:
        cycle = len(keyed)

        def canonical(response) -> str:
            return json.dumps(response.to_wire(), sort_keys=True)
        checks["first_cycle_identical_to_first_answers"] = all(
            response is not None
            and canonical(response) == canonical(first[keyed[index % cycle][0]])
            for index, _, response in run.replies[:cycle])
        served = None
    report["stream"]["sent"] = len(run.steps)

    if trace:
        spans = ([tracing.Span(*span) for span in recorder.spans]
                 + [tracing.Span(*span) for span in server_spans])
        metrics, report["trace"] = traced_metrics(
            workload, spans, run.traced_steps(), gateway_ratios(counters),
            run.latencies(False), run.latencies(True), 0.0)
    else:
        coverage, diversity = quality(reference, tables, seed, served)
        metrics = {"setup_s": setup_s, **step_metrics(run.latencies(), run.cpu_seconds),
                   "rss_mb": rss_mb, "cell_coverage": coverage, "diversity": diversity}
    report["timings"] = {
        "setup_s": {"n": 1, "median": setup_s},
        "fit_s": {"n": 1, "median": fit_seconds},
        "step_ms": measure.timing_summary(run.latencies(), 1e3),
        "throughput_sps": len(run.steps) / run.seconds,
    }
    report["checks"] = checks
    report["errors"] = run.errors
    return {"correct": run.failed == 0 and all(checks.values()),
            "attempted": len(run.steps), "failed": run.failed,
            "metrics": metrics, "report": report}


class Iteration(NamedTuple):
    """One ingest step: both tables fitted, saved, opened and displayed."""

    start: float
    end: float
    traced: bool
    fit_seconds: float
    cpu_seconds: float
    #: Per table: (name, store record, reopened display, fitted engine's display).
    outputs: list

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_ingest(seed: int, seconds: int, trace: bool, work: Path) -> dict:
    setups, tables = [], {}
    for _ in range(INGEST_SETUPS):
        start = time.perf_counter()
        tables = generate_tables(seed)
        setups.append(time.perf_counter() - start)
    recorder = tracing.Recorder()
    if trace:
        tracing.install_ingest_layers(recorder)
    iterations: list = []
    gc.collect()
    clock = time.perf_counter
    wall_start = clock()
    # A traced run alternates untraced and traced iterations, one of each at least.
    while (len(iterations) < (2 if trace else MIN_INGEST_STEPS)
           or clock() - wall_start < seconds):
        index = len(iterations)
        recorder.step = index
        recorder.active = trace and index % 2 == 1
        cpu_start = measure.process_cpu_seconds()
        start = clock()
        fit_seconds, fitted = ingest_tables(tables, seed,
                                            ArtifactStore(work / f"ingest-{index}"))
        end = clock()
        cpu_seconds = measure.process_cpu_seconds() - cpu_start
        traced, recorder.active = recorder.active, False
        # Off the clock: the fitted engine's own display, for the checks.  Only
        # one iteration's engines live at a time, so the peak RSS is one ingest's.
        outputs = [(name, record, display, engine.select(SelectionRequest(k=K, l=L)))
                   for name, engine, record, display in fitted]
        del fitted
        iterations.append(Iteration(start, end, traced, fit_seconds, cpu_seconds, outputs))
    rss_mb = measure.peak_rss_mb()

    # Each reopened display equals the fitted engine's, and every iteration
    # fitted the same artifact as the first.
    failed, errors = 0, []
    first = {name: (record, display) for name, record, display, _ in iterations[0].outputs}
    for index, iteration in enumerate(iterations):
        for name, record, display, fitted_display in iteration.outputs:
            first_record, first_display = first[name]
            problem = None
            if not same_display(display, fitted_display):
                problem = "reopened display differs from the fitted engine's"
            elif ((record.data_fingerprint, record.vocab_fingerprint)
                  != (first_record.data_fingerprint, first_record.vocab_fingerprint)
                  or not same_display(display, first_display)):
                problem = "refit differs from the first fit"
            if problem is not None:
                failed += 1
                errors.append(f"iteration {index} {name}: {problem}")
                break
    first_store = ArtifactStore(work / "ingest-0")
    engines = {name: first_store.open(name) for name in TABLES}
    report: dict = {
        "tables": table_shapes(engines),
        "stream": {"fingerprint": table_fingerprint(tables), "prepared": len(tables),
                   "sent": len(iterations) * len(tables)},
        "working_set": {"note": "every iteration fits, saves and opens both "
                                "tables into a fresh store"},
    }

    untraced = [it for it in iterations if not it.traced]
    latencies = [it.seconds for it in untraced]
    fits = [it.fit_seconds for it in untraced]
    cpu_seconds = sum(it.cpu_seconds for it in untraced)
    if trace:
        traced = [(i, it) for i, it in enumerate(iterations) if it.traced]
        traced_fit = statistics.median(it.fit_seconds for _, it in traced)
        metrics, report["trace"] = traced_metrics(
            "ingest", [tracing.Span(*span) for span in recorder.spans],
            [(i, it.start, it.end) for i, it in traced],
            {"gateway.cache_hit_ratio": 0.0, "gateway.revalidated_ratio": 0.0},
            latencies, [it.seconds for _, it in traced],
            traced_fit - statistics.median(fits))
    else:
        coverage, diversity = quality(engines, tables, seed)
        metrics = {"setup_s": statistics.median(setups),
                   **step_metrics(latencies, cpu_seconds),
                   "rss_mb": rss_mb, "cell_coverage": coverage, "diversity": diversity}
    report["timings"] = {
        "setup_s": measure.timing_summary(setups),
        "fit_s": measure.timing_summary(fits),
        "step_ms": measure.timing_summary(latencies, 1e3),
        "throughput_sps": len(latencies) / sum(latencies),
    }
    report["checks"] = {"reopened_equals_fitted_and_refit_deterministic": failed == 0}
    report["errors"] = errors
    return {"correct": failed == 0, "attempted": len(iterations), "failed": failed,
            "metrics": metrics, "report": report}


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    if workload == "ingest":
        result = run_ingest(seed, seconds, trace, work)
    else:
        result = run_serving(workload, seed, seconds, trace, work)
    result["report"] = {"workload": workload, "why": WHY[workload], "seed": seed,
                        "seconds": seconds, "trace": int(trace),
                        "config": {"k": K, "l": L, "rows": ROWS, "engines": ENGINES,
                                   "engine_lru": ENGINE_LRU,
                                   "response_cache": RESPONSE_CACHE,
                                   "etag_memo": ETAG_MEMO, "tenant_rate": 0,
                                   "client": "1 process, 1 thread, 1 keep-alive "
                                             "connection, closed loop, no think time"},
                        **result["report"]}
    return result
