"""The serving experiments and the leg harness they share.

The paper's interactivity argument (Sec. 6) rests on the serving stack
answering a session's next display fast, so seven experiments measure it
end to end: cold vs cached replay, clustered QPS, the pipelined
transport and replica routing, the open-loop knee, the HTTP front door
and its response cache, and the vectorized cold path.  Each
returns its JSON record, a plain dict built in one place; the benchmarks
under ``benchmarks/`` print it with :func:`render_record`, assert on it
and write it out, and ``scripts/ci/bench_gate.py`` compares it with the
committed ``BENCH_*.json`` record.

A *leg* is one measured serving path inside an experiment, such as "sync
client, 1 member" or "2-member ring, policy=hash".  Three helpers set up
and time every closed-loop leg:

* :func:`fitted` fits ``Engine("subtab")`` on the experiment's bundles,
  times each fit, saves the engines into a temporary
  :class:`~repro.api.ArtifactStore` and removes it on exit;
* :func:`closed_loop` times one leg: a per-request loop or one
  ``select_many`` batch;
* :func:`ring_leg` spawns a ring of members, routes a workload over it
  and closes it.

Open-loop legs are timed by :func:`repro.loadgen.run_open_loop` and keep
its report.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.api import ArtifactStore, Engine, SelectionRequest, query_fingerprint
from repro.bench.harness import DatasetBundle, load_bundle
from repro.bench.reporting import format_table
from repro.core.config import SubTabConfig
from repro.loadgen import build_schedule, find_knee, run_open_loop, sample_sessions
from repro.metrics.coverage import CoverageEvaluator
from repro.queries.generator import SessionGenerator
from repro.rules.miner import RuleMiner
from repro.serve import (
    AsyncRemoteBackend,
    ClusterRouter,
    RemoteBackend,
    spawn_artifact_server,
    spawn_store_server,
)

#: Distinct session states in the cyclic cluster/async/kernel workloads.
MAX_STATES = 48
#: Per-process LRU capacity over the mean shard size: the slack absorbs
#: content-hash imbalance so each shard fits its LRU, while one process
#: still cannot hold the whole working set.
SHARD_SLACK = 2.0
#: Selection LRU of the session-replay engine: larger than any session
#: set it replays, so every replayed step can hit.
SERVE_CACHE_SIZE = 1024
#: Selection LRU of the store servers the open-loop legs drive.
SERVER_CACHE_SIZE = 256
MEAN_THINK_SECONDS = 0.02
ZIPF_EXPONENT = 1.1
#: Concurrent open-loop sessions.
MAX_SESSIONS = 64
#: Gateway admission bound: wide, so the HTTP legs measure overhead, not
#: shedding.
MAX_INFLIGHT = 512
#: Cold selects profiled per kernel backend.
PROFILE_STATES = 4
#: The greedy-approx tradeoff sweep: table rows, sub-table width, column
#: subsets per select, row sample rates, and repeats per timed select.
TRADEOFF_ROWS = 1200
TRADEOFF_L = 5
TRADEOFF_MAX_COMBINATIONS = 20
SAMPLE_RATES = (0.02, 0.05, 0.1, 0.25, 0.5)
TRADEOFF_REPEATS = 2


# ---------------------------------------------------------------------------
# The leg harness
# ---------------------------------------------------------------------------

@dataclass
class Fit:
    """Engines fitted by :func:`fitted`, keyed by dataset name."""

    engines: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)
    store: Optional[ArtifactStore] = None


@contextmanager
def fitted(bundles: Sequence[DatasetBundle], *, k: int, l: int, seed: int,
           save: bool = True, cache_size: int = 256) -> Iterator[Fit]:
    """Fit ``Engine("subtab")`` on each bundle and time each fit.

    With ``save`` each engine is saved into an :class:`ArtifactStore`
    under its dataset name, in a temporary directory that is removed on
    exit, also when the body raises.  ``cache_size`` is each engine's
    selection LRU.
    """
    root = tempfile.mkdtemp(prefix="repro-bench-") if save else None
    try:
        fit = Fit(store=ArtifactStore(root) if root else None)
        for bundle in bundles:
            engine = Engine("subtab", config=SubTabConfig(k=k, l=l, seed=seed),
                            cache_size=cache_size)
            start = time.perf_counter()
            engine.fit(bundle.frame, binned=bundle.binned)
            fit.seconds[bundle.name] = time.perf_counter() - start
            fit.engines[bundle.name] = engine
            if fit.store is not None:
                fit.store.save(bundle.name, engine)
        yield fit
    finally:
        if root is not None:
            shutil.rmtree(root, ignore_errors=True)


def closed_loop(serve: Callable, requests: Sequence, *, batch: bool = False,
                latency: bool = False) -> dict:
    """Time one closed-loop leg: each request waits for the previous reply.

    ``batch`` hands every request to ``serve`` (a ``select_many``) in one
    call; otherwise ``serve`` answers one request per call.  The leg is
    ``served``/``seconds``/``qps``.  With ``latency`` each call is timed
    on its own, a call that raises counts as an error, and the leg takes
    the open-loop report's names (``requests``, ``errors``,
    ``elapsed_seconds``, ``achieved_qps``) plus exact percentiles of the
    successful calls: ``latency`` ``count``/``mean``/``p50``/``p95``/
    ``p99``/``max`` in seconds.
    """
    latencies: list = []
    errors = 0
    start = time.perf_counter()
    if batch:
        serve(requests)
    elif not latency:
        for request in requests:
            serve(request)
    else:
        for request in requests:
            sent = time.perf_counter()
            try:
                serve(request)
            except Exception:
                errors += 1
                continue
            latencies.append(time.perf_counter() - sent)
    seconds = time.perf_counter() - start
    qps = len(requests) / seconds if seconds > 0 else 0.0
    if not latency:
        return {"served": len(requests), "seconds": seconds, "qps": qps}
    summary = {"count": len(latencies), "mean": 0.0, "p50": 0.0, "p95": 0.0,
               "p99": 0.0, "max": 0.0}
    if latencies:
        spread = np.asarray(latencies, dtype=np.float64)
        p50, p95, p99 = np.percentile(spread, (50, 95, 99))
        summary.update(mean=float(spread.mean()), p50=float(p50),
                       p95=float(p95), p99=float(p99), max=float(spread.max()))
    return {"requests": len(requests), "errors": errors,
            "elapsed_seconds": seconds, "achieved_qps": qps, "latency": summary}


def ring_leg(artifact: str, workload: Sequence, *, members: int,
             cache_size: int, transport: str, window: Optional[int] = None,
             **router_options) -> dict:
    """Serve ``workload`` in one batch through a fresh ring of ``members``
    spawned servers over ``artifact``.

    Each member gets a sync client, or a pipelined one with ``window``
    frames in flight, and a :class:`ClusterRouter` built with
    ``router_options`` routes over them.  Router, clients and members are
    all closed before this returns.  The leg adds the router's
    ``errors``, ``failovers`` and ``per_member`` served counts.
    """
    servers = []
    try:
        for _ in range(members):
            servers.append(spawn_artifact_server(
                artifact, cache_size=cache_size, transport=transport,
            ))
        router = ClusterRouter(
            [(f"m{i}", server.connect() if window is None
              else server.connect_pipelined(window=window))
             for i, server in enumerate(servers)],
            **router_options,
        )
        try:
            leg = closed_loop(router.select_many, workload, batch=True)
            stats = router.stats()
        finally:
            router.close()
    finally:
        for server in servers:
            server.close()
    leg.update(
        errors=stats["errors"],
        failovers=stats["failovers"],
        per_member={member["name"]: member["served"]
                    for member in stats["members"]},
    )
    return leg


#: Leg-table columns: a header, then the keys that hold the figure in the
#: closed-loop and the open-loop leg vocabularies.
_COLUMNS = (
    ("# requests", ("served", "requests", "completed_requests")),
    ("seconds", ("seconds", "elapsed_seconds", "duration_seconds")),
    ("QPS", ("qps", "achieved_qps")),
    ("errors", ("errors",)),
)


def render_record(record: dict) -> str:
    """A serving record as text: its leg table, then its scalar fields.

    A leg is any dict in the record that carries a QPS figure; its row is
    labelled by its key path, and shows the p50/p99 latency (seconds)
    where the leg records latency.
    """
    rows = []
    for label, leg in _legs(record):
        latency = leg.get("latency", {})
        rows.append(
            [label]
            + [next((leg[key] for key in keys if key in leg), "-")
               for _, keys in _COLUMNS]
            + [latency.get("p50", "-"), latency.get("p99", "-")]
        )
    fields = "   ".join(
        f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}"
        for key, value in record.items() if not isinstance(value, (dict, list))
    )
    headers = ["leg"] + [header for header, _ in _COLUMNS] + ["p50 s", "p99 s"]
    table = (format_table(record["experiment"], headers, rows) if rows
             else record["experiment"])
    return f"{table}\n{fields}"


def _legs(record: dict, prefix: str = "") -> Iterator[tuple]:
    for key, value in record.items():
        if not isinstance(value, dict):
            continue
        if "qps" in value or "achieved_qps" in value:
            yield f"{prefix}{key}", value
        else:
            yield from _legs(value, f"{prefix}{key}.")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def _reference(path: Optional[str]) -> Optional[dict]:
    """The committed record at ``path``, if there is one."""
    if path and Path(path).is_file():
        return json.loads(Path(path).read_text())
    return None


def _servable_session_states(
    engine, bundle, *, n_sessions, dataset_name, k, l, seed, max_states,
) -> list:
    """Distinct, servable session states of a generated workload.

    Degenerate states would fail on every serving path; excluding them up
    front keeps the compared workloads identical.  Shared by the cluster,
    async and kernel experiments so all measure the same kind of
    cyclic, LRU-adversarial session traffic.
    """
    sessions = SessionGenerator(
        bundle.binned,
        pattern_columns=bundle.dataset.pattern_columns,
        seed=seed,
    ).generate(n_sessions, name=dataset_name)
    seen: set = set()
    states = []
    for session in sessions:
        for step in session:
            fingerprint = query_fingerprint(step.state)
            if fingerprint in seen or len(states) >= max_states:
                continue
            seen.add(fingerprint)
            try:
                engine.select(SelectionRequest(k=k, l=l, query=step.state,
                                               use_cache=False))
            except ValueError:
                continue
            states.append(step.state)
    return states


def _warm_baseline(artifact: str, workload: Sequence, cache_size: int) -> dict:
    """The single warm engine the ring is compared with: one
    ``Engine.load``-ed process with one member's LRU capacity."""
    single = Engine.load(artifact, cache_size=cache_size)
    leg = closed_loop(single.select, workload)
    stats = single.cache_stats
    return dict(leg, hits=stats.hits, misses=stats.misses)


def _sessions(bundle: DatasetBundle, n_sessions: int, *, seed: int, k: int,
              l: int) -> list:
    return sample_sessions(
        bundle.binned, dataset=bundle.name, n_sessions=n_sessions, seed=seed,
        k=k, l=l, pattern_columns=bundle.dataset.pattern_columns,
    )


def _reproducible_schedule(sessions: dict, *, seed: int, **options):
    """The open-loop schedule, built twice and fingerprint-compared, so a
    committed record is also a proof the workload regenerates
    bit-identically from its seed."""
    schedule = build_schedule(sessions, seed=seed, **options)
    if schedule.fingerprint() != build_schedule(
            sessions, seed=seed, **options).fingerprint():
        raise RuntimeError(
            f"schedule at rate {options['arrival_rate']} is not reproducible "
            f"from seed {seed}"
        )
    return schedule


# ---------------------------------------------------------------------------
# Session-serving latency — cold vs. cached select() over EDA sessions
# ---------------------------------------------------------------------------

def run_serve_session_experiment(
    dataset_name: str = "cyber",
    n_sessions: int = 12,
    k: int = 10,
    l: int = 7,
    seed: int = 0,
    n_rows: Optional[int] = None,
) -> dict:
    """Measure cold vs. cached ``select()`` latency over EDA sessions.

    Cold pass: every *distinct* session state is selected once with an
    empty LRU (full pipeline per call), one latency sample per state.
    Cached pass: the sessions are then replayed step by step, so every
    select is answered from the LRU — the serving layer's session-replay
    path.  The ratio of the two mean latencies is the session-replay
    speedup the serving layer buys.  A state that fails counts in
    ``failures`` and is left out of the latencies.
    """
    bundle = load_bundle(dataset_name, n_rows=n_rows, seed=seed)
    with fitted([bundle], k=k, l=l, seed=seed, save=False,
                cache_size=SERVE_CACHE_SIZE) as fit:
        engine = fit.engines[bundle.name]
        sessions = SessionGenerator(
            bundle.binned,
            pattern_columns=bundle.dataset.pattern_columns,
            seed=seed,
        ).generate(n_sessions, name=dataset_name)
        distinct: dict = {}
        for session in sessions:
            for step in session:
                distinct.setdefault(query_fingerprint(step.state), step.state)

        def select(state):  # the request is built inside the timed call
            return engine.select(SelectionRequest(k=k, l=l, query=state))

        engine.clear_cache()
        cold = closed_loop(select, list(distinct.values()), latency=True)
        cached = closed_loop(
            select, [step.state for session in sessions for step in session],
            latency=True,
        )
        stats = engine.cache_stats
    cold_latency, cached_latency = cold["latency"], cached["latency"]
    return {
        "experiment": "serve_sessions",
        "algorithm": engine.algorithm,
        "dataset": bundle.name,
        "n_sessions": n_sessions,
        "k": k,
        "l": l,
        "fit_seconds": fit.seconds[bundle.name],
        "n_cold_selects": cold_latency["count"],
        "n_cached_selects": cached_latency["count"],
        "cold_total_seconds": cold_latency["mean"] * cold_latency["count"],
        "cached_total_seconds":
            cached_latency["mean"] * cached_latency["count"],
        "cold_mean_seconds": cold_latency["mean"],
        "cached_mean_seconds": cached_latency["mean"],
        "speedup": _ratio(cold_latency["mean"], cached_latency["mean"]),
        "failures": cold["errors"],
        "cache": {"hits": stats.hits, "misses": stats.misses,
                  "size": stats.size, "maxsize": stats.maxsize},
    }


# ---------------------------------------------------------------------------
# Cluster QPS — consistent-hash members over the socket transport
# ---------------------------------------------------------------------------

def run_cluster_qps_experiment(
    dataset_name: str = "cyber",
    n_sessions: int = 12,
    k: int = 10,
    l: int = 7,
    seed: int = 0,
    n_rows: Optional[int] = None,
    member_counts: Sequence[int] = (1, 2, 4),
    rounds: int = 6,
) -> dict:
    """Measure aggregate QPS across 1 -> 2 -> 4 socket-served members.

    Fits one engine, saves the artifact, and serves the same cyclic
    session workload through consistent-hash clusters of growing size;
    every member is a real subprocess socket server warm-starting from the
    shared artifact (``Engine.load`` — the paper's phase split is what
    makes member startup cheap; the artifact layout is what makes shipping
    it to real hosts an rsync).  Per-member LRU capacity is fixed at
    ``ceil(SHARD_SLACK * n_states / max(member_counts))`` for every run,
    so aggregate cache capacity grows with the ring: one member thrashes
    its LRU, the full ring holds the whole working set.  On one host this
    ring is also how several serving processes share one artifact.

    ``members`` maps the member count (as a string, for JSON stability) to
    that ring's leg, with the same ``served``/``seconds``/``qps`` fields
    as the single warm engine's ``baseline`` leg.
    """
    bundle = load_bundle(dataset_name, n_rows=n_rows, seed=seed)
    with fitted([bundle], k=k, l=l, seed=seed) as fit:
        engine = fit.engines[bundle.name]
        artifact = str(fit.store.path(bundle.name))
        states = _servable_session_states(
            engine, bundle, n_sessions=n_sessions, dataset_name=dataset_name,
            k=k, l=l, seed=seed, max_states=MAX_STATES,
        )
        cache_size = max(
            1, math.ceil(SHARD_SLACK * len(states) / max(member_counts))
        )
        workload = [SelectionRequest(k=k, l=l, query=state)
                    for state in states] * rounds
        baseline = _warm_baseline(artifact, workload, cache_size)
        members = {
            str(count): ring_leg(
                artifact, workload, members=count, cache_size=cache_size,
                transport="socket",
                replication=1,  # pure sharding: QPS, not failover
            )
            for count in member_counts
        }
    first = members[str(member_counts[0])]["qps"]
    return {
        "experiment": "cluster_qps",
        "dataset": bundle.name,
        "algorithm": engine.algorithm,
        "k": k,
        "l": l,
        "n_states": len(states),
        "rounds": rounds,
        "member_counts": list(member_counts),
        "cache_size": cache_size,
        "transport": "socket",
        "fit_seconds": fit.seconds[bundle.name],
        "baseline": baseline,
        "members": members,
        "qps_scaling": {count: _ratio(leg["qps"], first)
                        for count, leg in members.items()},
    }


# ---------------------------------------------------------------------------
# Open-loop load harness — saturation knee over a zipf multi-dataset mix
# ---------------------------------------------------------------------------

def run_loadgen_experiment(
    dataset_names: Sequence[str] = ("cyber", "flights"),
    arrival_rates: Sequence[float] = (4.0, 8.0, 16.0),
    n_sessions: int = 24,
    sessions_per_dataset: int = 8,
    k: int = 10,
    l: int = 7,
    seed: int = 0,
    n_rows: Optional[int] = None,
    window: int = 64,
) -> dict:
    """Sweep open-loop arrival rates against a store-backed async server.

    Fits one engine per dataset, saves them into an
    :class:`~repro.api.ArtifactStore`, spawns a multi-dataset
    :func:`~repro.serve.spawn_store_server` subprocess (asyncio
    transport), and replays the *same* seeded session pool at each
    arrival rate through one pipelined tracing client.  Simulated
    analysts (``n_sessions`` of them per rate — the harness scales by
    knob, not by code path) explore a zipf-skewed dataset mix.  Because
    arrivals are open-loop, raising the rate past capacity grows queueing
    delay instead of throttling offered load: ``runs`` holds each rate's
    report, and ``knee`` is the highest rate still delivering ≥90% of
    what was offered.  Each rate's schedule is built twice and the
    fingerprints compared.

    ``trace_stages`` carries the client-side p50 of each per-request
    trace stage (client queue, transport, server, backend, select) and
    ``trace_example`` one complete trace — both cross a real socket hop,
    which is the end-to-end proof the telemetry substrate works.
    """
    bundles = [load_bundle(name, n_rows=n_rows, seed=seed)
               for name in dataset_names]
    with fitted(bundles, k=k, l=l, seed=seed) as fit:
        sessions = {bundle.name: _sessions(bundle, sessions_per_dataset,
                                           seed=seed, k=k, l=l)
                    for bundle in bundles}
        schedules = [
            _reproducible_schedule(
                sessions, seed=seed, arrival_rate=rate, n_sessions=n_sessions,
                mean_think_seconds=MEAN_THINK_SECONDS,
                zipf_exponent=ZIPF_EXPONENT,
            )
            for rate in arrival_rates
        ]
        with spawn_store_server(
            fit.store.root, capacity=max(4, len(bundles)),
            cache_size=SERVER_CACHE_SIZE, transport="asyncio",
        ) as server:
            with AsyncRemoteBackend(server.address, window=window,
                                    trace=True) as backend:
                reports = [run_open_loop(backend, schedule,
                                         max_sessions=MAX_SESSIONS)
                           for schedule in schedules]
                metrics = backend.metrics.snapshot()
                trace_example = backend.last_trace
    knee = find_knee(reports)
    return {
        "experiment": "loadgen",
        "datasets": list(dataset_names),
        "seed": seed,
        "k": k,
        "l": l,
        "n_sessions": n_sessions,
        "sessions_per_dataset": sessions_per_dataset,
        "mean_think_seconds": MEAN_THINK_SECONDS,
        "zipf_exponent": ZIPF_EXPONENT,
        "window": window,
        "cache_size": SERVER_CACHE_SIZE,
        "transport": "asyncio",
        "fit_seconds": fit.seconds,
        "dataset_mix": schedules[0].dataset_mix(),
        "runs": {f"{rate:g}": report.to_json()
                 for rate, report in zip(arrival_rates, reports)},
        "knee": knee.to_json() if knee else None,
        "trace_stages": {
            name.split(".", 1)[1]: snapshot["p50"]
            for name, snapshot in metrics.items() if name.startswith("trace.")
        },
        "trace_example": trace_example,
        "schedule_fingerprint": schedules[0].fingerprint(),
    }


# ---------------------------------------------------------------------------
# Async QPS — pipelined transport and read-from-replica routing
# ---------------------------------------------------------------------------

def run_async_qps_experiment(
    dataset_name: str = "cyber",
    n_sessions: int = 12,
    k: int = 10,
    l: int = 7,
    seed: int = 0,
    n_rows: Optional[int] = None,
    window: int = 32,
    rounds: int = 6,
    cluster_reference_path: Optional[str] = None,
) -> dict:
    """Measure pipelined-vs-sync client QPS and read-replica scaling.

    Fits one engine, saves the artifact, and serves the cyclic session
    workload of the cluster benchmark two ways.

    **Pipelining** (one asyncio member): the sync
    :class:`~repro.serve.RemoteBackend` serializes a full round trip per
    request, so encode, socket, dispatch, and decode never overlap; the
    pipelined :class:`~repro.serve.AsyncRemoteBackend` streams the same
    requests as id-tagged frames with ``window`` in flight over one
    socket to the same server.  Both run after one batch warm-up pass, so
    the comparison isolates the transport, not the LRU.

    **Read replicas** (two members, ``replication=2``, pipelined member
    clients, cold like the cluster bench): under the ``primary`` policy
    replicas are failover-only dead weight — the ring hands every request
    to its first replica, and consistent hashing splits traffic unevenly;
    ``round_robin`` serves reads from every replica, so the ring
    balances, but it alternates *the same state* across replicas and pays
    every cold miss once per replica; ``hash`` also serves reads from
    every replica while pinning each request hash to one owner, so the
    ring balances *and* each state is computed exactly once.  On one
    core, balancing buys no CPU parallelism, so round_robin's duplicated
    cold misses cost it real wall-clock against ``primary`` — and ``hash``
    recovers that gap, which is the cache-affinity claim this benchmark
    pins down.

    Per-member LRU capacity is ``ceil(SHARD_SLACK * n_states / 2)``
    everywhere — large enough that a replica can absorb the reads the
    policy hands it, so the ring comparison isolates routing, not cache
    pressure.  ``cluster_reference`` embeds the committed failover-only
    2-member record from ``cluster_reference_path`` for trajectory
    reading.
    """
    bundle = load_bundle(dataset_name, n_rows=n_rows, seed=seed)
    with fitted([bundle], k=k, l=l, seed=seed) as fit:
        engine = fit.engines[bundle.name]
        artifact = str(fit.store.path(bundle.name))
        states = _servable_session_states(
            engine, bundle, n_sessions=n_sessions, dataset_name=dataset_name,
            k=k, l=l, seed=seed, max_states=MAX_STATES,
        )
        cache_size = max(1, math.ceil(SHARD_SLACK * len(states) / 2))
        requests = [SelectionRequest(k=k, l=l, query=state)
                    for state in states]
        workload = requests * rounds

        with spawn_artifact_server(artifact, cache_size=cache_size,
                                   transport="asyncio") as server:
            with server.connect() as sync:
                sync.select_many(requests)  # one batch warm-up: LRU filled
                sync_client = closed_loop(sync.select, workload)
            with server.connect_pipelined(window=window) as pipelined:
                pipelined_client = dict(
                    closed_loop(pipelined.select_many, workload, batch=True),
                    window=window,
                )
        replicas = {
            policy: dict(
                ring_leg(artifact, workload, members=2, cache_size=cache_size,
                         transport="asyncio", window=window, replication=2,
                         replica_policy=policy),
                replica_policy=policy,
            )
            for policy in ("primary", "round_robin", "hash")
        }
    reference = _reference(cluster_reference_path)
    two = (reference or {}).get("members", {}).get("2")
    return {
        "experiment": "async_qps",
        "dataset": bundle.name,
        "algorithm": engine.algorithm,
        "k": k,
        "l": l,
        "n_states": len(states),
        "rounds": rounds,
        "window": window,
        "cache_size": cache_size,
        "transport": "asyncio",
        "fit_seconds": fit.seconds[bundle.name],
        "sync_client": sync_client,
        "pipelined_client": pipelined_client,
        "replica_primary": replicas["primary"],
        "replica_round_robin": replicas["round_robin"],
        "replica_hash": replicas["hash"],
        "pipeline_speedup": _ratio(pipelined_client["qps"], sync_client["qps"]),
        "replica_read_gain": _ratio(replicas["round_robin"]["qps"],
                                    replicas["primary"]["qps"]),
        # hash routing's QPS over round_robin's: the duplicate-cold-miss
        # penalty that cache-affinity routing recovers
        "affinity_gain": _ratio(replicas["hash"]["qps"],
                                replicas["round_robin"]["qps"]),
        "cluster_reference": two and {
            "qps": two["qps"],
            "served": two["served"],
            "transport": reference.get("transport", "socket"),
            "replica_policy": "failover-only",
        },
    }


# ---------------------------------------------------------------------------
# HTTP gateway QPS — the front door vs the raw socket transport
# ---------------------------------------------------------------------------

def run_http_qps_experiment(
    dataset_name: str = "cyber",
    arrival_rate: float = 8.0,
    n_sessions: int = 24,
    sessions_per_dataset: int = 8,
    k: int = 10,
    l: int = 7,
    seed: int = 0,
    n_rows: Optional[int] = None,
    window: int = 64,
    n_tenants: int = 3,
) -> dict:
    """Measure the HTTP front door against the raw socket transport.

    One store-backed asyncio server subprocess hosts the fitted engine;
    the same seeded open-loop schedule (fingerprint-checked, so both legs
    replay byte-identical workloads) is driven twice: through a raw
    pipelined socket client (the fastest path the stack offers) and
    through the HTTP gateway fronting an identical socket client, with
    ``n_tenants`` API-keyed tenants round-robinning their sessions over
    per-thread keep-alive connections, exactly how external tooling would
    arrive.  The spread between the two legs is the measured price of the
    HTTP front door (parsing, auth, admission, an executor hop) at serving
    load.
    """
    from repro.gateway import HttpBackend, HttpGateway, TenantRegistry, \
        TenantSpec

    bundle = load_bundle(dataset_name, n_rows=n_rows, seed=seed)
    with fitted([bundle], k=k, l=l, seed=seed) as fit:
        schedule = _reproducible_schedule(
            {dataset_name: _sessions(bundle, sessions_per_dataset, seed=seed,
                                     k=k, l=l)},
            seed=seed, arrival_rate=arrival_rate, n_sessions=n_sessions,
            mean_think_seconds=MEAN_THINK_SECONDS,
        )
        with spawn_store_server(
            fit.store.root, capacity=4, cache_size=SERVER_CACHE_SIZE,
            transport="asyncio",
        ) as server:
            # Leg 1: the raw pipelined socket client.
            with AsyncRemoteBackend(server.address, window=window) as raw:
                raw_socket = run_open_loop(
                    raw, schedule, max_sessions=MAX_SESSIONS
                ).to_json()

            # Leg 2: the HTTP gateway fronting an identical client,
            # driven by n_tenants authenticated tenants round-robin.
            registry = TenantRegistry(
                [TenantSpec(name=f"tenant{i}", key=f"tenant{i}-key")
                 for i in range(n_tenants)],
                max_inflight=MAX_INFLIGHT,
            )
            remote = AsyncRemoteBackend(server.address, window=window)
            gateway = HttpGateway(
                remote, tenants=registry, own_backend=True,
                dispatch_threads=16,
            ).start()
            clients = [
                HttpBackend(gateway.address, api_key=f"tenant{i}-key")
                for i in range(n_tenants)
            ]

            class _TenantFanout:
                """Round-robins selects over the tenants' HTTP clients
                (the loadgen harness drives one backend object)."""

                def __init__(self) -> None:
                    self._turn = itertools.count()
                    self._lock = threading.Lock()

                def select(self, request):
                    with self._lock:
                        turn = next(self._turn)
                    return clients[turn % len(clients)].select(request)

            try:
                gateway_leg = run_open_loop(
                    _TenantFanout(), schedule, max_sessions=MAX_SESSIONS
                ).to_json()
                snapshot = gateway.app.metrics.snapshot()
            finally:
                for client in clients:
                    client.close()
                gateway.close()
    return {
        "experiment": "http_qps",
        "dataset": dataset_name,
        "seed": seed,
        "k": k,
        "l": l,
        "n_sessions": n_sessions,
        "arrival_rate": arrival_rate,
        "n_tenants": n_tenants,
        "window": window,
        "cache_size": SERVER_CACHE_SIZE,
        "max_inflight": MAX_INFLIGHT,
        "fit_seconds": fit.seconds[bundle.name],
        "raw_socket": raw_socket,
        "gateway": gateway_leg,
        # gateway QPS over raw-socket QPS (1.0: the front door is free)
        "gateway_fraction": _ratio(gateway_leg["achieved_qps"],
                                   raw_socket["achieved_qps"]),
        "tenant_served": {
            name.split(".")[2]: record["value"]
            for name, record in snapshot.items()
            if name.startswith("gateway.tenant.") and name.endswith(".requests")
        },
        "gateway_status": {
            name.split(".")[2]: record["value"]
            for name, record in snapshot.items()
            if name.startswith("gateway.status.")
        },
        "schedule_fingerprint": schedule.fingerprint(),
    }


# ---------------------------------------------------------------------------
# HTTP response cache — fingerprint-keyed replay speedup
# ---------------------------------------------------------------------------

def _probe_cache_identity(address, api_key: str, wire: dict) -> tuple:
    """POST one request cold, cached, then conditional, over a raw
    socket; returns ``(bit_identical, revalidated_304)``."""
    import http.client

    from repro.gateway.cache import make_etag

    host, port = address
    body = json.dumps(wire).encode("utf-8")
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        def post(extra_headers=()):
            headers = {
                "Content-Type": "application/json",
                "X-API-Key": api_key,
            }
            headers.update(extra_headers)
            connection.request("POST", "/v1/select", body=body,
                               headers=headers)
            reply = connection.getresponse()
            return reply.status, dict(
                (key.lower(), value) for key, value in reply.getheaders()
            ), reply.read()

        cold_status, cold_headers, cold_body = post()
        hit_status, hit_headers, hit_body = post()
        etag = cold_headers.get("etag", "")
        bit_identical = (
            cold_status == 200
            and hit_status == 200
            and cold_body == hit_body
            and cold_headers.get("x-cache") == "miss"
            and hit_headers.get("x-cache") == "hit"
            and etag == make_etag(cold_body)
        )
        cond_status, cond_headers, cond_body = post(
            {"If-None-Match": etag}
        )
        revalidated = (
            cond_status == 304
            and cond_body == b""
            and cond_headers.get("etag") == etag
        )
        return bit_identical, revalidated
    finally:
        connection.close()


def run_http_cache_experiment(
    dataset_name: str = "cyber",
    n_requests: int = 16,
    passes: int = 5,
    sessions_per_dataset: int = 8,
    k: int = 10,
    l: int = 7,  # noqa: E741 — the paper's symbol
    seed: int = 0,
    window: int = 64,
    cache_size: int = 256,
) -> dict:
    """Measure the gateway response cache on a replayed-session workload.

    The open-loop HTTP bench is arrival-limited: it measures whether the
    front door keeps up with a fixed offered rate, so a response cache
    cannot show up in its headline.  This one is **closed-loop**: a
    deduplicated list of session-derived requests — prefiltered to ones
    the engine serves — is replayed back-to-back ``passes`` times through
    three front ends of one store-backed asyncio server: a raw socket
    client (the stack's floor), the HTTP gateway with its response cache
    disabled, and a fresh gateway with ``cache_size`` cache entries.  With
    the cache on, pass 1 populates and passes 2+ are served from entry
    bytes without touching the backend; the cache-on/cache-off QPS ratio
    is the headline.

    The backend's own selection cache is disabled for every leg so each
    front end pays full selection cost on repeats — the experiment
    measures the response cache as *the* caching layer, not its margin
    over a second one.

    ``bit_identical`` is proven inside the run: the first request is
    POSTed cold and again after caching over a raw socket, and the two
    response bodies must be byte-equal (``X-Cache: miss`` then ``hit``);
    a third conditional request with ``If-None-Match`` must come back
    ``304`` with an empty body (``revalidated_304``).  The committed
    record therefore doubles as a correctness proof.
    """
    from repro.gateway import HttpBackend, HttpGateway, TenantRegistry, \
        TenantSpec

    bundle = load_bundle(dataset_name, seed=seed)
    with fitted([bundle], k=k, l=l, seed=seed) as fit:
        engine = fit.engines[bundle.name]
        # Deduplicated session steps the engine actually serves — every
        # leg replays the identical list, so errors stay at zero and the
        # legs differ only in their front end.
        requests, seen = [], set()
        for session in _sessions(bundle, sessions_per_dataset, seed=seed,
                                 k=k, l=l):
            for request in session:
                wire_text = request.to_json()
                if wire_text in seen:
                    continue
                seen.add(wire_text)
                try:
                    engine.select(request)
                except Exception:
                    continue
                requests.append(request)
                if len(requests) >= n_requests:
                    break
            if len(requests) >= n_requests:
                break
        if len(requests) < 2:
            raise RuntimeError(
                f"only {len(requests)} servable requests sampled from "
                f"{dataset_name!r}; need at least 2"
            )
        replay = requests * passes

        # cache_size=1 is the smallest legal selection LRU; the replay
        # cycles >1 distinct requests, so the backend never serves a
        # repeat from it — every leg pays full selection cost on
        # repeats and only the gateway's response cache can help.
        with spawn_store_server(
            fit.store.root, capacity=4, cache_size=1, transport="asyncio",
        ) as server:
            # Leg 1: the raw socket client (the floor).
            with RemoteBackend(server.address) as raw:
                raw_socket = closed_loop(raw.select, replay, latency=True)

            registry = TenantRegistry(
                [TenantSpec(name="bench", key="bench-key")]
            )

            def start_gateway(gateway_cache_size: int):
                remote = AsyncRemoteBackend(server.address, window=window)
                return HttpGateway(
                    remote, tenants=registry, own_backend=True,
                    cache_size=gateway_cache_size,
                ).start()

            def replay_through(gateway) -> dict:
                with HttpBackend(gateway.address, api_key="bench-key",
                                 etag_cache_size=0) as client:
                    return closed_loop(client.select, replay, latency=True)

            # Leg 2: the gateway with its response cache disabled.
            with start_gateway(0) as gateway:
                cache_off = replay_through(gateway)

            # Leg 3: a fresh gateway with the cache on.  The identity
            # probe runs first — cold POST, cached POST, conditional
            # 304 — then the cache is cleared so the timed replay still
            # starts cold (pass 1 misses and stores; passes 2+ serve
            # entry bytes).
            with start_gateway(cache_size) as gateway:
                bit_identical, revalidated_304 = _probe_cache_identity(
                    gateway.address, "bench-key", requests[0].to_wire(),
                )
                gateway.app.cache.clear()
                cache_on = replay_through(gateway)
                snapshot = gateway.app.metrics.snapshot()
    return {
        "experiment": "http_cache",
        "dataset": dataset_name,
        "seed": seed,
        "k": k,
        "l": l,
        "n_requests": len(requests),
        "passes": passes,
        "cache_size": cache_size,
        "window": window,
        "fit_seconds": fit.seconds[bundle.name],
        "raw_socket": raw_socket,
        "cache_off": cache_off,
        "cache_on": cache_on,
        "cache_counters": {
            name.split(".", 1)[1]: record["value"]
            for name, record in snapshot.items() if name.startswith("cache.")
        },
        # cache-on QPS over cache-off QPS (the headline ratio), and over
        # raw-socket QPS (>1: cached HTTP beats raw)
        "speedup": _ratio(cache_on["achieved_qps"], cache_off["achieved_qps"]),
        "raw_fraction": _ratio(cache_on["achieved_qps"],
                               raw_socket["achieved_qps"]),
        "bit_identical": bit_identical,
        "revalidated_304": revalidated_304,
    }


# ---------------------------------------------------------------------------
# Kernel QPS — vectorized selection hot path + greedy-approx tradeoff
# ---------------------------------------------------------------------------

_PROFILE_STAGES = {
    "select_total": ("api/engine.py", "select"),
    "kmeans_fit": ("cluster/kmeans.py", "fit"),
    "seeding": ("cluster/kmeans.py", "_kmeans_plus_plus"),
    "lloyd": ("cluster/kmeans.py", "_lloyd_lockstep"),
    "centroid_sums": ("core/kernels.py", "label_matrix_sums"),
    "row_collapse": ("core/kernels.py", "collapse_rows"),
    "column_stage": ("core/selection.py", "_dispersion_column_pick"),
}


def _stage_seconds(engine, requests) -> dict:
    """Cumulative per-stage seconds of serving ``requests`` once."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    for request in requests:
        engine.select(request)
    profiler.disable()
    stats = pstats.Stats(profiler)
    out = {}
    for label, (path_suffix, function) in _PROFILE_STAGES.items():
        seconds = 0.0
        for (filename, _, name), row in stats.stats.items():
            if name == function and filename.replace("\\", "/").endswith(
                path_suffix
            ):
                seconds += row[3]  # cumulative time
        out[label] = round(seconds, 6)
    return out


def _tradeoff_for_dataset(dataset_name: str, *, k: int, seed: int) -> dict:
    """Coverage/latency of exact greedy vs greedy-approx vs SubTab on one
    dataset, all scored by one shared evaluator over one shared rule set."""
    from repro.api.registry import make_selector as make_registry_selector

    bundle = load_bundle(dataset_name, n_rows=TRADEOFF_ROWS, seed=seed)
    rules = RuleMiner().mine(bundle.binned)
    evaluator = CoverageEvaluator(bundle.binned, rules)
    config = SubTabConfig(k=k, l=TRADEOFF_L, seed=seed)

    def timed_select(selector) -> tuple:
        best = float("inf")
        subtable = None
        for _ in range(TRADEOFF_REPEATS):
            start = time.perf_counter()
            subtable = selector.select(k, TRADEOFF_L)
            best = min(best, time.perf_counter() - start)
        coverage = evaluator.coverage(subtable.row_indices, subtable.columns)
        return best, coverage

    exact = make_registry_selector(
        "greedy", config, rules=rules,
        max_combinations=TRADEOFF_MAX_COMBINATIONS,
    )
    exact.prepare(bundle.frame, binned=bundle.binned)
    exact_seconds, exact_coverage = timed_select(exact)

    approx_points = []
    for rate in SAMPLE_RATES:
        approx = make_registry_selector(
            "greedy-approx", config, rules=rules,
            max_combinations=TRADEOFF_MAX_COMBINATIONS, sample_rate=rate,
        )
        approx.prepare(bundle.frame, binned=bundle.binned)
        seconds, coverage = timed_select(approx)
        loss = (
            (exact_coverage - coverage) / exact_coverage
            if exact_coverage > 0 else 0.0
        )
        approx_points.append({
            "sample_rate": rate,
            "seconds": seconds,
            "coverage": coverage,
            "speedup": exact_seconds / seconds if seconds else 0.0,
            "coverage_loss": loss,
        })

    subtab = make_registry_selector("subtab", config)
    subtab.prepare(bundle.frame, binned=bundle.binned)
    subtab_seconds, subtab_coverage = timed_select(subtab)

    return {
        "dataset": dataset_name,
        "n_rows": bundle.binned.n_rows,
        "l": TRADEOFF_L,
        "max_combinations": TRADEOFF_MAX_COMBINATIONS,
        "n_rules": len(rules),
        "upcov": evaluator.upcov,
        "exact": {"seconds": exact_seconds, "coverage": exact_coverage},
        "subtab": {"seconds": subtab_seconds, "coverage": subtab_coverage},
        "approx": approx_points,
    }


def best_tradeoff_point(record: dict) -> Optional[dict]:
    """The sampled point of a kernel record's tradeoff sweep with the
    largest speedup among those within 5% coverage loss of exact greedy,
    across all datasets."""
    best = None
    for sweep in record["tradeoff"]:
        for point in sweep["approx"]:
            if point["coverage_loss"] > 0.05:
                continue
            if best is None or point["speedup"] > best["speedup"]:
                best = dict(point, dataset=sweep["dataset"])
    return best


def run_kernel_qps_experiment(
    dataset_name: str = "cyber",
    n_sessions: int = 12,
    k: int = 10,
    l: int = 7,
    seed: int = 0,
    n_rows: Optional[int] = 1500,
    max_states: int = 48,
    passes: int = 5,
    committed_baseline_qps: float = 0.0,
) -> dict:
    """Measure cold single-engine QPS and the greedy-approx tradeoff.

    ``cold`` is the best of ``passes`` passes of uncached single-engine
    selects (``use_cache=False``: every request pays the full selection
    pipeline, the quantity the kernel vectorization targets), after four
    warm-up selects outside the clock.  The workload reuses the cluster
    bench's session-state generation (same dataset, k, l, seed, state
    cap) so the recorded QPS is directly comparable to the pre-kernel
    single-engine figure (78.6 QPS, kept in ``BENCH_kernel_qps.json``),
    which callers pass in as ``committed_baseline_qps`` — the number
    every other serving-layer multiplier (LRU, clustering) stacks on top
    of.

    ``profile`` holds per-stage cumulative seconds of the same selects
    under the fast and reference kernel backends ("after" vs "before" of
    the vectorization).  ``tradeoff`` holds, per registry dataset, cell
    coverage and select latency of exact Greedy, SubTab, and
    greedy-approx across sample rates — the curve behind the
    (1 - 1/e - eps) quality-for-latency dial.
    """
    from repro.core.kernels import use_kernel_backend
    from repro.datasets.registry import dataset_names

    bundle = load_bundle(dataset_name, n_rows=n_rows, seed=seed)
    with fitted([bundle], k=k, l=l, seed=seed, save=False) as fit:
        engine = fit.engines[bundle.name]
        states = _servable_session_states(
            engine, bundle, n_sessions=n_sessions, dataset_name=dataset_name,
            k=k, l=l, seed=seed, max_states=max_states,
        )
        requests = [
            SelectionRequest(k=k, l=l, query=state, use_cache=False)
            for state in states
        ]
        for request in requests[:4]:  # warm allocators/BLAS outside the clock
            engine.select(request)
        cold = min(
            (closed_loop(engine.select, requests) for _ in range(passes)),
            key=lambda leg: leg["seconds"],
        )
        sample = requests[:PROFILE_STATES]
        profile = {"profile_states": len(sample)}
        with use_kernel_backend("fast"):
            profile["fast"] = _stage_seconds(engine, sample)
        with use_kernel_backend("reference"):
            profile["reference"] = _stage_seconds(engine, sample)
    return {
        "experiment": "kernel_qps",
        "dataset": bundle.name,
        "k": k,
        "l": l,
        "n_states": len(states),
        "passes": passes,
        "fit_seconds": fit.seconds[bundle.name],
        "committed_baseline_qps": committed_baseline_qps,
        "speedup_vs_committed": _ratio(cold["qps"], committed_baseline_qps),
        "cold": cold,
        "profile": profile,
        "tradeoff": [_tradeoff_for_dataset(name, k=k, seed=seed)
                     for name in dataset_names()],
    }
