"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``show`` — print the informative sub-table of a CSV file, a named
  synthetic dataset, or a saved engine artifact, with any registered
  selection algorithm;
* ``fit`` — preprocess a table once and save the fitted engine artifact;
* ``serve`` — build an :class:`~repro.serve.ExecutionBackend` from the
  flags and drive generated exploration sessions through it, or expose it
  as a server.  The backend is an engine in this process (default) or a
  client of one or more remote servers (``--connect HOST:PORT[,...]`` —
  several members form a consistent-hash
  :class:`~repro.serve.ClusterRouter` with ``--replicas`` failover and a
  ``--replica-policy`` read-routing policy; ``--pipelined`` speaks the
  multiplexed client to each member).  ``--transport socket``,
  ``asyncio`` or ``http`` serves that backend to other processes instead
  of driving it, so a server started with ``--connect`` fronts a ring:
  that is how several processes serve one artifact on one host;
* ``experiment`` — run one of the paper's experiments and print its
  table/figure;
* ``datasets`` — list the available synthetic datasets;
* ``algorithms`` — list the registered selection algorithms.

Examples::

    python -m repro show --dataset flights --rows 5000 --targets CANCELLED
    python -m repro show --csv mydata.csv -k 8 -l 8 --algorithm nc
    python -m repro fit --dataset cyber --rows 2000 --out /tmp/cyber-engine
    python -m repro show --artifact /tmp/cyber-engine
    python -m repro serve --artifact /tmp/cyber-engine --sessions 5
    python -m repro serve --artifact /tmp/cyber-engine --transport socket --port 7341
    python -m repro serve --artifact /tmp/cyber-engine --transport asyncio --port 0 \
        --stats-interval 10
    python -m repro serve --artifact /tmp/cyber-engine --connect 127.0.0.1:7341
    python -m repro serve --artifact /tmp/cyber-engine \
        --connect hostA:7341,hostB:7341 --replicas 2 \
        --replica-policy hash --pipelined
    python -m repro serve --artifact /tmp/cyber-engine --transport asyncio \
        --port 7340 --connect 127.0.0.1:7341,127.0.0.1:7342 --replicas 1
    python -m repro experiment fig8 --rows 1500
"""

from __future__ import annotations

import argparse
import sys

from repro.api import (
    Engine,
    SelectionRequest,
    selector_aliases,
    selector_names,
    selector_spec,
)
from repro.bench import (
    run_parameter_tuning_experiment,
    run_quality_experiment,
    run_runtime_experiment,
    run_session_experiment,
    run_slow_baselines_experiment,
    run_user_study_experiment,
)
from repro.core import SubTabConfig
from repro.datasets import dataset_names, dataset_spec, make_dataset
from repro.frame.io import read_csv

EXPERIMENTS = {
    "table1": run_user_study_experiment,
    "fig5": run_user_study_experiment,
    "fig6": run_session_experiment,
    "fig7": run_slow_baselines_experiment,
    "fig8": run_quality_experiment,
    "fig9": run_runtime_experiment,
    "fig10": run_parameter_tuning_experiment,
}


def _add_source_arguments(parser, require: bool = True, artifact: bool = False) -> None:
    source = parser.add_mutually_exclusive_group(required=require)
    source.add_argument("--csv", help="path to a CSV file with a header row")
    source.add_argument("--dataset", help="name of a synthetic dataset")
    if artifact:
        source.add_argument("--artifact",
                            help="path to a saved engine artifact directory")
    parser.add_argument("--rows", type=int, default=None,
                        help="rows to synthesize (datasets only)")


def _add_selection_arguments(parser) -> None:
    parser.add_argument("-k", type=int, default=10, help="sub-table rows")
    parser.add_argument("-l", type=int, default=10, help="sub-table columns")
    parser.add_argument("--algorithm", default=None,
                        help="registered selection algorithm (see `algorithms`; "
                             "default: subtab, or the artifact's algorithm)")
    parser.add_argument("--seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SubTab: informative sub-tables for data exploration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="display an informative sub-table")
    _add_source_arguments(show, artifact=True)
    _add_selection_arguments(show)
    show.add_argument("--targets", nargs="*", default=[],
                      help="target columns forced into the selection")

    fit = sub.add_parser(
        "fit", help="preprocess a table and save the fitted engine artifact"
    )
    _add_source_arguments(fit)
    _add_selection_arguments(fit)
    fit.add_argument("--out", required=True,
                     help="directory to write the artifact to")

    serve = sub.add_parser(
        "serve", help="serve exploration sessions from a saved artifact"
    )
    serve.add_argument("--artifact", required=True,
                       help="path to a saved engine artifact directory "
                            "(with --connect: used to generate the session "
                            "workload; the remote servers do the serving)")
    serve.add_argument("--sessions", type=int, default=3,
                       help="synthetic exploration sessions to serve")
    serve.add_argument("-k", type=int, default=None, help="sub-table rows")
    serve.add_argument("-l", type=int, default=None, help="sub-table columns")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--cache-size", type=int, default=256,
                       help="selection-LRU capacity (per process)")
    serve.add_argument("--transport",
                       choices=["inproc", "socket", "asyncio", "http"],
                       default="inproc",
                       help="inproc: drive the backend from this process; "
                            "socket: expose it as a length-prefixed JSON "
                            "socket server on --host/--port; asyncio: same "
                            "wire format through the pipelined asyncio "
                            "server (many frames in flight per connection); "
                            "http: the JSON/HTTP gateway (POST /v1/select, "
                            "streaming sessions, multi-tenant admission)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --transport "
                            "socket/asyncio/http")
    serve.add_argument("--port", type=int, default=7341,
                       help="bind port for --transport socket/asyncio/http "
                            "(0: ephemeral)")
    serve.add_argument("--tenants", default=None, metavar="FILE",
                       help="with --transport http: tenant config JSON "
                            "(API keys, rate limits, max_inflight); "
                            "omitted: the gateway is open (no auth)")
    serve.add_argument("--http-cache-size", type=int, default=0,
                       metavar="ENTRIES",
                       help="with --transport http: cache up to ENTRIES "
                            "select/select_many responses at the gateway, "
                            "keyed on the canonical request + artifact "
                            "fingerprint, with strong-ETag revalidation "
                            "(0: off)")
    serve.add_argument("--connect", default=None, metavar="HOST:PORT[,...]",
                       help="serve through remote socket server(s); several "
                            "comma-separated members form a consistent-hash "
                            "cluster with failover (with --transport "
                            "socket/asyncio/http: the server fronts them)")
    serve.add_argument("--replicas", type=int, default=2,
                       help="replica-set size per request when --connect "
                            "lists several members (failover breadth)")
    serve.add_argument("--replica-policy",
                       choices=["primary", "round_robin", "hash",
                                "least_inflight"],
                       default="primary",
                       help="which live replica serves each read when "
                            "--connect lists several members: primary "
                            "(ring order; replicas are failover-only), "
                            "round_robin, hash (cache affinity: each "
                            "request hash owns one replica), or "
                            "least_inflight")
    serve.add_argument("--stats-interval", type=float, default=0.0,
                       metavar="SECONDS",
                       help="with --transport socket/asyncio/http: every N "
                            "seconds, print the backend's stats() snapshot "
                            "(served/errors plus the metrics section) as "
                            "one JSON line (0: off)")
    serve.add_argument("--pipelined", action="store_true",
                       help="with --connect: speak the pipelined "
                            "multiplexing client (many in-flight frames "
                            "per member socket) instead of the "
                            "request/response client")

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS.keys()))
    experiment.add_argument("--rows", type=int, default=None,
                            help="override dataset row counts")
    experiment.add_argument("--seed", type=int, default=0)

    sub.add_parser("datasets", help="list synthetic datasets")
    sub.add_parser("algorithms", help="list registered selection algorithms")
    return parser


def _load_source(args) -> tuple:
    """(frame, default targets) from --csv or --dataset."""
    if args.csv:
        return read_csv(args.csv), []
    dataset = make_dataset(args.dataset, n_rows=args.rows, seed=args.seed)
    return dataset.frame, list(dataset.target_columns)


def _build_engine(args) -> Engine:
    config = SubTabConfig(k=args.k, l=args.l, seed=args.seed)
    return Engine(args.algorithm or "subtab", config=config)


def _cmd_show(args) -> int:
    targets = list(args.targets)
    if args.artifact:
        # An explicit --algorithm overrides the artifact's persisted one
        # (the preprocessed state is algorithm-independent).
        engine = Engine.load(args.artifact, algorithm=args.algorithm)
        print(f"Artifact: {args.artifact} (algorithm={engine.algorithm}, "
              f"loaded in {engine.timings_['artifact_load']:.2f}s, "
              f"pre-processing skipped)")
    else:
        frame, default_targets = _load_source(args)
        targets = targets or default_targets
        print(f"Table: {frame.n_rows} rows x {frame.n_cols} columns")
        engine = _build_engine(args)
        engine.fit(frame)
        print(f"Pre-processing ({engine.algorithm}): "
              f"{engine.timings_['preprocess_total']:.1f}s\n")
    response = engine.select(
        SelectionRequest(k=args.k, l=args.l, targets=tuple(targets))
    )
    print(response.subtable)
    print(f"\n[select: {response.select_seconds:.3f}s]")
    return 0


def _cmd_fit(args) -> int:
    frame, _ = _load_source(args)
    print(f"Table: {frame.n_rows} rows x {frame.n_cols} columns")
    engine = _build_engine(args)
    engine.fit(frame)
    engine.save(args.out)
    print(f"Pre-processing ({engine.algorithm}): "
          f"{engine.timings_['preprocess_total']:.1f}s")
    print(f"Saved fitted engine to {args.out}")
    return 0


def _build_serve_backend(args) -> tuple:
    """The ``ExecutionBackend`` the flags describe, plus a description.

    This is the whole topology story of ``serve``: ``--connect`` builds a
    client of one remote server or a ring of them, anything else loads
    the artifact into an engine in this process.  The client loop and
    every server transport host whatever this returns.
    """
    from repro.serve import (
        AsyncRemoteBackend,
        ClusterRouter,
        InProcessBackend,
        RemoteBackend,
    )

    if args.connect:
        addresses = [a.strip() for a in args.connect.split(",") if a.strip()]
        if not addresses:
            raise SystemExit("serve: --connect needs at least one HOST:PORT")
        client = AsyncRemoteBackend if args.pipelined else RemoteBackend
        flavor = "pipelined " if args.pipelined else ""
        try:
            members = [(address, client(address)) for address in addresses]
            if len(addresses) == 1:
                return members[0][1], f"{flavor}remote server {addresses[0]}"
            cluster = ClusterRouter(
                members,
                replication=args.replicas,
                replica_policy=args.replica_policy,
            )
        except ValueError as error:  # bad address, duplicate, replicas < 1
            raise SystemExit(f"serve: {error}") from error
        return (cluster,
                f"cluster of {len(addresses)} {flavor}members "
                f"(replication={args.replicas}, "
                f"replica_policy={args.replica_policy}, "
                f"consistent-hash routing)")
    backend = InProcessBackend.from_artifact(args.artifact,
                                             cache_size=args.cache_size)
    return backend, "in-process engine"


def _render_serving_stats(stats: dict, results) -> str:
    """One summary line from a backend's ``stats()`` payload."""
    from repro.api import SelectionResponse

    kind = stats.get("backend")
    if kind == "inproc":
        responses = [r for r in results if isinstance(r, SelectionResponse)]
        total = sum(r.select_seconds for r in responses)
        mean_ms = 1000.0 * total / len(responses) if responses else 0.0
        hits = stats["cache"]["hits"]
        misses = stats["cache"]["misses"]
        rate = hits / (hits + misses) if hits + misses else 0.0
        return (f"mean select latency: {mean_ms:.2f} ms   "
                f"cache: hits={hits} misses={misses} hit_rate={rate:.0%}")
    if kind == "cluster":
        members = " ".join(
            f"{member['name']}={member['served']}"
            for member in stats["members"]
        )
        return (f"aggregate QPS: {stats['qps']:.1f}   "
                f"failovers: {stats['failovers']}   "
                f"policy: {stats['replica_policy']}   per-member: {members}")
    if kind in ("remote", "pipelined"):
        return (f"aggregate QPS: {stats['qps']:.1f}   "
                f"server: {stats['address']}")
    return f"aggregate QPS: {stats.get('qps', 0.0):.1f}"


def _start_stats_reporter(server, interval: float):
    """Periodically print the served backend's ``stats()`` as one JSON line
    each.

    Returns a stop callable (``None`` when ``interval`` is off).  The
    snapshots include the backend's ``metrics`` section and the
    dispatcher's registry under ``dispatcher`` — counters and latency
    histograms from :mod:`repro.obs` — so a long-running server leaves a
    scrapeable trail on stdout without any client asking.  Each
    snapshot is a ``stats`` op through the server's dispatcher, served
    like any client's and beside the selects in flight: the backend's
    counters live in its locked registry, and a fronted
    :class:`~repro.serve.RemoteBackend` holds its own lock per call, so
    the snapshot never cuts into a request on the member's socket.
    """
    import json
    import threading

    if interval <= 0:
        return None
    stop = threading.Event()

    def report() -> None:
        while not stop.wait(interval):
            reply = server.handle_message({"op": "stats"})
            print(json.dumps(reply.get("stats", reply), sort_keys=True),
                  flush=True)

    thread = threading.Thread(target=report, name="stats-reporter",
                              daemon=True)
    thread.start()
    return stop.set


def _serve_socket(args) -> int:
    """Expose the backend the flags describe on a TCP address (server
    mode): an engine in this process, or the ``--connect`` members."""
    from repro.serve import TransportError
    from repro.serve.transport import _build_server

    registry = None
    if args.transport == "http" and args.tenants is not None:
        from repro.gateway import TenantConfigError, TenantRegistry

        try:
            # Validate before building the backend or binding the port:
            # a config typo should fail fast, not lock tenants out.
            registry = TenantRegistry.from_file(args.tenants)
        except TenantConfigError as error:
            raise SystemExit(f"serve: {error}")
    backend, description = _build_serve_backend(args)
    try:
        # The server owns the backend; a failed build has closed it.
        server = _build_server(backend, args.host, args.port, args.transport,
                               tenants=registry,
                               cache_size=args.http_cache_size)
    except TransportError as error:
        raise SystemExit(f"serve: {error}")
    host, port = server.address
    tenancy = ("" if registry is None
               else f", tenants={len(registry)}")
    print(f"serving {args.artifact} on {host}:{port} "
          f"(transport={args.transport}{tenancy}); backend: {description}; "
          f"Ctrl-C to stop", flush=True)
    stop_reporter = _start_stats_reporter(server, args.stats_interval)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if stop_reporter is not None:
            stop_reporter()
        server.close()
    return 0


def _cmd_serve(args) -> int:
    from repro.api import SelectionResponse
    from repro.api.artifacts import load_artifact
    from repro.queries.generator import SessionGenerator
    from repro.serve import BackendError, InProcessBackend

    if args.tenants and args.transport != "http":
        raise SystemExit("serve: --tenants configures the HTTP gateway; "
                         "it requires --transport http")
    if args.http_cache_size and args.transport != "http":
        raise SystemExit("serve: --http-cache-size configures the HTTP "
                         "gateway; it requires --transport http")
    if args.transport in ("socket", "asyncio", "http"):
        return _serve_socket(args)

    # One code path for every topology: build a backend, drive it.
    backend, description = _build_serve_backend(args)
    if isinstance(backend, InProcessBackend):
        # The backend already loaded the artifact — reuse its state for
        # session generation instead of reading the directory twice.
        binned, algorithm = backend.host.binned, backend.host.algorithm
    else:
        artifact = load_artifact(args.artifact)
        binned, algorithm = artifact.binned, artifact.algorithm
    print(f"Artifact: {args.artifact} (algorithm={algorithm})")
    print(f"Backend: {description}")
    sessions = SessionGenerator(binned, seed=args.seed).generate(
        args.sessions
    )
    requests = [
        SelectionRequest(k=args.k, l=args.l, query=step.state)
        for session in sessions
        for step in session
    ]
    try:
        results = backend.select_many(requests, raise_on_error=False)
        stats = backend.stats()
    except BackendError as error:
        print(f"serve: backend failed: {error}", file=sys.stderr)
        return 1
    finally:
        backend.close()
    served = sum(1 for r in results if isinstance(r, SelectionResponse))
    backend_failures = [r for r in results if isinstance(r, BackendError)]
    skipped = len(results) - served - len(backend_failures)
    print(f"Served {served} displays over {args.sessions} sessions "
          f"({skipped} degenerate states skipped)")
    print(_render_serving_stats(stats, results))
    if backend_failures:
        print(f"serve: {len(backend_failures)} request(s) failed at the "
              f"backend level: {backend_failures[0]}", file=sys.stderr)
        return 1
    return 0


def _cmd_experiment(args) -> int:
    runner = EXPERIMENTS[args.name]
    kwargs = {"seed": args.seed}
    if args.rows is not None:
        kwargs["n_rows"] = args.rows
    result = runner(**kwargs)
    print(result.render())
    return 0


def _cmd_datasets() -> int:
    for name in dataset_names():
        spec = dataset_spec(name)
        print(f"{name:10s} {spec.default_rows:>7} rows x {len(spec.columns):>3} cols"
              f"  targets={list(spec.target_columns)}")
        print(f"{'':10s} {spec.description}")
    return 0


def _cmd_algorithms() -> int:
    for name in selector_names():  # sorted: the listing is deterministic
        spec = selector_spec(name)
        speed = "interactive" if spec.interactive else "slow"
        aliases = selector_aliases(name)
        suffix = f"  (aliases: {', '.join(aliases)})" if aliases else ""
        print(f"{name:12s} [{speed:11s}] {spec.description}{suffix}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "show":
        return _cmd_show(args)
    if args.command == "fit":
        return _cmd_fit(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "algorithms":
        return _cmd_algorithms()
    return _cmd_datasets()


if __name__ == "__main__":
    sys.exit(main())
