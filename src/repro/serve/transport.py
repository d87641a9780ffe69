"""Length-prefixed JSON socket transport for the backend protocol.

This is the host-boundary leg of the serving stack: a
:class:`SocketServer` exposes any :class:`~repro.serve.backend
.ExecutionBackend` on a TCP address, and a :class:`RemoteBackend` is the
client-side backend that speaks to it — so a remote engine, or even a
whole cluster, plugs into every topology exactly like a local one.

Framing
-------
Each message is one *frame*: a 4-byte big-endian unsigned length followed
by that many bytes of UTF-8 JSON.  Oversized frames (>256 MiB) and
mid-frame EOFs raise :class:`~repro.serve.errors.TransportError`; a clean
EOF between frames ends the conversation.  The JSON payloads reuse
:mod:`repro.api.wire` verbatim — requests and responses cross the socket
in exactly the wire form every other transport (asyncio, HTTP) speaks,
so socket-served responses are bit-identical to in-process ones.

A message may carry an ``"id"`` field; the server echoes it verbatim into
the reply.  Clients that serialize request/response per connection (the
sync :class:`RemoteBackend`) never send one and see byte-identical
replies; clients that pipeline many frames per connection
(:class:`~repro.serve.aio.AsyncRemoteBackend`) use the echo to correlate
out-of-order completions.  The frame codec (:func:`encode_frame` /
:func:`decode_payload`) and the server-side op dispatch
(:class:`BackendDispatcher`) are shared with the asyncio server in
:mod:`repro.serve.aio`, so both transports speak one protocol by
construction.

Operations (client → server)
----------------------------
=================  =====================================================
``ping``           liveness probe → ``{"ok": true}``
``stats``          the hosted backend's stats plus the dispatcher's
                   registry under ``"dispatcher"`` → ``{"ok": true,
                   "stats"}``
``select``         one request wire dict → ``{"ok": true, "response"}``
``select_many``    request wire dicts → ``{"ok": true, "results": [...]}``
=================  =====================================================

A message may also carry a ``"trace"`` field (``{"id": ...}``, see
:mod:`repro.obs.trace`); the server echoes it back enriched with
server-side stage timings (``server``/``backend``/``select``), and the
clients derive the stages only they can see (``client_queue``,
``transport``).  Requests without the field get byte-identical replies,
so tracing costs nothing until a client opts in.

Failures come back as ``{"ok": false, "kind": ..., "error": ...}`` where
``kind`` is ``"request"`` (fails on every replica — surfaced as
:class:`~repro.serve.errors.RemoteRequestError`), ``"backend"`` (this
server is unusable — :class:`~repro.serve.errors.RemoteServerError`, a
failover trigger), or ``"protocol"`` (malformed frame).
"""

from __future__ import annotations

import json
import multiprocessing
import signal
import socket
import socketserver
import struct
import sys
import threading
import time
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.api.request import SelectionRequest, SelectionResponse
from repro.obs import (
    TRACE_KEY,
    MetricsRegistry,
    make_stage,
    resolve_trace_id,
    stage_seconds,
)
from repro.serve.backend import BaseBackend
from repro.serve.errors import (
    BackendError,
    RemoteRequestError,
    RemoteServerError,
    TransportError,
)

DEFAULT_HOST = "127.0.0.1"

#: Hard ceiling on one frame; a corrupt length prefix fails loudly instead
#: of attempting a multi-gigabyte read.
MAX_FRAME_BYTES = 1 << 28

_HEADER = struct.Struct(">I")

#: Size of the length prefix, for transports that read it themselves
#: (the asyncio server's ``readexactly`` loop).
FRAME_HEADER_SIZE = _HEADER.size


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def _recv_exact(sock: socket.socket, n: int, *, at_boundary: bool) -> Optional[bytes]:
    """Read exactly ``n`` bytes.  Returns ``None`` on a clean EOF before the
    first byte of a frame (``at_boundary=True``); raises
    :class:`TransportError` on EOF anywhere else."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if at_boundary and remaining == n:
                return None
            raise TransportError(
                f"peer closed the connection mid-frame "
                f"({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def encode_frame(payload: dict) -> bytes:
    """One length-prefixed JSON frame as bytes (header + body)."""
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES}-byte "
            "transport limit"
        )
    return _HEADER.pack(len(data)) + data


def frame_length(header: bytes) -> int:
    """Body length announced by a 4-byte frame header (bounds-checked)."""
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"peer announced a {length}-byte frame, over the "
            f"{MAX_FRAME_BYTES}-byte transport limit"
        )
    return length


def decode_payload(data: bytes) -> dict:
    """Decode one frame body (raises :class:`TransportError` on garbage)."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TransportError(f"undecodable frame: {error}") from error


def send_frame(sock: socket.socket, payload: dict) -> None:
    """Send one length-prefixed JSON frame."""
    sock.sendall(encode_frame(payload))


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Receive one frame (``None`` on a clean EOF between frames)."""
    header = _recv_exact(sock, _HEADER.size, at_boundary=True)
    if header is None:
        return None
    length = frame_length(header)
    data = _recv_exact(sock, length, at_boundary=False)
    return decode_payload(data)


# ---------------------------------------------------------------------------
# Dispatch (shared by the sync and asyncio servers)
# ---------------------------------------------------------------------------

class BackendDispatcher:
    """Maps wire messages onto a hosted backend — the one server brain.

    Both the threaded :class:`SocketServer` and the
    :class:`~repro.serve.aio.AsyncSocketServer` hand every decoded frame
    to one of these, so the op set, the error taxonomy, and the
    request-id echo cannot drift between transports.  It holds no lock:
    the servers' threads call the backend concurrently, and each shared
    piece behind it guards itself (the engine's selection LRU, a
    workspace's fault-in, each client's connection, a ring's member
    bookkeeping, every registry metric).
    """

    def __init__(self, backend) -> None:
        self.backend = backend
        #: Server-side telemetry: per-op counters plus ``trace.<stage>``
        #: timing histograms for traced requests.  The ``stats`` op
        #: reports it under ``"dispatcher"``, so the CLI's
        #: ``--stats-interval`` dump and ``/v1/stats`` show it.
        self.metrics = MetricsRegistry()

    def handle_message(self, message) -> dict:
        tracing = isinstance(message, dict) and TRACE_KEY in message
        stages: "Optional[list]" = [] if tracing else None
        start = time.perf_counter()
        try:
            reply = self._dispatch(message, stages)
        except Exception as error:  # never kill the connection on bad input
            reply = {"ok": False, "kind": "protocol",
                     "error": f"{type(error).__name__}: {error}"}
        if tracing and stages is not None:
            stages.append(make_stage("server", time.perf_counter() - start))
            carried = message.get(TRACE_KEY)
            trace_id = (carried.get("id")
                        if isinstance(carried, dict) else None)
            reply[TRACE_KEY] = {"id": trace_id, "stages": stages}
            for entry in stages:
                self.metrics.histogram(
                    f"trace.{entry['stage']}"
                ).observe(entry["seconds"])
        if isinstance(message, dict) and "id" in message:
            # Pipelined clients correlate out-of-order completions by the
            # echoed id; id-less clients see byte-identical replies.
            reply["id"] = message["id"]
        return reply

    def _dispatch(self, message, stages: "Optional[list]" = None) -> dict:
        if not isinstance(message, dict):
            return {"ok": False, "kind": "protocol",
                    "error": f"expected a JSON object, got "
                             f"{type(message).__name__}"}
        op = message.get("op")
        if isinstance(op, str):
            self.metrics.counter(f"ops.{op}").inc()
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "stats":
            return {"ok": True, "stats": {
                **self.backend.stats(), "dispatcher": self.metrics.snapshot(),
            }}
        if op == "select":
            try:
                # An undecodable request is a *request* failure: it would
                # fail identically on every replica, so it must not be
                # reported in a way the client maps to a failover trigger.
                request = SelectionRequest.from_wire(message["request"])
                backend_start = time.perf_counter()
                response = self.backend.select(request)
                backend_seconds = time.perf_counter() - backend_start
            except BackendError as error:
                return {"ok": False, "kind": "backend",
                        "error": f"{type(error).__name__}: {error}"}
            except Exception as error:
                return {"ok": False, "kind": "request",
                        "error": f"{type(error).__name__}: {error}"}
            if stages is not None:
                # ``backend`` is the full dispatch hop (routing through a
                # hosted cluster included); ``select`` is the engine's
                # own selection wall — the gap between them is routing cost.
                stages.append(make_stage("backend", backend_seconds))
                stages.append(make_stage(
                    "select", getattr(response, "select_seconds", 0.0) or 0.0
                ))
            return {"ok": True, "response": response.to_wire()}
        if op == "select_many":
            requests = []
            decode_errors: dict[int, dict] = {}
            for position, wire in enumerate(message["requests"]):
                try:
                    requests.append(SelectionRequest.from_wire(wire))
                except Exception as error:  # that entry fails, not the batch
                    decode_errors[position] = {
                        "ok": False, "kind": "request",
                        "error": f"{type(error).__name__}: {error}",
                    }
                    requests.append(None)
            try:
                backend_start = time.perf_counter()
                entries = self.backend.select_many(
                    [r for r in requests if r is not None],
                    raise_on_error=False,
                )
                backend_seconds = time.perf_counter() - backend_start
            except BackendError as error:
                return {"ok": False, "kind": "backend",
                        "error": f"{type(error).__name__}: {error}"}
            if stages is not None:
                stages.append(make_stage("backend", backend_seconds))
            served = iter(entries)
            results = []
            for position in range(len(requests)):
                if position in decode_errors:
                    results.append(decode_errors[position])
                    continue
                entry = next(served)
                if isinstance(entry, SelectionResponse):
                    results.append({"ok": True, "response": entry.to_wire()})
                else:
                    # Preserve the taxonomy across the socket: a hosted
                    # nested backend (e.g. a cluster) reports member-level
                    # failures as BackendError entries, and the client
                    # must still see them as failover triggers.
                    kind = ("backend" if isinstance(entry, BackendError)
                            else "request")
                    results.append({
                        "ok": False, "kind": kind,
                        "error": f"{type(entry).__name__}: {entry}",
                    })
            return {"ok": True, "results": results}
        return {"ok": False, "kind": "protocol",
                "error": f"unknown op {op!r}"}


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------

class _ConnectionHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        while True:
            try:
                message = recv_frame(self.request)
            except TransportError:
                return
            if message is None:
                return
            reply = self.server.owner.handle_message(message)
            try:
                send_frame(self.request, reply)
            except (TransportError, OSError):
                return


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    owner: "SocketServer"


class SocketServer:
    """Serve an :class:`ExecutionBackend` over TCP.

    >>> server = SocketServer(backend, port=0).start()   # doctest: +SKIP
    >>> RemoteBackend(server.address).select(request)    # doctest: +SKIP

    ``port=0`` binds an ephemeral port; read the bound address from
    :attr:`address`.  Each connection is handled in its own thread, and
    those threads call the backend concurrently: one server runs as many
    backend calls at once as it has connections with a call in flight.

    The constructor binds; a bind failure raises :class:`TransportError`
    ("could not bind ..."), as the asyncio servers' ``start()`` does.

    Parameters
    ----------
    backend:
        Any execution backend (engine, workspace, even a whole cluster).
    host, port:
        Bind address (``port=0``: ephemeral).
    own_backend:
        Close the backend when the server closes.
    """

    def __init__(
        self,
        backend,
        host: str = DEFAULT_HOST,
        port: int = 0,
        own_backend: bool = False,
    ):
        self.backend = backend
        self._own_backend = own_backend
        self._dispatcher = BackendDispatcher(backend)
        try:
            self._server = _ThreadingTCPServer((host, port), _ConnectionHandler)
        except OSError as error:
            raise TransportError(
                f"could not bind {host}:{port}: {type(error).__name__}: {error}"
            ) from error
        self._server.owner = self
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------------
    @property
    def address(self) -> tuple:
        """The bound ``(host, port)``."""
        return self._server.server_address[:2]

    def serve_forever(self) -> None:
        """Serve in the calling thread until :meth:`close` (or SIGINT)."""
        self._server.serve_forever(poll_interval=0.1)

    def start(self) -> "SocketServer":
        """Serve in a background thread; returns ``self``."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self._own_backend:
            self.backend.close()

    def __enter__(self) -> "SocketServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- protocol ------------------------------------------------------------
    def handle_message(self, message) -> dict:
        return self._dispatcher.handle_message(message)


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

def reply_error(reply: dict) -> Exception:
    """The typed client-side exception a failure reply maps to.

    One mapping for every client (sync and pipelined), so the wire error
    taxonomy — ``request`` fails everywhere and never fails over,
    ``backend`` triggers failover — cannot diverge between transports.
    """
    kind = reply.get("kind", "backend")
    error = reply.get("error", "unknown server error")
    if kind == "request":
        return RemoteRequestError(error)
    if kind == "backend":
        return RemoteServerError(error)
    return TransportError(f"server protocol error: {error}")


def parse_address(address: "str | tuple") -> tuple:
    """``"host:port"`` (or an ``(host, port)`` pair) → ``(host, port)``."""
    if isinstance(address, str):
        host, sep, port = address.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(
                f"expected an address like 'host:port', got {address!r}"
            )
        return host or DEFAULT_HOST, int(port)
    host, port = address
    return str(host), int(port)


class RemoteBackend(BaseBackend):
    """An execution backend on the far side of a socket.

    Connects lazily, keeps one connection per backend, and reconnects once
    on a stale-connection failure (selection is pure and LRU-cached, so a
    retried request is idempotent).  Threads may share one instance: a
    lock held for the whole of each public call keeps one request and its
    reply on the socket at a time.  Transport failures raise
    :class:`TransportError` — a :class:`BackendError`, so a
    :class:`~repro.serve.cluster.ClusterRouter` fails over to a replica.

    ``call_timeout`` is deliberately finite by default: a member that
    *hangs* (half-open socket, stopped process) must eventually surface as
    a :class:`TransportError` or failover never engages.  Raise it for
    giant cold batches, or pass ``None`` to block forever.
    """

    kind = "remote"

    #: Default per-call socket timeout (seconds).  Generous enough for a
    #: cold batch of selections, finite so hung members fail over.
    DEFAULT_CALL_TIMEOUT = 120.0

    def __init__(
        self,
        address: "str | tuple",
        connect_timeout: float = 5.0,
        call_timeout: Optional[float] = DEFAULT_CALL_TIMEOUT,
        trace: bool = False,
    ):
        super().__init__()
        self.host, self.port = parse_address(address)
        self.connect_timeout = connect_timeout
        self.call_timeout = call_timeout
        self.trace = trace
        #: The most recent completed trace (``{"id", "stages"}``) when
        #: ``trace=True``; per-stage histograms accumulate in
        #: ``self.metrics`` under ``trace.<stage>``.
        self.last_trace: Optional[dict] = None
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()

    # -- connection ----------------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _record_trace(self, reply: dict, round_trip: float) -> None:
        carried = reply.get(TRACE_KEY)
        if not isinstance(carried, dict):
            return
        # The only stage the client can see that the server cannot: wire
        # time, i.e. the round trip minus the server's own wall clock.
        stages = list(carried.get("stages", ()))
        stages.append(make_stage(
            "transport", round_trip - stage_seconds(carried, "server")
        ))
        trace = {"id": carried.get("id"), "stages": stages}
        for entry in stages:
            self.metrics.histogram(
                f"trace.{entry['stage']}"
            ).observe(entry["seconds"])
        self.last_trace = trace

    def _call(self, message: dict, *, reconnect: bool = True) -> dict:
        self._require_open()
        if self.trace and TRACE_KEY not in message:
            message = {**message, TRACE_KEY: {"id": resolve_trace_id("sync")}}
        fresh = self._sock is None
        start = time.perf_counter()
        try:
            if self._sock is None:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
                self._sock.settimeout(self.call_timeout)
            send_frame(self._sock, message)
            reply = recv_frame(self._sock)
            if reply is None:
                raise TransportError("server closed the connection")
            if self.trace:
                self._record_trace(reply, time.perf_counter() - start)
            return reply
        except (OSError, TransportError) as error:
            self._drop_connection()
            if reconnect and not fresh:
                # The kept connection may simply have gone stale (server
                # restarted between calls): retry once on a fresh one.
                return self._call(message, reconnect=False)
            if isinstance(error, TransportError):
                raise
            raise TransportError(
                f"socket to {self.address} failed: "
                f"{type(error).__name__}: {error}"
            ) from error

    _reply_error = staticmethod(reply_error)

    def ping(self) -> bool:
        """Liveness probe (raises :class:`TransportError` when unreachable)."""
        with self._lock:
            return bool(self._call({"op": "ping"}).get("ok"))

    # -- protocol ------------------------------------------------------------
    def select_many(
        self,
        requests: Sequence[SelectionRequest],
        raise_on_error: bool = True,
    ) -> list:
        with self._lock:
            start = time.perf_counter()
            try:
                reply = self._call({
                    "op": "select_many",
                    "requests": [request.to_wire() for request in requests],
                })
                if not reply.get("ok"):
                    raise self._reply_error(reply)
            except BackendError as error:
                # Every request of the batch went unserved: the stats
                # envelope counts them all, so errors/qps stay honest
                # under failure.
                self._account([error] * len(requests),
                              time.perf_counter() - start)
                raise
            entries: list = []
            for result in reply["results"]:
                if result.get("ok"):
                    entries.append(
                        SelectionResponse.from_wire(result["response"])
                    )
                else:
                    entries.append(self._reply_error(result))
            self._account(entries, time.perf_counter() - start)
        return self._finish(entries, raise_on_error)

    def select(self, request: SelectionRequest) -> SelectionResponse:
        with self._lock:
            start = time.perf_counter()
            try:
                reply = self._call(
                    {"op": "select", "request": request.to_wire()}
                )
                if not reply.get("ok"):
                    raise self._reply_error(reply)
            except Exception as error:
                self._account([error], time.perf_counter() - start)
                raise
            response = SelectionResponse.from_wire(reply["response"])
            self._account([response], time.perf_counter() - start)
        return response

    def stats(self) -> dict:
        with self._lock:
            payload = super().stats()
            payload["address"] = self.address
            try:
                payload["server"] = self._call({"op": "stats"})["stats"]
            except (BackendError, KeyError):
                payload["server"] = None
        return payload

    def close(self) -> None:
        self._drop_connection()
        super().close()


# ---------------------------------------------------------------------------
# Building servers: ``serve`` and spawned child processes
# ---------------------------------------------------------------------------

#: Seconds a spawned server has to report its bound address.
STARTUP_TIMEOUT = 120.0


def _build_server(backend, host, port, transport, tenants=None, cache_size=0):
    """The bound server that exposes ``backend`` over ``transport`` — the
    one map from a transport name to a server, for ``serve`` and for
    spawned children.  The server owns ``backend``.

    ``"socket"``/``"asyncio"`` speak the length-prefixed framing;
    ``"http"`` stands the JSON gateway up over the same backend
    (``tenants``: a parsed :class:`~repro.gateway.tenants.TenantRegistry`,
    ``None`` for an open gateway; ``cache_size``: response-cache entries,
    0 = off).  A bind failure raises :class:`TransportError` ("could not
    bind ...") after closing ``backend``, which no server then owns.
    """
    try:
        if transport == "asyncio":
            from repro.serve.aio import AsyncSocketServer

            server = AsyncSocketServer(backend, host=host, port=port,
                                       own_backend=True)
        elif transport == "http":
            from repro.gateway.app import HttpGateway

            server = HttpGateway(backend, host=host, port=port, tenants=tenants,
                                 own_backend=True, cache_size=cache_size)
        else:
            return SocketServer(backend, host=host, port=port, own_backend=True)
    except BaseException:
        backend.close()
        raise
    try:
        return server.start()
    except BaseException:
        server.close()  # frees what the server holds, and closes the backend
        raise


def _build_backend(source: tuple) -> BaseBackend:
    """The backend a spawned server hosts, from its picklable description:
    ``("artifact", path, options)`` or ``("store", path, options)``."""
    from repro.serve.backend import InProcessBackend

    kind, path, options = source
    if kind == "store":
        from repro.api.store import ArtifactStore

        return InProcessBackend.from_store(ArtifactStore(path), **options)
    return InProcessBackend.from_artifact(path, **options)


def _server_process_main(
    conn: Any, source: tuple, host: str, port: int, transport: str,
) -> None:
    signal.signal(signal.SIGTERM, lambda *args: sys.exit(0))
    try:
        backend = _build_backend(source)
        server = _build_server(backend, host, port, transport)
    # Crossing a process boundary: the failure text travels back over the
    # pipe and _spawn_server re-wraps it as a typed TransportError.
    except Exception as error:  # reprolint: ignore[error-taxonomy]
        conn.send(("error", f"{type(error).__name__}: {error}"))
        conn.close()
        return
    conn.send(("ok", server.address))
    conn.close()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()


class SpawnedServer:
    """Handle on a socket server running in a child process."""

    def __init__(self, process, host: str, port: int) -> None:
        self.process = process
        self.host = host
        self.port = port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def connect(self, **options) -> RemoteBackend:
        """A fresh :class:`RemoteBackend` speaking to this server."""
        return RemoteBackend((self.host, self.port), **options)

    def connect_pipelined(self, **options):
        """A fresh pipelined :class:`~repro.serve.aio.AsyncRemoteBackend`
        speaking to this server (works against either transport)."""
        from repro.serve.aio import AsyncRemoteBackend

        return AsyncRemoteBackend((self.host, self.port), **options)

    def kill(self) -> None:
        """Hard-stop the server (simulates a member host dying)."""
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)

    def close(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=1.0)

    def __enter__(self) -> "SpawnedServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def spawn_artifact_server(
    artifact: "str | Path",
    cache_size: int = 256,
    algorithm: Optional[str] = None,
    host: str = DEFAULT_HOST,
    port: int = 0,
    transport: str = "socket",
) -> SpawnedServer:
    """Start a socket server over ``artifact`` in a child process.

    The child warm-starts one engine via ``Engine.load`` — the
    paper's phase split is what makes spawning a member this cheap — binds
    ``host:port`` (``port=0``: ephemeral), and reports the bound address
    back before serving (within :data:`STARTUP_TIMEOUT`).  ``transport``
    picks the threaded :class:`SocketServer` (``"socket"``) or the
    pipelined :class:`~repro.serve.aio.AsyncSocketServer` (``"asyncio"``);
    both speak the same framing, so either client connects to either —
    or the open HTTP/JSON gateway (``"http"``, no response cache; connect
    with :class:`~repro.gateway.client.HttpBackend`).  This is
    how the cluster benchmarks and the failover tests stand up members on
    one machine; production members are the same server started on real
    hosts (``python -m repro serve --transport socket|asyncio|http``).
    """
    return _spawn_server(
        f"server over {artifact}",
        ("artifact", str(artifact),
         dict(cache_size=cache_size, algorithm=algorithm)),
        host=host, port=port, transport=transport,
    )


def spawn_store_server(
    store: "str | Path",
    capacity: int = 4,
    cache_size: int = 256,
    host: str = DEFAULT_HOST,
    port: int = 0,
    transport: str = "asyncio",
) -> SpawnedServer:
    """Start a *multi-dataset* server over an :class:`ArtifactStore` path.

    The child hosts a :class:`~repro.api.Workspace` (capacity-bounded
    engine LRU keyed by dataset) behind :class:`InProcessBackend`, so one
    server answers requests for every dataset in the store — the topology
    the zipf multi-dataset load harness drives.  Requests must carry
    ``dataset``; ``transport`` defaults to the pipelined asyncio server
    because that is what an open-loop client saturates.  ``"http"``
    serves the same workspace through the open JSON gateway (connect with
    :class:`~repro.gateway.client.HttpBackend`).
    """
    return _spawn_server(
        f"store server over {store}",
        ("store", str(store), dict(capacity=capacity, cache_size=cache_size)),
        host=host, port=port, transport=transport,
    )


def _spawn_server(
    label: str, source: tuple, *, host: str, port: int, transport: str,
) -> SpawnedServer:
    """Start a server over ``source`` (see :func:`_build_backend`) in a
    child process and return once it reports its bound address; ``label``
    names the server in the errors."""
    if transport not in ("socket", "asyncio", "http"):
        raise ValueError(f"unknown transport {transport!r}")
    context = multiprocessing.get_context()
    parent_conn, child_conn = context.Pipe()
    process = context.Process(
        target=_server_process_main,
        args=(child_conn, source, host, port, transport),
        daemon=True,
    )
    process.start()
    child_conn.close()
    if not parent_conn.poll(STARTUP_TIMEOUT):
        process.terminate()
        process.join(timeout=5.0)
        raise TransportError(
            f"{label} did not report an address within "
            f"{STARTUP_TIMEOUT:.0f}s"
        )
    status, detail = parent_conn.recv()
    parent_conn.close()
    if status != "ok":
        process.join(timeout=5.0)
        raise TransportError(f"{label} failed to start: {detail}")
    bound_host, bound_port = detail
    return SpawnedServer(process, bound_host, bound_port)
