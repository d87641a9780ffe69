"""Asyncio transport: many frames in flight per connection.

The synchronous :class:`~repro.serve.transport.SocketServer` /
:class:`~repro.serve.transport.RemoteBackend` pair is strict
request/response per connection — a client can never have more than one
frame in flight, so every request pays a full round trip of client
encode, server decode, backend compute, server encode, client decode in
sequence.  This module pipelines those stages without touching the wire
format:

* :class:`EventLoopServer` — the one event-loop server lifecycle (bind on
  a background loop thread, ``address``, ``serve_forever``, a ``close``
  that drains every connection); the HTTP gateway is its other subclass.
* :class:`AsyncSocketServer` — an asyncio server speaking the exact
  4-byte length-prefixed JSON framing of :mod:`repro.serve.transport`
  (same codec helpers, same :class:`~repro.serve.transport
  .BackendDispatcher`, same error taxonomy).  The event loop keeps
  reading frames while a per-connection consumer drains everything
  queued into **adaptive micro-batches** — one thread-executor hop
  dispatches the whole burst and one write flushes its replies — so a
  pipelining client pays the cross-thread handoff per *batch*, not per
  frame, and many frames from one connection are in flight at once.
  Replies carry the client's echoed ``"id"``, which is what makes
  out-of-order completion safe.
* :class:`AsyncRemoteBackend` — the pipelined client: a normal
  synchronous :class:`~repro.serve.backend.ExecutionBackend` (it plugs
  into a :class:`~repro.serve.cluster.ClusterRouter` like any member)
  that multiplexes ``select_many`` as a stream of id-tagged ``select``
  frames over **one** socket, windowed at ``window`` in flight, and
  correlates replies by id on a background reader thread.

Interoperability is bit-for-bit by construction: the sync client speaks
to the async server (it never sends an id, and its one-in-flight
discipline needs no correlation), and the pipelined client speaks to the
sync server (which handles its frames sequentially and echoes ids via the
shared dispatcher).  ``tests/test_backend_equivalence.py`` asserts all
four client x server pairings produce identical responses.

Failure semantics match the sync transport: transport faults are
:class:`~repro.serve.errors.TransportError` (a failover trigger), a
server-reported backend fault is
:class:`~repro.serve.errors.RemoteServerError`, a rejected request is
:class:`~repro.serve.errors.RemoteRequestError` (never failover), and
closing the client with frames in flight fails them all with
:class:`~repro.serve.errors.PipelineCancelled`.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from repro.api.request import SelectionRequest, SelectionResponse
from repro.obs import TRACE_KEY, make_stage, resolve_trace_id, stage_seconds
from repro.serve.backend import BaseBackend
from repro.serve.errors import (
    BackendError,
    PipelineCancelled,
    TransportError,
)
from repro.serve.transport import (
    DEFAULT_HOST,
    FRAME_HEADER_SIZE,
    BackendDispatcher,
    decode_payload,
    encode_frame,
    frame_length,
    parse_address,
    reply_error,
)

#: Default cap on in-flight frames per pipelined ``select_many`` — enough
#: to keep every stage of the pipeline busy (and the corked bursts large),
#: small enough that a slow server cannot make the client buffer an
#: unbounded reply backlog.
DEFAULT_WINDOW = 64

#: Most frames one server-side micro-batch dispatches per executor hop.
DISPATCH_BATCH = 64

#: Executor width of the asyncio server: at most this many backend calls
#: run at once.
DISPATCH_THREADS = 4

#: Per-connection cap on decoded frames awaiting dispatch; beyond it the
#: reader stops draining the socket and TCP backpressure reaches the
#: client (its send window is the real limiter — this is a flood guard).
QUEUE_DEPTH = 1024

#: End-of-connection marker on the frame queue.
_EOF = object()


# ---------------------------------------------------------------------------
# Servers
# ---------------------------------------------------------------------------

class EventLoopServer:
    """The event-loop core under both asyncio front doors
    (:class:`AsyncSocketServer` and the HTTP
    :class:`~repro.gateway.app.HttpGateway`).

    The loop runs on a background thread, so a server embeds in
    synchronous code like the threaded
    :class:`~repro.serve.transport.SocketServer`: ``start()`` returns once
    the socket is bound (a bind failure re-raises as
    :class:`TransportError`), ``address`` is the bound ``(host, port)``,
    ``serve_forever()`` blocks until :meth:`close`, and ``close()`` stops
    the loop, aborts the live transports so every reader wakes with EOF,
    gathers the handler tasks, then releases the subclass's resources and
    an owned backend.  A subclass supplies the conversation on one
    connection, :meth:`_handle_connection`.
    """

    #: Name of the background event-loop thread.
    thread_name = "aio-server"
    #: Buffer limit of each connection's ``StreamReader`` (asyncio's default).
    stream_limit = 1 << 16

    def __init__(self, backend, host: str, port: int, own_backend: bool):
        self.backend = backend
        self._own_backend = own_backend
        self._bind_host = host
        self._bind_port = port
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._handler_tasks: set = set()
        self._transports: set = set()
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._address: Optional[tuple] = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------------
    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` (after :meth:`start`)."""
        if self._address is None:
            raise TransportError(f"{type(self).__name__} has not been started")
        return self._address

    def start(self):
        """Bind and serve on a background event loop; returns ``self``
        once the address is bound (startup failures re-raise here)."""
        if self._closed:
            raise TransportError(f"{type(self).__name__} is closed")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run_loop, daemon=True, name=self.thread_name
            )
            self._thread.start()
            self._started.wait()
            if self._startup_error is not None:
                self._thread.join(timeout=1.0)
                self._thread = None
                error = self._startup_error
                self._startup_error = None
                raise TransportError(
                    f"could not bind {self._bind_host}:{self._bind_port}: "
                    f"{type(error).__name__}: {error}"
                ) from error
        return self

    def serve_forever(self) -> None:
        """Serve until :meth:`close` (or KeyboardInterrupt in the caller)."""
        self.start()
        while self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=0.2)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # loop already gone
                pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._release()
        if self._own_backend:
            self.backend.close()

    def _release(self) -> None:
        """Free what the subclass holds besides the loop (it has stopped)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- event loop ----------------------------------------------------------
    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        finally:
            self._started.set()  # unblock start() even on pre-bind crashes

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._handler_tasks = set()
        self._transports = set()
        try:
            server = await asyncio.start_server(
                self._serve_connection, self._bind_host, self._bind_port,
                limit=self.stream_limit,
            )
        except OSError as error:
            self._startup_error = error
            self._started.set()
            return
        self._address = server.sockets[0].getsockname()[:2]
        self._started.set()
        async with server:
            await self._stop.wait()
        # Graceful teardown without cancelling handler tasks (a cancelled
        # streams handler trips asyncio's done-callback logging on 3.11):
        # abort the live transports so every reader wakes with EOF, then
        # wait for the handlers to drain their in-flight work and exit.
        for transport in list(self._transports):
            transport.abort()
        if self._handler_tasks:
            await asyncio.gather(*self._handler_tasks,
                                 return_exceptions=True)

    async def _serve_connection(self, reader, writer) -> None:
        handler = asyncio.current_task()
        if handler is not None:
            self._handler_tasks.add(handler)
        self._transports.add(writer.transport)
        try:
            await self._handle_connection(reader, writer)
        except (ConnectionError, OSError):
            pass  # the peer vanished; the conversation is over
        finally:
            self._transports.discard(writer.transport)
            if handler is not None:
                self._handler_tasks.discard(handler)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_connection(self, reader, writer) -> None:
        """The conversation on one connection, until EOF or a fault."""
        raise NotImplementedError


class AsyncSocketServer(EventLoopServer):
    """Serve an :class:`~repro.serve.backend.ExecutionBackend` over TCP
    with pipelined (many-in-flight) frame handling.

    >>> server = AsyncSocketServer(backend, port=0).start()  # doctest: +SKIP
    >>> AsyncRemoteBackend(server.address).select(request)   # doctest: +SKIP

    The lifecycle is :class:`EventLoopServer`'s; ``serve_forever()``
    blocks the calling thread until :meth:`close` (the CLI server mode).

    Each connection's frames are dispatched in adaptive micro-batches: a
    consumer task drains everything the reader has queued, one executor
    hop runs the whole burst through the shared dispatcher, and one write
    flushes the replies.  The pipelining win is paying the cross-thread
    handoff and write syscall per *burst* instead of per round trip,
    while the reader keeps decoding the next frames in parallel.  At most
    :data:`DISPATCH_THREADS` backend calls run at once; batches from one
    connection are serial by construction, so the calls that overlap come
    from different connections.

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
        super().__init__(backend, host, port, own_backend)
        self._dispatcher = BackendDispatcher(backend)
        self._executor = ThreadPoolExecutor(
            max_workers=DISPATCH_THREADS, thread_name_prefix="aio-dispatch",
        )

    def _release(self) -> None:
        self._executor.shutdown(wait=False)

    # -- protocol ------------------------------------------------------------
    def handle_message(self, message) -> dict:
        return self._dispatcher.handle_message(message)

    def _dispatch_batch(self, batch: list) -> Optional[bytes]:
        """Dispatch a burst of frames and encode their replies (runs on an
        executor thread, one hop for the whole burst).  ``None`` means an
        unencodable (oversized) reply — the connection must be dropped,
        like the sync server dropping it mid-conversation."""
        chunks = []
        for message in batch:
            reply = self._dispatcher.handle_message(message)
            try:
                chunks.append(encode_frame(reply))
            except TransportError:
                return None
        return b"".join(chunks)

    async def _consume_frames(self, queue, writer) -> None:
        """Per-connection consumer: drain whatever frames have queued into
        one micro-batch, dispatch them in one executor hop, flush their
        replies in one write.  Under a pipelining client the batch size
        adapts to the arrival rate; a request/response client simply gets
        batches of one.
        """
        loop = asyncio.get_running_loop()
        while True:
            message = await queue.get()
            if message is _EOF:
                return
            batch = [message]
            eof = False
            while len(batch) < DISPATCH_BATCH:
                try:
                    queued = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if queued is _EOF:
                    eof = True
                    break
                batch.append(queued)
            data = await loop.run_in_executor(
                self._executor, self._dispatch_batch, batch
            )
            if data is None:
                writer.transport.abort()
                return
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, OSError):
                return  # peer gone mid-write; the conversation is over
            if eof:
                return

    async def _handle_connection(self, reader, writer) -> None:
        queue: asyncio.Queue = asyncio.Queue(maxsize=QUEUE_DEPTH)
        consumer = asyncio.create_task(self._consume_frames(queue, writer))
        try:
            while not consumer.done():
                try:
                    header = await reader.readexactly(FRAME_HEADER_SIZE)
                    length = frame_length(header)
                    body = await reader.readexactly(length)
                    message = decode_payload(body)
                except (asyncio.IncompleteReadError, TransportError):
                    # Clean EOF, mid-frame EOF, or a corrupt stream: the
                    # conversation is over (matching the sync server).
                    break
                try:
                    queue.put_nowait(message)
                except asyncio.QueueFull:
                    # Backpressure path: block on the put, but never past
                    # the consumer's death — a dead consumer drains
                    # nothing, and a put awaited alone would wedge this
                    # handler (and server shutdown) forever.
                    put = asyncio.ensure_future(queue.put(message))
                    await asyncio.wait({put, consumer},
                                       return_when=asyncio.FIRST_COMPLETED)
                    if not put.done():
                        put.cancel()
                        break
        finally:
            if not consumer.done():
                # Wake the consumer without cancelling it: in-flight
                # dispatches drain, then it sees EOF and exits.
                try:
                    queue.put_nowait(_EOF)
                except asyncio.QueueFull:
                    consumer.cancel()
            await asyncio.gather(consumer, return_exceptions=True)


# ---------------------------------------------------------------------------
# Pipelined client
# ---------------------------------------------------------------------------

class _ReplyCollector:
    """Reply slots for one pipelined stream, completed as one unit.

    A stream of N frames waits on **one** event instead of N futures —
    per-reply synchronization is a slot write and a counter decrement, so
    the reader thread almost never wakes the sender (futures cost a
    condition-variable handshake per result, which on a single core is a
    measurable slice of a warm select's round trip).
    """

    __slots__ = ("slots", "failure", "done", "sent_times", "recv_times",
                 "_remaining", "_lock")

    def __init__(self, size: int, track_times: bool = False) -> None:
        self.slots: list = [None] * size
        self.failure: Optional[TransportError] = None
        self.done = threading.Event()
        # Per-slot send/receive stamps for tracing clients: the only
        # vantage point that sees the pipelined window wait
        # (``client_queue``) and the per-frame wire time.  ``None`` when
        # not tracing — the hot path pays nothing.
        self.sent_times: Optional[list] = [None] * size if track_times else None
        self.recv_times: Optional[list] = [None] * size if track_times else None
        self._remaining = size
        self._lock = threading.Lock()

    def mark_sent(self, index: int, stamp: float) -> None:
        if self.sent_times is not None:
            self.sent_times[index] = stamp

    def deliver(self, index: int, reply: dict) -> None:
        if self.recv_times is not None:
            self.recv_times[index] = time.perf_counter()
        self.slots[index] = reply
        with self._lock:
            self._remaining -= 1
            if self._remaining == 0:
                self.done.set()

    def fail(self, error: TransportError) -> None:
        with self._lock:
            if self.failure is None:
                self.failure = error
            self.done.set()


class _PipelinedConnection:
    """One physical socket multiplexing id-tagged frames.

    Senders tag each message with a connection-unique id; replies resolve
    their stream's :class:`_ReplyCollector` slot as the (possibly
    out-of-order) frames arrive on the background reader thread.  The
    first transport fault fails everything pending and poisons the
    connection — the owning backend then opens a fresh one.
    """

    #: Reader poll interval — how often the pending-reply deadline is
    #: checked while the socket is quiet (the timeout's granularity).
    POLL_SECONDS = 0.5

    def __init__(self, host: str, port: int, connect_timeout: float,
                 call_timeout: Optional[float]):
        self._sock = socket.create_connection((host, port),
                                              timeout=connect_timeout)
        # Blocking socket + a select() poll in the reader: the call
        # timeout applies only while frames are *pending* (a hung server
        # must surface as TransportError or failover never engages), so
        # an idle kept-alive connection is never poisoned by quiet time.
        self._sock.settimeout(None)
        self._call_timeout = call_timeout
        self._address = f"{host}:{port}"
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._pending: dict = {}
        self._next_id = 0
        self._waiting_since = time.monotonic()
        self._failure: Optional[TransportError] = None
        self._reader = threading.Thread(
            target=self._read_loop, daemon=True, name="aio-client-reader"
        )
        self._reader.start()

    @property
    def dead(self) -> bool:
        return self._failure is not None

    def stream_batch(
        self,
        messages: Sequence[dict],
        collector: _ReplyCollector,
        base_index: int,
        on_reply,
    ) -> None:
        """Send a burst of id-tagged frames in **one** write; replies land
        in ``collector.slots[base_index:]``.  Corking the burst is the
        client half of the pipelining win: one syscall (and one TCP
        segment train) carries the whole window.  ``on_reply`` fires once
        per frame outcome (reply or failure) — the sender's window gate.
        """
        with self._lock:
            if self._failure is not None:
                raise self._failure
            tagged = []
            for offset, message in enumerate(messages):
                frame_id = self._next_id
                self._next_id += 1
                body = dict(message)
                body["id"] = frame_id
                tagged.append((frame_id, body, base_index + offset))
        # Encode before registering: an unencodable (oversized) frame is a
        # *request*-shaped defect — it would fail identically on every
        # replica — so it resolves its own slot as a request error and
        # must not poison the shared connection or trigger failover.
        chunks = []
        sendable = []
        for frame_id, body, index in tagged:
            try:
                chunks.append(encode_frame(body))
            except TransportError as error:
                collector.deliver(index, {
                    "ok": False, "kind": "request",
                    "error": f"request not sendable: {error}",
                })
                on_reply()
                continue
            sendable.append((frame_id, index))
        if not sendable:
            return
        with self._lock:
            if self._failure is not None:
                raise self._failure
            if not self._pending:
                # The reply deadline runs from the moment the pipe went
                # from idle to waiting (and re-arms on every reply).
                self._waiting_since = time.monotonic()
            for frame_id, index in sendable:
                self._pending[frame_id] = (collector, index, on_reply)
        try:
            burst = b"".join(chunks)
            with self._send_lock:
                self._sock.sendall(burst)
            stamp = time.perf_counter()
            for _frame_id, index in sendable:
                collector.mark_sent(index, stamp)
        except (OSError, TransportError) as error:
            self._fail(error if isinstance(error, TransportError)
                       else TransportError(
                           f"socket to {self._address} failed mid-send: "
                           f"{type(error).__name__}: {error}"))

    def _read_loop(self) -> None:
        # Buffered counterpart of the corked writes: one recv slurps a
        # whole reply burst, then every complete frame in the buffer is
        # decoded and resolved before the next syscall.
        import select as select_module

        buffer = bytearray()
        try:
            while True:
                offset = 0
                while True:
                    if len(buffer) - offset < FRAME_HEADER_SIZE:
                        break
                    length = frame_length(
                        bytes(buffer[offset:offset + FRAME_HEADER_SIZE])
                    )
                    start = offset + FRAME_HEADER_SIZE
                    if len(buffer) - start < length:
                        break
                    reply = decode_payload(bytes(buffer[start:start + length]))
                    offset = start + length
                    with self._lock:
                        waiter = self._pending.pop(reply.get("id"), None)
                        self._waiting_since = time.monotonic()
                    if waiter is None:
                        continue  # stale id (e.g. raced with a failure)
                    collector, index, on_reply = waiter
                    collector.deliver(index, reply)
                    on_reply()
                del buffer[:offset]
                readable, _, _ = select_module.select(
                    [self._sock], [], [], self.POLL_SECONDS
                )
                if not readable:
                    with self._lock:
                        waiting = (bool(self._pending)
                                   and self._call_timeout is not None
                                   and time.monotonic() - self._waiting_since
                                   >= self._call_timeout)
                    if waiting:
                        raise TransportError(
                            f"server {self._address} did not reply within "
                            f"the {self._call_timeout:g}s call timeout"
                        )
                    continue  # idle (or still inside the deadline)
                chunk = self._sock.recv(1 << 20)
                if not chunk:
                    if buffer:
                        raise TransportError(
                            f"server {self._address} closed the connection "
                            "mid-frame"
                        )
                    raise TransportError(
                        f"server {self._address} closed the connection"
                    )
                buffer.extend(chunk)
        except ValueError as error:
            # select() on a socket closed under us (fd gone negative).
            self._fail(TransportError(
                f"socket to {self._address} closed during read: {error}"
            ))
        except (OSError, TransportError) as error:
            self._fail(error if isinstance(error, TransportError)
                       else TransportError(
                           f"socket to {self._address} failed: "
                           f"{type(error).__name__}: {error}"))

    def _fail(self, error: TransportError) -> None:
        """Poison the connection: everything pending (and every later
        call) fails with ``error``."""
        with self._lock:
            if self._failure is None:
                self._failure = error
            pending = list(self._pending.values())
            self._pending.clear()
        for collector, _index, on_reply in pending:
            collector.fail(error)
            on_reply()  # release the sender's window slot
        try:
            self._sock.close()
        except OSError:
            pass

    def close(self, error: Optional[TransportError] = None) -> None:
        self._fail(error or PipelineCancelled(
            f"pipelined connection to {self._address} closed by the client"
        ))
        if self._reader is not threading.current_thread():
            self._reader.join(timeout=2.0)


class AsyncRemoteBackend(BaseBackend):
    """The pipelined socket client: one connection, many frames in flight.

    A drop-in :class:`~repro.serve.backend.ExecutionBackend` — cluster
    member, CLI backend, bench subject — whose ``select_many`` streams
    each request as its own id-tagged frame (at most ``window`` awaiting
    replies) instead of one blocking round trip per request or one giant
    batch frame.  Works against both the asyncio server (out-of-order
    completion, full overlap) and the sync server (in-order completion,
    still pipelined through the socket buffer).

    Concurrent callers multiplex safely over the single socket: ids are
    connection-unique, and each call windows itself independently.

    Failure semantics mirror :class:`~repro.serve.transport
    .RemoteBackend`: transport faults raise :class:`TransportError` after
    one transparent retry on a previously-good connection (selection is
    pure and cached, so replays are idempotent); :meth:`close` cancels
    in-flight frames with :class:`PipelineCancelled`, which is never
    retried.
    """

    kind = "pipelined"

    DEFAULT_CALL_TIMEOUT = 120.0

    def __init__(
        self,
        address: "str | tuple",
        connect_timeout: float = 5.0,
        call_timeout: Optional[float] = DEFAULT_CALL_TIMEOUT,
        window: int = DEFAULT_WINDOW,
        trace: bool = False,
    ):
        super().__init__()
        self.host, self.port = parse_address(address)
        self.connect_timeout = connect_timeout
        self.call_timeout = call_timeout
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.trace = trace
        #: The most recent completed trace (``{"id", "stages"}``) when
        #: ``trace=True``; per-stage histograms accumulate in
        #: ``self.metrics`` under ``trace.<stage>``.
        self.last_trace: Optional[dict] = None
        self._conn: Optional[_PipelinedConnection] = None
        self._conn_lock = threading.Lock()

    # -- connection ----------------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _connection(self) -> tuple:
        """``(connection, fresh)`` — reuse the live one or dial anew."""
        with self._conn_lock:
            if self._closed:
                # Checked under the lock so no call racing close() can
                # re-dial and leak a socket + reader thread.
                raise BackendError(f"{type(self).__name__} is closed")
            if self._conn is not None and not self._conn.dead:
                return self._conn, False
            try:
                self._conn = _PipelinedConnection(
                    self.host, self.port,
                    self.connect_timeout, self.call_timeout,
                )
            except OSError as error:
                raise TransportError(
                    f"could not connect to {self.address}: "
                    f"{type(error).__name__}: {error}"
                ) from error
            return self._conn, True

    def _drop_connection(self, observed: _PipelinedConnection) -> None:
        """Drop ``observed`` — and only it.  A slow failing caller must
        not tear down the *fresh* connection a concurrent caller has
        already re-dialed and is streaming on."""
        with self._conn_lock:
            if self._conn is not observed:
                return
            self._conn = None
        observed.close(TransportError(
            f"connection to {self.address} dropped by the client"
        ))

    # -- reply mapping -------------------------------------------------------
    def _entry(self, reply: dict):
        if reply.get("ok"):
            return SelectionResponse.from_wire(reply["response"])
        return reply_error(reply)  # the shared sync/pipelined mapping

    # -- tracing -------------------------------------------------------------
    def _traced(self, message: dict) -> dict:
        if not self.trace:
            return message
        return {**message, TRACE_KEY: {"id": resolve_trace_id("pipe")}}

    def _record_traces(self, replies: Sequence, timings) -> None:
        """Derive the client-only stages for every traced reply:
        ``client_queue`` (stream start → frame actually sent, i.e. the
        window wait) and ``transport`` (frame round trip minus the
        server's wall)."""
        if timings is None:
            return
        sent_times, recv_times, stream_start = timings
        last = None
        for index, reply in enumerate(replies):
            if not isinstance(reply, dict):
                continue
            carried = reply.get(TRACE_KEY)
            if not isinstance(carried, dict):
                continue
            stages = list(carried.get("stages", ()))
            sent, received = sent_times[index], recv_times[index]
            if sent is not None:
                stages.append(make_stage("client_queue", sent - stream_start))
                if received is not None:
                    stages.append(make_stage(
                        "transport",
                        (received - sent) - stage_seconds(carried, "server"),
                    ))
            trace = {"id": carried.get("id"), "stages": stages}
            for entry in stages:
                self.metrics.histogram(
                    f"trace.{entry['stage']}"
                ).observe(entry["seconds"])
            last = trace
        if last is not None:
            self.last_trace = last

    # -- pipelining ----------------------------------------------------------
    def _stream(self, messages: Sequence[dict],
                track_times: bool = False) -> tuple:
        """Send ``messages`` windowed over one connection; returns
        ``(replies, timings)`` with replies in message order and
        ``timings`` a ``(sent_times, recv_times, stream_start)`` triple
        when ``track_times`` (else ``None``).  Raises
        :class:`TransportError` (after one retry on a reused connection)
        when the transport dies mid-stream.
        """
        if not messages:
            return [], None  # a zero-size collector would never complete
        attempts = 2
        while True:
            attempts -= 1
            conn, fresh = self._connection()
            collector = _ReplyCollector(len(messages),
                                        track_times=track_times)
            stream_start = time.perf_counter()
            gate = threading.BoundedSemaphore(self.window)
            try:
                position = 0
                while position < len(messages):
                    # The gate bounds in-flight frames; a failed frame
                    # still releases its slot, so a dying connection
                    # cannot deadlock the sender.  Block until half a
                    # window of permits is back before sending again —
                    # greedily sending on every freed permit degrades the
                    # stream into one-frame dribs, and the per-frame
                    # costs pipelining amortizes come straight back.
                    remaining = len(messages) - position
                    target = min(remaining, max(1, self.window // 2))
                    acquired = 0
                    while acquired < target:
                        gate.acquire()
                        acquired += 1
                        if collector.failure is not None:
                            raise collector.failure
                    while (acquired < min(remaining, self.window)
                           and gate.acquire(blocking=False)):
                        acquired += 1
                    conn.stream_batch(
                        messages[position:position + acquired],
                        collector, position, gate.release,
                    )
                    position += acquired
                collector.done.wait()
                if collector.failure is not None:
                    raise collector.failure
                timings = ((collector.sent_times, collector.recv_times,
                            stream_start) if track_times else None)
                return collector.slots, timings
            except PipelineCancelled:
                raise  # the caller closed us: never retry
            except (OSError, TransportError) as error:
                self._drop_connection(conn)
                if fresh or attempts <= 0 or self._closed:
                    if isinstance(error, TransportError):
                        raise
                    raise TransportError(
                        f"socket to {self.address} failed: "
                        f"{type(error).__name__}: {error}"
                    ) from error
                # The kept connection may simply have gone stale (server
                # restarted between calls): replay once on a fresh one.

    # -- protocol ------------------------------------------------------------
    def select_many(
        self,
        requests: Sequence[SelectionRequest],
        raise_on_error: bool = True,
    ) -> list:
        self._require_open()
        start = time.perf_counter()
        messages = [self._traced({"op": "select", "request": request.to_wire()})
                    for request in requests]
        try:
            replies, timings = self._stream(messages,
                                            track_times=self.trace)
        except BackendError as error:
            # Every request of the batch went unserved: the stats envelope
            # counts them all, so errors/qps stay honest under failure.
            self._account([error] * len(requests),
                          time.perf_counter() - start)
            raise
        self._record_traces(replies, timings)
        entries = [self._entry(reply) for reply in replies]
        self._account(entries, time.perf_counter() - start)
        return self._finish(entries, raise_on_error)

    def select(self, request: SelectionRequest) -> SelectionResponse:
        self._require_open()
        start = time.perf_counter()
        try:
            (reply,), timings = self._stream(
                [self._traced({"op": "select", "request": request.to_wire()})],
                track_times=self.trace,
            )
            self._record_traces([reply], timings)
            entry = self._entry(reply)
            if isinstance(entry, Exception):
                raise entry
        except Exception as error:
            self._account([error], time.perf_counter() - start)
            raise
        self._account([entry], time.perf_counter() - start)
        return entry

    def ping(self) -> bool:
        """Liveness probe (raises :class:`TransportError` when unreachable)."""
        (reply,), _ = self._stream([{"op": "ping"}])
        return bool(reply.get("ok"))

    def stats(self) -> dict:
        payload = super().stats()
        payload["address"] = self.address
        payload["window"] = self.window
        try:
            (reply,), _ = self._stream([{"op": "stats"}])
            payload["server"] = reply["stats"]
        except (BackendError, KeyError):
            payload["server"] = None
        return payload

    def close(self) -> None:
        """Close the backend; in-flight frames fail with
        :class:`PipelineCancelled` (cancellation, not a retry trigger)."""
        with self._conn_lock:
            self._closed = True  # before the pop: no re-dial window
            conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()
        super().close()
