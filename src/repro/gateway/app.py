"""The gateway application: routes → auth → admission → dispatch.

:class:`GatewayApp` is the async handler behind
:class:`HttpGateway`'s request loop.  It owns a
:class:`~repro.serve.transport.BackendDispatcher` over the fronted
:class:`~repro.serve.backend.ExecutionBackend` — the *same* server brain
the socket transports use — so every HTTP reply body is, by
construction, the socket reply for the same message: ``api/wire.py``
payloads verbatim, the error taxonomy as ``{"ok": false, "kind": ...}``
with the kind mapped onto the status line (request→400, backend→503,
auth→401/403, admission→429, gateway bug→500).

Routes
------
======  =====================  ===========================================
POST    ``/v1/select``         body: one ``SelectionRequest`` wire object
POST    ``/v1/select_many``    body: ``{"requests": [wire, ...]}``
GET     ``/v1/stream/session`` chunked JSON lines, one per session step
GET     ``/v1/stats``          backend stats + ``dispatcher`` + ``gateway``
GET     ``/v1/healthz``        liveness (no auth)
======  =====================  ===========================================

Tracing: a client-supplied ``X-Trace-Id`` header becomes the trace id of
the wire envelope handed to the dispatcher **and** is pinned via
:func:`repro.obs.propagate_trace_id` around the backend call, so a
fronted :class:`~repro.serve.transport.RemoteBackend` /
:class:`~repro.serve.aio.AsyncRemoteBackend` tags its frames with the
same id — one id names the whole gateway → transport → server → backend
journey, and the reply's ``trace.stages`` carries every hop's timings.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from typing import AsyncIterator, Optional, Union

from repro.api.request import SelectionRequest
from repro.obs import (
    TRACE_KEY,
    MetricsRegistry,
    make_stage,
    propagate_trace_id,
)
from repro.gateway.cache import (
    ResponseCache,
    etag_matches,
    request_key,
)
from repro.gateway.http import (
    MAX_HEADER_BYTES,
    HttpError,
    HttpRequest,
    HttpResponse,
    StreamingResponse,
    error_response,
    read_request,
    write_response,
)
from repro.gateway.tenants import (
    AdmissionController,
    AdmissionRejected,
    GatewayAuthError,
    TenantForbiddenError,
    TenantRegistry,
    TenantSpec,
)
from repro.serve.aio import EventLoopServer
from repro.serve.transport import BackendDispatcher

#: The tenant every request maps to when the gateway runs without a
#: tenants config (open mode: no keys, no rate limits — the concurrency
#: cap still applies).
ANONYMOUS = TenantSpec(name="anonymous", key="", rate=0.0, burst=1)

#: Reply-``kind`` → HTTP status.  ``protocol`` is 500: the dispatcher
#: only reports it for messages the *gateway* built wrong, which is a
#: server bug, not a client mistake.
_KIND_STATUS = {"request": 400, "backend": 503, "protocol": 500}


def session_steps(session, k: int, l: int, *,  # noqa: E741
                  dataset: Optional[str] = None,
                  algorithm: Optional[str] = None) -> list:
    """An EDA session as the gateway's streaming-step wire payloads.

    Each :class:`~repro.queries.session.SessionStep`'s cumulative query
    state becomes one ``SelectionRequest`` wire object; the list is what
    ``GET /v1/stream/session?steps=<url-encoded JSON>`` executes in
    order.
    """
    return [
        SelectionRequest(
            query=step.state, k=k, l=l,
            dataset=dataset, algorithm=algorithm,
        ).to_wire()
        for step in session
    ]


def _retry_after_header(retry_after: float) -> tuple:
    # Retry-After is an integer number of seconds; round up so a client
    # that honors it lands after the bucket refills, not just before.
    return ("Retry-After", str(max(1, math.ceil(retry_after))))


class GatewayApp:
    """Routing, tenancy, and dispatch over one fronted backend.

    The app is transport-free (it maps :class:`HttpRequest` to
    :class:`HttpResponse`); :class:`HttpGateway` serves it over HTTP for
    the full front door.
    """

    def __init__(
        self,
        backend,
        tenants: Optional[TenantRegistry] = None,
        max_inflight: int = 64,
        dispatch_threads: int = 8,
        cache_size: int = 0,
        cache_refresh_seconds: float = 2.0,
    ):
        self.backend = backend
        self.dispatcher = BackendDispatcher(backend)
        self.tenants = tenants
        if tenants is not None:
            max_inflight = tenants.max_inflight
        self.admission = AdmissionController(max_inflight)
        #: Gateway-level telemetry: ``gateway.requests``,
        #: ``gateway.latency``, per-status, per-tenant, and (with the
        #: cache enabled) ``cache.*`` counters.
        self.metrics = MetricsRegistry()
        #: Fingerprint-keyed response cache for ``/v1/select`` and
        #: ``/v1/select_many`` (``cache_size=0``: disabled).  Counters
        #: share ``self.metrics``; invalidation learns the backend's
        #: artifact fingerprints from ``stats()`` snapshots at most once
        #: per ``cache_refresh_seconds``.
        self.cache: Optional[ResponseCache] = (
            ResponseCache(cache_size, registry=self.metrics,
                          refresh_seconds=cache_refresh_seconds)
            if cache_size > 0 else None
        )
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, dispatch_threads),
            thread_name_prefix="gateway-dispatch",
        )

    def close(self) -> None:
        if self.cache is not None:
            self.cache.close()
        self._executor.shutdown(wait=False)

    # -- plumbing ------------------------------------------------------------
    def _authenticate(self, request: HttpRequest) -> TenantSpec:
        if self.tenants is None:
            return ANONYMOUS
        api_key = request.headers.get("x-api-key")
        if api_key is None:
            authorization = request.headers.get("authorization", "")
            scheme, _, credential = authorization.partition(" ")
            if scheme.lower() == "bearer":
                api_key = credential.strip()
        try:
            return self.tenants.authenticate(api_key)
        except GatewayAuthError as error:
            self.metrics.counter("gateway.auth.unauthorized").inc()
            raise HttpError(401, str(error)) from error
        except TenantForbiddenError as error:
            self.metrics.counter("gateway.auth.forbidden").inc()
            raise HttpError(403, str(error)) from error

    def _admit(self, tenant: TenantSpec) -> None:
        """Charge the tenant's token bucket (429 + Retry-After on shed)."""
        if self.tenants is None:
            return
        try:
            self.tenants.admit(tenant)
        except AdmissionRejected as error:
            self.metrics.counter("gateway.admission.rejected").inc()
            self.metrics.counter(
                f"gateway.tenant.{tenant.name}.rejected"
            ).inc()
            raise HttpError(
                429, str(error), kind="admission",
                headers=(_retry_after_header(error.retry_after),),
            ) from error

    async def _dispatch(self, message: dict,
                        trace_id: Optional[str]) -> dict:
        """One dispatcher call on the executor, inside the gateway's
        concurrency cap, with the trace id pinned for nested transports."""
        try:
            self.admission.acquire()
        except AdmissionRejected as error:
            self.metrics.counter("gateway.admission.rejected").inc()
            raise HttpError(
                429, str(error), kind="admission",
                headers=(_retry_after_header(error.retry_after),),
            ) from error
        loop = asyncio.get_running_loop()

        def call() -> dict:
            try:
                if trace_id is not None:
                    with propagate_trace_id(trace_id):
                        return self.dispatcher.handle_message(message)
                return self.dispatcher.handle_message(message)
            finally:
                self.admission.release()

        # run_in_executor does not carry contextvars across the thread
        # hop on its own; copy the context so propagate_trace_id holds
        # inside the dispatcher call.
        context = contextvars.copy_context()
        return await loop.run_in_executor(
            self._executor, lambda: context.run(call)
        )

    def _traced_message(self, message: dict,
                        trace_id: Optional[str]) -> dict:
        if trace_id is None:
            return message
        return {**message, TRACE_KEY: {"id": trace_id}}

    def _finish_trace(self, reply: dict, trace_id: Optional[str],
                      started: float) -> None:
        """Append the ``gateway`` stage and merge the stages only a
        nested tracing client saw (``transport``, ``client_queue``)."""
        if trace_id is None:
            return
        trace = reply.get(TRACE_KEY)
        if not isinstance(trace, dict):
            trace = {"id": trace_id, "stages": []}
            reply[TRACE_KEY] = trace
        stages = list(trace.get("stages", ()))
        seen = {entry.get("stage") for entry in stages
                if isinstance(entry, dict)}
        nested = getattr(self.backend, "last_trace", None)
        if isinstance(nested, dict) and nested.get("id") == trace_id:
            stages.extend(
                entry for entry in nested.get("stages", ())
                if isinstance(entry, dict)
                and entry.get("stage") not in seen
            )
        stages.append(make_stage("gateway", time.perf_counter() - started))
        trace["stages"] = stages
        for entry in stages:
            self.metrics.histogram(
                f"trace.{entry['stage']}"
            ).observe(entry["seconds"])

    @staticmethod
    def _reply_status(reply: dict) -> int:
        if reply.get("ok"):
            return 200
        return _KIND_STATUS.get(reply.get("kind"), 500)

    #: Wire form of a default request: what every field a hand-written
    #: HTTP body omits falls back to.
    _WIRE_DEFAULTS = SelectionRequest().to_wire()

    @classmethod
    def _tag_request(cls, payload: dict) -> dict:
        """Complete a hand-written body into a full wire payload.

        Our own clients always send full ``to_wire`` payloads; a stock
        HTTP caller posting ``{"k": 5, "l": 4}`` shouldn't need the
        codec's envelope tag or every optional field spelled out.
        Explicitly supplied keys — including a *wrong* ``format`` tag —
        pass through untouched and fail decoding loudly."""
        if payload.keys() >= cls._WIRE_DEFAULTS.keys():
            return payload
        return {**cls._WIRE_DEFAULTS, **payload}

    # -- response cache ------------------------------------------------------
    def _cache_enabled(self, tenant: TenantSpec) -> bool:
        # cache_quota=0 opts a tenant out entirely: its replies are
        # neither stored nor served from other entries of its own.
        return self.cache is not None and tenant.cache_quota != 0

    async def _maybe_refresh_cache(self) -> None:
        """Learn the backend's artifact generations (rate-limited).

        ``refresh_due`` claims at most one slot per refresh window, so
        concurrent handlers never stampede the backend with ``stats()``
        calls.  The call runs on a dispatch thread, concurrently with the
        selects in flight, and outside the admission cap — invalidation
        must not be shed along with client load.
        """
        if self.cache is None or not self.cache.refresh_due():
            return
        loop = asyncio.get_running_loop()
        reply = await loop.run_in_executor(
            self._executor,
            lambda: self.dispatcher.handle_message({"op": "stats"}),
        )
        if reply.get("ok"):
            self.cache.observe_stats(reply["stats"])

    def _cached_response(self, request: HttpRequest, entry) -> HttpResponse:
        """Serve one cache hit: 304 for a matching ``If-None-Match``,
        otherwise the exact cached bytes with their strong ``ETag``."""
        if etag_matches(request.headers.get("if-none-match"), entry.etag):
            self.cache.revalidated()
            return HttpResponse(304, headers=(
                ("ETag", entry.etag), ("X-Cache", "revalidated"),
            ))
        return HttpResponse(200, body=entry.body, headers=(
            ("ETag", entry.etag), ("X-Cache", "hit"),
        ))

    def _store_and_respond(self, tenant: TenantSpec, cache_key: str,
                           datasets, reply: dict,
                           trace_id: Optional[str]) -> HttpResponse:
        """Admit one fresh ``ok`` reply and answer the miss.

        The cached twin strips the per-call envelope (trace stages, echo
        id) so replayed hits are byte-stable; an *untraced* miss is
        answered with the stored bytes themselves, making cold and
        cached responses bit-identical by construction.  A traced
        request keeps its live envelope — it skipped the lookup, since
        tracing diagnoses the live path — but still stores the stripped
        twin for untraced callers.
        """
        cacheable = {key: value for key, value in reply.items()
                     if key not in (TRACE_KEY, "id")}
        body = json.dumps(cacheable).encode("utf-8")
        entry = self.cache.store(tenant.name, cache_key, datasets, body,
                                 quota=tenant.cache_quota)
        headers = (("ETag", entry.etag), ("X-Cache", "miss"))
        if trace_id is not None:
            return HttpResponse(200, reply, headers=headers)
        return HttpResponse(200, body=entry.body, headers=headers)

    # -- routes --------------------------------------------------------------
    async def _select(self, request: HttpRequest, tenant: TenantSpec,
                      trace_id: Optional[str], started: float,
                      ) -> HttpResponse:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(
                400, f"request body must be a JSON object "
                     f"(a SelectionRequest wire payload), got "
                     f"{type(payload).__name__}"
            )
        wire = self._tag_request(payload)
        message = self._traced_message(
            {"op": "select", "request": wire}, trace_id,
        )
        cache_key = None
        if self._cache_enabled(tenant):
            cache_key = request_key("/v1/select", wire)
            await self._maybe_refresh_cache()
            # A traced request is a diagnostic of the live path: it
            # skips the lookup (its reply must carry fresh stage
            # timings) but still populates the cache on the way out.
            if trace_id is None:
                entry = self.cache.lookup(tenant.name, cache_key)
                if entry is not None:
                    return self._cached_response(request, entry)
        reply = await self._dispatch(message, trace_id)
        self._finish_trace(reply, trace_id, started)
        if cache_key is not None and reply.get("ok"):
            return self._store_and_respond(
                tenant, cache_key, [wire.get("dataset") or ""],
                reply, trace_id,
            )
        return HttpResponse(self._reply_status(reply), reply)

    async def _select_many(self, request: HttpRequest, tenant: TenantSpec,
                           trace_id: Optional[str], started: float,
                           ) -> HttpResponse:
        payload = request.json()
        if not isinstance(payload, dict) \
                or not isinstance(payload.get("requests"), list):
            raise HttpError(
                400, "request body must be a JSON object with a "
                     "\"requests\" array of wire payloads"
            )
        wires = [self._tag_request(entry)
                 if isinstance(entry, dict) else entry
                 for entry in payload["requests"]]
        message = self._traced_message(
            {"op": "select_many", "requests": wires}, trace_id,
        )
        cache_key = None
        if self._cache_enabled(tenant):
            cache_key = request_key("/v1/select_many", {"requests": wires})
            await self._maybe_refresh_cache()
            if trace_id is None:
                entry = self.cache.lookup(tenant.name, cache_key)
                if entry is not None:
                    return self._cached_response(request, entry)
        reply = await self._dispatch(message, trace_id)
        self._finish_trace(reply, trace_id, started)
        # Cache only fully-ok batches: a slot holding a backend-kind
        # failure (member down mid-batch) must be recomputed, not
        # replayed for the cache's lifetime.
        if cache_key is not None and reply.get("ok") and all(
            isinstance(result, dict) and result.get("ok")
            for result in reply.get("results", ())
        ):
            datasets = {wire.get("dataset") or ""
                        for wire in wires if isinstance(wire, dict)}
            return self._store_and_respond(
                tenant, cache_key, datasets, reply, trace_id,
            )
        return HttpResponse(self._reply_status(reply), reply)

    def _parse_steps(self, request: HttpRequest) -> list:
        raw = request.query.get("steps")
        if raw is None:
            raise HttpError(
                400, "missing \"steps\" query parameter "
                     "(URL-encoded JSON array of request wire payloads)"
            )
        try:
            steps = json.loads(raw)
        except ValueError as error:
            raise HttpError(
                400, f"\"steps\" is not valid JSON: {error}"
            ) from error
        if not isinstance(steps, list) or not steps \
                or not all(isinstance(step, dict) for step in steps):
            raise HttpError(
                400, "\"steps\" must be a non-empty JSON array of "
                     "request wire objects"
            )
        return steps

    async def _stream_session(self, request: HttpRequest,
                              tenant: TenantSpec,
                              trace_id: Optional[str], started: float,
                              ) -> StreamingResponse:
        steps = self._parse_steps(request)
        self.metrics.counter("gateway.stream.sessions").inc()

        async def lines() -> AsyncIterator[dict]:
            served = 0
            finished = False
            try:
                for index, wire in enumerate(steps):
                    step_started = time.perf_counter()
                    message = self._traced_message(
                        {"op": "select",
                         "request": self._tag_request(wire)}, trace_id
                    )
                    try:
                        reply = await self._dispatch(message, trace_id)
                    except HttpError as error:
                        # Mid-stream the status line is gone; shed/fail
                        # as a terminal JSON line instead.
                        yield {"step": index, "ok": False,
                               "kind": error.kind, "error": str(error)}
                        return
                    self._finish_trace(reply, trace_id, step_started)
                    reply.pop("id", None)
                    self.metrics.counter("gateway.stream.steps").inc()
                    yield {"step": index, **reply}
                    if reply.get("ok"):
                        served += 1
                    elif reply.get("kind") != "request":
                        return  # the backend is down; stop the session
                    # a request-kind failure (degenerate step) streams
                    # through and the session continues, uncounted
                finished = True
                yield {"done": True, "served": served}
            finally:
                if not finished:
                    # The client hung up (or the backend died) before the
                    # last step: account the abandoned stream.
                    self.metrics.counter(
                        "gateway.stream.disconnected"
                    ).inc()

        return StreamingResponse(lines())

    async def _stats(self, request: HttpRequest, tenant: TenantSpec,
                     trace_id: Optional[str], started: float,
                     ) -> HttpResponse:
        reply = await self._dispatch({"op": "stats"}, trace_id)
        if reply.get("ok"):
            # The front door's own accounting: shed, auth and request
            # counters live in its registry (``gateway.*``).
            reply["stats"]["gateway"] = {
                "metrics": self.metrics.snapshot(),
                "admission": {
                    "max_inflight": self.admission.max_inflight,
                    "inflight": self.admission.inflight,
                },
                "cache": None if self.cache is None else self.cache.info(),
            }
            if self.cache is not None:
                # A stats round trip already paid for the snapshot:
                # let the cache learn the generations it carries.
                self.cache.observe_stats(reply["stats"])
        return HttpResponse(self._reply_status(reply), reply)

    _ROUTES = {
        ("POST", "/v1/select"): "_select",
        ("POST", "/v1/select_many"): "_select_many",
        ("GET", "/v1/stream/session"): "_stream_session",
        ("GET", "/v1/stats"): "_stats",
    }

    _PATHS = {path for _method, path in _ROUTES} | {"/v1/healthz"}

    # -- entry point ---------------------------------------------------------
    async def handle(
        self, request: HttpRequest,
    ) -> Union[HttpResponse, StreamingResponse]:
        started = time.perf_counter()
        self.metrics.counter("gateway.requests").inc()
        try:
            response = await self._route(request, started)
        except HttpError as error:
            self._observe(request, error.status, started)
            raise
        status = (response.status
                  if isinstance(response, (HttpResponse,
                                           StreamingResponse))
                  else 200)
        self._observe(request, status, started)
        return response

    def _observe(self, request: HttpRequest, status: int,
                 started: float) -> None:
        self.metrics.counter(f"gateway.status.{status // 100}xx").inc()
        self.metrics.histogram("gateway.latency").observe(
            time.perf_counter() - started
        )

    async def _route(
        self, request: HttpRequest, started: float,
    ) -> Union[HttpResponse, StreamingResponse]:
        if request.path == "/v1/healthz":
            # Liveness stays unauthenticated: probes have no tenant.
            if request.method != "GET":
                raise HttpError(
                    405, f"{request.method} not allowed on {request.path}"
                )
            return HttpResponse(200, {
                "ok": True,
                "backend": getattr(self.backend, "kind", "unknown"),
            })
        route = self._ROUTES.get((request.method, request.path))
        if route is None:
            if request.path in self._PATHS:
                raise HttpError(
                    405, f"{request.method} not allowed on {request.path}"
                )
            raise HttpError(404, f"no route for {request.path}")
        tenant = self._authenticate(request)
        self.metrics.counter(
            f"gateway.tenant.{tenant.name}.requests"
        ).inc()
        self._admit(tenant)
        trace_id = request.headers.get("x-trace-id") or None
        handler = getattr(self, route)
        response = await handler(request, tenant, trace_id, started)
        if trace_id is not None:
            response.headers = tuple(response.headers) + (
                ("X-Trace-Id", trace_id),
            )
        return response


class HttpGateway(EventLoopServer):
    """The full HTTP front door: a :class:`GatewayApp` served on the
    asyncio server core.

    >>> gateway = HttpGateway(backend, port=0).start()     # doctest: +SKIP
    >>> HttpBackend(gateway.address).select(request)       # doctest: +SKIP

    The lifecycle is :class:`~repro.serve.aio.EventLoopServer`'s, the
    same as the socket servers' (``start`` / ``address`` /
    ``serve_forever`` / ``close``), so the CLI, the spawn helpers, and the
    benches treat ``--transport http`` exactly like ``socket`` and
    ``asyncio``.  Each connection runs the request loop: parse a request,
    hand it to ``self.app.handle``, write the answer, until the client or
    a framing error ends the connection.
    """

    thread_name = "http-server"
    stream_limit = MAX_HEADER_BYTES

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        tenants: Optional[TenantRegistry] = None,
        max_inflight: int = 64,
        dispatch_threads: int = 8,
        own_backend: bool = False,
        cache_size: int = 0,
        cache_refresh_seconds: float = 2.0,
    ):
        super().__init__(backend, host, port, own_backend)
        self.app = GatewayApp(
            backend,
            tenants=tenants,
            max_inflight=max_inflight,
            dispatch_threads=dispatch_threads,
            cache_size=cache_size,
            cache_refresh_seconds=cache_refresh_seconds,
        )

    def _release(self) -> None:
        self.app.close()

    def handle_message(self, message) -> dict:
        """One transport message through the gateway's dispatcher, as the
        socket servers' ``handle_message`` takes it."""
        return self.app.dispatcher.handle_message(message)

    async def _handle_connection(self, reader, writer) -> None:
        while True:
            try:
                request = await read_request(reader)
            except HttpError as error:
                # Framing is broken: answer and hang up.
                await write_response(writer, error_response(error),
                                     keep_alive=False)
                return
            if request is None:
                return
            try:
                response = await self.app.handle(request)
            except HttpError as error:
                response = error_response(error)
            except Exception as error:
                # A handler bug must not kill the connection loop; the
                # taxonomy rides the body as a "kind" tag.
                response = HttpResponse(status=500, payload={
                    "ok": False, "kind": "protocol",
                    "error": f"{type(error).__name__}: {error}",
                })
            keep_alive = request.keep_alive
            await write_response(writer, response, keep_alive)
            if not keep_alive:
                return
