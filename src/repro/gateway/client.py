"""HTTP client backend: the gateway as one more ``ExecutionBackend``.

:class:`HttpBackend` speaks the gateway's JSON routes through stdlib
``http.client`` and implements the same four-method protocol as every
other backend, so everything built on the protocol — the loadgen
open-loop harness, the equivalence suites, even a
:class:`~repro.serve.cluster.ClusterRouter` of gateways — drives HTTP
without knowing it.

Connections are **per thread** (``threading.local``): the loadgen
harness calls ``select`` from many worker threads at once, and
``http.client`` connections are strictly sequential.  Each thread keeps
its own keep-alive connection; a stale one (gateway restarted between
calls) is retried once on a fresh dial, like
:class:`~repro.serve.transport.RemoteBackend`.

Status → taxonomy mapping (the inverse of the gateway's):
401 → :class:`~repro.gateway.tenants.GatewayAuthError`,
403 → :class:`~repro.gateway.tenants.TenantForbiddenError`,
429 → :class:`~repro.gateway.tenants.AdmissionRejected` (with the
``Retry-After`` wait), and everything else by the body's ``kind`` tag
via the shared :func:`~repro.serve.transport.reply_error` — so a 400
never triggers failover and a 503 does, exactly like the socket
clients.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Iterator, Optional, Sequence
from urllib.parse import quote

from repro.api.cache import LRUCache
from repro.api.request import SelectionRequest, SelectionResponse
from repro.gateway.cache import canonical_request_text
from repro.gateway.tenants import (
    AdmissionRejected,
    GatewayAuthError,
    TenantForbiddenError,
)
from repro.obs import TRACE_KEY, make_stage, resolve_trace_id, stage_seconds
from repro.serve.backend import BaseBackend
from repro.serve.errors import BackendError, TransportError
from repro.serve.transport import parse_address, reply_error


def _decode_body(status: int, body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise TransportError(
            f"gateway sent an undecodable {status} body: {error}"
        ) from error
    if not isinstance(payload, dict):
        raise TransportError(
            f"gateway sent a non-object {status} body"
        )
    return payload


def _status_error(status: int, payload: dict,
                  retry_after: Optional[str]) -> Exception:
    """The typed exception one non-2xx gateway reply maps to."""
    error = payload.get("error", f"gateway replied {status}")
    if status == 401:
        return GatewayAuthError(error)
    if status == 403:
        return TenantForbiddenError(error)
    if status == 429:
        try:
            wait = float(retry_after) if retry_after else 1.0
        except ValueError:
            wait = 1.0
        return AdmissionRejected(error, retry_after=wait)
    return reply_error(payload)


class HttpBackend(BaseBackend):
    """An :class:`~repro.serve.backend.ExecutionBackend` over the gateway.

    >>> backend = HttpBackend("127.0.0.1:8080", api_key="acme-k1")  # doctest: +SKIP
    >>> backend.select(SelectionRequest(k=5, l=4))                  # doctest: +SKIP
    """

    kind = "http"

    def __init__(
        self,
        address: "str | tuple",
        api_key: Optional[str] = None,
        connect_timeout: float = 5.0,
        call_timeout: Optional[float] = 120.0,
        trace: bool = False,
        etag_cache_size: int = 128,
    ):
        super().__init__()
        self.host, self.port = parse_address(address)
        self.api_key = api_key
        self.connect_timeout = connect_timeout
        self.call_timeout = call_timeout
        self.trace = trace
        #: The most recent completed trace (``{"id", "stages"}``) when
        #: ``trace=True``; stage histograms accumulate in ``metrics``.
        self.last_trace: Optional[dict] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list = []
        #: Validator memo: canonical request → ``(etag, reply bytes)``.
        #: When the gateway's response cache still holds the entry, a
        #: repeat request sends ``If-None-Match`` and the 304 answer is
        #: replayed from here — the reply body never crosses the wire
        #: again (``etag_cache_size=0`` disables revalidation).
        self._etags: Optional[LRUCache] = (
            LRUCache(maxsize=etag_cache_size)
            if etag_cache_size > 0 else None
        )

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- connection management -----------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port,
                timeout=(self.call_timeout
                         if self.call_timeout is not None
                         else self.connect_timeout),
            )
            self._local.connection = connection
            with self._lock:
                self._connections.append(connection)
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            return
        self._local.connection = None
        with self._lock:
            if connection in self._connections:
                self._connections.remove(connection)
        try:
            connection.close()
        except OSError:
            pass

    def _headers(self, trace_id: Optional[str],
                 etag: Optional[str] = None) -> dict:
        headers = {"Content-Type": "application/json",
                   "Accept": "application/json"}
        if self.api_key is not None:
            headers["Authorization"] = f"Bearer {self.api_key}"
        if trace_id is not None:
            headers["X-Trace-Id"] = trace_id
        if etag is not None:
            headers["If-None-Match"] = etag
        return headers

    def _roundtrip(self, method: str, path: str,
                   body: Optional[bytes], trace_id: Optional[str],
                   *, etag: Optional[str] = None,
                   reconnect: bool = True) -> tuple:
        """``(status, headers, body_bytes)`` for one request (one retry
        on a stale keep-alive connection, :class:`TransportError` beyond
        it)."""
        self._require_open()
        connection = self._connection()
        fresh = connection.sock is None
        try:
            connection.request(method, path, body=body,
                               headers=self._headers(trace_id, etag))
            response = connection.getresponse()
            payload_bytes = response.read()
        except (http.client.HTTPException, ConnectionError,
                socket.timeout, OSError) as error:
            self._drop_connection()
            if reconnect and not fresh:
                # The kept connection may simply have gone stale
                # (gateway restarted between calls): retry once fresh.
                return self._roundtrip(method, path, body, trace_id,
                                       etag=etag, reconnect=False)
            raise TransportError(
                f"http request to {self.address} failed: "
                f"{type(error).__name__}: {error}"
            ) from error
        return (response.status, dict(response.getheaders()),
                payload_bytes)

    def _memo_key(self, method: str, path: str,
                  body: Optional[dict]) -> Optional[str]:
        if self._etags is None or method != "POST" or body is None \
                or path not in ("/v1/select", "/v1/select_many"):
            return None
        return f"{path}\n{canonical_request_text(body)}"

    def _call(self, method: str, path: str,
              body: Optional[dict] = None) -> dict:
        trace_id = resolve_trace_id("http") if self.trace else None
        encoded = (None if body is None
                   else json.dumps(body).encode("utf-8"))
        memo_key = self._memo_key(method, path, body)
        memoized = (self._etags.get(memo_key)
                    if memo_key is not None else None)
        start = time.perf_counter()
        status, headers, raw = self._roundtrip(
            method, path, encoded, trace_id,
            etag=memoized[0] if memoized is not None else None,
        )
        lowered = {key.lower(): value for key, value in headers.items()}
        if status == 304 and memoized is not None:
            # The gateway validated our copy: replay it locally, the
            # reply body never crossed the wire.
            self.metrics.counter("http.not_modified").inc()
            payload = json.loads(memoized[1].decode("utf-8"))
        else:
            payload = _decode_body(status, raw)
        if self.trace:
            self._record_trace(payload, time.perf_counter() - start)
        if status >= 400:
            raise _status_error(status, payload,
                                lowered.get("retry-after"))
        if not payload.get("ok"):
            raise reply_error(payload)
        if memo_key is not None and status == 200 \
                and lowered.get("etag"):
            self._etags.put(memo_key, (lowered["etag"], raw))
        return payload

    def _record_trace(self, payload: dict, round_trip: float) -> None:
        carried = payload.get(TRACE_KEY)
        if not isinstance(carried, dict):
            return
        stages = list(carried.get("stages", ()))
        # The one stage only this client can see: wire + parse time, the
        # round trip minus the gateway's own wall.
        stages.append(make_stage(
            "http", round_trip - stage_seconds(carried, "gateway")
        ))
        trace = {"id": carried.get("id"), "stages": stages}
        for entry in stages:
            self.metrics.histogram(
                f"trace.{entry['stage']}"
            ).observe(entry["seconds"])
        self.last_trace = trace

    # -- protocol ------------------------------------------------------------
    def select(self, request: SelectionRequest) -> SelectionResponse:
        start = time.perf_counter()
        try:
            payload = self._call("POST", "/v1/select", request.to_wire())
        except Exception as error:
            self._account([error], time.perf_counter() - start)
            raise
        response = SelectionResponse.from_wire(payload["response"])
        self._account([response], time.perf_counter() - start)
        return response

    def select_many(
        self,
        requests: Sequence[SelectionRequest],
        raise_on_error: bool = True,
    ) -> list:
        start = time.perf_counter()
        try:
            payload = self._call("POST", "/v1/select_many", {
                "requests": [request.to_wire() for request in requests],
            })
        except BackendError as error:
            # The whole batch went unserved; the stats envelope counts
            # every request so errors/qps stay honest under failure.
            self._account([error] * len(requests),
                          time.perf_counter() - start)
            raise
        entries: list = []
        for result in payload["results"]:
            if result.get("ok"):
                entries.append(
                    SelectionResponse.from_wire(result["response"])
                )
            else:
                entries.append(reply_error(result))
        self._account(entries, time.perf_counter() - start)
        return self._finish(entries, raise_on_error)

    def stream_session(self, steps: Sequence[dict]) -> Iterator[dict]:
        """Execute ``steps`` (request wire payloads) as one streaming EDA
        session, yielding each JSON line as the gateway pushes it.

        A dedicated connection per session (the stream occupies it);
        closing the generator early closes the connection, which the
        gateway observes as a client disconnect and stops executing the
        remaining steps.
        """
        self._require_open()
        trace_id = resolve_trace_id("http") if self.trace else None
        path = ("/v1/stream/session?steps="
                + quote(json.dumps(list(steps))))
        connection = http.client.HTTPConnection(
            self.host, self.port,
            timeout=(self.call_timeout
                     if self.call_timeout is not None
                     else self.connect_timeout),
        )
        try:
            connection.request("GET", path,
                               headers=self._headers(trace_id))
            response = connection.getresponse()
            if response.status >= 400:
                payload = _decode_body(response.status, response.read())
                raise _status_error(
                    response.status, payload,
                    response.getheader("Retry-After"),
                )
            while True:
                line = response.readline()
                if not line:
                    return
                try:
                    yield json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, ValueError) as error:
                    raise TransportError(
                        f"undecodable stream line: {error}"
                    ) from error
        except (http.client.HTTPException, ConnectionError,
                socket.timeout) as error:
            raise TransportError(
                f"http stream to {self.address} failed: "
                f"{type(error).__name__}: {error}"
            ) from error
        finally:
            try:
                connection.close()
            except OSError:
                pass

    def healthz(self) -> dict:
        """The gateway's liveness document (no auth required)."""
        return self._call("GET", "/v1/healthz")

    def stats(self) -> dict:
        payload = super().stats()
        payload["address"] = self.address
        try:
            payload["server"] = self._call("GET", "/v1/stats")["stats"]
        except (BackendError, KeyError):
            payload["server"] = None
        return payload

    def close(self) -> None:
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            try:
                connection.close()
            except OSError:
                pass
        super().close()
