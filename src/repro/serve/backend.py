"""One ExecutionBackend protocol over every serving path.

Every way of serving a :class:`~repro.api.SelectionRequest` implements a
single four-method protocol:

* :meth:`ExecutionBackend.select` — serve one request;
* :meth:`ExecutionBackend.select_many` — serve a batch in request order,
  returning :class:`~repro.api.SelectionResponse` entries (or, with
  ``raise_on_error=False``, the per-request exception in that slot);
* :meth:`ExecutionBackend.stats` — a JSON-serializable accounting snapshot
  with a shared core (``backend``/``served``/``errors``/``seconds``/
  ``qps``) plus backend-specific detail;
* :meth:`ExecutionBackend.close` — release processes/sockets/engines.

Implementations: :class:`InProcessBackend` (an :class:`~repro.api.Engine`
or :class:`~repro.api.Workspace` in this process),
:class:`~repro.serve.transport.RemoteBackend` and
:class:`~repro.serve.aio.AsyncRemoteBackend` (a length-prefixed JSON
socket to another process or host), and
:class:`~repro.serve.cluster.ClusterRouter` (a consistent-hash ring of
member backends).  Because the router is itself a backend, topologies
nest: a cluster of remote clusters, a server fronting a ring, ...

Error contract (see :mod:`repro.serve.errors`): per-request failures are
:class:`~repro.serve.errors.RequestError`-like and identical on every
replica; :class:`~repro.serve.errors.BackendError` means *this backend* is
unusable and a replica may still serve.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional, Protocol, Sequence, runtime_checkable

from repro.api.artifacts import _codes_fingerprint
from repro.api.engine import Engine
from repro.api.request import SelectionRequest, SelectionResponse
from repro.api.store import StoreError
from repro.api.workspace import Workspace
from repro.obs import MetricsRegistry
from repro.serve.errors import BackendError


@runtime_checkable
class ExecutionBackend(Protocol):
    """The structural protocol every serving backend satisfies."""

    def select(self, request: SelectionRequest) -> SelectionResponse:
        """Serve one request (raises on failure)."""
        ...

    def select_many(
        self,
        requests: Sequence[SelectionRequest],
        raise_on_error: bool = True,
    ) -> list:
        """Serve a batch; entries are responses (or exceptions when
        ``raise_on_error=False``), in request order."""
        ...

    def stats(self) -> dict:
        """JSON-serializable accounting (shared core + backend detail)."""
        ...

    def close(self) -> None:
        """Release the backend's resources (idempotent)."""
        ...


class BaseBackend:
    """Shared accounting, context management, and ``select`` in terms of
    ``select_many`` for the concrete backends."""

    kind = "backend"

    def __init__(self) -> None:
        self._closed = False
        #: Per-backend telemetry and the only accounting: ``_account``,
        #: concrete backends and the transports observe into it, and
        #: ``stats()`` derives its shared core from one snapshot of it.
        self.metrics = MetricsRegistry()

    # -- protocol ------------------------------------------------------------
    def select(self, request: SelectionRequest) -> SelectionResponse:
        return self.select_many([request], raise_on_error=True)[0]

    def select_many(
        self,
        requests: Sequence[SelectionRequest],
        raise_on_error: bool = True,
    ) -> list:
        raise NotImplementedError

    def stats(self) -> dict:
        """The envelope every backend shares (benches compare on it),
        read from one registry snapshot: ``seconds`` is the total of
        ``batch.seconds``."""
        metrics = self.metrics.snapshot()
        served = metrics.get("requests.served", {}).get("value", 0)
        seconds = metrics.get("batch.seconds", {}).get("sum", 0.0)
        return {
            "backend": self.kind,
            "served": served,
            "errors": metrics.get("requests.errors", {}).get("value", 0),
            "seconds": seconds,
            "qps": served / seconds if seconds else 0.0,
            "metrics": metrics,
        }

    def close(self) -> None:
        self._closed = True

    # -- shared plumbing -----------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise BackendError(f"{type(self).__name__} is closed")

    def _account(self, entries: Sequence, seconds: float) -> None:
        """Count one served batch.  Safe from any thread: every metric
        of the registry locks its own update."""
        if not entries:
            return
        served = sum(1 for e in entries if isinstance(e, SelectionResponse))
        self.metrics.counter("requests.served").inc(served)
        self.metrics.counter("requests.errors").inc(len(entries) - served)
        self.metrics.histogram("batch.seconds").observe(seconds)
        self.metrics.histogram("batch.size").observe(float(len(entries)))

    @staticmethod
    def _finish(entries: list, raise_on_error: bool) -> list:
        if raise_on_error:
            for entry in entries:
                if isinstance(entry, BaseException):
                    raise entry
        return entries

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InProcessBackend(BaseBackend):
    """This process serves: an :class:`Engine` (one dataset) or a
    :class:`Workspace` (many datasets) behind the backend protocol.

    >>> backend = InProcessBackend.from_artifact("/tmp/engine")  # doctest: +SKIP
    >>> backend.select(SelectionRequest(k=5, l=4))               # doctest: +SKIP
    """

    kind = "inproc"

    def __init__(self, host: "Engine | Workspace") -> None:
        super().__init__()
        if not hasattr(host, "select"):
            raise TypeError(
                f"InProcessBackend hosts an Engine or Workspace, got "
                f"{type(host).__name__}"
            )
        self.host = host
        # An Engine is immutable once fitted, so its fingerprint is
        # computed once and memoized; a Workspace re-reads the store
        # catalog on every stats() call — that is how version bumps
        # propagate to generation-based caches.
        self._engine_fingerprint: Optional[dict] = None

    @classmethod
    def from_artifact(
        cls,
        artifact: "str | Path",
        cache_size: int = 256,
        algorithm: Optional[str] = None,
        selector_options: Optional[dict] = None,
        dataset: Optional[str] = None,
    ) -> "InProcessBackend":
        """Warm-start one :class:`Engine` from a saved artifact."""
        return cls(Engine.load(
            artifact,
            cache_size=cache_size,
            algorithm=algorithm,
            selector_options=selector_options,
            dataset=dataset,
        ))

    @classmethod
    def from_store(cls, store, **workspace_options) -> "InProcessBackend":
        """A multi-dataset backend: a :class:`Workspace` over ``store``."""
        return cls(Workspace(store, **workspace_options))

    def select_many(
        self,
        requests: Sequence[SelectionRequest],
        raise_on_error: bool = True,
    ) -> list:
        self._require_open()
        start = time.perf_counter()
        entries: list = []
        for request in requests:
            try:
                entries.append(self.host.select(request))
            except BackendError:
                # The host itself is unusable (not a per-request fault):
                # that is failover-grade and must not be buried in a slot
                # where raise_on_error=False would hide it from a router.
                raise
            except Exception as error:
                # Everything else an in-process host raises is
                # request-shaped (validation, degenerate query state) and
                # keeps its original type in the request's slot, matching
                # what a bare Engine.select would have raised.
                entries.append(error)
        self._account(entries, time.perf_counter() - start)
        return self._finish(entries, raise_on_error)

    def stats(self) -> dict:
        payload = super().stats()
        if isinstance(self.host, Workspace):
            payload["workspace"] = self.host.stats.to_json()
        else:
            cache = self.host.cache_stats
            payload["cache"] = {"hits": cache.hits, "misses": cache.misses}
        fingerprints = self._fingerprints()
        if fingerprints:
            payload["fingerprints"] = fingerprints
        return payload

    def _fingerprints(self) -> dict:
        """``{dataset: "data:vocab"}`` generation tags of what this
        backend serves — the invalidation signal for response caches
        (see :mod:`repro.gateway.cache`).  Workspace hosts report the
        store catalog's *latest* versions: after a version bump, pair
        the bump with :meth:`Workspace.evict` so the resident engines
        reload the generation the fingerprints advertise."""
        if isinstance(self.host, Workspace):
            try:
                records = self.host.store.records()
            except StoreError:
                return {}
            return {
                record.name:
                    f"{record.data_fingerprint}:{record.vocab_fingerprint}"
                for record in records
            }
        if self._engine_fingerprint is None:
            try:
                binned = self.host.binned
            except RuntimeError:
                return {}  # not fitted yet: nothing served, nothing tagged
            self._engine_fingerprint = {
                self.host.dataset or "":
                    f"{_codes_fingerprint(binned.codes)}:"
                    f"{binned.vocab_fingerprint}"
            }
        return self._engine_fingerprint

    def close(self) -> None:
        if isinstance(self.host, Workspace):
            self.host.evict()
        super().close()
