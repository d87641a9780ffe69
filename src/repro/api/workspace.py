"""Workspace: route requests across many datasets and algorithms.

The :class:`~repro.api.Engine` is a per-dataset serving kernel; a
:class:`Workspace` is the front door above it.  It owns an
:class:`~repro.api.ArtifactStore` and serves any
:class:`~repro.api.SelectionRequest` that names a ``dataset`` (and
optionally an ``algorithm``):

* engines are loaded **lazily** from the store on first use and kept in a
  capacity-bounded LRU — a workspace over hundreds of stored datasets holds
  only the hot few in memory, evicting the least recently served;
* :meth:`select` routes one request; :meth:`select_many` serves a batch,
  grouped by engine so each engine is resolved once per batch and its
  selection LRU sees all of its requests together (responses come back in
  request order);
* responses are exactly what the underlying ``Engine.select`` produces —
  routing adds no transformation, so per-engine and workspace serving are
  bit-identical.

Routing is thread-safe.  A hit takes only the engine LRU's own lock; a miss
faults the engine in **single-flight**: it takes the workspace lock, checks
the LRU again and loads only if the engine is still missing.  Concurrent
first requests for one dataset therefore load it once, and engine loads
minus LRU evictions equals the resident count until an explicit
:meth:`Workspace.evict`.  Selectors take each request's mode overrides as
an argument, so concurrent selects on one engine never see each other's.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.api.cache import LRUCache
from repro.api.engine import Engine
from repro.api.registry import resolve_name
from repro.api.request import SelectionRequest, SelectionResponse
from repro.api.store import ArtifactStore


class WorkspaceError(RuntimeError):
    """A request cannot be routed (no dataset named, unknown routing key)."""


@dataclass(frozen=True)
class WorkspaceStats:
    """Routing counters of one workspace (a snapshot)."""

    served: int
    engine_loads: int
    engine_evictions: int
    capacity: int
    resident: tuple

    def to_json(self) -> dict:
        """JSON-serializable snapshot, shaped like every serving-stats
        object (``type`` + ``served`` + detail) so workspace and cluster
        accounting report comparable fields."""
        return {
            "type": "workspace",
            "served": self.served,
            "engine_loads": self.engine_loads,
            "engine_evictions": self.engine_evictions,
            "capacity": self.capacity,
            "resident": [list(key) for key in self.resident],
        }


class Workspace:
    """Multi-dataset serving surface over an :class:`ArtifactStore`.

    Parameters
    ----------
    store:
        The artifact store (or a path, which is opened as one).
    capacity:
        Maximum engines kept loaded at once; the least recently served is
        evicted when a new dataset/algorithm pair is faulted in.
    cache_size:
        Selection-LRU capacity of each loaded engine.
    default_algorithm:
        Algorithm used when a request leaves ``algorithm`` unset; ``None``
        defers to each artifact's persisted algorithm.
    selector_options:
        Algorithm-specific constructor options forwarded to every load.
    """

    def __init__(
        self,
        store: "ArtifactStore | str | Path",
        capacity: int = 4,
        cache_size: int = 256,
        default_algorithm: Optional[str] = None,
        selector_options: Optional[dict] = None,
    ):
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store
        self.cache_size = cache_size
        self.default_algorithm = default_algorithm
        self._selector_options = selector_options
        self._engines = LRUCache(maxsize=capacity)
        # dataset -> persisted algorithm, so steady-state routing of
        # algorithm-less requests doesn't re-read the store catalog per
        # request.  Dropped on evict(), like the engines themselves: a
        # version re-saved under a different algorithm is picked up after
        # an evict, consistent with resident engines not seeing new
        # versions until then.
        self._persisted_algorithms: dict[str, str] = {}
        # Serializes engine fault-in and evict(); guards the counters and
        # the algorithm memo.
        self._lock = threading.Lock()
        self._served = 0
        self._loads = 0
        self._evictions = 0

    # -- routing ------------------------------------------------------------
    def _routing_key(self, request: SelectionRequest) -> tuple[str, str]:
        dataset = request.dataset
        if dataset is None:
            raise WorkspaceError(
                "requests routed through a Workspace must name a dataset "
                "(SelectionRequest(dataset=...)); a bare Engine serves "
                "dataset-less requests"
            )
        algorithm = request.algorithm or self.default_algorithm
        if algorithm is None:
            algorithm = self._persisted_algorithms.get(dataset)
            if algorithm is None:
                algorithm = self.store.describe(dataset).algorithm
                with self._lock:
                    self._persisted_algorithms[dataset] = algorithm
        try:
            algorithm = resolve_name(algorithm)
        except ValueError:
            pass  # unregistered label: keyed (and rejected) as-is downstream
        return dataset, algorithm

    def engine_for(self, dataset: str, algorithm: Optional[str] = None) -> Engine:
        """The (lazily loaded) engine serving ``dataset`` with ``algorithm``.

        Faulting a new engine in may evict the least recently served one;
        engines already handed out stay valid, the workspace just forgets
        them.  Fault-in is single-flight: a miss re-checks the LRU under
        the workspace lock, so threads racing on one key share one load.
        """
        key = self._routing_key(
            SelectionRequest(dataset=dataset, algorithm=algorithm)
        )
        engine = self._engines.get(key)
        if engine is not None:
            return engine
        with self._lock:
            engine = self._engines.get(key)
            if engine is None:
                engine = self.store.open(
                    key[0],
                    algorithm=key[1],
                    cache_size=self.cache_size,
                    selector_options=self._selector_options,
                )
                self._loads += 1
                self._evictions += len(self._engines.put(key, engine))
        return engine

    # -- serving ------------------------------------------------------------
    def select(
        self,
        request: Optional[SelectionRequest] = None,
        **kwargs,
    ) -> SelectionResponse:
        """Serve one request, routing by its ``dataset``/``algorithm``."""
        if request is None:
            request = SelectionRequest(**kwargs)
        elif kwargs:
            raise TypeError(
                "pass either a SelectionRequest or keyword fields, not both"
            )
        dataset, algorithm = self._routing_key(request)
        engine = self.engine_for(dataset, algorithm)
        response = engine.select(request)
        with self._lock:
            self._served += 1
        return response

    def select_many(
        self, requests: Sequence[SelectionRequest]
    ) -> list[SelectionResponse]:
        """Serve a batch of requests, grouped by engine.

        Requests are grouped by their ``(dataset, algorithm)`` routing key
        (first-appearance order), each group's engine is resolved once, and
        that engine's selection LRU serves the whole group — so a batch
        touching more datasets than ``capacity`` still loads each engine at
        most once.  Responses are returned in request order and are the
        same objects per-engine ``Engine.select`` calls would produce.
        """
        groups: dict[tuple[str, str], list[int]] = {}
        keys = []
        for index, request in enumerate(requests):
            key = self._routing_key(request)
            keys.append(key)
            groups.setdefault(key, []).append(index)
        responses: list[Optional[SelectionResponse]] = [None] * len(keys)
        for key, indices in groups.items():
            engine = self.engine_for(*key)
            for index in indices:
                responses[index] = engine.select(requests[index])
                with self._lock:
                    self._served += 1
        return responses

    # -- introspection ------------------------------------------------------
    @property
    def resident(self) -> list[tuple[str, str]]:
        """Routing keys of the loaded engines, least recently served first."""
        return self._engines.keys()

    @property
    def stats(self) -> WorkspaceStats:
        with self._lock:
            return WorkspaceStats(
                served=self._served,
                engine_loads=self._loads,
                engine_evictions=self._evictions,
                capacity=self._engines.maxsize,
                resident=tuple(self.resident),
            )

    def evict(self, dataset: Optional[str] = None) -> None:
        """Drop loaded engines (all of them, or one dataset's)."""
        with self._lock:
            if dataset is None:
                self._engines.clear()
                self._persisted_algorithms.clear()
                return
            self._persisted_algorithms.pop(dataset, None)
            for key in self._engines.keys():
                if key[0] == dataset:
                    self._engines.pop(key)

    def __repr__(self) -> str:
        return (f"Workspace(store={str(self.store.root)!r}, "
                f"capacity={self._engines.maxsize}, "
                f"resident={self.resident})")
