"""The serving layer: one ExecutionBackend protocol, many topologies.

Public surface::

    from repro.serve import (
        ExecutionBackend, InProcessBackend, PoolBackend,   # local backends
        RemoteBackend, SocketServer, spawn_artifact_server, # socket transport
        AsyncRemoteBackend, AsyncSocketServer,             # pipelined asyncio
        ClusterRouter, ReplicaPolicy,                      # consistent-hash ring
        EnginePool, PoolStats,                             # process pool
        BackendError, RequestError, TransportError,        # error taxonomy
        PoolError, PoolRequestError, PoolWorkerDied, ClusterError,
        PipelineCancelled,
        artifact_backend,
    )

Every serving path implements the same four-method
:class:`~repro.serve.backend.ExecutionBackend` protocol (``select``,
``select_many``, ``stats``, ``close``), so topologies compose: an
:class:`InProcessBackend` wraps one engine or workspace, a
:class:`PoolBackend` wraps an :class:`EnginePool` of warm-start worker
processes, a :class:`RemoteBackend` speaks the length-prefixed JSON socket
protocol of :class:`SocketServer` across a host boundary, and a
:class:`ClusterRouter` consistent-hashes ``(dataset, request-hash)`` over
member backends with per-dataset replication and failover — and is itself
a backend, so clusters nest (a cluster of pools of engines).

The cache primitives re-exported here live in :mod:`repro.api.cache`.
"""

from repro.api.cache import CacheStats, LRUCache, query_fingerprint
from repro.serve.aio import AsyncRemoteBackend, AsyncSocketServer
from repro.serve.backend import (
    BaseBackend,
    ExecutionBackend,
    InProcessBackend,
    PoolBackend,
    artifact_backend,
)
from repro.serve.cluster import (
    ClusterRouter,
    ReplicaPolicy,
    make_replica_policy,
    replica_policy_names,
    request_key,
)
from repro.serve.errors import (
    BackendError,
    ClusterError,
    PipelineCancelled,
    PoolError,
    PoolRequestError,
    PoolWorkerDied,
    RemoteRequestError,
    RemoteServerError,
    RequestError,
    TransportError,
)
from repro.serve.pool import EnginePool, PoolStats
from repro.serve.transport import (
    RemoteBackend,
    SocketServer,
    SpawnedServer,
    recv_frame,
    send_frame,
    spawn_artifact_server,
    spawn_store_server,
)

__all__ = [
    "AsyncRemoteBackend",
    "AsyncSocketServer",
    "BackendError",
    "BaseBackend",
    "CacheStats",
    "ClusterError",
    "ClusterRouter",
    "EnginePool",
    "ExecutionBackend",
    "InProcessBackend",
    "LRUCache",
    "PipelineCancelled",
    "PoolBackend",
    "PoolError",
    "PoolRequestError",
    "PoolStats",
    "PoolWorkerDied",
    "RemoteBackend",
    "RemoteRequestError",
    "RemoteServerError",
    "ReplicaPolicy",
    "RequestError",
    "SocketServer",
    "SpawnedServer",
    "TransportError",
    "artifact_backend",
    "make_replica_policy",
    "query_fingerprint",
    "recv_frame",
    "replica_policy_names",
    "request_key",
    "send_frame",
    "spawn_artifact_server",
    "spawn_store_server",
]
