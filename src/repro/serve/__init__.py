"""The serving layer: one ExecutionBackend protocol, many topologies.

Public surface::

    from repro.serve import (
        ExecutionBackend, InProcessBackend,                 # local backend
        RemoteBackend, SocketServer, spawn_artifact_server, # socket transport
        AsyncRemoteBackend, AsyncSocketServer,             # pipelined asyncio
        ClusterRouter,                                     # consistent-hash ring
        BackendError, RequestError, TransportError,        # error taxonomy
        ClusterError, PipelineCancelled,
    )

Every serving path implements the same four-method
:class:`~repro.serve.backend.ExecutionBackend` protocol (``select``,
``select_many``, ``stats``, ``close``), so topologies compose: an
:class:`InProcessBackend` wraps one engine or workspace, a
:class:`RemoteBackend` speaks the length-prefixed JSON socket protocol of
:class:`SocketServer` across a process or host boundary, and a
:class:`ClusterRouter` consistent-hashes ``(dataset, request-hash)`` over
member backends with replication and failover — and is itself
a backend, so clusters nest, and a server can front a ring (several
processes on one host are a ring of spawned members).

The cache primitives re-exported here live in :mod:`repro.api.cache`.
"""

from repro.api.cache import CacheStats, LRUCache, query_fingerprint
from repro.serve.aio import AsyncRemoteBackend, AsyncSocketServer
from repro.serve.backend import BaseBackend, ExecutionBackend, InProcessBackend
from repro.serve.cluster import (
    ClusterRouter,
    make_replica_policy,
    replica_policy_names,
    request_key,
)
from repro.serve.errors import (
    BackendError,
    ClusterError,
    PipelineCancelled,
    RemoteRequestError,
    RemoteServerError,
    RequestError,
    TransportError,
)
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
    "ExecutionBackend",
    "InProcessBackend",
    "LRUCache",
    "PipelineCancelled",
    "RemoteBackend",
    "RemoteRequestError",
    "RemoteServerError",
    "RequestError",
    "SocketServer",
    "SpawnedServer",
    "TransportError",
    "make_replica_policy",
    "query_fingerprint",
    "recv_frame",
    "replica_policy_names",
    "request_key",
    "send_frame",
    "spawn_artifact_server",
    "spawn_store_server",
]
