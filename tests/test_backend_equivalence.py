"""Backend equivalence: one request stream, every topology, one answer.

The re-layering's central promise: routing adds no transformation.  The
same request stream replayed through an ``InProcessBackend``, a
``RemoteBackend`` (socket to a subprocess server), a 2-member
``ClusterRouter`` and a ring nested inside a ring produces
**bit-identical** responses (wire form minus timing/cache metadata, which
legitimately differ per path).  Holds for any selector whose ``select`` is
a pure function of the request — subtab is; order-sensitive baselines
(those that still keep a generator on the selector) are excluded by
construction.

The asyncio transport extends the matrix without changing the wire
format, so the full client x server grid must agree: sync client →
async server, pipelined client → sync server, pipelined client → async
server, and a cluster reading from replicas (``round_robin``) — all bit-
identical to the in-process stream.

Also here: the replica-failover half of the satellite — kill one cluster
member mid-stream and the stream still completes, bit-identically — and
the cancellation/slow-member behavior of the pipelined client.
"""

import threading
import time

import pytest

from repro.api import SelectionRequest, SelectionResponse
from repro.queries.ops import SPQuery
from repro.queries.predicates import Eq, InRange
from repro.serve import (
    AsyncRemoteBackend,
    AsyncSocketServer,
    ClusterRouter,
    InProcessBackend,
    PipelineCancelled,
    RemoteBackend,
    SocketServer,
    spawn_artifact_server,
)


@pytest.fixture(scope="module")
def stream():
    """A request stream with queries, targets, fairness-free variety, and
    repeats (the repeats exercise each path's caching layer)."""
    base = [
        SelectionRequest(k=4, l=3),
        SelectionRequest(k=3, l=3, targets=("OUTCOME",)),
        SelectionRequest(k=3, l=2, query=SPQuery((Eq("KIND", "beta"),))),
        SelectionRequest(
            k=3, l=2,
            query=SPQuery((InRange("SIZE", 0.0, 5000.0),),
                          projection=("SIZE", "SPEED", "KIND")),
        ),
        SelectionRequest(k=5, l=4),
    ]
    return base + base[:3]  # replay a prefix: cache hits on every path


def _contents(responses) -> list:
    payloads = []
    for response in responses:
        assert isinstance(response, SelectionResponse)
        payload = response.to_wire()
        for volatile in ("timings", "select_seconds", "cache_hit"):
            payload.pop(volatile)
        payloads.append(payload)
    return payloads


@pytest.fixture(scope="module")
def expected(subtab_artifact, stream):
    backend = InProcessBackend.from_artifact(subtab_artifact)
    return _contents(backend.select_many(stream))


class TestEquivalence:
    def test_remote_backend_matches(self, subtab_artifact, stream, expected):
        with spawn_artifact_server(subtab_artifact) as server:
            remote = server.connect()
            assert _contents(remote.select_many(stream)) == expected
            remote.close()

    def test_two_member_cluster_matches(self, subtab_artifact, stream,
                                        expected):
        members = [
            ("a", InProcessBackend.from_artifact(subtab_artifact)),
            ("b", InProcessBackend.from_artifact(subtab_artifact)),
        ]
        with ClusterRouter(members, replication=2) as cluster:
            assert _contents(cluster.select_many(stream)) == expected
            spread = {m["name"]: m["served"] for m in cluster.stats()["members"]}
        assert all(count > 0 for count in spread.values()), spread

    def test_nested_cluster_of_socket_and_cluster_matches(
        self, subtab_artifact, stream, expected
    ):
        # The topology-nesting claim, end to end: a cluster whose members
        # are a remote socket server and a ring of its own.
        with spawn_artifact_server(subtab_artifact) as server:
            inner = ClusterRouter([
                ("a", InProcessBackend.from_artifact(subtab_artifact)),
                ("b", InProcessBackend.from_artifact(subtab_artifact)),
            ])
            members = [("socket", server.connect()), ("ring", inner)]
            with ClusterRouter(members, replication=2) as cluster:
                assert _contents(cluster.select_many(stream)) == expected


class TestAsyncEquivalence:
    """The transport interop grid: one stream, both clients, both servers,
    and read-from-replica routing — all bit-identical."""

    def test_sync_client_async_server_matches(self, fitted_engine, stream,
                                              expected):
        with AsyncSocketServer(InProcessBackend(fitted_engine)).start() \
                as server:
            remote = RemoteBackend(server.address)
            assert _contents(remote.select_many(stream)) == expected
            remote.close()

    def test_async_client_sync_server_matches(self, fitted_engine, stream,
                                              expected):
        server = SocketServer(InProcessBackend(fitted_engine)).start()
        try:
            remote = AsyncRemoteBackend(server.address, window=3)
            assert _contents(remote.select_many(stream)) == expected
            remote.close()
        finally:
            server.close()

    def test_async_client_async_server_matches(self, fitted_engine, stream,
                                               expected):
        with AsyncSocketServer(InProcessBackend(fitted_engine)).start() \
                as server:
            remote = AsyncRemoteBackend(server.address)
            assert _contents(remote.select_many(stream)) == expected
            remote.close()

    def test_async_subprocess_member_matches(self, subtab_artifact, stream,
                                             expected):
        # The spawned-member path the benchmarks use: an asyncio server
        # in a child process, spoken to by the pipelined client.
        with spawn_artifact_server(subtab_artifact,
                                   transport="asyncio") as server:
            remote = server.connect_pipelined()
            assert _contents(remote.select_many(stream)) == expected
            remote.close()

    def test_round_robin_replica_cluster_matches(self, subtab_artifact,
                                                 stream, expected):
        # Reads spread across the replica set must not change a byte —
        # and with replication=2 over 2 members, both actually serve.
        members = [
            ("a", InProcessBackend.from_artifact(subtab_artifact)),
            ("b", InProcessBackend.from_artifact(subtab_artifact)),
        ]
        with ClusterRouter(members, replication=2,
                           replica_policy="round_robin") as cluster:
            assert _contents(cluster.select_many(stream)) == expected
            assert _contents([cluster.select(r) for r in stream]) == expected
            stats = cluster.stats()
        spread = {m["name"]: m["served"] for m in stats["members"]}
        assert all(count > 0 for count in spread.values()), spread
        assert stats["failovers"] == 0


class TestPipelinedCancellation:
    """Cancellation and slow members, at the equivalence-suite level: a
    stalled stream neither blocks forever nor mislabels its failure."""

    def test_close_mid_stream_raises_pipeline_cancelled(self,
                                                        subtab_artifact):
        from repro.serve import BaseBackend

        class StallingBackend(BaseBackend):
            kind = "stall"

            def __init__(self):
                super().__init__()
                self.release = threading.Event()

            def select(self, request):
                self.release.wait(30.0)
                raise RuntimeError("stalled")

        stalling = StallingBackend()
        server = AsyncSocketServer(stalling).start()
        remote = AsyncRemoteBackend(server.address, call_timeout=60.0)
        failures = []

        def drive():
            try:
                remote.select_many([SelectionRequest(k=3, l=3)] * 3)
            except Exception as error:
                failures.append(error)

        thread = threading.Thread(target=drive)
        thread.start()
        time.sleep(0.3)
        remote.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert failures and isinstance(failures[0], PipelineCancelled)
        stalling.release.set()
        server.close()

    def test_slow_member_fails_over_bit_identically(self, subtab_artifact,
                                                    stream, expected):
        import os
        import signal as signal_module

        # SIGSTOP a member (hung, not dead): the pipelined client's call
        # timeout must convert the stall into a failover, and the stream
        # still completes bit-identically on the healthy replica.
        hung = spawn_artifact_server(subtab_artifact, transport="asyncio")
        live = InProcessBackend.from_artifact(subtab_artifact)
        cluster = ClusterRouter(
            [("hung", AsyncRemoteBackend(hung.address, connect_timeout=2.0,
                                         call_timeout=1.0)),
             ("live", live)],
            replication=2,
        )
        try:
            os.kill(hung.process.pid, signal_module.SIGSTOP)
            responses = cluster.select_many(stream)
            assert _contents(responses) == expected
            dead = {m["name"]: m["dead"]
                    for m in cluster.stats()["members"]}
            assert dead["live"] is False
        finally:
            os.kill(hung.process.pid, signal_module.SIGCONT)
            cluster.close()
            hung.close()


class TestReplicaFailover:
    def test_stream_completes_after_killing_a_member(
        self, subtab_artifact, stream, expected
    ):
        live = spawn_artifact_server(subtab_artifact)
        doomed = spawn_artifact_server(subtab_artifact)
        try:
            cluster = ClusterRouter(
                [("live", live.connect(connect_timeout=2.0)),
                 ("doomed", doomed.connect(connect_timeout=2.0))],
                replication=2,
            )
            first = cluster.select_many(stream)
            doomed.kill()  # a member host dies mid-session
            second = cluster.select_many(stream)
            assert _contents(first) == expected
            assert _contents(second) == expected
            stats = cluster.stats()
            dead = {m["name"]: m["dead"] for m in stats["members"]}
            if any(dead.values()):  # the doomed member actually took traffic
                assert dead == {"live": False, "doomed": True}
                assert stats["failovers"] >= 1
            cluster.close()
        finally:
            live.close()
            doomed.close()

    def test_single_request_failover_is_bit_identical(
        self, subtab_artifact, expected, stream
    ):
        live = InProcessBackend.from_artifact(subtab_artifact)
        with spawn_artifact_server(subtab_artifact) as server:
            doomed = server.connect(connect_timeout=2.0)
            cluster = ClusterRouter([("live", live), ("doomed", doomed)],
                                    replication=2)
            server.kill()
            responses = [cluster.select(request) for request in stream]
            assert _contents(responses) == expected
            cluster.close()
