"""Tests for the asyncio transport (AsyncSocketServer, AsyncRemoteBackend)
and the event-loop server core it shares with the HTTP gateway.

The pipelined transport's load-bearing contracts: the wire format is
unchanged (either client speaks to either server), request ids correlate
out-of-order completions, transport faults keep their failover-trigger
taxonomy, and closing the client mid-flight cancels with
:class:`PipelineCancelled` (never a retry).  The full bit-for-bit
client x server matrix lives in ``test_backend_equivalence.py``.
"""

import socket
import threading
import time

import pytest

from repro.api import SelectionRequest, SelectionResponse
from repro.gateway import HttpGateway
from repro.serve import (
    AsyncRemoteBackend,
    AsyncSocketServer,
    BaseBackend,
    ClusterRouter,
    InProcessBackend,
    PipelineCancelled,
    RemoteRequestError,
    SocketServer,
    TransportError,
    recv_frame,
    send_frame,
)


@pytest.fixture()
def async_served_engine(fitted_engine):
    """An asyncio server over the fitted engine plus a pipelined client."""
    server = AsyncSocketServer(InProcessBackend(fitted_engine)).start()
    remote = AsyncRemoteBackend(server.address)
    yield fitted_engine, remote
    remote.close()
    server.close()


class SlowBackend(BaseBackend):
    """Stalls every select until released — a hung member, not a dead one."""

    kind = "slow"

    def __init__(self, delay: float = 30.0):
        super().__init__()
        self.release = threading.Event()
        self.delay = delay

    def select(self, request):
        self.release.wait(self.delay)
        raise RuntimeError("slow backend never serves")

    def select_many(self, requests, raise_on_error=True):
        return [self.select(request) for request in requests]


def _loop_threads() -> set:
    """The live event-loop threads of the asyncio front doors."""
    return {thread for thread in threading.enumerate()
            if thread.name in ("aio-server", "http-server")}


class TestServerLifecycle:
    """The event-loop core's lifecycle on the asyncio socket server;
    :class:`TestHttpGatewayLifecycle` runs the same tests on the gateway."""

    server_class = AsyncSocketServer

    def test_address_requires_start(self, fitted_engine):
        before = _loop_threads()
        server = self.server_class(InProcessBackend(fitted_engine))
        with pytest.raises(TransportError, match="not been started"):
            server.address
        server.start()
        host, port = server.address
        assert port > 0
        server.close()
        assert not _loop_threads() - before

    def test_start_is_idempotent_and_close_owns_backend(self, fitted_engine):
        before = _loop_threads()
        backend = InProcessBackend(fitted_engine)
        server = self.server_class(backend, own_backend=True)
        assert server.start() is server.start()
        server.close()
        server.close()  # idempotent
        assert not _loop_threads() - before
        from repro.serve import BackendError
        with pytest.raises(BackendError, match="closed"):
            backend.select(SelectionRequest(k=3, l=3))
        with pytest.raises(TransportError, match="is closed"):
            server.start()

    def test_bind_failure_raises_transport_error(self, fitted_engine):
        before = _loop_threads()
        taken = self.server_class(InProcessBackend(fitted_engine)).start()
        _, port = taken.address
        try:
            with pytest.raises(TransportError, match="could not bind"):
                self.server_class(InProcessBackend(fitted_engine),
                                  port=port).start()
        finally:
            taken.close()
        assert not _loop_threads() - before


class TestHttpGatewayLifecycle(TestServerLifecycle):
    server_class = HttpGateway


class TestWireCompatibility:
    def test_sync_framing_speaks_to_async_server(self, async_served_engine):
        # A hand-rolled id-less conversation (exactly what the sync
        # RemoteBackend sends) gets byte-identical reply shapes.
        _, remote = async_served_engine
        with socket.create_connection((remote.host, remote.port)) as sock:
            send_frame(sock, {"op": "ping"})
            assert recv_frame(sock) == {"ok": True, "op": "ping"}
            send_frame(sock, {"op": "launch_missiles"})
            assert recv_frame(sock) == {
                "ok": False, "kind": "protocol",
                "error": "unknown op 'launch_missiles'",
            }

    def test_ids_are_echoed_by_both_servers(self, fitted_engine):
        for server in (
            SocketServer(InProcessBackend(fitted_engine)).start(),
            AsyncSocketServer(InProcessBackend(fitted_engine)).start(),
        ):
            with socket.create_connection(server.address) as sock:
                send_frame(sock, {"op": "ping", "id": 41})
                assert recv_frame(sock) == {"ok": True, "op": "ping",
                                            "id": 41}
            server.close()

    def test_out_of_order_ids_resolve_correctly(self, async_served_engine):
        # Many in-flight frames with distinct requests: every reply must
        # land in its own slot whatever order the server finishes in.
        engine, remote = async_served_engine
        requests = [SelectionRequest(k=k, l=3) for k in range(2, 8)] * 3
        responses = remote.select_many(requests)
        for request, response in zip(requests, responses):
            expected = engine.select(request)
            assert response.subtable.row_indices == \
                expected.subtable.row_indices

    def test_pipelined_client_against_sync_server(self, fitted_engine):
        server = SocketServer(InProcessBackend(fitted_engine)).start()
        remote = AsyncRemoteBackend(server.address, window=4)
        try:
            requests = [SelectionRequest(k=k, l=3) for k in range(2, 8)]
            responses = remote.select_many(requests)
            assert all(isinstance(r, SelectionResponse) for r in responses)
            assert remote.ping() is True
        finally:
            remote.close()
            server.close()


class TestPipelinedClient:
    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            AsyncRemoteBackend("127.0.0.1:1", window=0)

    def test_stats_envelope(self, async_served_engine):
        _, remote = async_served_engine
        remote.select(SelectionRequest(k=3, l=3))
        stats = remote.stats()
        assert stats["backend"] == "pipelined"
        assert stats["served"] == 1
        assert stats["window"] == remote.window
        assert stats["server"]["backend"] == "inproc"

    def test_request_errors_map_and_never_poison_the_stream(
        self, async_served_engine
    ):
        _, remote = async_served_engine
        bad = SelectionRequest(k=3, l=3, targets=("NOPE",))
        entries = remote.select_many(
            [SelectionRequest(k=3, l=3), bad, SelectionRequest(k=4, l=3)],
            raise_on_error=False,
        )
        assert isinstance(entries[0], SelectionResponse)
        assert isinstance(entries[1], RemoteRequestError)
        assert isinstance(entries[2], SelectionResponse)
        with pytest.raises(RemoteRequestError, match="NOPE"):
            remote.select(bad)

    def test_concurrent_callers_multiplex_one_socket(
        self, async_served_engine
    ):
        engine, remote = async_served_engine
        requests = [SelectionRequest(k=k, l=3) for k in range(2, 8)] * 4
        results: dict = {}

        def drive(slot):
            results[slot] = remote.select_many(requests)

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert set(results) == {0, 1, 2}
        expected = [engine.select(r).subtable.row_indices for r in requests]
        for slot in results:
            assert [r.subtable.row_indices for r in results[slot]] == expected

    def test_empty_stream_returns_immediately(self, async_served_engine):
        _, remote = async_served_engine
        assert remote.select_many([]) == []

    def test_idle_connection_survives_the_call_timeout(self,
                                                       fitted_engine):
        # The call timeout bounds *pending* replies, not quiet time: a
        # kept-alive connection left idle past the timeout must serve the
        # next request on the same socket, not get poisoned and re-dial.
        server = AsyncSocketServer(InProcessBackend(fitted_engine)).start()
        remote = AsyncRemoteBackend(server.address, call_timeout=0.8)
        try:
            assert remote.ping()
            conn = remote._conn
            time.sleep(1.5)  # > call_timeout of silence
            assert isinstance(remote.select(SelectionRequest(k=3, l=3)),
                              SelectionResponse)
            assert remote._conn is conn  # same connection, no re-dial
        finally:
            remote.close()
            server.close()

    def test_close_prevents_redial(self, async_served_engine):
        from repro.serve import BackendError

        _, remote = async_served_engine
        assert remote.ping()
        remote.close()
        assert remote.stats()["server"] is None  # degrades, no reconnect
        with pytest.raises(BackendError, match="closed"):
            remote.select(SelectionRequest(k=3, l=3))
        assert remote._conn is None

    def test_unreachable_server_raises_transport_error(self):
        remote = AsyncRemoteBackend("127.0.0.1:9", connect_timeout=0.5)
        with pytest.raises(TransportError):
            remote.select(SelectionRequest(k=3, l=3))

    def test_reconnects_after_server_restart(self, fitted_engine):
        server = AsyncSocketServer(InProcessBackend(fitted_engine)).start()
        host, port = server.address
        remote = AsyncRemoteBackend((host, port))
        assert remote.ping()
        server.close()  # connection goes stale
        revived = AsyncSocketServer(
            InProcessBackend(fitted_engine), host=host, port=port
        ).start()
        try:
            assert remote.ping()  # one transparent replay
        finally:
            remote.close()
            revived.close()

    def test_killed_server_fails_all_in_flight(self, subtab_artifact):
        from repro.serve import spawn_artifact_server

        server = spawn_artifact_server(subtab_artifact, transport="asyncio")
        remote = server.connect_pipelined(connect_timeout=2.0)
        assert remote.ping()
        server.kill()
        with pytest.raises(TransportError):
            remote.select_many([SelectionRequest(k=3, l=3)] * 4)
        stats = remote.stats()
        assert stats["errors"] == 4
        remote.close()
        server.close()


class TestCancellationAndSlowMembers:
    def test_close_cancels_in_flight_with_pipeline_cancelled(
        self, fitted_engine
    ):
        slow = SlowBackend()
        server = AsyncSocketServer(slow).start()
        remote = AsyncRemoteBackend(server.address, call_timeout=60.0)
        failures = []

        def drive():
            try:
                remote.select_many([SelectionRequest(k=3, l=3)] * 2)
            except Exception as error:
                failures.append(error)

        thread = threading.Thread(target=drive)
        thread.start()
        time.sleep(0.3)  # the frames are in flight, the backend stalls
        remote.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert failures and isinstance(failures[0], PipelineCancelled)
        slow.release.set()  # unblock the server's dispatch thread
        server.close()

    def test_slow_member_times_out_as_transport_error(self, fitted_engine):
        # A member that hangs (not dies) must surface within the call
        # timeout as a TransportError — the cluster's failover trigger —
        # and NOT as a cancellation (which is never retried).
        slow = SlowBackend()
        server = AsyncSocketServer(slow).start()
        remote = AsyncRemoteBackend(server.address, call_timeout=0.5)
        start = time.perf_counter()
        with pytest.raises(TransportError) as caught:
            remote.select_many([SelectionRequest(k=3, l=3)])
        assert not isinstance(caught.value, PipelineCancelled)
        assert time.perf_counter() - start < 5.0
        remote.close()
        slow.release.set()
        server.close()

    def test_cluster_fails_over_around_a_slow_pipelined_member(
        self, fitted_engine
    ):
        slow = SlowBackend()
        slow_server = AsyncSocketServer(slow).start()
        cluster = ClusterRouter(
            [("slow", AsyncRemoteBackend(slow_server.address,
                                         call_timeout=0.5)),
             ("live", InProcessBackend(fitted_engine))],
            replication=2,
        )
        requests = [SelectionRequest(k=k, l=3) for k in range(2, 6)]
        responses = cluster.select_many(requests)
        assert all(isinstance(r, SelectionResponse) for r in responses)
        dead = {m["name"]: m["dead"] for m in cluster.stats()["members"]}
        if dead["slow"]:  # the slow member actually took traffic
            assert cluster.stats()["failovers"] >= 1
        cluster.close()
        slow.release.set()
        slow_server.close()
