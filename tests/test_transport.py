"""Tests for the socket transport (framing, server, RemoteBackend).

The framing contract is load-bearing for the cluster: corrupt frames must
fail loudly as TransportError (a BackendError — the failover trigger),
request-level failures must come back as RemoteRequestError (never
failover), and socket-served responses must be bit-identical to the
in-process path.
"""

import json
import random
import socket
import sys
import threading

import pytest

from repro.api import SelectionRequest, SelectionResponse
from repro.gateway import HttpBackend, HttpGateway
from repro.serve import (
    AsyncSocketServer,
    BackendError,
    BaseBackend,
    InProcessBackend,
    RemoteBackend,
    RemoteRequestError,
    SocketServer,
    TransportError,
    recv_frame,
    send_frame,
    spawn_artifact_server,
)
from repro.queries.generator import SessionGenerator
from repro.serve.transport import _build_server, parse_address


def _content(response: SelectionResponse) -> dict:
    payload = response.to_wire()
    for volatile in ("timings", "select_seconds", "cache_hit"):
        payload.pop(volatile)
    return payload


@pytest.fixture()
def served_engine(fitted_engine):
    """A socket server over the fitted engine plus a connected client."""
    server = SocketServer(InProcessBackend(fitted_engine)).start()
    remote = RemoteBackend(server.address)
    yield fitted_engine, remote
    remote.close()
    server.close()


class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            payload = {"op": "ping", "text": "héllo ✓", "n": [1, 2.5, None]}
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_clean_eof_between_frames_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x10abc")  # announces 16, sends 3
            a.close()
            with pytest.raises(TransportError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversize_announcement_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(TransportError, match="limit"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_undecodable_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x03{{{")
            with pytest.raises(TransportError, match="undecodable"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestParseAddress:
    def test_host_port_string(self):
        assert parse_address("example.org:7341") == ("example.org", 7341)
        assert parse_address(("10.0.0.1", 80)) == ("10.0.0.1", 80)

    def test_bare_port_defaults_host(self):
        assert parse_address(":7341") == ("127.0.0.1", 7341)

    @pytest.mark.parametrize("bad", ["7341", "host:", "host:abc"])
    def test_malformed_addresses_raise(self, bad):
        with pytest.raises(ValueError, match="host:port"):
            parse_address(bad)


class TestSocketServer:
    def test_responses_bit_identical_to_in_process(self, served_engine):
        engine, remote = served_engine
        requests = [
            SelectionRequest(k=4, l=3),
            SelectionRequest(k=3, l=3, targets=("OUTCOME",)),
            SelectionRequest(k=4, l=3),
        ]
        over_socket = remote.select_many(requests)
        for request, response in zip(requests, over_socket):
            assert _content(response) == _content(engine.select(request))

    def test_ping_and_server_stats(self, served_engine):
        _, remote = served_engine
        assert remote.ping() is True
        remote.select(SelectionRequest(k=3, l=3))
        stats = remote.stats()
        assert stats["backend"] == "remote"
        assert stats["served"] == 1
        assert stats["server"]["backend"] == "inproc"
        assert stats["server"]["served"] == 1

    def test_request_errors_map_to_remote_request_error(self, served_engine):
        _, remote = served_engine
        bad = SelectionRequest(k=3, l=3, targets=("NOPE",))
        with pytest.raises(RemoteRequestError, match="NOPE"):
            remote.select(bad)
        entries = remote.select_many(
            [SelectionRequest(k=3, l=3), bad], raise_on_error=False
        )
        assert isinstance(entries[0], SelectionResponse)
        assert isinstance(entries[1], RemoteRequestError)

    def test_unknown_op_is_a_protocol_error(self, served_engine, fitted_engine):
        server = SocketServer(InProcessBackend(fitted_engine)).start()
        try:
            with socket.create_connection(server.address) as sock:
                send_frame(sock, {"op": "launch_missiles"})
                reply = recv_frame(sock)
            assert reply == {"ok": False, "kind": "protocol",
                             "error": "unknown op 'launch_missiles'"}
        finally:
            server.close()

    def test_malformed_payload_does_not_kill_the_connection(
        self, fitted_engine
    ):
        server = SocketServer(InProcessBackend(fitted_engine)).start()
        try:
            with socket.create_connection(server.address) as sock:
                send_frame(sock, {"op": "select"})  # no request field
                reply = recv_frame(sock)
                assert reply["ok"] is False
                # A bad request fails the same on every replica: it must be
                # request-kind, not a failover-triggering transport fault.
                assert reply["kind"] == "request"
                send_frame(sock, {"op": "ping"})  # same connection still up
                assert recv_frame(sock)["ok"] is True
        finally:
            server.close()

    def test_undecodable_request_does_not_trigger_failover(
        self, served_engine
    ):
        # A request the server cannot decode (e.g. wire-version skew in a
        # rolling deploy) is a RemoteRequestError — the member stays live.
        _, remote = served_engine
        reply = remote._call({"op": "select",
                              "request": {"format": "not-a-request"}})
        assert reply["ok"] is False
        assert reply["kind"] == "request"

    def test_hosted_backend_errors_stay_backend_kind(self, fitted_engine):
        # A server hosting a nested backend that returns BackendError
        # entries must report them as kind "backend" so clients (and outer
        # clusters) still treat them as failover triggers.
        from repro.serve import BaseBackend, RemoteServerError
        from repro.serve.errors import BackendError

        class BrokenMemberBackend(BaseBackend):
            kind = "stub"

            def select_many(self, requests, raise_on_error=True):
                return [BackendError("member down") for _ in requests]

        server = SocketServer(BrokenMemberBackend()).start()
        remote = RemoteBackend(server.address)
        try:
            entries = remote.select_many(
                [SelectionRequest(k=3, l=3)], raise_on_error=False
            )
            assert isinstance(entries[0], RemoteServerError)
            assert isinstance(entries[0], BackendError)
        finally:
            remote.close()
            server.close()

    def test_one_undecodable_batch_entry_fails_alone(self, served_engine):
        _, remote = served_engine
        good = SelectionRequest(k=3, l=3).to_wire()
        bad = {"format": "not-a-request"}
        reply = remote._call({"op": "select_many",
                              "requests": [good, bad, good]})
        assert reply["ok"] is True
        oks = [entry["ok"] for entry in reply["results"]]
        assert oks == [True, False, True]
        assert reply["results"][1]["kind"] == "request"

    def test_unreachable_server_raises_transport_error(self):
        remote = RemoteBackend("127.0.0.1:9", connect_timeout=0.5)
        with pytest.raises(TransportError):
            remote.select(SelectionRequest(k=3, l=3))

    def test_reconnects_after_server_restart(self, fitted_engine):
        server = SocketServer(InProcessBackend(fitted_engine)).start()
        host, port = server.address
        remote = RemoteBackend((host, port))
        assert remote.ping()
        server.close()  # connection goes stale
        revived = SocketServer(
            InProcessBackend(fitted_engine), host=host, port=port
        ).start()
        try:
            assert remote.ping()  # one transparent reconnect
        finally:
            remote.close()
            revived.close()


@pytest.fixture()
def taken_port():
    """A port with a listening socket on it, so every bind to it fails."""
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        yield taken.getsockname()[1]


class TestBindFailure:
    def test_socket_server_raises_transport_error(self, fitted_engine,
                                                  taken_port):
        with pytest.raises(TransportError, match="could not bind"):
            SocketServer(InProcessBackend(fitted_engine), port=taken_port)

    @pytest.mark.parametrize("transport", ["socket", "asyncio", "http"])
    def test_build_server_closes_the_backend_it_owns(self, fitted_engine,
                                                     taken_port, transport):
        before = {thread.ident for thread in threading.enumerate()}
        backend = InProcessBackend(fitted_engine)
        with pytest.raises(TransportError, match="could not bind"):
            _build_server(backend, "127.0.0.1", taken_port, transport)
        with pytest.raises(BackendError, match="closed"):
            backend.select(SelectionRequest(k=3, l=3))
        assert {thread.ident for thread in threading.enumerate()} <= before


class TestSpawnedServer:
    def test_subprocess_server_round_trip(self, subtab_artifact,
                                          fitted_engine):
        requests = [SelectionRequest(k=4, l=3),
                    SelectionRequest(k=3, l=3, targets=("OUTCOME",))]
        with spawn_artifact_server(subtab_artifact) as server:
            remote = server.connect()
            responses = remote.select_many(requests)
            remote.close()
        for request, response in zip(requests, responses):
            assert _content(response) == _content(fitted_engine.select(request))

    def test_threads_share_one_client(self, subtab_artifact, fitted_engine):
        """Threads sharing one RemoteBackend each get the reply to the
        request they sent: its lock keeps one call on the socket at a
        time."""
        distinct = {}
        for session in SessionGenerator(fitted_engine.binned,
                                        seed=0).generate(12):
            for step in session:
                request = SelectionRequest(query=step.state)
                key = json.dumps(request.to_wire(), sort_keys=True)
                distinct.setdefault(key, request)
        n_threads, per_thread = 4, 60
        wrong, errors = [], []
        with spawn_artifact_server(subtab_artifact) as server:
            remote = server.connect(call_timeout=30.0)
            # Warm the server's LRU: the threaded selects are cache hits.
            candidates = list(distinct.values())[:24]
            warmed = remote.select_many(candidates, raise_on_error=False)
            requests = [request for request, entry in zip(candidates, warmed)
                        if isinstance(entry, SelectionResponse)]
            assert len(requests) >= 20

            def drive(seed):
                draw = random.Random(seed)
                for _ in range(per_thread):
                    request = draw.choice(requests)
                    try:
                        response = remote.select(request)
                    except Exception as error:
                        errors.append(error)
                        continue
                    if response.request != request:
                        wrong.append(request)

            threads = [threading.Thread(target=drive, args=(seed,))
                       for seed in range(n_threads)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(interval)
                remote.close()
        assert not errors, errors[:3]
        assert not wrong, (
            f"{len(wrong)} of {n_threads * per_thread} selects got another "
            "request's reply"
        )

    def test_missing_artifact_fails_to_spawn(self, tmp_path):
        with pytest.raises(TransportError, match="failed to start"):
            spawn_artifact_server(tmp_path / "not-an-artifact")

    def test_call_timeout_is_finite_by_default(self):
        # A hung (not dead) member must eventually raise TransportError or
        # cluster failover never engages; blocking-forever is opt-in.
        remote = RemoteBackend("127.0.0.1:1")
        assert remote.call_timeout is not None
        assert remote.call_timeout > 0

    def test_hung_server_times_out_and_raises(self, subtab_artifact):
        import os
        import signal as signal_module
        import time

        server = spawn_artifact_server(subtab_artifact)
        remote = server.connect(connect_timeout=1.0, call_timeout=0.5)
        try:
            assert remote.ping()
            os.kill(server.process.pid, signal_module.SIGSTOP)  # hang, not die
            start = time.perf_counter()
            with pytest.raises(TransportError):
                remote.select(SelectionRequest(k=3, l=3))
            assert time.perf_counter() - start < 5.0
        finally:
            os.kill(server.process.pid, signal_module.SIGCONT)
            remote.close()
            server.close()

    def test_killed_server_raises_transport_error(self, subtab_artifact):
        server = spawn_artifact_server(subtab_artifact)
        remote = server.connect(connect_timeout=1.0)
        assert remote.ping()
        server.kill()
        with pytest.raises(TransportError):
            remote.select(SelectionRequest(k=3, l=3))
        with pytest.raises(TransportError):
            remote.select_many([SelectionRequest(k=3, l=3)] * 2)
        # failed calls are accounted: the stats envelope stays honest for
        # exactly the failure cases an operator would inspect it for
        stats = remote.stats()
        assert stats["errors"] == 3
        assert stats["seconds"] > 0
        remote.close()


class _RendezvousBackend(BaseBackend):
    """Holds each batch until a second one is inside ``select_many``: a
    server gets both through only if it runs two backend calls at once."""

    kind = "rendezvous"

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.barrier = threading.Barrier(2, timeout=5.0)

    def select_many(self, requests, raise_on_error=True):
        self.barrier.wait()
        return self.inner.select_many(requests, raise_on_error)


def _rendezvous_server(kind, backend):
    if kind == "socket":
        return SocketServer(backend).start(), RemoteBackend
    if kind == "asyncio":
        return AsyncSocketServer(backend).start(), RemoteBackend
    return HttpGateway(backend).start(), HttpBackend


class TestConcurrentDispatch:
    """Servers run backend calls from different connections at once, and
    a backend shared by threads counts every call it serves."""

    @pytest.mark.parametrize("kind", ["socket", "asyncio", "http"])
    def test_two_connections_overlap_in_the_backend(self, kind,
                                                    fitted_engine):
        server, client_type = _rendezvous_server(
            kind, _RendezvousBackend(InProcessBackend(fitted_engine))
        )
        clients = [client_type(server.address) for _ in range(2)]
        replies = [None, None]

        def call(slot):
            try:
                replies[slot] = clients[slot].select(
                    SelectionRequest(k=3, l=3)
                )
            except Exception as error:
                replies[slot] = error

        threads = [threading.Thread(target=call, args=(slot,))
                   for slot in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            for client in clients:
                client.close()
            server.close()
        assert all(isinstance(reply, SelectionResponse)
                   for reply in replies), replies

    def test_threads_lose_no_accounting_update(self, fitted_engine):
        request = SelectionRequest(k=3, l=3)
        fitted_engine.select(request)  # the threaded selects are LRU hits
        n_threads, per_thread = 4, 600
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                backend = InProcessBackend(fitted_engine)

                def drive():
                    for _ in range(per_thread):
                        backend.select(request)

                threads = [threading.Thread(target=drive)
                           for _ in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                stats = backend.stats()
                assert stats["served"] + stats["errors"] == \
                    n_threads * per_thread, stats
        finally:
            sys.setswitchinterval(interval)
