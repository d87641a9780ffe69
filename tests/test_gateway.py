"""The HTTP gateway end to end: tenancy, equivalence, streaming, tracing.

The gateway's central promise mirrors the transport layer's: putting an
HTTP/1.1 face on a backend adds **no transformation**.  ``POST
/v1/select`` and ``/v1/select_many`` through :class:`HttpBackend` are
bit-identical (wire form minus timing/cache metadata) to driving the
fronted backend directly — over an in-process engine and a cluster.  On top of that ride the gateway-only behaviors: API-key
tenancy (401/403), token-bucket and concurrency-cap shedding (429 +
``Retry-After``), chunked JSON-lines session streaming with clean
client-disconnect semantics, and ``X-Trace-Id`` propagation across the
gateway → transport → server → backend chain.
"""

import json
import threading
import time

import pytest

from repro.api import SelectionRequest, SelectionResponse
from repro.gateway import (
    AdmissionController,
    AdmissionRejected,
    GatewayAuthError,
    HttpBackend,
    HttpGateway,
    TenantConfigError,
    TenantForbiddenError,
    TenantRegistry,
    TenantSpec,
    TokenBucket,
    session_steps,
)
from repro.queries.ops import SPQuery
from repro.queries.predicates import Eq
from repro.serve import (
    ClusterRouter,
    InProcessBackend,
    RemoteRequestError,
    spawn_artifact_server,
)


# ---------------------------------------------------------------------------
# Tenancy units
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(3)] == [0.0] * 3
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)  # 1 token at 2/s
        clock.advance(0.5)
        assert bucket.try_acquire() == 0.0

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2, clock=clock)
        clock.advance(60.0)  # a long idle spell refills to burst, not more
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_zero_rate_is_unlimited(self):
        bucket = TokenBucket(rate=0.0, burst=1, clock=FakeClock())
        assert all(bucket.try_acquire() == 0.0 for _ in range(100))

    def test_invalid_parameters_are_typed(self):
        with pytest.raises(TenantConfigError):
            TokenBucket(rate=-1.0, burst=1)
        with pytest.raises(TenantConfigError):
            TokenBucket(rate=1.0, burst=0)


class TestAdmissionController:
    def test_sheds_at_cap_and_recovers(self):
        controller = AdmissionController(max_inflight=2)
        controller.acquire()
        controller.acquire()
        with pytest.raises(AdmissionRejected) as rejected:
            controller.acquire()
        assert rejected.value.retry_after > 0
        controller.release()
        controller.acquire()  # a freed slot admits again
        assert controller.inflight == 2

    def test_cap_must_be_positive(self):
        with pytest.raises(TenantConfigError):
            AdmissionController(max_inflight=0)


class TestTenantRegistry:
    def test_authenticate_and_limits(self):
        registry = TenantRegistry([
            TenantSpec(name="acme", key="acme-k1", rate=100.0),
            TenantSpec(name="umbrella", key="umb-k1", enabled=False),
        ])
        assert registry.authenticate("acme-k1").name == "acme"
        with pytest.raises(GatewayAuthError):
            registry.authenticate(None)
        with pytest.raises(GatewayAuthError):
            registry.authenticate("nope")
        with pytest.raises(TenantForbiddenError):
            registry.authenticate("umb-k1")

    def test_admit_charges_the_bucket(self):
        clock = FakeClock()
        registry = TenantRegistry(
            [TenantSpec(name="acme", key="k", rate=1.0, burst=1)],
            clock=clock,
        )
        spec = registry.authenticate("k")
        registry.admit(spec)
        with pytest.raises(AdmissionRejected) as rejected:
            registry.admit(spec)
        assert rejected.value.retry_after == pytest.approx(1.0)
        clock.advance(1.0)
        registry.admit(spec)

    @pytest.mark.parametrize("payload, fragment", [
        ([], "JSON object"),
        ({"tenants": []}, "no tenants"),
        ({"tenants": {}}, '"tenants" array'),
        ({"tenants": [], "extra": 1}, "unknown field"),
        ({"tenants": [{"name": "a"}]}, "key"),
        ({"tenants": [{"name": "", "key": "k"}]}, "name"),
        ({"tenants": [{"name": "a", "key": "k", "rate": -1}]}, "rate"),
        ({"tenants": [{"name": "a", "key": "k", "burst": 0}]}, "burst"),
        ({"tenants": [{"name": "a", "key": "k", "enabled": 1}]},
         "enabled"),
        ({"tenants": [{"name": "a", "key": "k", "color": "red"}]},
         "unknown field"),
        ({"tenants": [{"name": "a", "key": "k"},
                      {"name": "a", "key": "j"}]}, "duplicate"),
        ({"tenants": [{"name": "a", "key": "k"},
                      {"name": "b", "key": "k"}]}, "reuses"),
        ({"tenants": [{"name": "a", "key": "k"}],
          "max_inflight": 0}, "max_inflight"),
    ])
    def test_config_validation_is_typed_and_specific(self, payload,
                                                     fragment):
        with pytest.raises(TenantConfigError, match=fragment):
            TenantRegistry.from_json(payload)

    def test_from_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({
            "max_inflight": 7,
            "tenants": [{"name": "acme", "key": "k1", "rate": 5.0}],
        }))
        registry = TenantRegistry.from_file(path)
        assert len(registry) == 1
        assert registry.max_inflight == 7
        with pytest.raises(TenantConfigError, match="cannot read"):
            TenantRegistry.from_file(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(TenantConfigError, match="not valid JSON"):
            TenantRegistry.from_file(bad)


# ---------------------------------------------------------------------------
# Equivalence: HTTP adds no transformation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stream():
    base = [
        SelectionRequest(k=4, l=3),
        SelectionRequest(k=3, l=3, targets=("OUTCOME",)),
        SelectionRequest(k=3, l=2, query=SPQuery((Eq("KIND", "beta"),))),
        SelectionRequest(k=5, l=4),
    ]
    return base + base[:2]  # replayed prefix: cache hits over HTTP too


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
    try:
        return _contents(backend.select_many(stream))
    finally:
        backend.close()


class TestEquivalence:
    def test_gateway_over_inproc_matches(self, fitted_engine, stream,
                                         expected):
        with HttpGateway(InProcessBackend(fitted_engine),
                         own_backend=True).start() as gateway:
            with HttpBackend(gateway.address) as client:
                assert _contents(client.select_many(stream)) == expected
                singles = [client.select(request) for request in stream]
                assert _contents(singles) == expected

    def test_gateway_over_cluster_matches(self, subtab_artifact, stream,
                                          expected):
        # The nesting claim at the front door: HTTP over a cluster whose
        # members include a remote socket server.
        with spawn_artifact_server(subtab_artifact) as server:
            members = [
                ("socket", server.connect()),
                ("local",
                 InProcessBackend.from_artifact(subtab_artifact)),
            ]
            cluster = ClusterRouter(members, replication=2)
            with HttpGateway(cluster, own_backend=True).start() as gateway:
                with HttpBackend(gateway.address) as client:
                    assert _contents(client.select_many(stream)) \
                        == expected

    def test_handwritten_body_needs_no_format_tag(self, fitted_engine):
        # A stock HTTP caller posts plain JSON without the wire codec's
        # internal "format" tag; the gateway defaults it.  An explicitly
        # wrong tag must still fail decoding loudly.
        import http.client

        with HttpGateway(InProcessBackend(fitted_engine),
                         own_backend=True).start() as gateway:
            host, port = gateway.address
            connection = http.client.HTTPConnection(host, port,
                                                    timeout=30)
            try:
                connection.request(
                    "POST", "/v1/select",
                    body=json.dumps({"k": 3, "l": 3}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                body = json.loads(response.read())
                assert response.status == 200 and body["ok"]
                assert body["response"]["subtable"]["columns"]

                connection.request(
                    "POST", "/v1/select",
                    body=json.dumps({"k": 3, "l": 3, "format": "nope"}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                body = json.loads(response.read())
                assert response.status == 400
                assert body["kind"] == "request"
            finally:
                connection.close()

    def test_request_errors_map_per_entry(self, fitted_engine):
        with HttpGateway(InProcessBackend(fitted_engine),
                         own_backend=True).start() as gateway:
            with HttpBackend(gateway.address) as client:
                good = SelectionRequest(k=3, l=3)
                bad = SelectionRequest(k=3, l=3, targets=("NOPE",))
                results = client.select_many([good, bad],
                                             raise_on_error=False)
                assert isinstance(results[0], SelectionResponse)
                # kind="request" maps to the non-failover error class,
                # exactly as over the socket transports.
                assert isinstance(results[1], RemoteRequestError)
                stats = client.stats()
                assert stats["served"] == 1
                assert stats["errors"] == 1


# ---------------------------------------------------------------------------
# Auth + admission over the wire
# ---------------------------------------------------------------------------

@pytest.fixture()
def tenant_gateway(fitted_engine):
    registry = TenantRegistry([
        TenantSpec(name="acme", key="acme-k1", rate=0.0),
        TenantSpec(name="slow", key="slow-k1", rate=0.001, burst=2),
        TenantSpec(name="off", key="off-k1", enabled=False),
    ])
    gateway = HttpGateway(InProcessBackend(fitted_engine),
                          tenants=registry, own_backend=True).start()
    yield gateway
    gateway.close()


class TestTenancyOverTheWire:
    def test_unknown_key_is_401(self, tenant_gateway):
        with HttpBackend(tenant_gateway.address, api_key="wrong") as client:
            with pytest.raises(GatewayAuthError):
                client.select(SelectionRequest(k=3, l=3))

    def test_missing_key_is_401(self, tenant_gateway):
        with HttpBackend(tenant_gateway.address) as client:
            with pytest.raises(GatewayAuthError):
                client.select(SelectionRequest(k=3, l=3))

    def test_disabled_tenant_is_403(self, tenant_gateway):
        with HttpBackend(tenant_gateway.address, api_key="off-k1") as client:
            with pytest.raises(TenantForbiddenError):
                client.select(SelectionRequest(k=3, l=3))

    def test_rate_limit_is_429_with_retry_after(self, tenant_gateway):
        with HttpBackend(tenant_gateway.address,
                         api_key="slow-k1") as client:
            request = SelectionRequest(k=3, l=3)
            client.select(request)
            client.select(request)  # burst=2 spent
            with pytest.raises(AdmissionRejected) as rejected:
                client.select(request)
            # Retry-After round-trips as whole seconds, rounded up.
            assert rejected.value.retry_after >= 1.0

    def test_healthz_needs_no_key(self, tenant_gateway):
        with HttpBackend(tenant_gateway.address) as client:
            assert client.healthz()["ok"] is True

    def test_shed_requests_never_reach_the_backend(self, tenant_gateway):
        with HttpBackend(tenant_gateway.address,
                         api_key="slow-k1") as client:
            request = SelectionRequest(k=3, l=3)
            client.select(request)
            client.select(request)
            for _ in range(3):
                with pytest.raises(AdmissionRejected):
                    client.select(request)
        served = tenant_gateway.app.dispatcher.metrics.counter(
            "ops.select"
        ).value
        snapshot = tenant_gateway.app.metrics.snapshot()
        assert snapshot["gateway.tenant.slow.rejected"]["value"] == 3
        assert snapshot["gateway.admission.rejected"]["value"] == 3
        assert served <= 2 + 1  # the two admitted calls (+healthz never
        #                         dispatches); sheds stopped at the door

    def test_concurrency_cap_is_429(self, fitted_engine):
        gateway = HttpGateway(InProcessBackend(fitted_engine),
                              max_inflight=1, own_backend=True).start()
        try:
            app = gateway.app
            app.admission.acquire()  # wedge the only slot
            try:
                with HttpBackend(gateway.address) as client:
                    with pytest.raises(AdmissionRejected):
                        client.select(SelectionRequest(k=3, l=3))
            finally:
                app.admission.release()
            with HttpBackend(gateway.address) as client:
                client.select(SelectionRequest(k=3, l=3))
        finally:
            gateway.close()


# ---------------------------------------------------------------------------
# Streaming sessions
# ---------------------------------------------------------------------------

class TestStreamingSession:
    def _steps(self, fitted_engine, n=4):
        from repro.queries.generator import SessionGenerator

        sessions = SessionGenerator(fitted_engine.binned,
                                    seed=11).generate(4)
        steps = [wire
                 for session in sessions
                 for wire in session_steps(session, k=3, l=3)]
        assert len(steps) >= n
        return steps[:n]

    def test_steps_arrive_in_order_and_match(self, fitted_engine):
        steps = self._steps(fitted_engine)
        backend = InProcessBackend(fitted_engine)
        direct = []
        for wire in steps:
            try:
                direct.append(
                    backend.select(SelectionRequest.from_wire(wire))
                )
            except Exception:
                direct.append(None)
        with HttpGateway(backend, own_backend=True).start() as gateway:
            with HttpBackend(gateway.address) as client:
                lines = list(client.stream_session(steps))
        body = lines[:-1]
        assert lines[-1] == {
            "done": True,
            "served": sum(1 for line in body if line["ok"]),
        }
        assert [line["step"] for line in body] == list(range(len(steps)))
        for line, reference in zip(body, direct):
            if line["ok"]:
                payload = dict(line["response"])
                for volatile in ("timings", "select_seconds",
                                 "cache_hit"):
                    payload.pop(volatile)
                expected = reference.to_wire()
                for volatile in ("timings", "select_seconds",
                                 "cache_hit"):
                    expected.pop(volatile)
                assert payload == expected

    def test_degenerate_step_streams_as_request_error(self, fitted_engine):
        steps = self._steps(fitted_engine, n=2)
        steps.insert(  # an unknown target: rejected per step, not fatal
            1, SelectionRequest(k=3, l=3, targets=("NOPE",)).to_wire()
        )
        with HttpGateway(InProcessBackend(fitted_engine),
                         own_backend=True).start() as gateway:
            with HttpBackend(gateway.address) as client:
                lines = list(client.stream_session(steps))
        assert lines[1]["ok"] is False
        assert lines[1]["kind"] == "request"
        assert lines[-1]["done"] is True
        assert lines[-1]["served"] == 2  # the session continued past it

    def test_client_disconnect_stops_the_session(self, fitted_engine):
        # Many compact steps (the steps ride the request line, which is
        # capped at 8 KiB): plenty left unread when the client bails.
        steps = [SelectionRequest(k=3, l=3).to_wire()] * 20
        with HttpGateway(InProcessBackend(fitted_engine),
                         own_backend=True).start() as gateway:
            with HttpBackend(gateway.address) as client:
                seen = 0
                for line in client.stream_session(steps):
                    seen += 1
                    if seen == 2:
                        break  # closes the generator -> the connection
            assert seen == 2
            deadline = time.monotonic() + 5.0
            disconnected = gateway.app.metrics.counter(
                "gateway.stream.disconnected"
            )
            while disconnected.value == 0 \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert disconnected.value == 1
            # The gateway is still healthy for the next session.
            with HttpBackend(gateway.address) as client:
                lines = list(client.stream_session(steps[:2]))
                assert lines[-1]["done"] is True


# ---------------------------------------------------------------------------
# Tracing, stats, metrics
# ---------------------------------------------------------------------------

class TestObservability:
    def test_trace_spans_gateway_and_backend(self, fitted_engine):
        with HttpGateway(InProcessBackend(fitted_engine),
                         own_backend=True).start() as gateway:
            with HttpBackend(gateway.address, trace=True) as client:
                client.select(SelectionRequest(k=3, l=3))
                trace = client.last_trace
        assert trace is not None
        stages = [entry["stage"] for entry in trace["stages"]]
        assert "gateway" in stages and "http" in stages
        assert "backend" in stages and "select" in stages

    def test_trace_id_propagates_across_socket_hop(self, fitted_engine):
        from repro.serve import AsyncRemoteBackend, AsyncSocketServer

        server = AsyncSocketServer(
            InProcessBackend(fitted_engine), port=0
        ).start()
        try:
            remote = AsyncRemoteBackend(server.address, trace=True)
            with HttpGateway(remote, own_backend=True).start() as gateway:
                with HttpBackend(gateway.address, trace=True) as client:
                    client.select(SelectionRequest(k=3, l=3))
                    trace = client.last_trace
            stages = [entry["stage"] for entry in trace["stages"]]
            # One id names the whole journey, so the nested transport's
            # stages surface next to the gateway's own.
            assert "transport" in stages
            assert "gateway" in stages
        finally:
            server.close()

    def test_stats_and_metrics_endpoints(self, fitted_engine):
        import http.client

        with HttpGateway(InProcessBackend(fitted_engine),
                         own_backend=True).start() as gateway:
            with HttpBackend(gateway.address) as client:
                client.select(SelectionRequest(k=3, l=3))
                server = client.stats()["server"]
            connection = http.client.HTTPConnection(*gateway.address,
                                                    timeout=30)
            try:
                connection.request("GET", "/v1/metrics")
                metrics_status = connection.getresponse().status
            finally:
                connection.close()
        assert server["backend"] == "inproc"
        gateway_section = server["gateway"]
        assert gateway_section["metrics"]["gateway.requests"]["value"] >= 1
        assert gateway_section["admission"]["inflight"] == 0
        assert "ops.select" in server["dispatcher"]
        # /v1/stats is the one telemetry route.
        assert metrics_status == 404


# ---------------------------------------------------------------------------
# Concurrency: one gateway, many client threads
# ---------------------------------------------------------------------------

def test_concurrent_clients_get_consistent_answers(fitted_engine):
    with HttpGateway(InProcessBackend(fitted_engine),
                     own_backend=True).start() as gateway:
        with HttpBackend(gateway.address) as client:
            request = SelectionRequest(k=3, l=3)
            reference = client.select(request).to_wire()
            for volatile in ("timings", "select_seconds", "cache_hit"):
                reference.pop(volatile)
            failures: list = []

            def worker() -> None:
                try:
                    for _ in range(5):
                        payload = client.select(request).to_wire()
                        for volatile in ("timings", "select_seconds",
                                        "cache_hit"):
                            payload.pop(volatile)
                        if payload != reference:
                            failures.append("mismatch")
                except Exception as error:  # pragma: no cover - surfaced
                    failures.append(repr(error))

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert failures == []
