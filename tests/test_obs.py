"""Tests for the telemetry substrate (repro.obs).

Two load-bearing properties:

* **determinism of the math** — histogram quantiles are pure functions
  of the observations (the bench gate compares committed p99s against
  fresh runs, so run-to-run drift in the *summary* would be
  indistinguishable from a regression);
* **trace propagation across real hops** — a request tagged with a trace
  id must come back with server-side stage timings through every
  client x server transport pairing, because that is the only way
  per-stage latency survives the socket boundary.
"""

import threading

import pytest

from repro.api import SelectionRequest
from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    bucket_index,
    bucket_upper_bound,
    make_stage,
    next_trace_id,
    stage_seconds,
)
from repro.serve import (
    AsyncRemoteBackend,
    AsyncSocketServer,
    InProcessBackend,
    RemoteBackend,
    SocketServer,
)


class TestBuckets:
    def test_monotone_and_invertible(self):
        previous = None
        for value in (1e-6, 1e-3, 0.5, 1.0, 3.0, 10.0, 99.0):
            index = bucket_index(value)
            assert value <= bucket_upper_bound(index)
            if previous is not None:
                assert index >= previous
            previous = index

    def test_underflow_and_nan(self):
        assert bucket_index(0.0) == bucket_index(-1.0)
        assert bucket_index(float("nan")) == bucket_index(0.0)
        assert bucket_upper_bound(bucket_index(0.0)) == 0.0


class TestCounterGauge:
    def test_counter_counts_and_rejects_decrements(self):
        counter = Counter("requests")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.snapshot() == {"type": "counter", "value": 5}
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)


class TestHistogram:
    def test_quantiles_are_deterministic_functions_of_observations(self):
        values = [0.0011 * (i % 37 + 1) for i in range(500)]
        first, second = Histogram("a"), Histogram("b")
        for v in values:
            first.observe(v)
        for v in reversed(values):  # order must not matter
            second.observe(v)
        assert first.snapshot() == second.snapshot()
        assert first.quantile(0.5) <= first.quantile(0.95) <= \
            first.quantile(0.99)

    def test_quantile_clamps_to_observed_range(self):
        h = Histogram("one")
        h.observe(0.25)
        for q in (0.0, 0.5, 1.0):
            assert h.quantile(q) == 0.25
        assert h.quantile(0.5) == 0.25

    def test_empty_histogram_is_all_zero(self):
        snap = Histogram("empty").snapshot()
        assert snap["count"] == 0
        assert snap["p99"] == 0.0
        assert snap["buckets"] == {}

    def test_quantile_validates_range(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram("h").quantile(1.5)

    def test_concurrent_observers_lose_nothing(self):
        h = Histogram("contended")

        def worker():
            for i in range(1000):
                h.observe(0.001 * (i + 1))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 4000


class TestRegistry:
    def test_get_or_create_and_type_conflicts(self):
        registry = MetricsRegistry()
        assert registry.counter("ops") is registry.counter("ops")
        with pytest.raises(ValueError, match="is a counter"):
            registry.histogram("ops")
        registry.histogram("lat").observe(0.5)
        assert registry.names() == ["lat", "ops"]
        snap = registry.snapshot()
        assert list(snap) == ["lat", "ops"]
        assert snap["lat"]["count"] == 1

    def test_backend_stats_carry_a_metrics_section(self, fitted_engine):
        backend = InProcessBackend(fitted_engine)
        backend.select_many([SelectionRequest(k=3, l=3),
                             SelectionRequest(k=4, l=3)])
        stats = backend.stats()
        assert stats["metrics"]["batch.size"]["count"] == 1
        assert stats["metrics"]["batch.seconds"]["count"] == 1
        # The shared core is read from the registry, its one account.
        assert stats["served"] == \
            stats["metrics"]["requests.served"]["value"] == 2
        assert stats["errors"] == \
            stats["metrics"]["requests.errors"]["value"] == 0
        assert stats["seconds"] == stats["metrics"]["batch.seconds"]["sum"]
        backend.close()


class TestTraceIds:
    def test_ids_are_unique_and_prefixed(self):
        ids = {next_trace_id("t") for _ in range(100)}
        assert len(ids) == 100
        assert all(i.startswith("t-") for i in ids)

    def test_stage_helpers(self):
        trace = {"id": "t-1", "stages": [make_stage("server", 0.25),
                                         make_stage("transport", -0.5)]}
        assert stage_seconds(trace, "server") == 0.25
        # derived stages clamp negative arithmetic to zero
        assert stage_seconds(trace, "transport") == 0.0
        assert stage_seconds(trace, "missing") == 0.0
        assert stage_seconds(None, "server") == 0.0


def _make_server(kind, engine):
    if kind == "socket":
        return SocketServer(InProcessBackend(engine)).start()
    return AsyncSocketServer(InProcessBackend(engine)).start()


def _make_client(kind, address):
    if kind == "sync":
        return RemoteBackend(address, trace=True)
    return AsyncRemoteBackend(address, trace=True)


class TestTracePropagation:
    @pytest.mark.parametrize("server_kind", ["socket", "asyncio"])
    @pytest.mark.parametrize("client_kind", ["sync", "pipelined"])
    def test_trace_crosses_every_transport_pairing(
        self, fitted_engine, server_kind, client_kind
    ):
        server = _make_server(server_kind, fitted_engine)
        client = _make_client(client_kind, server.address)
        try:
            client.select(SelectionRequest(k=3, l=3))
            client.select_many([SelectionRequest(k=4, l=3)])
            trace = client.last_trace
            assert trace is not None and trace["id"]
            stages = {s["stage"]: s["seconds"] for s in trace["stages"]}
            # Server-side stages were measured on the far side of the hop
            # and reassembled here; client-side transport is derived.
            assert {"server", "backend", "transport"} <= set(stages)
            assert all(seconds >= 0.0 for seconds in stages.values())
            assert stages["server"] >= stages["backend"] > 0.0
            # The client folded every traced request into its registry.
            client_metrics = client.metrics.snapshot()
            assert client_metrics["trace.server"]["count"] == 2
        finally:
            client.close()
            server.close()

    def test_untraced_clients_get_untouched_replies(self, fitted_engine):
        server = SocketServer(InProcessBackend(fitted_engine)).start()
        client = RemoteBackend(server.address)  # trace off (default)
        try:
            client.select(SelectionRequest(k=3, l=3))
            assert client.last_trace is None
            assert "trace.server" not in client.metrics.snapshot()
        finally:
            client.close()
            server.close()

    @pytest.mark.parametrize("server_kind", ["socket", "asyncio"])
    def test_metrics_op_reports_dispatcher_and_backend(
        self, fitted_engine, server_kind
    ):
        server = _make_server(server_kind, fitted_engine)
        sync = RemoteBackend(server.address)
        pipelined = AsyncRemoteBackend(server.address)
        try:
            sync.select(SelectionRequest(k=3, l=3))
            for client in (sync, pipelined):
                stats = client.stats()["server"]
                assert stats["dispatcher"]["ops.select"]["value"] >= 1
                assert stats["metrics"]["batch.seconds"]["count"] >= 1
            # The stats op is the one telemetry op.
            reply = server.handle_message({"op": "metrics"})
            assert reply == {"ok": False, "kind": "protocol",
                             "error": "unknown op 'metrics'"}
        finally:
            sync.close()
            pipelined.close()
            server.close()
