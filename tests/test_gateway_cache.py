"""The gateway response cache: correctness under every failure axis.

The cache's promise is sharp: a hit is the *exact bytes* a cold request
would have produced (minus the per-call trace envelope), never crosses
the tenant boundary, and never survives the artifact generation it was
computed from.  The suite drives each clause — tenant isolation,
fingerprint-bump invalidation, strong-ETag 304 revalidation over a real
socket, cold-vs-cached bit-equality, and concurrent hit/miss hammering
— plus the pure-unit key/validator/eviction machinery underneath.
"""

import json
import http.client
import threading

import numpy as np
import pytest

from repro.api import ArtifactStore, Engine, SelectionRequest
from repro.core import SubTabConfig
from repro.gateway import (
    HttpBackend,
    HttpGateway,
    ResponseCache,
    TenantConfigError,
    TenantRegistry,
    TenantSpec,
    canonical_request_text,
    etag_matches,
    extract_fingerprints,
    make_etag,
    request_key,
)
from repro.gateway.cache import FINGERPRINT_CONFLICT, FINGERPRINT_UNKNOWN
from repro.queries.ops import SPQuery
from repro.queries.predicates import Eq
from repro.frame.frame import DataFrame
from repro.serve import ClusterRouter, InProcessBackend


def build_planted_frame(n: int = 600, seed: int = 0) -> DataFrame:
    """Three archetypes + noise (the shared conftest dataset shape,
    rebuilt locally — ``import conftest`` is ambiguous when benchmarks/
    and tests/ are collected together)."""
    rng = np.random.default_rng(seed)
    group = rng.choice([0, 1, 2], size=n, p=[0.4, 0.35, 0.25])
    size = np.where(group == 0, rng.normal(2000, 150, n),
                    np.where(group == 1, rng.normal(300, 60, n),
                             rng.normal(900, 100, n)))
    speed = size / 8.0 + rng.normal(0, 10, n)
    outcome = np.where(group == 1, 1.0, 0.0)
    kind = np.where(group == 0, "alpha",
                    np.where(group == 1, "beta", "gamma"))
    noise = rng.normal(0, 1, n)
    return DataFrame({
        "SIZE": size,
        "SPEED": speed,
        "OUTCOME": outcome,
        "KIND": list(kind),
        "NOISE": noise,
    })


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Key / validator units
# ---------------------------------------------------------------------------

class TestKeying:
    def test_canonical_text_is_key_order_insensitive(self):
        a = {"k": 5, "l": 4, "dataset": "planted"}
        b = {"dataset": "planted", "l": 4, "k": 5}
        assert canonical_request_text(a) == canonical_request_text(b)
        assert request_key("/v1/select", a) == request_key("/v1/select", b)

    def test_route_is_part_of_the_key(self):
        wire = {"k": 5}
        assert request_key("/v1/select", wire) \
            != request_key("/v1/select_many", wire)

    def test_etag_is_strong_and_quoted(self):
        etag = make_etag(b'{"ok": true}')
        assert etag.startswith('"') and etag.endswith('"')
        assert etag == make_etag(b'{"ok": true}')
        assert etag != make_etag(b'{"ok": false}')

    def test_etag_matches_lists_and_wildcard(self):
        etag = make_etag(b"body")
        assert etag_matches(etag, etag)
        assert etag_matches(f'"other", {etag}', etag)
        assert etag_matches("*", etag)
        assert not etag_matches(None, etag)
        assert not etag_matches('"other"', etag)
        # weak validators never match a strong comparison
        assert not etag_matches(f"W/{etag}", etag)

    def test_extract_fingerprints_walks_nested_stats(self):
        stats = {
            "backend": "http",
            "server": {
                "members": [
                    {"stats": {"fingerprints": {"a": "f1"}}},
                    {"stats": {"fingerprints": {"b": "f2"}}},
                ],
            },
        }
        assert extract_fingerprints(stats) == {"a": "f1", "b": "f2"}

    def test_extract_fingerprints_conflict_never_matches(self):
        stats = {"members": [
            {"fingerprints": {"a": "f1"}},
            {"fingerprints": {"a": "f2"}},  # mid-rollout disagreement
        ]}
        assert extract_fingerprints(stats) == {"a": FINGERPRINT_CONFLICT}


# ---------------------------------------------------------------------------
# ResponseCache units
# ---------------------------------------------------------------------------

class TestResponseCache:
    def test_miss_store_hit_roundtrip(self):
        cache = ResponseCache(capacity=4)
        assert cache.lookup("t", "key") is None
        entry = cache.store("t", "key", ["planted"], b"body")
        hit = cache.lookup("t", "key")
        assert hit is entry and hit.body == b"body"
        info = cache.info()
        assert info["hits"] == 1 and info["misses"] == 1 \
            and info["stores"] == 1

    def test_tenant_isolation_in_the_key(self):
        cache = ResponseCache(capacity=4)
        cache.store("alice", "key", ["d"], b"alice-body")
        assert cache.lookup("bob", "key") is None
        assert cache.lookup("alice", "key").body == b"alice-body"

    def test_global_lru_eviction(self):
        cache = ResponseCache(capacity=2)
        cache.store("t", "k1", ["d"], b"1")
        cache.store("t", "k2", ["d"], b"2")
        cache.lookup("t", "k1")            # k1 is now most-recent
        cache.store("t", "k3", ["d"], b"3")
        assert cache.lookup("t", "k2") is None   # k2 was the LRU victim
        assert cache.lookup("t", "k1") is not None
        assert cache.info()["evictions"] == 1

    def test_per_tenant_quota_evicts_only_that_tenant(self):
        cache = ResponseCache(capacity=16)
        cache.store("big", "k1", ["d"], b"1", quota=2)
        cache.store("big", "k2", ["d"], b"2", quota=2)
        cache.store("small", "k1", ["d"], b"s", quota=2)
        cache.store("big", "k3", ["d"], b"3", quota=2)
        assert cache.lookup("big", "k1") is None     # big's own LRU paid
        assert cache.lookup("small", "k1") is not None
        assert len(cache) == 3

    def test_fingerprint_bump_drops_entries(self):
        cache = ResponseCache(capacity=8)
        cache.observe_stats({"fingerprints": {"planted": "gen1"}})
        cache.store("t", "key", ["planted"], b"body")
        assert cache.observe_stats(
            {"fingerprints": {"planted": "gen1"}}) == 0
        assert cache.lookup("t", "key") is not None
        dropped = cache.observe_stats({"fingerprints": {"planted": "gen2"}})
        assert dropped == 1
        assert cache.lookup("t", "key") is None
        assert cache.info()["stale"] == 1

    def test_unknown_fingerprint_drops_on_first_snapshot(self):
        cache = ResponseCache(capacity=8)
        entry = cache.store("t", "key", ["planted"], b"body")
        assert entry.fingerprints == (("planted", FINGERPRINT_UNKNOWN),)
        # when in doubt, recompute: the first snapshot naming the
        # dataset invalidates the blind entry
        assert cache.observe_stats(
            {"fingerprints": {"planted": "gen1"}}) == 1

    def test_lookup_checks_staleness_even_without_observe(self):
        cache = ResponseCache(capacity=8)
        cache.observe_stats({"fingerprints": {"d": "gen1"}})
        cache.store("t", "key", ["d"], b"body")
        # a snapshot that drops no entries directly...
        cache._fingerprints["d"] = "gen2"
        # ...still cannot serve the pinned entry
        assert cache.lookup("t", "key") is None
        assert cache.info()["stale"] == 1

    def test_refresh_due_claims_one_slot_per_window(self):
        clock = FakeClock()
        cache = ResponseCache(capacity=2, refresh_seconds=2.0, clock=clock)
        assert cache.refresh_due()
        assert not cache.refresh_due()   # same window: already claimed
        clock.advance(1.9)
        assert not cache.refresh_due()
        clock.advance(0.2)
        assert cache.refresh_due()

    def test_close_drops_everything_and_refuses_admission(self):
        cache = ResponseCache(capacity=4)
        cache.store("t", "key", ["d"], b"body")
        cache.close()
        assert len(cache) == 0
        cache.store("t", "key2", ["d"], b"body")
        assert len(cache) == 0
        assert cache.lookup("t", "key2") is None
        cache.close()  # idempotent

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResponseCache(capacity=0)


class TestTenantCacheQuotaConfig:
    def test_cache_quota_parses(self):
        registry = TenantRegistry.from_json({"tenants": [
            {"name": "acme", "key": "k1", "cache_quota": 16},
            {"name": "other", "key": "k2"},
        ]})
        by_name = {spec.name: spec for spec in registry.tenants}
        assert by_name["acme"].cache_quota == 16
        assert by_name["other"].cache_quota is None

    @pytest.mark.parametrize("bad", [-1, 1.5, "16", True])
    def test_cache_quota_validation_is_typed(self, bad):
        with pytest.raises(TenantConfigError, match="cache_quota"):
            TenantRegistry.from_json({"tenants": [
                {"name": "acme", "key": "k1", "cache_quota": bad},
            ]})


# ---------------------------------------------------------------------------
# Through the gateway, over a real socket
# ---------------------------------------------------------------------------

def _post(address, path, payload, key=None, headers=()):
    """One raw http.client POST: ``(status, headers, body_bytes)``."""
    host, port = address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("POST", path, body=json.dumps(payload).encode(),
                           headers={"Content-Type": "application/json",
                                    **({"Authorization": f"Bearer {key}"}
                                       if key else {}),
                                    **dict(headers)})
        response = connection.getresponse()
        return (response.status, dict(response.getheaders()),
                response.read())
    finally:
        connection.close()


REQUESTS = [
    SelectionRequest(k=5, l=4),
    SelectionRequest(k=4, l=3),
    SelectionRequest(k=3, l=2, query=SPQuery((Eq("KIND", "beta"),))),
]


@pytest.fixture()
def cached_gateway(fitted_engine):
    gateway = HttpGateway(
        InProcessBackend(fitted_engine), own_backend=True, cache_size=64,
        cache_refresh_seconds=0.0,
    ).start()
    try:
        yield gateway
    finally:
        gateway.close()


class TestGatewayCaching:
    def test_etag_304_roundtrip_over_a_real_socket(self, cached_gateway):
        wire = REQUESTS[0].to_wire()
        status, headers, cold = _post(cached_gateway.address,
                                      "/v1/select", wire)
        assert status == 200 and headers["X-Cache"] == "miss"
        etag = headers["ETag"]
        assert etag == make_etag(cold)

        status, headers, warm = _post(cached_gateway.address,
                                      "/v1/select", wire)
        assert status == 200 and headers["X-Cache"] == "hit"
        assert warm == cold  # bit-identical, not just equivalent
        assert headers["ETag"] == etag

        status, headers, body = _post(cached_gateway.address, "/v1/select",
                                      wire, headers=[("If-None-Match", etag)])
        assert status == 304 and body == b""
        assert headers["ETag"] == etag

        # a non-matching validator still gets the full (cached) body
        status, headers, body = _post(
            cached_gateway.address, "/v1/select", wire,
            headers=[("If-None-Match", '"someone-elses-etag"')],
        )
        assert status == 200 and body == cold

    def test_traced_requests_bypass_lookup_but_populate(self,
                                                        cached_gateway):
        wire = REQUESTS[1].to_wire()
        # Two traced POSTs: both must dispatch live (fresh stage timings
        # every time), never answer from the cache.
        for turn in range(2):
            status, headers, body = _post(
                cached_gateway.address, "/v1/select", wire,
                headers=[("X-Trace-Id", f"trace-{turn}")],
            )
            assert status == 200 and headers["X-Cache"] == "miss"
            reply = json.loads(body)
            assert reply["trace"]["id"] == f"trace-{turn}"
            assert reply["trace"]["stages"]
        # ...but the traced miss stored the stripped twin: an untraced
        # caller now hits, and the entry carries no trace envelope.
        status, headers, body = _post(cached_gateway.address,
                                      "/v1/select", wire)
        assert status == 200 and headers["X-Cache"] == "hit"
        assert "trace" not in json.loads(body)

    def test_cached_responses_bit_identical_to_cold(self, fitted_engine,
                                                    cached_gateway):
        for request in REQUESTS:
            wire = request.to_wire()
            _status, h1, cold = _post(cached_gateway.address,
                                      "/v1/select", wire)
            _status, h2, warm = _post(cached_gateway.address,
                                      "/v1/select", wire)
            assert (h1["X-Cache"], h2["X-Cache"]) == ("miss", "hit")
            assert cold == warm
            # and the payload equals the engine's own answer (volatile
            # timing fields excluded — they are measurements, not content)
            served = json.loads(cold)["response"]
            direct = fitted_engine.select(request).to_wire()
            for volatile in ("timings", "select_seconds", "cache_hit"):
                served.pop(volatile, None)
                direct.pop(volatile, None)
            assert served == direct

    def test_select_many_caches_fully_ok_batches(self, cached_gateway):
        wires = {"requests": [request.to_wire() for request in REQUESTS]}
        _status, h1, cold = _post(cached_gateway.address,
                                  "/v1/select_many", wires)
        _status, h2, warm = _post(cached_gateway.address,
                                  "/v1/select_many", wires)
        assert (h1["X-Cache"], h2["X-Cache"]) == ("miss", "hit")
        assert cold == warm

    def test_error_replies_are_never_cached(self, cached_gateway):
        degenerate = SelectionRequest(
            k=5, l=4, query=SPQuery((Eq("KIND", "no-such-value"),)),
        ).to_wire()
        for _ in range(2):
            status, headers, _body = _post(cached_gateway.address,
                                           "/v1/select", degenerate)
            assert status == 400
            assert "X-Cache" not in headers and "ETag" not in headers
        assert cached_gateway.app.metrics \
            .counter("cache.stores").value == 0

    def test_tenant_isolation_through_the_gateway(self, fitted_engine):
        registry = TenantRegistry([
            TenantSpec(name="alice", key="alice-key"),
            TenantSpec(name="bob", key="bob-key"),
            TenantSpec(name="nocache", key="nocache-key", cache_quota=0),
        ])
        gateway = HttpGateway(
            InProcessBackend(fitted_engine), own_backend=True,
            tenants=registry, cache_size=64, cache_refresh_seconds=0.0,
        ).start()
        try:
            wire = REQUESTS[0].to_wire()
            _s, h1, _b = _post(gateway.address, "/v1/select", wire,
                               key="alice-key")
            assert h1["X-Cache"] == "miss"
            # bob's identical request must NOT see alice's entry
            _s, h2, _b = _post(gateway.address, "/v1/select", wire,
                               key="bob-key")
            assert h2["X-Cache"] == "miss"
            _s, h3, _b = _post(gateway.address, "/v1/select", wire,
                               key="bob-key")
            assert h3["X-Cache"] == "hit"
            # a cache_quota=0 tenant bypasses the cache entirely
            for _ in range(2):
                _s, h4, _b = _post(gateway.address, "/v1/select", wire,
                                   key="nocache-key")
                assert "X-Cache" not in h4
        finally:
            gateway.close()

    def test_concurrent_hammering_is_consistent(self, cached_gateway):
        wires = [request.to_wire() for request in REQUESTS]
        bodies: dict = {index: set() for index in range(len(wires))}
        errors: list = []

        def hammer() -> None:
            try:
                for _ in range(5):
                    for index, wire in enumerate(wires):
                        status, _headers, body = _post(
                            cached_gateway.address, "/v1/select", wire)
                        assert status == 200
                        bodies[index].add(body)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # every client saw exactly one byte-representation per request
        assert all(len(seen) == 1 for seen in bodies.values())
        metrics = cached_gateway.app.metrics
        hits = metrics.counter("cache.hits").value
        misses = metrics.counter("cache.misses").value
        assert hits + misses == 6 * 5 * len(wires)
        assert misses >= len(wires)  # at least one cold pass
        assert len(cached_gateway.app.cache) == len(wires)


# ---------------------------------------------------------------------------
# Generation-based invalidation against a live store
# ---------------------------------------------------------------------------

def _nc_engine(n: int, seed: int) -> Engine:
    return Engine("nc", SubTabConfig(k=5, l=4, n_bins=4, seed=seed)) \
        .fit(build_planted_frame(n=n, seed=seed))


class TestFingerprintInvalidation:
    def test_store_version_bump_invalidates_through_http(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.save("planted", _nc_engine(200, 0))
        backend = InProcessBackend.from_store(store)
        gateway = HttpGateway(backend, own_backend=True, cache_size=64,
                              cache_refresh_seconds=0.0).start()
        client = HttpBackend(gateway.address)
        try:
            request = SelectionRequest(k=5, l=4, dataset="planted")
            v1 = client.select(request)
            assert client.select(request).to_wire() == v1.to_wire()
            assert gateway.app.metrics.counter("cache.hits").value >= 1

            # generation bump: new rows, new fingerprint, same name
            store.save("planted", _nc_engine(300, 7))
            backend.host.evict()   # pair the bump with an engine reload

            v2 = client.select(request)
            assert gateway.app.metrics.counter("cache.stale").value >= 1
            assert v2.to_wire() != v1.to_wire()
            # the recomputed answer is itself cacheable again
            assert client.select(request).to_wire() == v2.to_wire()
        finally:
            client.close()
            gateway.close()

    def test_stats_route_also_teaches_the_cache(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.save("planted", _nc_engine(200, 0))
        backend = InProcessBackend.from_store(store)
        # refresh window effectively infinite: only /v1/stats can teach
        gateway = HttpGateway(backend, own_backend=True, cache_size=64,
                              cache_refresh_seconds=3600.0).start()
        client = HttpBackend(gateway.address)
        try:
            request = SelectionRequest(k=5, l=4, dataset="planted")
            client.select(request)
            store.save("planted", _nc_engine(300, 7))
            backend.host.evict()
            client.stats()  # proxied /v1/stats carries the new fingerprint
            assert gateway.app.metrics.counter("cache.stale").value >= 1
            assert len(gateway.app.cache) == 0
        finally:
            client.close()
            gateway.close()

    def test_version_bump_invalidates_through_a_ring(self, tmp_path):
        # The fingerprints live in the members' stats: the ring must nest
        # them, or the gateway never learns the new generation.
        store = ArtifactStore(tmp_path / "store")
        store.save("planted", _nc_engine(200, 0))
        a = InProcessBackend.from_store(store)
        b = InProcessBackend.from_store(store)
        ring = ClusterRouter([("a", a), ("b", b)], replication=1)
        gateway = HttpGateway(ring, own_backend=True, cache_size=64,
                              cache_refresh_seconds=0.0).start()
        client = HttpBackend(gateway.address)

        def content(response):
            return (response.subtable.row_indices, response.subtable.columns)

        try:
            request = SelectionRequest(k=5, l=4, dataset="planted")
            v1 = client.select(request)
            assert client.select(request).to_wire() == v1.to_wire()
            assert gateway.app.metrics.counter("cache.hits").value >= 1

            store.save("planted", _nc_engine(300, 7))
            a.host.evict()
            b.host.evict()

            v2 = client.select(request)
            assert gateway.app.metrics.counter("cache.stale").value >= 1
            assert content(v2) == content(a.select(request))
            assert content(v2) != content(v1)
        finally:
            client.close()
            gateway.close()


# ---------------------------------------------------------------------------
# HttpBackend client-side revalidation
# ---------------------------------------------------------------------------

class TestClientRevalidation:
    def test_304_is_replayed_locally(self, cached_gateway):
        client = HttpBackend(cached_gateway.address)
        try:
            request = REQUESTS[0]
            first = client.select(request)
            second = client.select(request)
            assert client.metrics.counter("http.not_modified").value == 1
            assert first.to_wire() == second.to_wire()
            assert cached_gateway.app.metrics \
                .counter("cache.revalidations").value == 1
        finally:
            client.close()

    def test_revalidation_can_be_disabled(self, cached_gateway):
        client = HttpBackend(cached_gateway.address, etag_cache_size=0)
        try:
            request = REQUESTS[0]
            client.select(request)
            client.select(request)
            assert client.metrics.counter("http.not_modified").value == 0
        finally:
            client.close()

    def test_stats_surfaces_gateway_section(self, cached_gateway):
        client = HttpBackend(cached_gateway.address)
        try:
            client.select(REQUESTS[0])
            stats = client.stats()
            gateway_section = stats["server"]["gateway"]
            assert gateway_section is not None
            assert gateway_section["admission"]["max_inflight"] >= 1
            assert gateway_section["cache"]["entries"] == 1
            assert gateway_section["cache"]["capacity"] == 64
            # the nested server envelope is still there, unchanged
            assert stats["server"]["backend"] == "inproc"
        finally:
            client.close()
