"""HTTP gateway smoke: stdlib ``urllib`` against the full serving stack.

The deepest topology any smoke exercises: two **store-backed asyncio
servers** are spawned as subprocesses, an in-process ``ClusterRouter``
(replication=2, traced pipelined members) routes over them, and an
``HttpGateway`` with a real tenant registry fronts the cluster.  The
driver is deliberately *not* our own ``HttpBackend`` but plain
``urllib.request`` — the claim under test is that any stock HTTP client
gets correct answers, so the smoke must not share client code with the
gateway.

The gateway runs with its response cache **on** (``cache_size=64``), so
the smoke also proves the cache never changes an answer: repeats served
from entry bytes must be byte-identical to cold replies, and the
dispatcher must see exactly the cache misses — never a shed or cached
request.

Five gates:

1. **bit-identical** — every generated session request served through
   ``urllib -> gateway -> cluster -> asyncio store server`` matches the
   in-process engine byte for byte (volatile timing fields excluded),
   via the same diff harness as the socket smokes — whether the reply
   came from the backend (``X-Cache: miss``) or the cache (``hit``);
2. **traced hop** — an ``X-Trace-Id`` header on the request comes back
   as the reply envelope's trace id, with gateway, backend, *and*
   nested ``transport`` stage timings (the id crossed process and
   protocol boundaries; traced requests bypass the cache lookup, so the
   timings are always live);
3. **429 under a burst** — a tenant with a two-deep token bucket gets
   exactly its burst admitted and the rest shed with 429 +
   ``Retry-After``, before any of the shed requests reach the backend;
4. **304 revalidation** — a conditional request with the ``ETag`` a
   cold reply returned comes back ``304 Not Modified`` with an empty
   body, without touching the backend;
5. **generation bump through the ring** — a second generation saved
   under the same name into the shared store reaches the gateway
   through the ring's nested member stats: after one ``GET /v1/stats``
   teaches the cache, the next shows ``gateway.cache.stale`` >= 1.
   Only the drop is checked: the spawned store servers keep the old
   engine resident (nothing evicts it over the wire), so a miss after
   the bump is still computed on the old generation.

Runs in CI and locally: ``python scripts/ci/http_smoke.py``.
"""

import dataclasses
import json
import shutil
import tempfile
import urllib.request
from pathlib import Path

from smoke_common import VOLATILE_FIELDS, diff_responses, ensure_artifact, \
    http_post, session_requests

DATASET = "cyber"


def _stats(base: str, key: str) -> dict:
    """The ``stats`` document of one authenticated ``GET /v1/stats``."""
    request = urllib.request.Request(
        f"{base}/v1/stats", headers={"Authorization": f"Bearer {key}"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read().decode("utf-8"))["stats"]


def main() -> int:
    artifact = ensure_artifact()

    from repro.api import ArtifactStore, Engine, SelectionResponse
    from repro.datasets import make_dataset
    from repro.gateway import HttpGateway, TenantRegistry, TenantSpec
    from repro.serve import ClusterRouter
    from repro.serve.transport import spawn_store_server

    engine = Engine.load(artifact)
    requests = [dataclasses.replace(request, dataset=DATASET)
                for request in session_requests(engine)]

    root = Path(tempfile.mkdtemp(prefix="repro-http-smoke-store-"))
    servers, members, gateway = [], [], None
    try:
        ArtifactStore(root).save(DATASET, engine)
        for _ in range(2):
            servers.append(spawn_store_server(root, capacity=2,
                                              transport="asyncio"))
        members = [(f"member-{index}",
                    server.connect_pipelined(trace=True))
                   for index, server in enumerate(servers)]
        registry = TenantRegistry([
            TenantSpec(name="smoke", key="smoke-key"),
            TenantSpec(name="bursty", key="bursty-key",
                       rate=0.001, burst=2),
        ])
        gateway = HttpGateway(
            ClusterRouter(members, replication=2, own_members=True),
            tenants=registry, own_backend=True, cache_size=64,
        ).start()
        host, port = gateway.address
        base = f"http://{host}:{port}"

        # -- gate 1: bit-identical through the whole stack ----------------
        served, cache_hits = [], 0
        for request in requests:
            status, headers, body = http_post(base, "/v1/select",
                                              request.to_wire(), "smoke-key")
            cache_hits += headers.get("X-Cache") == "hit"
            if status == 200 and body.get("ok"):
                served.append(SelectionResponse.from_wire(body["response"]))
            else:
                # Degenerate generated state: the diff harness checks the
                # in-process engine rejected it too.
                assert status == 400 and body.get("kind") == "request", (
                    f"http smoke: unexpected reply {status}: {body}"
                )
                served.append(body)
        checked = diff_responses(engine, requests, served, "http smoke")

        # -- gate 2: the trace id survives gateway -> cluster -> server ---
        probe = next(request for request, response
                     in zip(requests, served)
                     if isinstance(response, SelectionResponse))
        status, _headers, body = http_post(base, "/v1/select",
                                           probe.to_wire(), "smoke-key",
                                           trace_id="smoke-trace-1")
        assert status == 200, f"traced request failed: {body}"
        trace = body.get("trace")
        assert trace and trace["id"] == "smoke-trace-1", (
            f"trace id did not round-trip: {trace}"
        )
        stages = {stage["stage"] for stage in trace["stages"]}
        assert {"gateway", "backend", "transport"} <= stages, (
            f"trace stages incomplete across the nested hops: "
            f"{sorted(stages)}"
        )

        # -- gate 3: the burst tenant is shed with 429 + Retry-After ------
        replies = [http_post(base, "/v1/select", probe.to_wire(),
                             "bursty-key")
                   for _ in range(5)]
        statuses = [status for status, _headers, _body in replies]
        assert statuses.count(200) == 2 and statuses.count(429) == 3, (
            f"burst=2 tenant should see 2 admits then 429s, got {statuses}"
        )
        for status, headers, body in replies:
            if status == 429:
                assert float(headers["Retry-After"]) >= 1, (
                    f"429 without a usable Retry-After: {headers}"
                )
                assert body.get("kind") == "admission", (
                    f"shed reply must carry the admission kind: {body}"
                )
        # -- gate 4: conditional request revalidates with 304 -------------
        status, headers, _body = http_post(base, "/v1/select",
                                           probe.to_wire(), "smoke-key")
        assert status == 200 and headers.get("X-Cache") == "hit", (
            f"probe should be cached by now: {status} {headers}"
        )
        etag = headers["ETag"]
        status, headers, body = http_post(base, "/v1/select",
                                          probe.to_wire(), "smoke-key",
                                          etag=etag)
        assert status == 304 and body is None, (
            f"conditional request should 304 with an empty body, got "
            f"{status}: {body}"
        )
        assert headers.get("ETag") == etag, (
            f"304 must echo the entry's ETag: {headers}"
        )

        # Shed and cached requests never reached the backend: the
        # dispatcher saw gate 1's misses, the traced probe (tracing
        # bypasses the lookup), and the burst tenant's one miss — its
        # second admit hit its own cache namespace, and gates 1/4 served
        # every repeat from entry bytes.
        dispatched = gateway.app.dispatcher.metrics \
            .counter("ops.select").value
        expected_dispatched = (len(requests) - cache_hits) + 1 + 1
        assert dispatched == expected_dispatched, (
            f"dispatcher served {dispatched} selects, expected "
            f"{expected_dispatched} — a shed or cached request reached "
            f"the backend"
        )
        cache_misses = gateway.app.metrics.counter("cache.misses").value
        assert dispatched == cache_misses + 1, (
            f"every dispatch but the traced probe must be a cache miss: "
            f"{dispatched} dispatched vs {cache_misses} misses"
        )

        # -- gate 5: a generation bump reaches the gateway via the ring ---
        ArtifactStore(root).save(DATASET, Engine(config=engine.config).fit(
            make_dataset(DATASET, n_rows=150, seed=2).frame
        ))
        _stats(base, "smoke-key")  # teaches the cache the new generation
        stale = _stats(base, "smoke-key")["gateway"]["cache"]["stale"]
        assert stale >= 1, (
            f"a saved generation must drop the cached replies of the old "
            f"one: gateway.cache.stale is {stale}"
        )
    finally:
        if gateway is not None:
            gateway.close()   # own_backend: closes cluster + members too
        elif members:
            for _name, member in members:
                member.close()
        for server in servers:
            server.close()
        shutil.rmtree(root, ignore_errors=True)

    print(f"http smoke: {checked} urllib responses bit-identical through "
          f"gateway -> cluster -> 2 asyncio store servers "
          f"({cache_hits} served from the response cache); trace "
          f"smoke-trace-1 crossed {len(stages)} stages; burst tenant shed "
          f"{statuses.count(429)}/5 with Retry-After; conditional request "
          f"revalidated with 304; a generation bump dropped {stale} cached "
          f"replies "
          f"(volatile fields excluded: {', '.join(VOLATILE_FIELDS)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
