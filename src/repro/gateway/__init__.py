"""HTTP/JSON gateway: the stack's front door for standard tooling.

Every other serving topology speaks the custom length-prefixed socket
framing; this package puts an HTTP/1.1 face on **any**
:class:`~repro.serve.backend.ExecutionBackend` (engine, workspace,
cluster — topologies nest unchanged behind it):

* :mod:`repro.gateway.http` — dependency-free HTTP/1.1 reading and
  writing (parsing with hard caps, keep-alive, chunked streaming);
* :mod:`repro.gateway.tenants` — API-key tenancy, per-tenant token
  buckets, and the global concurrency-cap admission controller;
* :mod:`repro.gateway.app` — routes, taxonomy → status mapping, tenant
  metrics, and ``X-Trace-Id`` propagation into the wire-envelope trace,
  served by :class:`HttpGateway` on the asyncio server core of
  :mod:`repro.serve.aio`;
* :mod:`repro.gateway.cache` — the fingerprint-keyed response cache
  (strong ``ETag`` revalidation, per-tenant isolation, generation-based
  invalidation learned from backend ``stats()``);
* :mod:`repro.gateway.client` — :class:`HttpBackend`, the gateway as an
  ``ExecutionBackend`` for the loadgen harness and the benches.
"""

from repro.gateway.app import (
    ANONYMOUS,
    GatewayApp,
    HttpGateway,
    session_steps,
)
from repro.gateway.client import HttpBackend
from repro.gateway.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    MAX_REQUEST_LINE_BYTES,
    HttpError,
    HttpRequest,
    HttpResponse,
    StreamingResponse,
    read_request,
)
from repro.gateway.cache import (
    CacheEntry,
    ResponseCache,
    canonical_request_text,
    etag_matches,
    extract_fingerprints,
    make_etag,
    request_key,
)
from repro.gateway.tenants import (
    AdmissionController,
    AdmissionRejected,
    GatewayAuthError,
    TenantConfigError,
    TenantForbiddenError,
    TenantRegistry,
    TenantSpec,
    TokenBucket,
)

__all__ = [
    "ANONYMOUS",
    "AdmissionController",
    "AdmissionRejected",
    "CacheEntry",
    "GatewayApp",
    "GatewayAuthError",
    "HttpBackend",
    "HttpError",
    "HttpGateway",
    "HttpRequest",
    "HttpResponse",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "MAX_REQUEST_LINE_BYTES",
    "ResponseCache",
    "StreamingResponse",
    "TenantConfigError",
    "TenantForbiddenError",
    "TenantRegistry",
    "TenantSpec",
    "TokenBucket",
    "canonical_request_text",
    "etag_matches",
    "extract_fingerprints",
    "make_etag",
    "read_request",
    "request_key",
    "session_steps",
]
