"""Observability substrate: metrics primitives + request tracing.

``repro.obs`` is dependency-free (stdlib only) by design: it is imported
by every backend in :mod:`repro.serve`, by the wire dispatcher, and by
the load harness in :mod:`repro.loadgen`, and must never constrain where
those run.

* :class:`MetricsRegistry` / :class:`Counter` / :class:`Histogram` —
  JSON-portable metrics; every ``ExecutionBackend.stats()`` carries a
  registry snapshot under the ``"metrics"`` key.
* :func:`next_trace_id` + the ``"trace"`` frame field — per-request
  stage timings (client queue → transport → dispatcher → engine select)
  that survive socket, asyncio, HTTP, and cluster hops.
"""

from repro.obs.metrics import (
    BUCKETS_PER_DECADE,
    Counter,
    Histogram,
    MetricsRegistry,
    bucket_index,
    bucket_upper_bound,
)
from repro.obs.trace import (
    CLIENT_STAGES,
    SERVER_STAGES,
    TRACE_KEY,
    make_stage,
    next_trace_id,
    propagate_trace_id,
    resolve_trace_id,
    stage_seconds,
)

__all__ = [
    "BUCKETS_PER_DECADE",
    "CLIENT_STAGES",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "SERVER_STAGES",
    "TRACE_KEY",
    "bucket_index",
    "bucket_upper_bound",
    "make_stage",
    "next_trace_id",
    "propagate_trace_id",
    "resolve_trace_id",
    "stage_seconds",
]
