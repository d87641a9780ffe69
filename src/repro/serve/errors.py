"""Error taxonomy of the serving stack.

Every serving failure is one of two kinds, and the distinction is what the
:class:`~repro.serve.cluster.ClusterRouter`'s failover policy keys on:

* :class:`BackendError` — the *backend* (or one cluster member) is unusable:
  a closed backend, a socket that refused or dropped the connection, a
  server that reported an internal fault.  Retrying the same request on a
  **replica** can succeed, so the cluster router fails over.
* :class:`RequestError` — the *request* itself failed (unknown target
  column, degenerate query state, ...).  It would fail identically on every
  replica, so it is surfaced to the caller immediately and never retried.

The concrete subclasses live here — one flat module with no serving
imports — so :mod:`repro.serve.backend`, :mod:`repro.serve.transport`,
:mod:`repro.serve.aio`, and :mod:`repro.serve.cluster` can all share the
taxonomy without import cycles.
"""

from __future__ import annotations


class BackendError(RuntimeError):
    """A serving backend is unusable; a replica may still serve the request."""


class RequestError(RuntimeError):
    """A request failed on its own terms; every replica would refuse it."""


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------

class TransportError(BackendError):
    """The socket transport failed (connect, framing, or a dropped peer)."""


class PipelineCancelled(TransportError):
    """The pipelined client was closed with frames still in flight.

    Raised by every in-flight future of an
    :class:`~repro.serve.aio.AsyncRemoteBackend` whose ``close()`` ran
    before the server replied.  A :class:`TransportError` (and therefore a
    :class:`BackendError`), but deliberately distinct: cancellation is the
    *caller's* doing, so the client never auto-retries it the way it
    retries a stale connection.
    """


class RemoteServerError(BackendError):
    """The remote server reported a backend-level fault of its own."""


class RemoteRequestError(RequestError):
    """The remote server rejected the request; carries the server-side text."""


# ---------------------------------------------------------------------------
# Cluster
# ---------------------------------------------------------------------------

class ClusterError(BackendError):
    """No replica of a cluster could serve (every member failed over)."""
