"""ClusterRouter: a consistent-hash ring of member backends.

The multi-host leg of the serving stack.  A :class:`ClusterRouter` owns N
member :class:`~repro.serve.backend.ExecutionBackend`\\ s — remote socket
servers, bare engines, or nested clusters — and routes every
request by a **consistent-hash ring** keyed on ``(dataset,
request-hash)``:

* each member contributes :data:`DEFAULT_VNODES` virtual points to the
  ring (hashed from its *name*, so the placement is stable across
  processes and restarts — the same request always lands on the same
  member, which is what keeps the members' selection LRUs sharded and
  warm);
* a request's key is a stable content hash of its wire form, prefixed by
  its dataset, so affinity follows content, not arrival order;
* the first ``replication`` *distinct* members clockwise from the key
  are its replica set;
* one of four named replica policies picks which live replica **serves
  the read** — ``"primary"`` always reads from the first replica in ring
  order (maximally warm LRUs, replicas are pure failover standbys),
  ``"round_robin"`` rotates reads across the replica set (every replica
  earns its keep under load), ``"hash"`` routes each request to the
  replica its content hash names (every replica earns its keep *and*
  each request's cache entry lives on exactly one replica),
  ``"least_inflight"`` reads from the replica with the fewest requests
  currently in flight (routes around slow members before they fail) —
  driven by the per-member traffic counters the router keeps anyway;
* whichever replica the policy picks first, a member that raises a
  :class:`~repro.serve.errors.BackendError` (dead socket, closed
  backend, exhausted nested cluster) is marked suspect and the request
  **fails over** to the next replica in the policy's order.
  Request-level errors (unknown target, degenerate query) never fail
  over — they would fail identically everywhere.

The router is itself an :class:`ExecutionBackend`, so topologies nest: a
cluster whose members are remote clusters, a socket server fronting a
ring of local member processes (``serve --connect``), ...
``select_many`` drains each member's share concurrently (one thread per
member group), which is where multi-host aggregate QPS comes from.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.api.cache import stable_hash64
from repro.api.request import SelectionRequest, SelectionResponse
from repro.serve.backend import BaseBackend
from repro.serve.errors import BackendError, ClusterError, RequestError

#: Virtual points per member on the ring.
DEFAULT_VNODES = 64


def request_key(request: SelectionRequest) -> bytes:
    """The ``(dataset, request-content)`` ring key of one request.

    The key is the full wire form (stable across processes — never
    ``hash()``, which is salted per interpreter) prefixed by the dataset;
    the ring hashes it with one :func:`stable_hash64` pass.
    """
    return f"{request.dataset or ''}\x1f{request.to_json()}".encode("utf-8")


@dataclass
class _Member:
    """One cluster member plus its routing accounting."""

    name: str
    backend: Any
    routed: int = 0
    served: int = 0
    errors: int = 0
    inflight: int = 0
    dead: bool = False
    last_error: Optional[str] = None


# ---------------------------------------------------------------------------
# Replica policies (who serves the read)
# ---------------------------------------------------------------------------

class ReplicaPolicy:
    """Orders a request's replica set: the first member serves the read,
    the rest are its failover chain (quarantined members are always
    deprioritized afterwards by the router, whatever the policy says).

    Policies are consulted per request and may keep state (the round-robin
    cursor); they must be thread-safe, because ``select_many`` batches are
    grouped — and concurrent callers route — from multiple threads.
    """

    name = "policy"

    def order(self, point: int, indices: Sequence[int],
              members: Sequence[_Member]) -> list:
        """A permutation of ``indices`` (ring order in, serve order out).
        ``point`` is the request's ring point; content-affine policies
        (``hash``) key on it."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PrimaryPolicy(ReplicaPolicy):
    """Always read from the first replica in ring order — the pre-policy
    behavior: maximal LRU affinity, replicas are failover-only standbys."""

    name = "primary"

    def order(self, point, indices, members):
        return list(indices)


class RoundRobinPolicy(ReplicaPolicy):
    """Rotate reads across the replica set.

    One cursor *per replica set* (not one global cursor: a global cursor
    aliases with periodic workloads — two alternating requests whose ring
    orders also alternate would land every read on one member).  Each set
    rotates through its own replicas, so repeats of the same request
    spread evenly, at the cost of spreading that request's cache entry
    across its replicas.
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cursors: dict = {}

    def order(self, point, indices, members):
        indices = list(indices)
        key = tuple(indices)
        with self._lock:
            turn = self._cursors.get(key, 0)
            self._cursors[key] = turn + 1
        turn %= len(indices)
        return indices[turn:] + indices[:turn]


class HashPolicy(ReplicaPolicy):
    """Cache-affinity reads: the request's own ring point picks which
    replica serves it.

    ``round_robin`` spreads load but duplicates every cache entry across
    the replica set — each replica takes cold misses for the whole key
    space, which is why it *loses* to ``primary`` on cache-bound
    workloads (182.5 vs 302.2 QPS in ``BENCH_async_qps.json``).  Hashing
    *within* the replica set keeps the spread while sharding the key
    space: the same request always reads from the same replica (warm
    LRU), different requests split ~evenly across replicas (the ring
    point is uniform), and failover order is the rotation that starts at
    the owner, so a dead owner's shard falls to its successor.
    """

    name = "hash"

    def order(self, point, indices, members):
        indices = list(indices)
        turn = point % len(indices)
        return indices[turn:] + indices[:turn]


class LeastInflightPolicy(ReplicaPolicy):
    """Read from the replica with the fewest requests in flight.

    Uses the router's live per-member inflight gauges, so a slow or
    saturated member sheds read traffic to its idle replicas *before* it
    degrades into a failover.  Ties keep ring order, preserving cache
    affinity when the ring is evenly loaded.
    """

    name = "least_inflight"

    def order(self, point, indices, members):
        ranked = sorted(
            range(len(indices)),
            key=lambda position: (members[indices[position]].inflight,
                                  position),
        )
        return [indices[position] for position in ranked]


_REPLICA_POLICIES = {
    PrimaryPolicy.name: PrimaryPolicy,
    RoundRobinPolicy.name: RoundRobinPolicy,
    HashPolicy.name: HashPolicy,
    LeastInflightPolicy.name: LeastInflightPolicy,
}


def replica_policy_names() -> list:
    """Registered policy names, sorted (the CLI listing is deterministic)."""
    return sorted(_REPLICA_POLICIES)


def make_replica_policy(policy: str) -> ReplicaPolicy:
    """A fresh policy of one of the :func:`replica_policy_names`."""
    try:
        return _REPLICA_POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown replica policy {policy!r} "
            f"(choose from {replica_policy_names()})"
        ) from None


class ClusterRouter(BaseBackend):
    """Consistent-hash routing (with replication and failover) over member
    backends.

    >>> router = ClusterRouter([("a", backend_a), ("b", backend_b)],
    ...                        replication=2)                # doctest: +SKIP
    >>> router.select_many(requests)                         # doctest: +SKIP

    Parameters
    ----------
    members:
        The member backends, as ``(name, backend)`` pairs or bare backends
        (then named ``member-0``, ``member-1``, ... in order).  Names place
        the vnodes, so keep them stable across restarts.
    replication:
        Replica-set size per request (clamped to the member count).
        ``1`` disables failover.
    replica_policy:
        Which live replica serves each read: ``"primary"`` (default —
        ring order, replicas are failover-only), ``"round_robin"``,
        ``"hash"`` (cache-affine load spread) or ``"least_inflight"``.
        Failover-on-:class:`BackendError` semantics are identical under
        every policy; only the first replica *tried* changes.
    own_members:
        Close the members when the router closes.
    """

    kind = "cluster"

    def __init__(
        self,
        members: Sequence,
        replication: int = 2,
        replica_policy: str = "primary",
        own_members: bool = True,
    ):
        super().__init__()
        if not members:
            raise ValueError("a cluster needs at least one member")
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self._members: list[_Member] = []
        for index, entry in enumerate(members):
            if isinstance(entry, tuple):
                name, backend = entry
            else:
                name, backend = f"member-{index}", entry
            self._members.append(_Member(str(name), backend))
        names = [member.name for member in self._members]
        if len(set(names)) != len(names):
            raise ValueError(f"member names must be unique, got {names}")
        self.replication = replication
        self._set_size = min(replication, len(self._members))
        self.replica_policy = make_replica_policy(replica_policy)
        self._own_members = own_members
        #: Trace of the most recently served ``select`` — delegated from
        #: the member that answered, so a front door (the HTTP gateway)
        #: merging nested client stages sees ``transport`` /
        #: ``client_queue`` timings through the router exactly as it
        #: would fronting the member directly.  Last-write-wins under
        #: concurrency, like every tracing client's ``last_trace``;
        #: consumers match on the trace id.
        self.last_trace: Optional[dict] = None
        self._failovers = 0
        self._dataset_traffic: Counter = Counter()
        # Guards the failure bookkeeping (_mark_failed / _failovers), which
        # member drain threads update concurrently.
        self._suspect_lock = threading.Lock()
        ring = []
        for index, member in enumerate(self._members):
            for vnode in range(DEFAULT_VNODES):
                point = stable_hash64(f"{member.name}#{vnode}".encode("utf-8"))
                ring.append((point, index))
        ring.sort()
        self._ring_points = [point for point, _ in ring]
        self._ring_members = [index for _, index in ring]

    # -- ring ----------------------------------------------------------------
    @property
    def member_names(self) -> list[str]:
        return [member.name for member in self._members]

    def replicas_for(self, request: SelectionRequest) -> list[str]:
        """Member names of the request's replica set, ring order (the first
        is the primary while every member is live)."""
        return [self._members[i].name for i in self._replica_indices(request)]

    def _replica_indices(
        self, request: SelectionRequest, point: Optional[int] = None,
    ) -> list[int]:
        if point is None:
            point = stable_hash64(request_key(request))
        start = bisect.bisect(self._ring_points, point)
        chosen: list[int] = []
        n = len(self._ring_points)
        for step in range(n):
            index = self._ring_members[(start + step) % n]
            if index not in chosen:
                chosen.append(index)
                if len(chosen) == self._set_size:
                    break
        return chosen

    def _attempt_order(self, indices: Sequence[int],
                       point: int) -> list[int]:
        """The serve order of a replica set, for a request at ring
        ``point``: the replica policy picks who reads, then live replicas
        come before suspects (a recovered member gets another chance only
        once every live replica has failed too)."""
        ordered = self.replica_policy.order(point, indices, self._members)
        live = [i for i in ordered if not self._members[i].dead]
        dead = [i for i in ordered if self._members[i].dead]
        return live + dead

    def _count_traffic(self, requests: Sequence[SelectionRequest]) -> None:
        """Per-dataset traffic counters (``None`` = the unnamed dataset).

        This is the observability feed for capacity planning: a hot
        dataset shows up here long before its members saturate, so an
        operator sees which dataset needs more members or replicas.
        """
        with self._suspect_lock:
            self._dataset_traffic.update(
                request.dataset for request in requests
            )

    def _begin_inflight(self, index: int, count: int = 1) -> None:
        with self._suspect_lock:
            self._members[index].inflight += count

    def _end_inflight(self, index: int, count: int = 1) -> None:
        with self._suspect_lock:
            self._members[index].inflight -= count

    def _mark_failed(self, index: int, error: BaseException) -> None:
        with self._suspect_lock:
            member = self._members[index]
            member.dead = True
            member.errors += 1
            member.last_error = f"{type(error).__name__}: {error}"

    def revive(self) -> None:
        """Forget suspicions; every member routes again (e.g. after an
        operator restarted a host)."""
        with self._suspect_lock:
            for member in self._members:
                member.dead = False

    # -- serving -------------------------------------------------------------
    def _serve_with_failover(self, request: SelectionRequest,
                             prior_failure: bool = False,
                             skip_dead: bool = False,
                             point: Optional[int] = None):
        """One response, trying each replica in order.  Returns the
        response; raises request-level errors as-is and
        :class:`ClusterError` when every replica fails at the member
        level.  ``prior_failure`` marks a request whose first attempt
        already failed elsewhere (a batch drain), so a success here counts
        as a failover even when the first replica tried serves.
        ``skip_dead`` drops quarantined replicas instead of trying them
        last — the batch failover pass uses it so a dead member's connect
        latency is paid once per batch, not once per request."""
        if point is None:
            point = stable_hash64(request_key(request))
        indices = self._replica_indices(request, point)
        order = self._attempt_order(indices, point)
        if skip_dead:
            order = [i for i in order if not self._members[i].dead]
            if not order:
                raise ClusterError(
                    f"all {len(indices)} replica(s) of this request are "
                    "marked dead (revive() readmits them)"
                )
        attempts = []
        for index in order:
            member = self._members[index]
            with self._suspect_lock:
                member.routed += 1
                member.inflight += 1
            try:
                response = member.backend.select(request)
            except BackendError as error:
                self._mark_failed(index, error)
                attempts.append(f"{member.name}: {member.last_error}")
                continue
            finally:
                self._end_inflight(index)
            with self._suspect_lock:
                member.dead = False  # served fine: clear any stale suspicion
                member.served += 1
                if attempts or prior_failure:
                    # This request was actually re-served after a member
                    # failure — that, and only that, is a failover.
                    self._failovers += 1
            self.last_trace = getattr(member.backend, "last_trace", None)
            return response
        raise ClusterError(
            f"all {len(indices)} replica(s) failed for this request: "
            + "; ".join(attempts)
        )

    def select(self, request: SelectionRequest) -> SelectionResponse:
        self._require_open()
        self._count_traffic([request])
        start = time.perf_counter()
        try:
            response = self._serve_with_failover(request)
        except Exception as error:
            self._account([error], time.perf_counter() - start)
            raise
        self._account([response], time.perf_counter() - start)
        return response

    def _drain_group(self, index: int, numbered: list) -> list:
        """Serve one member's share.  Returns ``(position, entry)`` pairs;
        member-level failures are left as :class:`BackendError` entries for
        the caller to fail over *after* every drain thread has joined — a
        drain thread must never call another member's backend, whose own
        thread may be mid-conversation on the same socket.

        Member failure shows up two ways: the whole ``select_many`` call
        raises :class:`BackendError`, or — when the member is itself a
        router serving with ``raise_on_error=False`` — individual entries
        *are* ``BackendError`` instances.
        """
        member = self._members[index]
        requests = [request for _, request in numbered]
        with self._suspect_lock:
            member.routed += len(requests)
            member.inflight += len(requests)
        try:
            entries = member.backend.select_many(requests, raise_on_error=False)
        except BackendError as error:
            self._mark_failed(index, error)
            entries = [error] * len(requests)
        else:
            backend_errors = [e for e in entries
                              if isinstance(e, BackendError)]
            served = sum(
                1 for e in entries if isinstance(e, SelectionResponse)
            )
            if backend_errors:
                # A nested router reports member-level failure as entries
                # rather than raising; that still means this member could
                # not serve — suspect it, don't bless it.
                self._mark_failed(index, backend_errors[0])
                with self._suspect_lock:
                    member.served += served
            else:
                with self._suspect_lock:
                    member.dead = False
                    member.served += served
        finally:
            self._end_inflight(index, len(requests))
        return [(position, entry)
                for (position, _), entry in zip(numbered, entries)]

    def select_many(
        self,
        requests: Sequence[SelectionRequest],
        raise_on_error: bool = True,
    ) -> list:
        self._require_open()
        self._count_traffic(requests)
        start = time.perf_counter()
        # One serialization + hash per request, reused by the failover pass.
        points = [stable_hash64(request_key(request)) for request in requests]
        groups: dict[int, list] = {}
        # Planned assignments count as provisional in-flight load while the
        # batch is being grouped — otherwise a load-aware policy (least
        # inflight) would see every gauge at its pre-batch value and route
        # the whole batch as if it were the first request.
        planned: dict[int, int] = {}
        for position, request in enumerate(requests):
            indices = self._attempt_order(
                self._replica_indices(request, points[position]),
                points[position],
            )
            target = indices[0]
            groups.setdefault(target, []).append((position, request))
            planned[target] = planned.get(target, 0) + 1
            self._begin_inflight(target)
        for target, count in planned.items():
            self._end_inflight(target, count)  # the drains re-account it
        entries: list = [None] * len(requests)
        if len(groups) <= 1:
            drained = [self._drain_group(index, numbered)
                       for index, numbered in groups.items()]
        else:
            # One thread per member group: members are separate processes
            # (or hosts), so their shares drain in parallel — this is the
            # aggregate-QPS story of the cluster benchmark.
            with ThreadPoolExecutor(max_workers=len(groups)) as executor:
                drained = list(executor.map(
                    lambda item: self._drain_group(*item), groups.items()
                ))
        for group in drained:
            for position, entry in group:
                entries[position] = entry
        # Failover pass, sequential by construction: the drain threads are
        # all joined, so the replica chains are free to serve retries.
        for position, entry in enumerate(entries):
            if isinstance(entry, BackendError):
                try:
                    entries[position] = self._serve_with_failover(
                        requests[position], prior_failure=True,
                        skip_dead=True, point=points[position],
                    )
                except (BackendError, RequestError) as fail:
                    # Typed serving failures (ClusterError: every replica
                    # failed; RequestError: fails on every replica) fill
                    # the request's slot for the raise_on_error contract.
                    entries[position] = fail
                except Exception as fail:
                    # Request-level failures from in-process members keep
                    # their original type (ValueError, KeyError, ...) so
                    # raise_on_error=True re-raises exactly what a bare
                    # engine would have raised.
                    entries[position] = fail
        self._account(entries, time.perf_counter() - start)
        return self._finish(entries, raise_on_error)

    # -- introspection / lifecycle ------------------------------------------
    def stats(self) -> dict:
        """The routing counters, with each member's own ``stats()`` nested
        under ``members[i]["stats"]``: one snapshot then carries every
        member's artifact fingerprints, which a response cache in front
        of the ring invalidates on.  A member marked dead nests ``None``
        and is not called: routing tries it only after every live replica
        failed, and a down host would cost its connect timeout on every
        poll.  A select it serves, or :meth:`revive`, brings it back."""
        payload = super().stats()
        with self._suspect_lock:  # _count_traffic mutates concurrently
            traffic = dict(self._dataset_traffic)
            dead = [member.dead for member in self._members]
        # Member calls may block on a socket: never under _suspect_lock.
        member_stats = [None if is_dead else member.backend.stats()
                        for member, is_dead in zip(self._members, dead)]
        payload.update({
            "replication": self.replication,
            "replica_policy": self.replica_policy.name,
            "failovers": self._failovers,
            # None keys (the unnamed dataset) are JSON-hostile: label them.
            "datasets": {
                (dataset if dataset is not None else ""): count
                for dataset, count in sorted(
                    traffic.items(), key=lambda kv: str(kv[0])
                )
            },
            "members": [
                {
                    "name": member.name,
                    "routed": member.routed,
                    "served": member.served,
                    "errors": member.errors,
                    "inflight": member.inflight,
                    "dead": is_dead,
                    "last_error": member.last_error,
                    "stats": nested,
                }
                for member, is_dead, nested
                in zip(self._members, dead, member_stats)
            ],
        })
        return payload

    def close(self) -> None:
        if self._own_members:
            for member in self._members:
                try:
                    member.backend.close()
                except (BackendError, OSError):
                    pass  # a dead member cannot refuse to be closed
        super().close()

    def __repr__(self) -> str:
        return (f"ClusterRouter(members={self.member_names}, "
                f"replication={self.replication}, "
                f"replica_policy={self.replica_policy.name!r})")
