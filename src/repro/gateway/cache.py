"""Fingerprint-keyed HTTP response cache for the gateway.

The paper's target regime is interactive EDA: users replay and refine
the same sub-table steps over and over.  Answering a replayed step at
the front door beats re-crossing gateway → transport → server → engine
LRU every time — but only if the cache can never serve an answer
computed from a table that has since changed.  This module makes that
safe with *generation-based* invalidation:

* **Key** — the canonical request wire form (the same sorted-key JSON
  the socket framing uses, see :func:`canonical_request_text`), prefixed
  with the route and the tenant name.  Tenant isolation is part of the
  key: a shared namespace would let one tenant's query shapes warm (and
  thus leak timing about) another's.
* **Validator** — a strong ``ETag`` over the exact cached bytes, so any
  stock HTTP client revalidates with ``If-None-Match`` and gets a 304
  for free.
* **Invalidation** — every backend ``stats()`` snapshot carries the
  serving artifacts' ``data_fingerprint``/``vocab_fingerprint`` (see
  ``InProcessBackend.stats``).  The cache learns them via
  :meth:`observe_stats` and drops entries whose recorded fingerprint no
  longer matches, so an :class:`~repro.api.store.ArtifactStore` version
  bump coherently invalidates without any flush API.  Entries admitted
  while the backend's fingerprint for their dataset was still unknown
  carry ``FINGERPRINT_UNKNOWN`` and are dropped on the first snapshot
  that names the dataset — when in doubt, recompute.

Capacity is bounded twice: a global LRU (``capacity`` entries,
evictions counted) and an optional per-tenant quota
(``TenantSpec.cache_quota``) so one chatty tenant cannot evict
everyone else's working set.  Counters live in a shared
:class:`~repro.obs.MetricsRegistry` under ``cache.*`` (hits, misses,
evictions, stale drops, revalidations, stores), so ``/v1/stats``
exposes hit rates without extra plumbing.

All state mutates under one lock; the cache is safe to hammer from the
gateway's dispatch threads and the asyncio handler simultaneously.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.obs import MetricsRegistry

#: Fingerprint recorded for an entry whose dataset the backend has not
#: yet named in a ``stats()`` snapshot.  It never equals a real
#: fingerprint, so the first snapshot that *does* name the dataset
#: drops the entry (recompute rather than risk staleness).
FINGERPRINT_UNKNOWN = "<unknown>"

#: Fingerprint recorded when two members of one backend disagree (a
#: mid-rollout cluster).  Like :data:`FINGERPRINT_UNKNOWN` it never
#: matches, so disagreement disables caching for that dataset until the
#: rollout converges.
FINGERPRINT_CONFLICT = "<conflict>"


def canonical_request_text(payload: dict) -> str:
    """The canonical JSON text of one request wire payload.

    Sorted keys and tight separators: the same request always produces
    the same text regardless of the key order a client wrote, matching
    the sorted-key canonical form the socket framing's ``encode_frame``
    uses.  Two byte-different bodies that decode to the same wire
    payload therefore share one cache entry.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def request_key(path: str, payload: dict) -> str:
    """The cache key material for one route + tagged wire payload."""
    return f"{path}\n{canonical_request_text(payload)}"


def make_etag(body: bytes) -> str:
    """A strong ETag over the exact response bytes (quoted, RFC 9110)."""
    return f'"{hashlib.sha256(body).hexdigest()[:32]}"'


def etag_matches(if_none_match: Optional[str], etag: str) -> bool:
    """Whether an ``If-None-Match`` header value matches ``etag``.

    Handles the ``*`` wildcard and comma-separated candidate lists; a
    weak validator (``W/"..."``) never matches — the cache's tags are
    strong and the comparison stays strong.
    """
    if not if_none_match:
        return False
    candidates = [token.strip() for token in if_none_match.split(",")]
    return "*" in candidates or etag in candidates


def extract_fingerprints(stats: object) -> dict:
    """Every ``{dataset: fingerprint}`` map found in a stats snapshot.

    Backends nest: an :class:`~repro.gateway.client.HttpBackend` carries
    the server's stats under ``"server"``, a cluster carries each
    member's stats under ``members[i]["stats"]``.  This walks the whole
    document and merges every ``"fingerprints"`` section it finds; if
    two sections disagree about a dataset (mid-rollout replicas), the
    merged value becomes :data:`FINGERPRINT_CONFLICT`, which matches
    nothing.
    """
    found: dict = {}

    def walk(node: object) -> None:
        if isinstance(node, dict):
            section = node.get("fingerprints")
            if isinstance(section, dict):
                for name, fingerprint in section.items():
                    if not isinstance(fingerprint, str):
                        continue
                    if found.get(name, fingerprint) != fingerprint:
                        found[name] = FINGERPRINT_CONFLICT
                    else:
                        found[name] = fingerprint
            for key, value in node.items():
                if key != "fingerprints":
                    walk(value)
        elif isinstance(node, (list, tuple)):
            for item in node:
                walk(item)

    walk(stats)
    return found


@dataclass
class CacheEntry:
    """One cached reply: the exact bytes, their validator, and the
    artifact generation they were computed from."""

    tenant: str
    body: bytes
    etag: str
    #: ``(dataset, fingerprint)`` pairs recorded at admission time; a
    #: later snapshot disagreeing on any pair makes the entry stale.
    fingerprints: Tuple[Tuple[str, str], ...]


class ResponseCache:
    """Bounded, tenant-isolated, generation-invalidated reply cache.

    ``capacity`` bounds the global entry count (LRU eviction);
    ``refresh_seconds`` throttles how often :meth:`refresh_due` claims a
    backend ``stats()`` poll (the gateway performs the poll — the cache
    never calls the backend itself, keeping it transport-free).  The
    clock is injectable so tests drive staleness deterministically.
    """

    def __init__(
        self,
        capacity: int = 1024,
        registry: Optional[MetricsRegistry] = None,
        refresh_seconds: float = 2.0,
        clock: Optional[Callable[[], float]] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.refresh_seconds = float(refresh_seconds)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        #: tenant name -> OrderedDict of that tenant's keys (LRU order),
        #: so per-tenant quota eviction is O(1).
        self._tenant_keys: dict = {}
        self._fingerprints: dict = {}
        self._last_refresh: Optional[float] = None
        self._closed = False

    # -- bookkeeping ---------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        self.metrics.counter(f"cache.{name}").inc(amount)

    def _full_key(self, tenant: str, key: str) -> str:
        return f"{tenant}\n{key}"

    def _remove(self, full_key: str, entry: CacheEntry) -> None:
        # Every call site holds self._lock (lookup/store/invalidate);
        # the intraprocedural lock-discipline model cannot see that.
        self._entries.pop(full_key, None)  # reprolint: ignore[lock-discipline] -- caller holds self._lock
        tenant_keys = self._tenant_keys.get(entry.tenant)
        if tenant_keys is not None:
            tenant_keys.pop(full_key, None)
            if not tenant_keys:
                self._tenant_keys.pop(entry.tenant, None)  # reprolint: ignore[lock-discipline] -- caller holds self._lock

    def _stale(self, entry: CacheEntry) -> bool:
        # caller holds self._lock
        for dataset, fingerprint in entry.fingerprints:
            current = self._fingerprints.get(dataset)
            if current is not None and current != fingerprint:
                return True
        return False

    # -- lookup / store ------------------------------------------------------
    def lookup(self, tenant: str, key: str) -> Optional[CacheEntry]:
        """The live entry for ``(tenant, key)``, or ``None`` on a miss.

        A hit whose recorded fingerprint no longer matches the learned
        generation is dropped on the spot (counted ``cache.stale``) and
        reported as a miss.
        """
        full_key = self._full_key(tenant, key)
        with self._lock:
            if self._closed:
                return None
            entry = self._entries.get(full_key)
            if entry is None:
                self._count("misses")
                return None
            if self._stale(entry):
                self._remove(full_key, entry)
                self._count("stale")
                self._count("misses")
                return None
            self._entries.move_to_end(full_key)
            self._tenant_keys[tenant].move_to_end(full_key)
            self._count("hits")
            return entry

    def store(self, tenant: str, key: str, datasets, body: bytes,
              quota: Optional[int] = None) -> CacheEntry:
        """Admit one reply, evicting over-quota / over-capacity entries.

        ``datasets`` names every dataset the reply was computed from;
        each is recorded with the backend generation learned so far
        (:data:`FINGERPRINT_UNKNOWN` when none), which is what a later
        snapshot invalidates against.  ``quota`` is the tenant's entry
        budget (``None``: only the global capacity bounds it).
        """
        fingerprints = tuple(
            (dataset, self._fingerprints.get(dataset, FINGERPRINT_UNKNOWN))
            for dataset in sorted({str(name) for name in datasets})
        )
        entry = CacheEntry(tenant=tenant, body=bytes(body),
                           etag=make_etag(body),
                           fingerprints=fingerprints)
        full_key = self._full_key(tenant, key)
        with self._lock:
            if self._closed:
                return entry
            stale_twin = self._entries.get(full_key)
            if stale_twin is not None:
                self._remove(full_key, stale_twin)
            self._entries[full_key] = entry
            tenant_keys = self._tenant_keys.setdefault(tenant, OrderedDict())
            tenant_keys[full_key] = None
            if quota is not None:
                while len(tenant_keys) > max(1, int(quota)):
                    victim_key = next(iter(tenant_keys))
                    self._remove(victim_key, self._entries[victim_key])
                    self._count("evictions")
            while len(self._entries) > self.capacity:
                victim_key, victim = next(iter(self._entries.items()))
                self._remove(victim_key, victim)
                self._count("evictions")
            self._count("stores")
        return entry

    # -- generation learning -------------------------------------------------
    def refresh_due(self) -> bool:
        """Claim the next backend poll slot (at most one per
        ``refresh_seconds``).  Returns ``True`` exactly once per window
        so concurrent handlers never stampede the backend with
        ``stats()`` calls."""
        now = self._clock()
        with self._lock:
            if self._closed:
                return False
            if self._last_refresh is not None \
                    and now - self._last_refresh < self.refresh_seconds:
                return False
            self._last_refresh = now
            return True

    def observe_stats(self, stats: object) -> int:
        """Learn the backend's artifact generations from one ``stats()``
        snapshot; entries pinned to a superseded (or conflicting)
        fingerprint are dropped.  Returns the number dropped."""
        learned = extract_fingerprints(stats)
        if not learned:
            return 0
        with self._lock:
            if self._closed:
                return 0
            self._fingerprints.update(learned)
            victims = [
                (full_key, entry)
                for full_key, entry in self._entries.items()
                if self._stale(entry)
            ]
            for full_key, entry in victims:
                self._remove(full_key, entry)
            if victims:
                self._count("stale", len(victims))
            return len(victims)

    def revalidated(self) -> None:
        """Count one conditional hit answered with 304 Not Modified."""
        self._count("revalidations")

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def fingerprints(self) -> dict:
        """The generations learned so far (``{dataset: fingerprint}``)."""
        with self._lock:
            return dict(self._fingerprints)

    def info(self) -> dict:
        """The JSON stats section (``/v1/stats``'s ``gateway.cache``)."""
        with self._lock:
            entries = len(self._entries)
            tenants = len(self._tenant_keys)
        counters = {
            name: self.metrics.counter(f"cache.{name}").value
            for name in ("hits", "misses", "evictions", "stale",
                         "revalidations", "stores")
        }
        return {"entries": entries, "capacity": self.capacity,
                "tenants": tenants, **counters}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._tenant_keys.clear()

    def close(self) -> None:
        """Drop every entry and refuse further admissions (idempotent)."""
        with self._lock:
            self._closed = True
            self._entries.clear()
            self._tenant_keys.clear()
            self._fingerprints.clear()
