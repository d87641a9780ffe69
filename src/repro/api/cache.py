"""Selection caching primitives shared by the Engine and the serving layer.

The :class:`repro.api.Engine`, which every selector runs behind, owns the
memoization; :mod:`repro.serve` re-exports these primitives.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional

FULL_TABLE_FINGERPRINT = "<full-table>"


def stable_hash64(data: "bytes | str") -> int:
    """A process-stable 64-bit content hash (never ``hash()``, which is
    salted per interpreter).  The cluster ring and its ``hash`` replica
    policy key on this one function, so "same request, same shard" holds
    across nested rings and across restarts."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return int.from_bytes(hashlib.sha1(data).digest()[:8], "big")


def query_fingerprint(query: Any) -> str:
    """A stable cache key for a query object.

    ``None`` (the full table) has a fixed fingerprint.  Objects exposing
    ``fingerprint()`` are asked directly; otherwise ``describe()`` (the
    :class:`~repro.queries.ops.SPQuery` protocol, which renders predicates
    with their values) is used, prefixed with the type name.  Custom query
    classes should make ``describe()``/``fingerprint()`` injective over
    semantically distinct queries — two queries with the same fingerprint
    share a cache slot.

    Queries exposing neither method are rejected: falling back to
    ``repr()`` would embed memory addresses for classes without a custom
    ``__repr__``, and a recycled address silently serves another query's
    cached selection.
    """
    if query is None:
        return FULL_TABLE_FINGERPRINT
    fingerprint = getattr(query, "fingerprint", None)
    if callable(fingerprint):
        return str(fingerprint())
    describe = getattr(query, "describe", None)
    if callable(describe):
        return f"{type(query).__name__}:{describe()}"
    raise TypeError(
        f"cannot fingerprint {type(query).__name__}: query objects served "
        "through the Engine must expose fingerprint() or describe()"
    )


@dataclass
class CacheStats:
    """Counters of one :class:`LRUCache` (a snapshot, not a live view)."""

    hits: int
    misses: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """A small least-recently-used map with hit/miss counters.

    Plain ``OrderedDict`` bookkeeping — no TTL — guarded by one re-entrant
    lock so the concurrent serving layers (:class:`~repro.api.Workspace`
    engine routing, threaded request handlers over one Engine) can share an
    instance.  Single-threaded semantics are unchanged: the same eviction
    order, the same hit/miss counters, and ``stats`` stays internally
    consistent (``hits + misses`` equals the number of ``get`` calls, and
    ``size`` never exceeds ``maxsize``) no matter how many threads hammer
    the cache.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> list:
        """Insert ``key`` and return the ``(key, value)`` pairs evicted."""
        evicted = []
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                evicted.append(self._entries.popitem(last=False))
        return evicted

    def pop(self, key: Hashable, default: Optional[Any] = None) -> Optional[Any]:
        """Remove ``key`` and return its value (``default`` when absent)."""
        with self._lock:
            return self._entries.pop(key, default)

    def keys(self) -> list:
        """Current keys, least recently used first (a snapshot)."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                size=len(self._entries),
                maxsize=self.maxsize,
            )
