"""Dependency-free telemetry primitives: Counter, Histogram.

Every serving backend, the wire dispatcher, and the load harness account
their behavior through these two metric kinds behind a
:class:`MetricsRegistry`.  The design constraints come from where the
numbers travel:

* **JSON-portable snapshots** — a metric's :meth:`snapshot` is a plain
  dict (string keys, numbers), so it rides the existing ``stats`` wire op
  across socket and asyncio transports unchanged;
* **bucket tables, not samples** — a histogram snapshot carries its full
  bucket table, so a reader can add distributions bucket by bucket
  without the raw observations;
* **log-spaced buckets** — ``BUCKETS_PER_DECADE`` buckets per power of
  ten bound the relative quantile error to one bucket width (~33% here)
  across the nine decades between a microsecond cache hit and a
  hundred-second cold batch, in O(decades) memory;
* **thread-safe** — every mutation happens under the metric's own lock;
  backends and the pipelined client's reader thread observe concurrently.

Quantiles are deterministic: ``quantile`` walks the cumulative bucket
counts and reports the matched bucket's upper bound (clamped to the
observed max), so the same observations always produce the same p50/p95/
p99 — a property the bench gate and the quantile tests rely on.
"""

from __future__ import annotations

import math
import threading
from typing import Optional

#: Log-bucket resolution: buckets per decade.  8 gives a bucket-width
#: ratio of ``10**(1/8)`` (~1.33x) — quantiles are exact to that factor.
BUCKETS_PER_DECADE = 8

_LOG_BASE = 10.0 ** (1.0 / BUCKETS_PER_DECADE)
_LOG_DENOM = math.log(_LOG_BASE)

#: Bucket index for observations <= 0 (elapsed-time underflow / clamps).
UNDERFLOW_BUCKET = -(1 << 30)


def bucket_index(value: float) -> int:
    """The log-spaced bucket an observation falls into."""
    if value <= 0.0 or math.isnan(value):
        return UNDERFLOW_BUCKET
    if math.isinf(value):
        return 1 << 30
    return int(math.floor(math.log(value) / _LOG_DENOM))


def bucket_upper_bound(index: int) -> float:
    """The exclusive upper bound of one bucket (0.0 for the underflow)."""
    if index == UNDERFLOW_BUCKET:
        return 0.0
    return _LOG_BASE ** (index + 1)


class Counter:
    """A monotonically increasing count (requests served, errors seen)."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(inc({amount}))")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """A log-bucketed distribution with deterministic quantiles.

    >>> h = Histogram("latency")
    >>> for v in (0.001, 0.002, 0.2):
    ...     h.observe(v)
    >>> h.count
    3
    """

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._buckets: dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = bucket_index(value)
        with self._lock:
            self._buckets[index] = self._buckets.get(index, 0) + 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    # -- reads ---------------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` (0..1): the upper bound of the first
        bucket whose cumulative count reaches ``ceil(q * count)``, clamped
        to the observed maximum.  0.0 on an empty histogram."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            target = max(1, math.ceil(q * self._count))
            cumulative = 0
            for index in sorted(self._buckets):
                cumulative += self._buckets[index]
                if cumulative >= target:
                    bound = bucket_upper_bound(index)
                    if self._max is not None:
                        bound = min(bound, self._max)
                    if self._min is not None:
                        bound = max(bound, self._min)
                    return bound
            return self._max if self._max is not None else 0.0

    def snapshot(self) -> dict:
        """JSON-portable summary + the full (string-keyed) bucket table."""
        with self._lock:
            buckets = dict(self._buckets)
            count, total = self._count, self._sum
            low, high = self._min, self._max
        mean = total / count if count else 0.0
        return {
            "type": self.kind,
            "count": count,
            "sum": total,
            "mean": mean,
            "min": low if low is not None else 0.0,
            "max": high if high is not None else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": {str(index): n for index, n in sorted(buckets.items())},
        }


class MetricsRegistry:
    """Named metrics behind one get-or-create surface.

    Registries are cheap; every backend owns one (created in
    :class:`~repro.serve.backend.BaseBackend`) and reports it in the
    ``metrics`` section of its ``stats()`` envelope.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict = {}

    def _get_or_create(self, name: str, factory: type):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory(name)
                self._metrics[name] = metric
        if not isinstance(metric, factory):
            raise ValueError(
                f"metric {name!r} is a {type(metric).kind}, not a "
                f"{factory.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def names(self) -> list:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """``{name: metric snapshot}``, sorted by name (JSON-stable)."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metrics[name].snapshot() for name in sorted(metrics)}
