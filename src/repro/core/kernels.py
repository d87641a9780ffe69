"""Vectorized grouping/accumulation primitives with a pure-loop reference oracle.

Both hot paths spend their time in a handful of grouping/accumulation
primitives: each select (k-means seeding + Lloyd, budget allocation,
coverage gains) and each fit (the word2vec per-batch mean update and the
corpus token counts).  This module implements each one twice:

* the **fast** path — numpy batch operations (``bincount`` accumulation,
  void-view ``np.unique`` row dedup, stable-argsort grouping, packed-bit
  popcounts); and
* the **reference** path — the naive python loop spelling of the *same*
  arithmetic, in the same accumulation order.

The two are **bit-identical by construction**, not approximately equal:
every fast primitive here is restricted to operations numpy guarantees
to accumulate sequentially in input order (``np.bincount`` with weights,
``np.add.at``) or that are exact (integer counting, bitwise ops, min/max,
stable sorts).  Primitives where numpy would change the floating-point
summation order (e.g. ``np.add.reduceat``'s pairwise segment sums) are
deliberately *not* offered here — callers keep a short python loop over
the few segments and vectorize inside it instead.

``REPRO_KERNEL=reference`` switches every primitive to the oracle, which
is how the equivalence suite proves a fast select or fit bit-identical to
the reference one on fixed seeds (see ``tests/test_kernels.py``).  The
oracle loops in python once per row, so a fit on it is practical only at
toy scale (a few hundred rows).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

FAST = "fast"
REFERENCE = "reference"

_ENV_VAR = "REPRO_KERNEL"
_BACKENDS = (FAST, REFERENCE)


_ACTIVE_BACKEND: "str | None" = None


def kernel_backend() -> str:
    """The active kernel backend: ``"fast"`` (default) or ``"reference"``.

    Resolved from the ``REPRO_KERNEL`` environment variable once and then
    cached — the dispatch sits inside per-iteration loops where even an
    environment probe shows up.  Processes set the variable before first
    use (the equivalence suite runs whole selects per backend via
    :func:`use_kernel_backend`); in-process changes to the variable need
    :func:`refresh_kernel_backend`.
    """
    global _ACTIVE_BACKEND
    if _ACTIVE_BACKEND is None:
        raw = os.environ.get(_ENV_VAR)
        if raw is None:
            _ACTIVE_BACKEND = FAST
        else:
            value = raw.strip().lower()
            if value not in _BACKENDS:
                raise ValueError(
                    f"{_ENV_VAR}={value!r} is not a kernel backend; "
                    f"expected one of {_BACKENDS}"
                )
            _ACTIVE_BACKEND = value
    return _ACTIVE_BACKEND


def refresh_kernel_backend() -> str:
    """Re-read ``REPRO_KERNEL`` after an in-process environment change."""
    global _ACTIVE_BACKEND
    _ACTIVE_BACKEND = None
    return kernel_backend()


@contextmanager
def use_kernel_backend(name: str):
    """Temporarily switch the kernel backend (sets the env var too, so
    subprocesses launched inside the block inherit it)."""
    previous = os.environ.get(_ENV_VAR)
    os.environ[_ENV_VAR] = name
    refresh_kernel_backend()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(_ENV_VAR, None)
        else:
            os.environ[_ENV_VAR] = previous
        refresh_kernel_backend()


def _fast() -> bool:
    return kernel_backend() == FAST


# ---------------------------------------------------------------------------
# Row dedup
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowCollapse:
    """Duplicate-row structure of a matrix, in first-occurrence order.

    ``index[u]`` is the row index of the first occurrence of unique row
    ``u``; ``inverse[i]`` maps row ``i`` to its unique id; ``counts[u]``
    is the multiplicity.  ``matrix[index][inverse]`` reconstructs the
    input exactly.
    """

    index: np.ndarray    # (u,) int64
    inverse: np.ndarray  # (n,) int64
    counts: np.ndarray   # (u,) int64

    @property
    def n_unique(self) -> int:
        return len(self.index)

    def is_identity(self, n_rows: int) -> bool:
        return self.n_unique == n_rows


_HASH_CONSTANTS = np.random.default_rng(0x5EED_C0DE).integers(
    1, np.iinfo(np.int64).max, size=4096, dtype=np.int64
).astype(np.uint64) | np.uint64(1)  # odd multipliers, fixed at import


def _row_hashes(matrix: np.ndarray) -> np.ndarray:
    """Per-row surrogate hash over the raw row bytes (wraparound uint64)."""
    n = matrix.shape[0]
    row_bytes = matrix.dtype.itemsize * matrix.shape[1]
    if row_bytes % 8 == 0:
        words = matrix.view(np.uint64).reshape(n, row_bytes // 8)
    else:
        words = matrix.view(np.uint8).reshape(n, row_bytes).astype(np.uint64)
    return (words * _HASH_CONSTANTS[: words.shape[1]]).sum(
        axis=1, dtype=np.uint64
    )


def _collapse_by_hash(matrix: np.ndarray) -> "RowCollapse | None":
    """Hash-sorted grouping with exact byte verification; None on collision."""
    row_bytes = matrix.dtype.itemsize * matrix.shape[1]
    words = row_bytes // 8 if row_bytes % 8 == 0 else row_bytes
    if words > len(_HASH_CONSTANTS):
        return None
    hashes = _row_hashes(matrix)
    _, first, inverse_sorted, counts = np.unique(
        hashes, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    index = first[order].astype(np.int64)
    inverse = rank[np.asarray(inverse_sorted, dtype=np.int64).ravel()]
    # Exact check: every row must be bit-equal to its group's first
    # occurrence, which simultaneously proves the grouping collision-free.
    raw = matrix.view(np.uint8).reshape(matrix.shape[0], -1)
    if not np.array_equal(raw[index][inverse], raw):
        return None
    return RowCollapse(
        index=index, inverse=inverse, counts=counts[order].astype(np.int64)
    )


def collapse_rows(matrix: np.ndarray) -> RowCollapse:
    """Group exactly-equal rows of a 2-D array (bytewise equality).

    Float rows compare bitwise (so ``-0.0 != 0.0`` and ``NaN != NaN`` —
    duplicates in practice come from gathers of identical token ids, which
    are bit-equal).  Unique rows keep first-occurrence order, so the
    result is independent of the internal sort the fast path uses.

    The fast path dedups a 1-D surrogate hash of the row bytes (a ~20x
    cheaper sort than ``np.unique`` over 256-byte void records) and then
    *verifies* the grouping exactly: every row must be bit-equal to the
    first occurrence of its hash group, else a colliding pair slipped in
    and the void-record path decides instead.  Correctness never rests on
    the hash.
    """
    matrix = np.ascontiguousarray(matrix)
    n = matrix.shape[0]
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return RowCollapse(index=empty, inverse=empty.copy(),
                           counts=empty.copy())
    if matrix.ndim != 2:
        raise ValueError("collapse_rows expects a 2-D array")
    if _fast():
        fast = _collapse_by_hash(matrix)
        if fast is not None:
            return fast
        # Hash collision between distinct rows (astronomically rare):
        # view each row as one opaque byte record; np.unique then dedups
        # whole rows at C speed.  The record dtype must be *void bytes*,
        # not a structured view of the element dtype — float fields would
        # compare with float semantics (-0.0 == 0.0, NaN != NaN) and
        # silently diverge from the bytewise reference path.
        # return_index gives the *first* occurrence of each (sorted)
        # unique, from which first-occurrence order is recovered with one
        # stable argsort.
        row_bytes = matrix.dtype.itemsize * matrix.shape[1]
        record = matrix.view(np.dtype((np.void, row_bytes))).ravel()
        _, first, inverse_sorted, counts = np.unique(
            record, return_index=True, return_inverse=True,
            return_counts=True,
        )
        order = np.argsort(first, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return RowCollapse(
            index=first[order].astype(np.int64),
            inverse=rank[np.asarray(inverse_sorted, dtype=np.int64).ravel()],
            counts=counts[order].astype(np.int64),
        )
    seen: dict[bytes, int] = {}
    index: list[int] = []
    counts: list[int] = []
    inverse = np.empty(n, dtype=np.int64)
    for i in range(n):
        key = matrix[i].tobytes()
        uid = seen.get(key)
        if uid is None:
            uid = len(index)
            seen[key] = uid
            index.append(i)
            counts.append(0)
        counts[uid] += 1
        inverse[i] = uid
    return RowCollapse(
        index=np.asarray(index, dtype=np.int64),
        inverse=inverse,
        counts=np.asarray(counts, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# Grouped accumulation
# ---------------------------------------------------------------------------

def label_matrix_sums(
    matrix: np.ndarray,
    labels: np.ndarray,
    n_labels: int,
    flat_scratch: "np.ndarray | None" = None,
    stale_rows: "np.ndarray | None" = None,
) -> np.ndarray:
    """Per-label row sums of a 2-D float array.

    The Lloyd centroid update: callers pre-scale rows by their weights
    *once per fit* (``points * w[:, None]``, or ``points`` itself when
    unweighted — ``x * 1.0`` is bitwise ``x``) and accumulate here every
    iteration.  ``np.bincount`` with weights accumulates sequentially in
    input order, so the fast path reproduces the python loop bit-for-bit
    (property-tested across adversarial magnitudes).

    ``flat_scratch`` optionally supplies an int64 buffer of ``matrix``'s
    shape for the flattened group indices, sparing per-iteration
    allocations in the Lloyd loop.  With ``stale_rows`` the caller asserts
    the scratch already holds correct indices for every row *not* listed
    (Lloyd labels change for few points once iterations settle), so only
    the listed rows are rebuilt.  Both only affect where scratch lives and
    how much of it is refreshed, never the result; the reference path
    recomputes from ``labels`` alone.
    """
    if _fast():
        d = matrix.shape[1]
        if flat_scratch is None:
            flat = labels[:, np.newaxis] * d + np.arange(d)[np.newaxis, :]
        elif stale_rows is None:
            flat = flat_scratch
            np.multiply(labels[:, np.newaxis], d, out=flat)
            flat += np.arange(d)[np.newaxis, :]
        else:
            flat = flat_scratch
            if len(stale_rows):
                flat[stale_rows] = (
                    labels[stale_rows, np.newaxis] * d
                    + np.arange(d)[np.newaxis, :]
                )
        return np.bincount(
            flat.ravel(), weights=matrix.ravel(), minlength=n_labels * d
        ).reshape(n_labels, d)
    sums = np.zeros((n_labels, matrix.shape[1]))
    for i in range(len(matrix)):
        sums[labels[i]] += matrix[i]
    return sums


def label_counts(labels: np.ndarray, n_labels: int) -> np.ndarray:
    """Per-label occupancy as float64 (exact: counts are integers).

    The unweighted Lloyd denominator — an integer histogram widened to
    float, bit-identical to summing ``1.0`` per member as the reference
    loop does (every count is far below 2**53).
    """
    if _fast():
        return np.bincount(labels, minlength=n_labels).astype(np.float64)
    totals = np.zeros(n_labels)
    for label in labels:
        totals[label] += 1.0
    return totals


def label_sums(values: np.ndarray, labels: np.ndarray,
               n_labels: int) -> np.ndarray:
    """Per-label sums of a 1-D float array (cluster mass accumulation)."""
    if _fast():
        return np.bincount(labels, weights=values, minlength=n_labels)
    sums = np.zeros(n_labels)
    for i in range(len(values)):
        sums[labels[i]] += values[i]
    return sums


def token_counts(token_ids: np.ndarray, n_tokens: int) -> np.ndarray:
    """Occurrence counts of every global token id in one pass.

    Token ids partition by column (column ``j`` owns the contiguous range
    of its bins), so a single bincount over the whole matrix yields every
    column's per-bin histogram at once.
    """
    flat = np.asarray(token_ids).ravel()
    if _fast():
        return np.bincount(flat, minlength=n_tokens).astype(np.int64)
    counts = np.zeros(n_tokens, dtype=np.int64)
    for token in flat:
        counts[token] += 1
    return counts


def group_members(labels: np.ndarray, n_labels: int) -> list[np.ndarray]:
    """Member indices of every label, ascending within each group.

    Replaces ``n_labels`` full scans of ``labels == c`` with one stable
    argsort; a stable sort keeps ties (members of one label) in index
    order, which is exactly what ``np.flatnonzero`` produces.
    """
    if _fast():
        order = np.argsort(labels, kind="stable")
        bounds = np.zeros(n_labels + 1, dtype=np.int64)
        np.cumsum(np.bincount(labels, minlength=n_labels), out=bounds[1:])
        return [order[bounds[c]:bounds[c + 1]] for c in range(n_labels)]
    return [np.flatnonzero(labels == c) for c in range(n_labels)]


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def weighted_pick(rng: np.random.Generator, masses: np.ndarray) -> int:
    """One index drawn proportional to non-negative ``masses``.

    Replicates ``rng.choice(n, p=masses / masses.sum())`` exactly — same
    single uniform consumed from the generator, same normalize / cumsum /
    right-searchsorted arithmetic — without the O(n) kahan validation pass
    ``Generator.choice`` spends on its ``p`` argument.  One shared
    implementation: the arithmetic is already the reference.
    """
    total = masses.sum()
    if total <= 0:
        raise ValueError("weighted_pick needs a positive total mass")
    cdf = np.cumsum(masses / total)
    cdf /= cdf[-1]
    u = rng.random()
    return min(int(np.searchsorted(cdf, u, side="right")), len(masses) - 1)


# ---------------------------------------------------------------------------
# Budget allocation (shared by the row and column stages)
# ---------------------------------------------------------------------------

def allocate_quotas(
    masses: np.ndarray,
    total: int,
    capacities: "np.ndarray | None" = None,
) -> np.ndarray:
    """Largest-remainder allocation of ``total`` slots proportional to mass.

    With ``capacities``, a group never receives more than its capacity:
    excess is redistributed to groups with headroom in descending-mass
    order, one slot per group per sweep (the guarded spelling both
    call sites previously hand-rolled; integer arithmetic, one shared
    implementation).  When ``total`` exceeds the summed capacity the
    surplus is dropped rather than looping forever.
    """
    masses = np.asarray(masses, dtype=np.float64)
    if masses.sum() <= 0:
        masses = np.ones_like(masses)
    quotas = total * masses / masses.sum()
    base = np.floor(quotas).astype(np.int64)
    remainder = total - int(base.sum())
    if remainder > 0:
        order = np.argsort(-(quotas - base))
        base[order[:remainder]] += 1
    if capacities is None:
        return base
    capacities = np.asarray(capacities, dtype=np.int64)
    overflow = int(np.maximum(base - capacities, 0).sum())
    base = np.minimum(base, capacities)
    while overflow > 0:
        headroom = capacities - base
        eligible = np.flatnonzero(headroom > 0)
        if eligible.size == 0:
            break
        order = eligible[np.argsort(-masses[eligible])]
        for c in order:
            if overflow == 0:
                break
            if base[c] < capacities[c]:
                base[c] += 1
                overflow -= 1
    return base


# ---------------------------------------------------------------------------
# Packed-bit coverage
# ---------------------------------------------------------------------------

def popcount(packed: np.ndarray) -> int:
    """Total set bits of a packed ``uint8`` array."""
    if packed.size == 0:
        return 0
    if _fast():
        return int(np.bitwise_count(packed).sum())
    return int(np.unpackbits(packed).sum())


def union_mask(packed_rows: np.ndarray) -> np.ndarray:
    """Bitwise OR across the rows of a packed ``(p, nbytes)`` matrix."""
    if _fast():
        return np.bitwise_or.reduce(packed_rows, axis=0)
    union = packed_rows[0].copy()
    for row in packed_rows[1:]:
        union |= row
    return union
