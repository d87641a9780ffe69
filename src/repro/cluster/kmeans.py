"""KMeans clustering (Lloyd's algorithm with k-means++ initialization).

The paper clusters tuple-vectors and column-vectors with sklearn's KMeans;
sklearn is unavailable offline, so this is a faithful numpy implementation:
k-means++ seeding, Lloyd iterations until center movement falls below
``tol``, best of ``n_init`` restarts by inertia.  Empty clusters are
re-seeded at the point farthest from its assigned center, so ``fit`` always
returns exactly ``k`` non-empty clusters when the data has >= k points.

``fit`` optionally takes per-point **weights** — the serving layer collapses
duplicate tuple-vector rows (narrow query views collapse hard: a 1200x5
view often has <200 distinct rows) and clusters the uniques with their
multiplicities as weights, which minimizes exactly the same objective as
clustering the expanded point set.  Seeding draws stay in *row* space
(a uniform row is a mass-weighted unique), so the unweighted call remains
draw-for-draw identical to the historical implementation.

The centroid update accumulates through
:func:`repro.core.kernels.label_matrix_sums` over rows pre-scaled once per
fit, whose fast bincount path is bit-identical to the reference python loop
(``REPRO_KERNEL=reference``).  Label assignment drops the constant
per-point norm from the squared distance — ``argmin_c(|c|^2 - 2 x.c)``
picks the same center through one in-place score matrix instead of the
full clamped distance matrix, and the assigned distances needed for
empty-cluster reseeds and the final inertia are gathered in O(n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernels import label_counts, label_matrix_sums, label_sums
from repro.utils.rng import ensure_rng


@dataclass
class KMeansResult:
    """Cluster assignment of one fitted run."""

    centers: np.ndarray   # (k, d)
    labels: np.ndarray    # (n,)
    inertia: float

    @property
    def k(self) -> int:
        return self.centers.shape[0]


def _squared_distances(
    points: np.ndarray,
    centers: np.ndarray,
    point_norms: "np.ndarray | None" = None,
) -> np.ndarray:
    """(n, k) matrix of squared euclidean distances.

    ``point_norms`` (the einsum self-dot of ``points``) is constant across
    a fit, so callers compute it once and thread it through seeding and
    every Lloyd iteration instead of recomputing it per call.
    """
    cross = points @ centers.T
    if point_norms is None:
        point_norms = np.einsum("nd,nd->n", points, points)
    center_norms = np.einsum("kd,kd->k", centers, centers)[np.newaxis, :]
    distances = point_norms[:, np.newaxis] + center_norms - 2.0 * cross
    return np.maximum(distances, 0.0)


def _center_scores(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) assignment scores: ``|c_j|^2 - 2 x_i . c_j``.

    The squared distance minus the per-point norm ``|x_i|^2`` — constant
    across centers, so the argmin (and its first-index tie-break) is taken
    on the scores and the true squared distance to the assigned center is
    recovered per point as ``max(point_norms + scores[i, label_i], 0)``.
    Built in place: one GEMM plus two O(nk) updates, no clamped
    distance-matrix temporaries.
    """
    scores = points @ centers.T
    scores *= -2.0
    scores += np.einsum("kd,kd->k", centers, centers)[np.newaxis, :]
    return scores


def _row_space_pick(cum_weights: "np.ndarray | None", n: int,
                    rng: np.random.Generator) -> int:
    """A uniform *row* mapped to its unique point (uniform point when
    weights are absent) — the weighted analogue of ``rng.integers(0, n)``."""
    if cum_weights is None:
        return int(rng.integers(0, n))
    r = int(rng.integers(0, int(cum_weights[-1])))
    return int(np.searchsorted(cum_weights, r, side="right"))


def _kmeans_plus_plus(
    points: np.ndarray,
    k: int,
    n_runs: int,
    rng: np.random.Generator,
    weights: "np.ndarray | None" = None,
    point_norms: "np.ndarray | None" = None,
) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007) for ``n_runs``
    restarts at once, mass-weighted.

    Maintains the running closest-center *scores* (``min_c |c|^2 - 2x.c``;
    the min commutes with dropping the per-point norm) per restart, so
    every restart's next center costs one shared ``(n_runs, d) x (d, n)``
    GEMM and one row of a joint mass cumsum.  Random draws go
    center-major (each restart draws its i-th center before any restart
    draws its (i+1)-th), one uniform per draw, same as
    ``Generator.choice``.  Returns an ``(n_runs, k, d)`` stack.
    """
    n, d = points.shape
    if point_norms is None:
        point_norms = np.einsum("nd,nd->n", points, points)
    all_centers = np.empty((n_runs, k, d))
    cum_weights = None if weights is None else np.cumsum(weights)
    firsts = [_row_space_pick(cum_weights, n, rng) for _ in range(n_runs)]
    current = points[firsts]
    all_centers[:, 0] = current
    # (n_runs, n): per-restart closest-center scores, updated in place.
    min_scores = current @ points.T
    min_scores *= -2.0
    min_scores += np.einsum("ad,ad->a", current, current)[:, np.newaxis]
    masses = np.empty((n_runs, n))
    for i in range(1, k):
        np.add(point_norms[np.newaxis, :], min_scores, out=masses)
        np.maximum(masses, 0.0, out=masses)
        if weights is not None:
            masses *= weights[np.newaxis, :]
        cdf = np.cumsum(masses, axis=1, out=masses)
        choices = np.empty(n_runs, dtype=np.int64)
        for r in range(n_runs):
            total = float(cdf[r, -1])
            if total <= 0:
                # All remaining points coincide with chosen centers;
                # pick randomly.
                choices[r] = _row_space_pick(cum_weights, n, rng)
            else:
                u = rng.random() * total
                choices[r] = min(
                    int(np.searchsorted(cdf[r], u, side="right")), n - 1
                )
        current = points[choices]
        all_centers[:, i] = current
        scores = current @ points.T
        scores *= -2.0
        scores += np.einsum("ad,ad->a", current, current)[:, np.newaxis]
        np.minimum(min_scores, scores, out=min_scores)
    return all_centers


def _lloyd_lockstep(
    points: np.ndarray,
    starts: "list[np.ndarray]",
    max_iter: int,
    tol: float,
    weights: "np.ndarray | None" = None,
    point_norms: "np.ndarray | None" = None,
) -> "list[KMeansResult]":
    """Lloyd iterations for several restarts, advanced in lockstep.

    Every wave assigns labels for all still-active restarts through one
    joint score GEMM over their stacked centers instead of one GEMM per
    restart.  Lloyd consumes no randomness, so the result is deterministic
    for a given set of starts, and each restart equals a solo run up to
    rounding: a restart's block of the joint GEMM can differ from its solo
    GEMM in the last bit (on OpenBLAS 0.3.31 it did for 61 of 180 probed
    ``(n, k, runs)`` shapes, all with n <= 300), which can flip a near tie.
    The kernel goldens pin the joint form.  A restart drops out of the
    wave as soon as its centers stop moving (``shift <= tol``) or its
    labels stabilize, finalizing labels and inertia from the scores it
    already holds.
    """
    n, d = points.shape
    k = starts[0].shape[0]
    # ``x * 1.0`` is bitwise ``x``: the unweighted pre-scale is the points
    # themselves, so only weighted fits pay the multiply — once, not per
    # iteration.
    scaled = points if weights is None else points * weights[:, np.newaxis]
    if point_norms is None:
        point_norms = np.einsum("nd,nd->n", points, points)
    arange = np.arange(n)

    n_runs = len(starts)
    centers: list[np.ndarray] = list(starts)
    results: "list[KMeansResult | None]" = [None] * n_runs
    labels: "list[np.ndarray]" = [np.empty(0)] * n_runs
    scratches = [np.empty((n, d), dtype=np.int64) for _ in range(n_runs)]
    stale: "list[np.ndarray | None]" = [None] * n_runs  # None = full rebuild
    shifts = [0.0] * n_runs
    active = list(range(n_runs))

    def rescore(
        runs: "list[int]",
    ) -> "tuple[dict[int, np.ndarray], dict[int, np.ndarray]]":
        """One joint GEMM for all runs; per-run score blocks + argmin labels."""
        if len(runs) == 1:
            r = runs[0]
            scores = _center_scores(points, centers[r])
            return {r: scores}, {r: scores.argmin(axis=1)}
        stacked = np.concatenate([centers[r] for r in runs])
        scores = _center_scores(points, stacked)
        # One contiguous (n, runs, k) argmin beats per-block strided argmins.
        assignments = scores.reshape(n, len(runs), k).argmin(axis=2)
        blocks = {}
        new_labels = {}
        for i, r in enumerate(runs):
            blocks[r] = scores[:, i * k:(i + 1) * k]
            new_labels[r] = np.ascontiguousarray(assignments[:, i])
        return blocks, new_labels

    def finalize(r: int, block: np.ndarray) -> KMeansResult:
        assigned = np.maximum(point_norms + block[arange, labels[r]], 0.0)
        if weights is not None:
            assigned *= weights
        return KMeansResult(
            centers=centers[r], labels=labels[r],
            inertia=float(assigned.sum()),
        )

    blocks, assigned_labels = rescore(active)
    for r in active:
        labels[r] = assigned_labels[r]
    for _ in range(max_iter):
        for r in active:
            sums = label_matrix_sums(
                scaled, labels[r], k, scratches[r], stale[r]
            )
            if weights is None:
                totals = label_counts(labels[r], k)
            else:
                totals = label_sums(weights, labels[r], k)
            empty = totals <= 0
            if empty.any():
                new_centers = sums / np.where(empty, 1.0, totals)[:, np.newaxis]
                # Re-seed empty clusters at the worst-served point.
                worst = (point_norms + blocks[r][arange, labels[r]]).argmax()
                new_centers[empty] = points[worst]
            else:
                new_centers = sums / totals[:, np.newaxis]
            delta = new_centers - centers[r]
            shifts[r] = float(np.einsum("kd,kd->", delta, delta))
            centers[r] = new_centers
        blocks, assigned_labels = rescore(active)
        still_active = []
        for r in active:
            new_labels = assigned_labels[r]
            changed = np.flatnonzero(new_labels != labels[r])
            labels[r] = new_labels
            stale[r] = changed
            if shifts[r] <= tol * tol or changed.size == 0:
                results[r] = finalize(r, blocks[r])
            else:
                still_active.append(r)
        active = still_active
        if not active:
            break
    for r in active:
        # Iteration cap reached; ``blocks`` matches the final centers.
        results[r] = finalize(r, blocks[r])
    return [result for result in results if result is not None]


class KMeans:
    """KMeans estimator with sklearn-like ergonomics.

    >>> model = KMeans(n_clusters=2, seed=0)
    >>> result = model.fit(np.array([[0.0], [0.1], [5.0], [5.1]]))
    >>> sorted(np.unique(result.labels).tolist())
    [0, 1]
    """

    def __init__(
        self,
        n_clusters: int,
        n_init: int = 4,
        max_iter: int = 100,
        tol: float = 1e-6,
        seed=None,
    ):
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {n_init}")
        self.n_clusters = n_clusters
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self._rng = ensure_rng(seed)

    def fit(
        self,
        points: np.ndarray,
        weights: "np.ndarray | None" = None,
    ) -> KMeansResult:
        """Cluster ``points``; ``weights`` (optional, positive) weight each
        point's pull on its centroid — equivalent to repeating point ``i``
        ``weights[i]`` times."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be a 2-D array")
        if not np.isfinite(points).all():
            raise ValueError("points contain non-finite values; cannot cluster")
        n = points.shape[0]
        if n == 0:
            raise ValueError("cannot cluster an empty point set")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (n,):
                raise ValueError(
                    f"weights shape {weights.shape} does not match "
                    f"{n} points"
                )
            if not np.isfinite(weights).all() or (weights <= 0).any():
                raise ValueError("weights must be finite and positive")
        k = min(self.n_clusters, n)
        # Validation and the point self-norms are hoisted out of the
        # restart loop: every restart shares them.
        point_norms = np.einsum("nd,nd->n", points, points)
        seeded = _kmeans_plus_plus(
            points, k, self.n_init, self._rng, weights, point_norms
        )
        starts: list[np.ndarray] = []
        seen_starts: set[bytes] = set()
        for centers in seeded:
            start = centers.tobytes()
            if start in seen_starts:
                # Lloyd is deterministic given its start (it consumes no
                # randomness), so a duplicate seeding would tie, not win.
                # Degenerate inputs (all points coincident) collapse to a
                # single restart here.
                continue
            seen_starts.add(start)
            starts.append(centers)
        results = _lloyd_lockstep(
            points, starts, self.max_iter, self.tol, weights, point_norms
        )
        best = results[0]
        for result in results[1:]:
            if result.inertia < best.inertia:
                best = result
        return best
