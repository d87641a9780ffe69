"""Binning strategies for continuous and categorical columns.

The paper's implementation bins continuous columns with kernel density
estimation (Section 6.1): cut the domain at the most prominent local minima
of a Gaussian KDE, so bins follow the modes of the value distribution.  We
implement that (via :func:`scipy.stats.gaussian_kde`) along with equal-width
and quantile fallbacks, which also serve the binning ablation bench.

Categorical columns keep each distinct value as a bin when there are few of
them, and otherwise group the tail into an ``OTHER`` bin — the analogue of
Example 3.3's airline-by-continent grouping when no semantic hierarchy is
available.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import gaussian_kde

from repro.binning.base import (
    CATEGORY,
    MISSING,
    MISSING_LABEL,
    OTHER_LABEL,
    Bin,
    ColumnBinning,
    make_range_bins,
)
from repro.frame.column import Column
from repro.utils.blas import single_blas_thread

KDE = "kde"
EQUAL_WIDTH = "width"
QUANTILE = "quantile"

_STRATEGIES = (KDE, EQUAL_WIDTH, QUANTILE)
_KDE_GRID_SIZE = 512
_KDE_MAX_SAMPLE = 20_000


def _dedupe_edges(edges: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Keep edges strictly inside (lo, hi), sorted and distinct."""
    edges = np.unique(np.asarray(edges, dtype=np.float64))
    return edges[(edges > lo) & (edges < hi)]


def quantile_edges(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Interior edges placing roughly equal row counts into each bin."""
    probs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    return np.quantile(values, probs)


def equal_width_edges(lo: float, hi: float, n_bins: int) -> np.ndarray:
    """Interior edges of ``n_bins`` equal-width intervals over [lo, hi]."""
    return np.linspace(lo, hi, n_bins + 1)[1:-1]


def kde_edges(values: np.ndarray, n_bins: int, seed: int = 0) -> np.ndarray:
    """Interior edges at the deepest local minima of a Gaussian KDE.

    If the density has fewer than ``n_bins - 1`` local minima, remaining cuts
    are filled from quantiles so the column still gets ``n_bins`` bins (the
    parameter-tuning experiment of Fig. 10a requires a controllable count).
    """
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        return np.empty(0)
    sample = values
    if len(sample) > _KDE_MAX_SAMPLE:
        rng = np.random.default_rng(seed)
        sample = rng.choice(sample, size=_KDE_MAX_SAMPLE, replace=False)
    try:
        # A 1x1 Cholesky and triangular solves over at most _KDE_MAX_SAMPLE
        # right-hand sides: a second BLAS thread only spins, and each
        # solved value is the same on one thread.
        with single_blas_thread():
            density_fn = gaussian_kde(sample)
            grid = np.linspace(lo, hi, _KDE_GRID_SIZE)
            density = density_fn(grid)
    except np.linalg.LinAlgError:
        return _dedupe_edges(quantile_edges(values, n_bins), lo, hi)

    interior = np.arange(1, _KDE_GRID_SIZE - 1)
    is_minimum = (density[interior] < density[interior - 1]) & (
        density[interior] <= density[interior + 1]
    )
    minima = interior[is_minimum]
    # The deepest minima are the most salient separations between modes.
    order = np.argsort(density[minima])
    chosen = grid[minima[order][: n_bins - 1]]
    if len(chosen) < n_bins - 1:
        fill = quantile_edges(values, n_bins)
        chosen = np.concatenate([chosen, fill])
    edges = _dedupe_edges(chosen, lo, hi)
    return np.sort(edges)[: n_bins - 1]


def bin_numeric_column(
    column: Column,
    n_bins: int = 5,
    strategy: str = KDE,
    seed: int = 0,
) -> ColumnBinning:
    """Bin a numeric column into at most ``n_bins`` value bins (+ missing).

    Columns with at most ``n_bins`` distinct values get one bin per value
    (binary columns like CANCELLED keep their categories as bins).
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {_STRATEGIES}")
    values = column.non_missing_values().astype(np.float64)
    has_missing = column.n_missing() > 0
    if len(values) == 0:
        bins = [Bin(column=column.name, label=MISSING_LABEL, kind=MISSING)]
        return ColumnBinning(column.name, bins)

    distinct = np.unique(values)
    lo, hi = float(distinct[0]), float(distinct[-1])
    if len(distinct) <= n_bins:
        # One bin per value: midpoints between consecutive values are edges.
        edges = (distinct[:-1] + distinct[1:]) / 2.0 if len(distinct) > 1 else np.empty(0)
        return make_range_bins(column.name, edges, lo, hi, include_missing=has_missing)

    if strategy == KDE:
        edges = kde_edges(values, n_bins, seed=seed)
    elif strategy == QUANTILE:
        edges = quantile_edges(values, n_bins)
    else:
        edges = equal_width_edges(lo, hi, n_bins)
    edges = _dedupe_edges(edges, lo, hi)
    if len(edges) == 0:
        edges = _dedupe_edges(equal_width_edges(lo, hi, n_bins), lo, hi)
    return make_range_bins(column.name, edges, lo, hi, include_missing=has_missing)


def bin_categorical_column(column: Column, max_categories: int = 12) -> ColumnBinning:
    """Bin a categorical column: one bin per value, or top values + OTHER.

    With more than ``max_categories`` distinct values, the most frequent
    ``max_categories - 1`` values each keep a bin and the rest share OTHER.
    """
    counts = column.value_counts()
    has_missing = column.n_missing() > 0
    bins: list[Bin] = []
    if len(counts) <= max_categories:
        for value in counts:
            bins.append(
                Bin(column=column.name, label=str(value), kind=CATEGORY,
                    categories=frozenset([value]))
            )
    else:
        kept = list(counts.keys())[: max_categories - 1]
        rest = frozenset(set(counts.keys()) - set(kept))
        for value in kept:
            bins.append(
                Bin(column=column.name, label=str(value), kind=CATEGORY,
                    categories=frozenset([value]))
            )
        bins.append(
            Bin(column=column.name, label=OTHER_LABEL, kind=CATEGORY, categories=rest)
        )
    if has_missing or not bins:
        bins.append(Bin(column=column.name, label=MISSING_LABEL, kind=MISSING))
    return ColumnBinning(column.name, bins)
