"""NC baseline — naive clustering over one-hot encodings (Section 6.1).

Categorical columns are one-hot encoded and continuous columns z-normalized;
each row becomes a vector, rows are clustered with KMeans and the cluster
representatives form the sub-table rows.  Columns are selected analogously:
each column becomes a vector over (a sample of) the rows and the column
vectors are clustered.  The paper uses NC to show that clustering the *raw*
encoding, without the embedding, fails to capture co-occurrence patterns.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.baselines.base import BaseSelector
from repro.binning.pipeline import BinnedTable
from repro.cluster.centroids import select_representatives
from repro.utils.rng import ensure_rng


def one_hot_rows(view: BinnedTable, max_onehot: int = 30) -> np.ndarray:
    """(n, f) one-hot/numeric feature matrix for the rows of ``view``.

    Numeric columns contribute one z-normalized feature (missing -> 0);
    categorical columns contribute one indicator per distinct value, capped
    at ``max_onehot`` most frequent values.
    """
    features: list[np.ndarray] = []
    frame = view.frame
    for name in view.columns:
        column = frame.column(name)
        if column.is_numeric:
            values = column.values.astype(np.float64).copy()
            missing = np.isnan(values)
            present = values[~missing]
            if len(present) and present.std() > 0:
                values = (values - present.mean()) / present.std()
            values[missing] = 0.0
            features.append(values[:, np.newaxis])
        else:
            counts = column.value_counts()
            kept = list(counts.keys())[:max_onehot]
            for value in kept:
                indicator = np.array(
                    [cell == value for cell in column.values], dtype=np.float64
                )
                features.append(indicator[:, np.newaxis])
    if not features:
        return np.zeros((frame.n_rows, 1))
    return np.hstack(features)


def column_feature_vectors(view: BinnedTable, sample_rows: int,
                           rng: np.random.Generator) -> np.ndarray:
    """(m, s) matrix: each column as an ordinal/z-normalized vector over rows."""
    frame = view.frame
    n = frame.n_rows
    if n > sample_rows:
        chosen = np.sort(rng.choice(n, size=sample_rows, replace=False))
    else:
        chosen = np.arange(n)
    vectors = []
    for name in view.columns:
        column = frame.column(name)
        if column.is_numeric:
            values = column.values[chosen].astype(np.float64).copy()
            missing = np.isnan(values)
            present = values[~missing]
            if len(present) and present.std() > 0:
                values = (values - present.mean()) / present.std()
            values[missing] = 0.0
        else:
            # Ordinal codes by frequency rank, z-normalized.
            counts = column.value_counts()
            rank = {value: i for i, value in enumerate(counts)}
            values = np.array(
                [float(rank.get(column[i], len(rank))) for i in chosen]
            )
            if values.std() > 0:
                values = (values - values.mean()) / values.std()
        vectors.append(values)
    return np.vstack(vectors)


class NaiveClusteringSelector(BaseSelector):
    """KMeans over one-hot encodings, for rows and columns alike."""

    name = "NC"

    def __init__(self, max_onehot: int = 30, sample_rows: int = 2000,
                 n_init: int = 4, seed=None, binner=None):
        super().__init__(seed=seed, binner=binner)
        self.max_onehot = max_onehot
        self.sample_rows = sample_rows
        self.n_init = n_init

    def _select_from_view(
        self,
        view: BinnedTable,
        rows: np.ndarray,
        columns: list[str],
        k: int,
        l: int,
        targets: list[str],
        modes: Mapping[str, str],
    ) -> tuple[list[int], list[str]]:
        # A fresh generator per select: a repeated request gets the same
        # answer whatever this selector served before.
        rng = ensure_rng(self._seed)
        row_features = one_hot_rows(view, max_onehot=self.max_onehot)
        local_rows = select_representatives(
            row_features, k, n_init=self.n_init, seed=rng
        )

        candidates = [name for name in columns if name not in targets]
        n_free = l - len(targets)
        if n_free >= len(candidates):
            chosen = set(candidates)
        elif n_free == 0:
            chosen = set()
        else:
            column_vectors = column_feature_vectors(view, self.sample_rows, rng)
            candidate_idx = [view.column_index(name) for name in candidates]
            picked = select_representatives(
                column_vectors[candidate_idx], n_free,
                n_init=self.n_init, seed=rng,
            )
            chosen = {candidates[i] for i in picked}
        chosen.update(targets)
        selected_columns = [name for name in columns if name in chosen]
        return local_rows, selected_columns
