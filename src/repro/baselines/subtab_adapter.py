"""Adapter exposing SubTab through the common selector interface.

Experiments and the :class:`repro.api.Engine` drive every algorithm through
``prepare(frame, binned) / select(k, l, query, targets)``; this adapter lets
SubTab share the same pre-computed binning as the baselines so that quality
differences reflect the selection algorithm, not the bins.

The adapter also owns SubTab's serving-layer fast path: the full-table
tuple-vectors are materialized (lazily) once, and any query view's row
vectors are served by slicing that cache — bit-identical to recomputing
them, because views gather the parent's global token ids.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.baselines.base import BaseSelector
from repro.binning.pipeline import BinnedTable, TableBinner, normalize_row_indices
from repro.core.config import SubTabConfig
from repro.core.selection import centroid_selection
from repro.core.subtab import SubTab
from repro.embedding.model import CellEmbeddingModel
from repro.utils.rng import ensure_rng


class SubTabSelector(BaseSelector):
    """SubTab behind the :class:`BaseSelector` protocol.

    Parameters
    ----------
    config:
        Pipeline configuration; its binning knobs configure the binner used
        when ``prepare`` is called without a shared ``binned`` table.
    seed:
        Override for the selection RNG (defaults to ``config.seed``).
    subtab:
        An existing (possibly already fitted) :class:`SubTab` to adopt; the
        adapter then serves its fitted state instead of re-fitting.
    """

    name = "SubTab"

    supported_modes = frozenset({"row_mode", "column_mode", "centroid_mode"})

    def __init__(
        self,
        config: Optional[SubTabConfig] = None,
        seed=None,
        subtab: Optional[SubTab] = None,
    ):
        if subtab is not None and config is not None:
            raise ValueError("pass either config or a subtab, not both")
        if subtab is not None:
            config = subtab.config
        config = config or SubTabConfig()
        super().__init__(
            seed=config.seed if seed is None else seed,
            binner=TableBinner.from_config(config),
        )
        self.config = config
        self._subtab: Optional[SubTab] = subtab
        self._pretrained_model: Optional[CellEmbeddingModel] = None
        self._full_row_vectors: Optional[np.ndarray] = None
        if subtab is not None and subtab.is_fitted:
            self._frame = subtab.frame
            self._binned = subtab.binned

    def _after_prepare(self) -> None:
        self._full_row_vectors = None
        if (
            self._subtab is not None
            and self._subtab.is_fitted
            and self._subtab.binned is self._binned
        ):
            return  # adopting an already-fitted SubTab on the same binning
        if self._subtab is None:
            self._subtab = SubTab(self.config)
        self._subtab.fit(
            self._frame, binned=self._binned, model=self._pretrained_model
        )

    @property
    def subtab(self) -> SubTab:
        self._require_prepared()
        return self._subtab

    @property
    def timings_(self) -> dict:
        return self._subtab.timings_ if self._subtab else {}

    # -- embedding persistence hooks (repro.api artifacts) ---------------------
    @property
    def embedding_model(self) -> Optional[CellEmbeddingModel]:
        """The trained cell-embedding model, once prepared."""
        return self._subtab.model if self.is_fitted else None

    def preload_embedding(self, model: CellEmbeddingModel) -> None:
        """Inject a pre-trained embedding; the next ``prepare`` skips training."""
        self._pretrained_model = model

    # -- cached row vectors -----------------------------------------------------
    @property
    def full_row_vectors(self) -> np.ndarray:
        """(n, d) full-table tuple-vectors, materialized once on first use."""
        self._require_prepared()
        if self._full_row_vectors is None:
            self._full_row_vectors = self._subtab.model.row_vectors(self._binned)
        return self._full_row_vectors

    def view_row_vectors(self, rows, columns: Sequence[str]) -> np.ndarray:
        """(len(rows), d) tuple-vectors of the query view.

        Bit-identical to ``model.row_vectors(binned.subset(rows, columns))``:
        views gather global token ids, so slicing commutes with the
        embedding lookup.  Queries keeping every column (in table order) hit
        the cached full-table tuple-vectors; projections gather from the
        model's token vectors directly.
        """
        self._require_prepared()
        rows = normalize_row_indices(rows)
        col_idx = np.array(
            [self._binned.column_index(name) for name in columns], dtype=np.int64
        )
        if self._keeps_all_columns(col_idx):
            return self.full_row_vectors[rows]
        model = self._subtab.model
        return model.vectors[self._binned.token_ids[np.ix_(rows, col_idx)]].mean(
            axis=1
        )

    def _keeps_all_columns(self, col_idx: np.ndarray) -> bool:
        """Whether a column selection is the full table in table order."""
        return len(col_idx) == self._binned.n_cols and np.array_equal(
            col_idx, np.arange(len(col_idx))
        )

    def _view_vectors(self, view) -> np.ndarray:
        """Tuple-vectors of an already-built view, without re-gathering ids."""
        col_idx = getattr(view, "column_indices", None)
        if col_idx is not None and self._keeps_all_columns(col_idx):
            return self.full_row_vectors[view.row_indices]
        return self._subtab.model.vectors[view.token_ids].mean(axis=1)

    # -- selection ---------------------------------------------------------------
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
        config = self.config
        # A fresh generator per call, exactly like SubTab.select: every
        # display is deterministic given the seed, so repeated/cached
        # requests are bit-identical to cold ones by construction.
        return centroid_selection(
            view,
            self._subtab.model,
            k,
            l,
            targets=targets,
            centroid_mode=modes.get("centroid_mode", config.centroid_mode),
            column_mode=modes.get("column_mode", config.column_mode),
            row_mode=modes.get("row_mode", config.row_mode),
            n_init=config.kmeans_n_init,
            seed=ensure_rng(self._seed),
            row_vectors=self._view_vectors(view),
        )

    def _repair_fairness(self, view: BinnedTable, local_rows, fairness):
        from repro.core.fairness import enforce_representation

        return enforce_representation(
            view, local_rows, self._view_vectors(view), fairness
        )
