"""Centroid-based selection behind the common selector interface.

Experiments and the :class:`repro.api.Engine` drive every algorithm through
``prepare(frame, binned) / select(k, l, query, targets)``; this adapter lets
SubTab share the same pre-computed binning as the baselines so that quality
differences reflect the selection algorithm, not the bins.

It is the one implementation of Algorithm 2's per-display phase: view →
:func:`~repro.core.selection.centroid_selection` → fairness repair.
:meth:`SubTab.select <repro.core.SubTab.select>` calls into it, and the
EmbDI baseline inherits it, swapping only the embedding.

The adapter also owns the serving-layer fast path: the full-table
tuple-vectors are materialized (lazily) once, and any view keeping every
column is served by slicing that cache — bit-identical to recomputing
them, because views gather the parent's global token ids.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.baselines.base import BaseSelector
from repro.binning.pipeline import BinnedTable, TableBinner
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
        when ``prepare`` is called without a shared ``binned`` table, and
        its ``centroid_mode``/``column_mode``/``row_mode``/``kmeans_n_init``
        drive every select.
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
        self.timings_: dict[str, float] = (
            subtab.timings_ if subtab is not None else {}
        )
        self._model: Optional[CellEmbeddingModel] = None
        self._pretrained_model: Optional[CellEmbeddingModel] = None
        self._full_row_vectors: Optional[np.ndarray] = None
        if subtab is not None and subtab.is_fitted:
            self._frame = subtab.frame
            self._binned = subtab.binned
            self._model = subtab.model

    def _after_prepare(self) -> None:
        self._full_row_vectors = None
        self._model = self._train_embedding()

    def _train_embedding(self) -> CellEmbeddingModel:
        """The cell embedding over the prepared table (Alg. 2 lines 1-4).

        Fits the adopted (or a new) :class:`SubTab` on the shared binning,
        unless it is already fitted on it; a preloaded embedding skips the
        training.  Subclasses swap the embedding by overriding this hook.
        """
        subtab = self._subtab
        if subtab is None:
            subtab = self._subtab = SubTab(self.config)
            self.timings_ = subtab.timings_
        if not (subtab.is_fitted and subtab.binned is self._binned):
            subtab.fit(
                self._frame, binned=self._binned, model=self._pretrained_model
            )
        return subtab.model

    @property
    def subtab(self) -> SubTab:
        self._require_prepared()
        return self._subtab

    # -- embedding persistence hooks (repro.api artifacts) ---------------------
    @property
    def embedding_model(self) -> Optional[CellEmbeddingModel]:
        """The trained cell-embedding model, once prepared."""
        return self._model

    def preload_embedding(self, model: CellEmbeddingModel) -> None:
        """Inject a pre-trained embedding; the next ``prepare`` skips training."""
        self._pretrained_model = model

    # -- selection ---------------------------------------------------------------
    def _view_vectors(self, view) -> np.ndarray:
        """(n, d) tuple-vectors of ``view`` (Alg. 2 lines 8-10).

        Views keeping every column in table order slice the full-table
        tuple-vectors, materialized once; projections pool the model's
        token vectors over the view's global token ids.
        """
        col_idx = getattr(view, "column_indices", None)
        if col_idx is not None and np.array_equal(
            col_idx, np.arange(self._binned.n_cols)
        ):
            if self._full_row_vectors is None:
                self._full_row_vectors = self._model.row_vectors(self._binned)
            return self._full_row_vectors[view.row_indices]
        return self._model.vectors[view.token_ids].mean(axis=1)

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
        # A fresh generator per call: every display is deterministic given
        # the seed, so repeated/cached requests are bit-identical to cold
        # ones by construction.
        return centroid_selection(
            view,
            self._model,
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
