"""EmbDI baseline selector (paper Section 6.1, baseline 6).

Uses the EmbDI-style graph embedding (:mod:`repro.embedding.embdi`) in place
of SubTab's tabular Word2Vec, then performs the *same* centroid-based
selection.  Differences from SubTab are therefore attributable entirely to
the embedding: quality is comparable (Fig. 7a) but pre-processing is an
order of magnitude slower (Fig. 7b) because the walk corpus over the
row/column/value graph is much larger than the tabular sentence corpus.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.baselines.base import BaseSelector
from repro.binning.pipeline import BinnedTable
from repro.core.selection import centroid_selection
from repro.embedding.embdi import EmbDIEmbedder
from repro.embedding.model import CellEmbeddingModel
from repro.embedding.word2vec import Word2VecConfig
from repro.utils.rng import ensure_rng
from repro.utils.timer import timed


class EmbDISelector(BaseSelector):
    """Centroid selection over EmbDI graph-walk embeddings."""

    name = "EmbDI"

    supported_modes = frozenset({"row_mode", "column_mode", "centroid_mode"})

    def __init__(
        self,
        walks_per_node: int = 5,
        walk_length: int = 20,
        word2vec: Word2VecConfig | None = None,
        centroid_mode: str = "nearest",
        column_mode: str = "dispersion",
        row_mode: str = "mass",
        n_init: int = 4,
        seed=None,
        binner=None,
    ):
        super().__init__(seed=seed, binner=binner)
        self.walks_per_node = walks_per_node
        self.walk_length = walk_length
        self.word2vec = word2vec or Word2VecConfig()
        self.centroid_mode = centroid_mode
        self.column_mode = column_mode
        # EmbDI keeps the mass row stage it has always used; pass
        # row_mode="cluster" for the literal Algorithm-2 stage.
        self.row_mode = row_mode
        self.n_init = n_init
        self._model: CellEmbeddingModel | None = None
        self._pretrained_model: CellEmbeddingModel | None = None
        self.timings_: dict[str, float] = {}

    def _after_prepare(self) -> None:
        if self._pretrained_model is not None:
            self._model = self._pretrained_model
            self.timings_["preprocess_embedding"] = 0.0
            return
        embedder = EmbDIEmbedder(
            walks_per_node=self.walks_per_node,
            walk_length=self.walk_length,
            config=self.word2vec,
            seed=self._rng,
        )
        with timed(self.timings_, "preprocess_embedding"):
            self._model = embedder.fit(self._binned)

    # -- embedding persistence hooks (repro.api artifacts) ---------------------
    @property
    def embedding_model(self) -> CellEmbeddingModel | None:
        """The trained graph-embedding model, once prepared."""
        return self._model

    def preload_embedding(self, model: CellEmbeddingModel) -> None:
        """Inject a pre-trained embedding; the next ``prepare`` skips walks."""
        self._pretrained_model = model

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
        with timed(self.timings_, "select"):
            # A fresh generator per call (like SubTab): every display is
            # deterministic given the seed, so a recomputation after LRU
            # eviction returns the same sub-table the cache held.
            local_rows, selected_columns = centroid_selection(
                view,
                self._model,
                k,
                l,
                targets=targets,
                centroid_mode=modes.get("centroid_mode", self.centroid_mode),
                column_mode=modes.get("column_mode", self.column_mode),
                row_mode=modes.get("row_mode", self.row_mode),
                n_init=self.n_init,
                seed=ensure_rng(self._seed),
            )
        return local_rows, selected_columns

    def _repair_fairness(self, view: BinnedTable, local_rows, fairness):
        from repro.core.fairness import enforce_representation

        return enforce_representation(
            view, local_rows, self._model.row_vectors(view), fairness
        )
