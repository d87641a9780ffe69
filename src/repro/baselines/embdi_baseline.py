"""EmbDI baseline selector (paper Section 6.1, baseline 6).

Uses the EmbDI-style graph embedding (:mod:`repro.embedding.embdi`) in place
of SubTab's tabular Word2Vec, then performs the *same* centroid-based
selection — it inherits :class:`~repro.baselines.SubTabSelector`'s select
path and overrides only how the embedding is trained.  Differences from
SubTab are therefore attributable entirely to the embedding: quality is
comparable (Fig. 7a) but pre-processing is an order of magnitude slower
(Fig. 7b) because the walk corpus over the row/column/value graph is much
larger than the tabular sentence corpus.
"""

from __future__ import annotations

from repro.baselines.base import check_seed
from repro.baselines.subtab_adapter import SubTabSelector
from repro.core.config import SubTabConfig
from repro.embedding.embdi import EmbDIEmbedder
from repro.embedding.model import CellEmbeddingModel
from repro.embedding.word2vec import Word2VecConfig
from repro.utils.timer import timed


class EmbDISelector(SubTabSelector):
    """Centroid selection over EmbDI graph-walk embeddings."""

    name = "EmbDI"

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
        # EmbDI keeps the mass row stage it has always used; pass
        # row_mode="cluster" for the literal Algorithm-2 stage.
        super().__init__(SubTabConfig(
            word2vec=word2vec or Word2VecConfig(),
            centroid_mode=centroid_mode,
            column_mode=column_mode,
            row_mode=row_mode,
            kmeans_n_init=n_init,
        ))
        # The seed and binner are EmbDI's own, not the config's: an
        # unseeded EmbDI stays unseeded, and without a binner ``prepare``
        # bins like every other baseline.
        self._seed = check_seed(seed)
        self._binner = binner
        self.walks_per_node = walks_per_node
        self.walk_length = walk_length

    def _train_embedding(self) -> CellEmbeddingModel:
        if self._pretrained_model is not None:
            self.timings_["preprocess_embedding"] = 0.0
            return self._pretrained_model
        embedder = EmbDIEmbedder(
            walks_per_node=self.walks_per_node,
            walk_length=self.walk_length,
            config=self.config.word2vec,
            seed=self._seed,
        )
        with timed(self.timings_, "preprocess_embedding"):
            model = embedder.fit(self._binned)
        return model
