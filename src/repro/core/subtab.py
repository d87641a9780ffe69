"""SubTab — the practical sub-table selection algorithm (paper Algorithm 2).

Two phases:

1. :meth:`SubTab.fit` — *pre-processing*, run once when the table is loaded:
   normalize values, bin every column, serialize the binned table into
   tuple/column sentences and train the cell embedding M.
2. :meth:`SubTab.select` — *centroid-based selection*, run per display
   (including per exploratory query): pool cell vectors into tuple-vectors
   and column-vectors, cluster each, and take the rows/columns nearest the
   cluster centers.  Target columns U* are excluded from clustering and
   appended afterwards, exactly as in lines 13-17 of the algorithm.  The
   phase has one implementation,
   :class:`~repro.baselines.subtab_adapter.SubTabSelector`, which also
   serves the :class:`repro.api.Engine` and the EmbDI baseline;
   ``select`` calls into it.

Because the embedding is computed once over the *full* table, selecting a
sub-table for a query result costs only a slicing of the token matrix plus
two small KMeans runs — this is the paper's interactivity argument, and the
reproduction of Figure 9 measures exactly this split.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.binning.normalize import normalize_table
from repro.binning.pipeline import BinnedTable, TableBinner
from repro.core.config import PMI_SVD, SubTabConfig
from repro.core.result import SubTable
from repro.embedding.corpus import build_corpus
from repro.embedding.model import CellEmbeddingModel
from repro.embedding.pmi import train_pmi_embedding
from repro.embedding.word2vec import Word2Vec
from repro.frame.frame import DataFrame
from repro.utils.rng import ensure_rng
from repro.utils.timer import timed

if TYPE_CHECKING:
    from repro.baselines.subtab_adapter import SubTabSelector


class NotFittedError(RuntimeError):
    """Raised when selection is requested before :meth:`SubTab.fit`."""


class SubTab:
    """The SubTab selector.

    >>> from repro.frame import DataFrame
    >>> frame = DataFrame({"a": [1.0, 2.0, 30.0, 31.0] * 10,
    ...                    "b": ["x", "x", "y", "y"] * 10,
    ...                    "c": [0.1, 0.2, 9.0, 9.1] * 10})
    >>> subtab = SubTab(SubTabConfig(k=2, l=2, seed=0)).fit(frame)
    >>> result = subtab.select()
    >>> result.shape
    (2, 2)
    """

    def __init__(self, config: Optional[SubTabConfig] = None):
        self.config = config or SubTabConfig()
        self._frame: Optional[DataFrame] = None
        self._binned: Optional[BinnedTable] = None
        self._model: Optional[CellEmbeddingModel] = None
        # The selection phase's selector, built on the first select and
        # dropped by a re-fit (never built by ``fit``).
        self._selector: Optional[SubTabSelector] = None
        self.timings_: dict[str, float] = {}

    # -- phase 1: pre-processing -------------------------------------------------
    def fit(
        self,
        frame: DataFrame,
        binned: Optional[BinnedTable] = None,
        model: Optional[CellEmbeddingModel] = None,
    ) -> "SubTab":
        """Pre-process ``frame``: normalize, bin, embed.  Returns ``self``.

        A pre-computed ``binned`` table may be supplied (experiments share
        one binning across algorithms); normalization and binning are then
        skipped and only the embedding is trained.  A pre-trained ``model``
        may additionally be supplied (artifact restore via
        :class:`repro.api.Engine`); it must have been trained on ``binned``'s
        token space, and the embedding phase is then skipped entirely.
        """
        config = self.config
        rng = ensure_rng(config.seed)
        if model is not None and binned is None:
            raise ValueError(
                "a pre-trained model requires the binned table it was trained "
                "on; pass binned= alongside model="
            )
        with timed(self.timings_, "preprocess_total"):
            if binned is not None:
                normalized = binned.frame
                self.timings_["preprocess_normalize"] = 0.0
                self.timings_["preprocess_binning"] = 0.0
            else:
                with timed(self.timings_, "preprocess_normalize"):
                    normalized = normalize_table(frame)
                with timed(self.timings_, "preprocess_binning"):
                    binned = TableBinner.from_config(config).bin_table(normalized)
            if model is not None:
                if model.vocab_fingerprint != binned.vocab_fingerprint:
                    raise ValueError(
                        "pre-trained model's vocabulary does not match the "
                        "binned table; its token ids would index the wrong "
                        "vectors"
                    )
                self.timings_["preprocess_embedding"] = 0.0
            else:
                with timed(self.timings_, "preprocess_embedding"):
                    sentences = build_corpus(
                        binned,
                        mode=config.corpus_mode,
                        max_sentences=config.max_sentences,
                        column_chunk=config.column_chunk,
                        seed=rng,
                    )
                    if config.embedder == PMI_SVD:
                        model = train_pmi_embedding(
                            sentences, binned.vocab,
                            dim=config.word2vec.dim, seed=config.seed,
                        )
                    else:
                        trainer = Word2Vec(
                            binned.n_tokens, config=config.word2vec, seed=rng
                        )
                        trainer.train(sentences)
                        model = CellEmbeddingModel(trainer.vectors, binned.vocab)
        self._frame = normalized
        self._binned = binned
        self._model = model
        self._selector = None
        return self

    # ``prepare`` is the :class:`repro.api.Selector`-protocol spelling of the
    # pre-processing phase; SubTab and the baselines answer to both names.
    prepare = fit

    # -- fitted-state accessors ---------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._binned is not None

    def _require_fitted(self) -> BinnedTable:
        if self._binned is None:
            raise NotFittedError("call fit(frame) before selecting sub-tables")
        return self._binned

    @property
    def frame(self) -> DataFrame:
        """The normalized full table T."""
        self._require_fitted()
        return self._frame

    @property
    def binned(self) -> BinnedTable:
        """The binned full table (shared by metrics and baselines)."""
        return self._require_fitted()

    @property
    def model(self) -> CellEmbeddingModel:
        """The trained cell-embedding model M."""
        self._require_fitted()
        return self._model

    # -- phase 2: centroid-based selection ---------------------------------------
    def select(
        self,
        k: Optional[int] = None,
        l: Optional[int] = None,
        query=None,
        targets: Sequence[str] = (),
        fairness=None,
    ) -> SubTable:
        """Select a k x l sub-table of T (or of a query result over T).

        Parameters
        ----------
        k, l:
            Sub-table dimensions; default to the configured values.
        query:
            Optional selection-projection query — any object exposing
            ``row_indices(frame) -> array`` and
            ``output_columns(frame) -> list[str]``
            (see :mod:`repro.queries`).  ``None`` selects from the full table.
        targets:
            Target columns U*; always included among the l selected columns
            and excluded from column clustering (Alg. 2 lines 13-17).
        fairness:
            Optional :class:`~repro.core.fairness.GroupRepresentation`
            constraint; the row selection is repaired so every sufficiently
            large group of the protected column is represented (the paper's
            future-work extension).
        """
        self._require_fitted()
        config = self.config
        k = config.k if k is None else k
        l = config.l if l is None else l
        with timed(self.timings_, "select"):
            if self._selector is None:
                from repro.baselines.subtab_adapter import SubTabSelector

                self._selector = SubTabSelector(subtab=self)
            subtable = self._selector.select(
                k, l, query=query, targets=targets, fairness=fairness
            )
        return subtable
