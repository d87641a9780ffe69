"""Whole-table binning: the :class:`TableBinner` and the :class:`BinnedTable`.

A :class:`BinnedTable` is the shared intermediate representation consumed by
every downstream component:

* association-rule mining reads its rows as transactions of (column, bin)
  items;
* the diversity metric compares cells by bin identity;
* the embedding corpus serializes its cells as tokens ``"COLUMN=bin_label"``.

``codes[i, j]`` stores the bin index of cell (i, j) within column j's binning;
``token_ids[i, j]`` stores a globally unique id for the (column, bin) pair.

Selection-projection views (:class:`BinnedView`, produced by
:meth:`BinnedTable.subset`) share the parent table's *global token space*:
their ``token_ids`` are a pure gather of the parent's ids and their ``vocab``
is the parent's full vocabulary.  This is what lets one trained cell
embedding serve every query result — ids are never re-numbered, so vectors
trained on the full table index correctly into any view.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

import numpy as np

from repro.binning.base import ColumnBinning
from repro.binning.strategies import (
    KDE,
    bin_categorical_column,
    bin_numeric_column,
)
from repro.frame.frame import DataFrame

TOKEN_SEPARATOR = "="


def make_token(column: str, label: str) -> str:
    """The corpus token for bin ``label`` of ``column``."""
    return f"{column}{TOKEN_SEPARATOR}{label}"


def normalize_row_indices(rows) -> np.ndarray:
    """Row selection as an int64 index array; boolean masks are expanded.

    Shared by :meth:`BinnedTable.subset` and the serving layer so both
    interpret row selections identically (that equivalence is what makes
    served vectors bit-identical to cold ones).  Non-integer dtypes raise
    instead of being silently floored.
    """
    row_idx = np.asarray(rows)
    if row_idx.size == 0:
        # np.asarray([]) defaults to float64; an empty selection is valid.
        return np.zeros(0, dtype=np.int64)
    if row_idx.dtype == bool:
        return np.flatnonzero(row_idx)
    if np.issubdtype(row_idx.dtype, np.integer):
        return row_idx.astype(np.int64)
    raise IndexError(
        f"row indices must be integers or a boolean mask, "
        f"got dtype {row_idx.dtype}"
    )


def fingerprint_vocab(vocab: Sequence[str]) -> str:
    """Stable content hash of a token vocabulary.

    Two vocabularies fingerprint equal iff they list the same tokens in the
    same order — i.e. iff token ids mean the same (column, bin) pairs.  Used
    by :meth:`repro.embedding.model.CellEmbeddingModel._check_compatible` to
    reject tables whose ids live in a different token space.
    """
    digest = hashlib.sha1()
    for token in vocab:
        digest.update(token.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class BinnedTable:
    """A table together with its binning and per-cell bin codes."""

    def __init__(self, frame: DataFrame, binnings: dict[str, ColumnBinning],
                 codes: np.ndarray):
        if codes.shape != (frame.n_rows, frame.n_cols):
            raise ValueError(
                f"codes shape {codes.shape} does not match frame shape {frame.shape}"
            )
        self.frame = frame
        self.binnings = binnings
        self.codes = codes
        self.columns = frame.columns
        self._column_index = {name: j for j, name in enumerate(self.columns)}
        self._build_vocabulary()

    def _build_vocabulary(self) -> None:
        self.vocab: list[str] = []
        self.token_to_id: dict[str, int] = {}
        self._offsets = np.zeros(len(self.columns) + 1, dtype=np.int64)
        for j, name in enumerate(self.columns):
            binning = self.binnings[name]
            self._offsets[j + 1] = self._offsets[j] + binning.n_bins
            for label in binning.labels:
                token = make_token(name, label)
                self.token_to_id[token] = len(self.vocab)
                self.vocab.append(token)
        self.token_ids = (self.codes + self._offsets[:-1][np.newaxis, :]).astype(
            np.int64
        )
        self._vocab_fingerprint: Optional[str] = None

    @property
    def vocab_fingerprint(self) -> str:
        """Content hash identifying this table's token space (lazy, cached)."""
        if self._vocab_fingerprint is None:
            self._vocab_fingerprint = fingerprint_vocab(self.vocab)
        return self._vocab_fingerprint

    # -- shape ---------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.frame.n_rows

    @property
    def n_cols(self) -> int:
        return self.frame.n_cols

    @property
    def n_tokens(self) -> int:
        return len(self.vocab)

    # -- lookups -------------------------------------------------------------
    def column_index(self, name: str) -> int:
        try:
            return self._column_index[name]
        except KeyError:
            raise KeyError(f"no column named {name!r}") from None

    def binning_of(self, name: str) -> ColumnBinning:
        return self.binnings[name]

    def column_token_range(self, j: int) -> tuple[int, int]:
        """Half-open global token-id range ``[lo, hi)`` owned by column ``j``.

        Global ids are assigned column-contiguously, so one histogram over
        a whole token-id matrix can be sliced per column by these ranges
        (the grouped-bincount dispersion kernel relies on this).
        """
        return int(self._offsets[j]), int(self._offsets[j + 1])

    def token_of_cell(self, row: int, column: "str | int") -> str:
        j = column if isinstance(column, int) else self.column_index(column)
        return self.vocab[self.token_ids[row, j]]

    def bin_of_token(self, token_id: int):
        """The (column name, :class:`Bin`) pair behind a global token id."""
        j = int(np.searchsorted(self._offsets, token_id, side="right") - 1)
        name = self.columns[j]
        bin_index = token_id - int(self._offsets[j])
        return name, self.binnings[name].bins[bin_index]

    def item_of_cell(self, row: int, column: "str | int") -> tuple[str, str]:
        """The (column, bin label) *item* of a cell, as used by rules."""
        j = column if isinstance(column, int) else self.column_index(column)
        name = self.columns[j]
        return name, self.binnings[name].labels[self.codes[row, j]]

    # -- derived tables --------------------------------------------------------
    def subset(self, rows: Optional[Sequence[int]] = None,
               columns: Optional[Sequence[str]] = None) -> "BinnedView":
        """Binned view of a selection-projection of the underlying table.

        This is the key enabler of the paper's interactive query path: the
        bins, vocabulary and *global token ids* of the full table are reused;
        only the code and token-id matrices are sliced.  The returned
        :class:`BinnedView` therefore indexes correctly into any cell
        embedding trained on this table.
        """
        if rows is None:
            row_idx = np.arange(self.n_rows)
        else:
            row_idx = normalize_row_indices(rows)
        column_names = self.columns if columns is None else list(columns)
        return BinnedView(self, row_idx, column_names)

    def item_matrix(self) -> list[list[tuple[str, str]]]:
        """All rows as lists of (column, bin label) items — transaction form."""
        labels_per_column = [self.binnings[name].labels for name in self.columns]
        return [
            [
                (name, labels_per_column[j][self.codes[i, j]])
                for j, name in enumerate(self.columns)
            ]
            for i in range(self.n_rows)
        ]


class BinnedView(BinnedTable):
    """A selection-projection view over a :class:`BinnedTable`.

    Shares the parent's token space outright: ``vocab``, ``token_to_id`` and
    the vocabulary fingerprint are the *parent's* objects, and ``token_ids``
    is a gather ``parent.token_ids[rows x columns]`` — ids are never
    re-numbered.  ``n_tokens`` consequently reports the full-table vocabulary
    size even when columns are projected away; any model trained on the
    parent is valid on every view.

    Views of views flatten: ``view.subset(...)`` composes the row/column
    selections and stays anchored to the same root table, so arbitrarily
    nested query refinements keep O(1) vocabulary sharing.
    """

    def __init__(self, parent: BinnedTable, row_idx: np.ndarray,
                 column_names: list[str]):
        col_idx = np.array(
            [parent.column_index(name) for name in column_names], dtype=np.int64
        )
        # Anchor to the root table so chained views stay one hop deep.
        if isinstance(parent, BinnedView):
            root = parent.parent
            row_idx = parent._row_indices[row_idx]
            col_idx = parent._col_indices[col_idx]
        else:
            root = parent
        self.parent = root
        self._row_indices = np.asarray(row_idx, dtype=np.int64)
        self._col_indices = col_idx
        gather = np.ix_(self._row_indices, self._col_indices)
        # Deliberately no super().__init__(): that would rebuild the
        # vocabulary over the kept columns and re-number token ids — the
        # exact bug views exist to prevent.
        self.binnings = {name: root.binnings[name] for name in column_names}
        self.codes = root.codes[gather]
        self.token_ids = root.token_ids[gather]
        self.columns = list(column_names)
        self._column_index = {name: j for j, name in enumerate(self.columns)}
        self.vocab = root.vocab
        self.token_to_id = root.token_to_id
        # The value frame is built lazily: selection runs entirely on the
        # gathered code/token-id matrices, and materializing the frame
        # (a per-cell coercion pass) dominated view construction.
        self._frame: "DataFrame | None" = None

    @property
    def frame(self) -> DataFrame:
        """The selection-projection of the root frame (lazy, cached)."""
        if self._frame is None:
            self._frame = self.parent.frame.take(self._row_indices).project(
                self.columns
            )
        return self._frame

    @property
    def n_rows(self) -> int:
        return len(self._row_indices)

    @property
    def n_cols(self) -> int:
        return len(self._col_indices)

    def column_token_range(self, j: int) -> tuple[int, int]:
        """Delegate to the root: token ids are global, offsets live there."""
        return self.parent.column_token_range(int(self._col_indices[j]))

    @property
    def vocab_fingerprint(self) -> str:
        """The root table's fingerprint — views live in the same token space."""
        return self.parent.vocab_fingerprint

    @property
    def row_indices(self) -> np.ndarray:
        """Positions of the view's rows in the root table."""
        return self._row_indices

    @property
    def column_indices(self) -> np.ndarray:
        """Positions of the view's columns in the root table."""
        return self._col_indices

    def bin_of_token(self, token_id: int):
        """Delegate to the root: token ids are global, offsets live there."""
        return self.parent.bin_of_token(token_id)


class TableBinner:
    """Bins every column of a table (paper Definition 3.2 / Section 5.1).

    Parameters
    ----------
    n_bins:
        Target number of value bins per continuous column (default 5, the
        paper's default; Fig. 10a varies this in {5, 7, 10}).
    strategy:
        ``"kde"`` (default, per Section 6.1), ``"width"`` or ``"quantile"``.
    max_categories:
        Categorical columns with more distinct values than this get an
        ``OTHER`` tail bin.
    seed:
        Seed for the KDE sub-sampling of very large columns.
    """

    def __init__(self, n_bins: int = 5, strategy: str = KDE,
                 max_categories: int = 12, seed: int = 0):
        if n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {n_bins}")
        if max_categories < 2:
            raise ValueError(f"max_categories must be >= 2, got {max_categories}")
        self.n_bins = n_bins
        self.strategy = strategy
        self.max_categories = max_categories
        self.seed = seed

    @classmethod
    def from_config(cls, config) -> "TableBinner":
        """Binner configured from any object carrying the binning knobs
        (``n_bins``/``bin_strategy``/``max_categories``/``seed`` — e.g. a
        :class:`~repro.core.config.SubTabConfig`).  The single place the
        config-to-binner mapping lives, shared by SubTab, the selector
        base class, and the Engine."""
        return cls(
            n_bins=config.n_bins,
            strategy=config.bin_strategy,
            max_categories=config.max_categories,
            seed=config.seed,
        )

    def bin_column(self, column) -> ColumnBinning:
        """Choose and apply the right strategy for one column."""
        if column.is_numeric:
            return bin_numeric_column(
                column, n_bins=self.n_bins, strategy=self.strategy, seed=self.seed
            )
        return bin_categorical_column(column, max_categories=self.max_categories)

    def bin_table(self, frame: DataFrame) -> BinnedTable:
        """Bin every column of ``frame`` and assemble the code matrix."""
        binnings: dict[str, ColumnBinning] = {}
        codes = np.empty((frame.n_rows, frame.n_cols), dtype=np.int64)
        for j, name in enumerate(frame.columns):
            column = frame.column(name)
            binning = self.bin_column(column)
            binnings[name] = binning
            codes[:, j] = binning.assign(column.values)
        return BinnedTable(frame, binnings, codes)
