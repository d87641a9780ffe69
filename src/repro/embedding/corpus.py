"""Tabular sentence corpus (paper Section 5.1 pre-processing).

The table is serialized into a corpus where each cell is a word (its bin
token).  Two sentence types exist:

* *tuple-sentences* — the tokens of one row, capturing cross-column
  co-occurrence (the signal association rules formalize);
* *column-sentences* — the tokens appearing in one column, capturing the
  value distribution within a column.

The paper caps the corpus at 100K sentences sampled uniformly at random.
Column-sentences over large tables would be enormously long, so we shuffle
each column's cells and split them into fixed-size chunks; with the paper's
window size of max(n, m) (i.e. the whole sentence), chunking only bounds the
co-occurrence neighbourhood, preserving the distributional signal.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.binning.pipeline import BinnedTable
from repro.core.kernels import token_counts
from repro.utils.rng import ensure_rng

ROWS_ONLY = "rows"
ROWS_AND_COLUMNS = "rows+columns"

DEFAULT_MAX_SENTENCES = 100_000
DEFAULT_COLUMN_CHUNK = 50

Sentence = np.ndarray  # 1-D array of token ids


def build_corpus(
    binned: BinnedTable,
    mode: str = ROWS_AND_COLUMNS,
    max_sentences: int = DEFAULT_MAX_SENTENCES,
    column_chunk: int = DEFAULT_COLUMN_CHUNK,
    seed=None,
) -> List[Sentence]:
    """Build the sentence corpus for ``binned``.

    Parameters
    ----------
    mode:
        ``"rows+columns"`` (paper default) or ``"rows"`` (corpus ablation).
    max_sentences:
        Uniform random cap on the corpus size (paper: 100K).
    column_chunk:
        Length of each column-sentence chunk.
    """
    if mode not in (ROWS_ONLY, ROWS_AND_COLUMNS):
        raise ValueError(f"unknown corpus mode {mode!r}")
    if max_sentences < 1:
        raise ValueError("max_sentences must be positive")
    rng = ensure_rng(seed)

    sentences: List[Sentence] = [
        binned.token_ids[i, :].copy() for i in range(binned.n_rows)
    ]
    if mode == ROWS_AND_COLUMNS:
        sentences.extend(_column_sentences(binned, column_chunk, rng))

    if len(sentences) > max_sentences:
        chosen = rng.choice(len(sentences), size=max_sentences, replace=False)
        sentences = [sentences[i] for i in chosen]
    return sentences


def _column_sentences(
    binned: BinnedTable, chunk: int, rng: np.random.Generator
) -> Iterable[Sentence]:
    for j in range(binned.n_cols):
        tokens = binned.token_ids[:, j].copy()
        rng.shuffle(tokens)
        for start in range(0, len(tokens), chunk):
            piece = tokens[start:start + chunk]
            if len(piece) >= 2:
                yield piece


def corpus_token_counts(sentences: List[Sentence], vocab_size: int) -> np.ndarray:
    """Token frequency vector over the corpus (for the SGNS noise distribution)."""
    if len(sentences) == 0:
        return np.zeros(vocab_size, dtype=np.int64)
    return token_counts(np.concatenate(sentences), vocab_size)
