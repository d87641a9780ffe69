"""Word2Vec skip-gram with negative sampling (SGNS), in pure numpy.

The paper trains gensim's Word2Vec over the tabular corpus with a window
covering the whole sentence.  gensim is unavailable offline; this module
implements the same objective (Mikolov et al. 2013):

    maximize  log sigma(v_c . v_w) + sum_neg log sigma(-v_n . v_w)

Training is vectorized: (center, context) pairs are pre-sampled from each
sentence (window = whole sentence, bounded by ``context_samples`` draws per
center to keep the pair count linear in corpus size), then processed in
mini-batches.  Each batch moves every token by the mean of its gradients in
the batch, accumulated with the dual-path grouped sums of
:mod:`repro.core.kernels` (``label_matrix_sums`` / ``label_counts``), which
add in input order and so handle repeated tokens within a batch exactly;
``REPRO_KERNEL=reference`` trains on their loop oracle, bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.kernels import label_counts, label_matrix_sums
from repro.embedding.corpus import corpus_token_counts
from repro.utils.rng import ensure_rng


@dataclass
class Word2VecConfig:
    """Hyper-parameters of the SGNS trainer."""

    dim: int = 32
    epochs: int = 5
    negatives: int = 5
    learning_rate: float = 0.05
    min_learning_rate: float = 0.0001
    context_samples: int = 4
    max_pairs: int = 4_000_000
    batch_size: int = 512
    noise_power: float = 0.75

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.negatives < 1:
            raise ValueError("negatives must be positive")
        if self.context_samples < 1:
            raise ValueError("context_samples must be positive")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def sample_training_pairs(
    sentences: Sequence[np.ndarray],
    context_samples: int,
    max_pairs: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample (center, context) pairs with whole-sentence windows.

    For each position we draw up to ``context_samples`` context positions
    uniformly from the rest of the sentence.  The result is capped at
    ``max_pairs`` pairs, sub-sampled uniformly.
    """
    centers: list[np.ndarray] = []
    contexts: list[np.ndarray] = []
    for sentence in sentences:
        length = len(sentence)
        if length < 2:
            continue
        draws = min(context_samples, length - 1)
        center_idx = np.repeat(np.arange(length), draws)
        offsets = rng.integers(1, length, size=len(center_idx))
        context_idx = (center_idx + offsets) % length
        centers.append(sentence[center_idx])
        contexts.append(sentence[context_idx])
    if not centers:
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.stack(
        [np.concatenate(centers), np.concatenate(contexts)], axis=1
    ).astype(np.int64)
    if len(pairs) > max_pairs:
        keep = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = pairs[keep]
    return pairs


class Word2Vec:
    """Trainable SGNS model over integer token ids.

    After :meth:`train`, ``vectors`` holds the input (center) embeddings —
    the representation used for cells, following common practice.
    """

    def __init__(self, vocab_size: int, config: Word2VecConfig | None = None, seed=None):
        if vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        self.vocab_size = vocab_size
        self.config = config or Word2VecConfig()
        self._rng = ensure_rng(seed)
        scale = 1.0 / self.config.dim
        self.vectors = self._rng.uniform(
            -scale, scale, size=(vocab_size, self.config.dim)
        )
        self._context_vectors = np.zeros((vocab_size, self.config.dim))
        self._noise_cdf: np.ndarray | None = None

    # -- noise distribution ----------------------------------------------------
    def _build_noise(self, token_counts: np.ndarray) -> None:
        weights = np.power(np.maximum(token_counts, 0).astype(np.float64),
                           self.config.noise_power)
        if weights.sum() == 0:
            weights = np.ones(self.vocab_size)
        cdf = np.cumsum(weights / weights.sum())
        # Rounding can end the sum below the largest uniform draw,
        # nextafter(1.0, 0.0), and searchsorted would then return
        # vocab_size.  Pinning only the last entry moves no other draw.
        cdf[-1] = 1.0
        self._noise_cdf = cdf

    def _sample_negatives(self, shape) -> np.ndarray:
        uniform = self._rng.random(shape)
        return np.searchsorted(self._noise_cdf, uniform).astype(np.int64)

    # -- training -----------------------------------------------------------------
    def train(self, sentences: Sequence[np.ndarray]) -> "Word2Vec":
        """Train on the corpus; returns ``self`` for chaining."""
        config = self.config
        self._build_noise(corpus_token_counts(sentences, self.vocab_size))

        pairs = sample_training_pairs(
            sentences, config.context_samples, config.max_pairs, self._rng
        )
        if len(pairs) == 0:
            return self

        total_batches = config.epochs * max(1, int(np.ceil(len(pairs) / config.batch_size)))
        batch_counter = 0
        for _ in range(config.epochs):
            order = self._rng.permutation(len(pairs))
            for start in range(0, len(pairs), config.batch_size):
                batch = pairs[order[start:start + config.batch_size]]
                progress = batch_counter / total_batches
                learning_rate = max(
                    config.min_learning_rate,
                    config.learning_rate * (1.0 - progress),
                )
                self._train_batch(batch, learning_rate)
                batch_counter += 1
        return self

    def _train_batch(self, batch: np.ndarray, learning_rate: float) -> None:
        config = self.config
        centers = batch[:, 0]
        contexts = batch[:, 1]
        negatives = self._sample_negatives((len(batch), config.negatives))

        center_vecs = self.vectors[centers]                        # (B, d)
        context_vecs = self._context_vectors[contexts]             # (B, d)
        negative_vecs = self._context_vectors[negatives]           # (B, neg, d)

        # Positive pass: label 1.
        pos_scores = _sigmoid(np.einsum("bd,bd->b", center_vecs, context_vecs))
        pos_error = (pos_scores - 1.0)[:, np.newaxis]               # (B, 1)

        # Negative pass: label 0.
        neg_scores = _sigmoid(
            np.einsum("bnd,bd->bn", negative_vecs, center_vecs)
        )                                                           # (B, neg)

        grad_center = (
            pos_error * context_vecs
            + np.einsum("bn,bnd->bd", neg_scores, negative_vecs)
        )
        grad_context = pos_error * center_vecs
        grad_negative = neg_scores[:, :, np.newaxis] * center_vecs[:, np.newaxis, :]

        # The table vocabulary is tiny relative to the batch, so each token
        # appears many times per batch.  Summed scatter updates computed from
        # stale vectors would multiply the effective step by the repetition
        # count and diverge; averaging per token keeps steps bounded.
        self._apply_mean_update(self.vectors, centers, grad_center, learning_rate)
        self._apply_mean_update(
            self._context_vectors, contexts, grad_context, learning_rate
        )
        self._apply_mean_update(
            self._context_vectors,
            negatives.reshape(-1),
            grad_negative.reshape(-1, config.dim),
            learning_rate,
        )

    def _apply_mean_update(
        self,
        table: np.ndarray,
        token_ids: np.ndarray,
        gradients: np.ndarray,
        learning_rate: float,
    ) -> None:
        """table[token] -= lr * mean of that token's gradients in the batch.

        Tokens absent from the batch divide a +0.0 sum by 1 and stay put.
        """
        n_tokens = table.shape[0]
        sums = label_matrix_sums(gradients, token_ids, n_tokens)
        counts = label_counts(token_ids, n_tokens)
        table -= learning_rate * (sums / np.maximum(counts, 1.0)[:, np.newaxis])

    # -- queries ---------------------------------------------------------------
    def similarity(self, token_a: int, token_b: int) -> float:
        """Cosine similarity between two token vectors."""
        a, b = self.vectors[token_a], self.vectors[token_b]
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        if denom == 0:
            return 0.0
        return float(a @ b / denom)

    def most_similar(self, token: int, top_n: int = 5) -> list[tuple[int, float]]:
        """The ``top_n`` most cosine-similar tokens to ``token``."""
        norms = np.linalg.norm(self.vectors, axis=1)
        norms[norms == 0] = 1.0
        normalized = self.vectors / norms[:, np.newaxis]
        scores = normalized @ normalized[token]
        scores[token] = -np.inf
        best = np.argsort(-scores)[:top_n]
        return [(int(i), float(scores[i])) for i in best]
