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
The center, context and negative gradients of a batch share one block,
labelled by table (center ``t``, context ``V + t``, negative ``2V + t``),
so one grouped sum and one count serve all three updates; each label
holds exactly the rows its own sum would, in the same order.

Each epoch is walked in chunks of ``_CHUNK_BATCHES`` batches.  A chunk
gathers its pairs from the epoch's permutation once and draws the
negative uniforms of all its batches with one ``Generator.random`` call.
That call yields the same doubles, in the same order, as one call per
batch would: ``random`` consumes one 64-bit output per double, chunks
never cross an epoch (whose permutation is drawn before its first
chunk), and nothing else draws in between.  :class:`NoiseSampler` maps
the uniforms to token ids through an exact guide table over the noise
CDF, returning exactly what ``np.searchsorted(cdf, uniform)`` returns.
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


#: Batches per chunk of an epoch: one gather of pairs and one uniform
#: draw serve them all (at the default batch of 512 and 5 negatives, about
#: 1.3 MB of uniforms and as much of token ids).
_CHUNK_BATCHES = 64

#: log2 of the guide table's bucket count.
_GUIDE_BITS = 12


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


def noise_cdf(token_counts: np.ndarray, power: float) -> np.ndarray:
    """The CDF of the unigram noise distribution, counts raised to
    ``power`` (uniform when every count is zero)."""
    weights = np.power(np.maximum(token_counts, 0).astype(np.float64), power)
    if weights.sum() == 0:
        weights = np.ones(len(token_counts))
    cdf = np.cumsum(weights / weights.sum())
    # Rounding can end the sum below the largest uniform draw,
    # nextafter(1.0, 0.0), and searchsorted would then return
    # vocab_size.  Pinning only the last entry moves no other draw.
    cdf[-1] = 1.0
    return cdf


class NoiseSampler:
    """Token ids for uniform draws: ``np.searchsorted(cdf, uniform)``,
    through a guide table.

    The entries of ``cdf`` before the last never descend and the last is
    1.0, so searchsorted's answer for a draw is the first entry at or
    above it, a real token for every draw in [0, 1), and it never
    decreases as the draw grows.  The table cuts [0, 1) into
    ``2**_GUIDE_BITS`` buckets, so a draw's bucket, ``floor(u * 2**bits)``,
    is exact.  Where the answers at a bucket's two edges agree, every draw
    inside it has that answer; only draws in the few buckets that hold a
    CDF step run searchsorted.
    """

    def __init__(self, cdf: np.ndarray):
        self.cdf = cdf
        size = 1 << _GUIDE_BITS
        edges = np.searchsorted(cdf, np.arange(size + 1) / size)
        # A bucket's token where both edges agree, -1 where a step splits it.
        self._guide = np.where(edges[:-1] == edges[1:], edges[:-1], -1)

    def tokens(self, uniform: np.ndarray) -> np.ndarray:
        """Token ids (int64) of draws in [0, 1), shaped like ``uniform``."""
        tokens = self._guide[(uniform * len(self._guide)).astype(np.intp)]
        split = tokens < 0
        tokens[split] = np.searchsorted(self.cdf, uniform[split])
        return tokens.astype(np.int64, copy=False)


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

    # -- training -----------------------------------------------------------------
    def train(self, sentences: Sequence[np.ndarray]) -> "Word2Vec":
        """Train on the corpus; returns ``self`` for chaining."""
        config = self.config
        noise = NoiseSampler(noise_cdf(
            corpus_token_counts(sentences, self.vocab_size), config.noise_power
        ))

        pairs = sample_training_pairs(
            sentences, config.context_samples, config.max_pairs, self._rng
        )
        if len(pairs) == 0:
            return self

        total_batches = config.epochs * max(1, int(np.ceil(len(pairs) / config.batch_size)))
        chunk_rows = _CHUNK_BATCHES * config.batch_size
        batch_counter = 0
        for _ in range(config.epochs):
            order = self._rng.permutation(len(pairs))
            for chunk_start in range(0, len(pairs), chunk_rows):
                chunk = pairs[order[chunk_start:chunk_start + chunk_rows]]
                negatives = noise.tokens(
                    self._rng.random((len(chunk), config.negatives))
                )
                for start in range(0, len(chunk), config.batch_size):
                    stop = start + config.batch_size
                    progress = batch_counter / total_batches
                    learning_rate = max(
                        config.min_learning_rate,
                        config.learning_rate * (1.0 - progress),
                    )
                    self._train_batch(chunk[start:stop], negatives[start:stop],
                                      learning_rate)
                    batch_counter += 1
        return self

    def _train_batch(self, batch: np.ndarray, negatives: np.ndarray,
                     learning_rate: float) -> None:
        vocab_size, dim = self.vectors.shape
        size = len(batch)
        centers = batch[:, 0]
        contexts = batch[:, 1]

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

        # One gradient block: center rows, then context rows, then
        # negative rows, labelled by table (0, V, 2V offsets).
        gradients = np.empty((size * (2 + negatives.shape[1]), dim))
        grad_center = gradients[:size]
        np.multiply(pos_error, context_vecs, out=grad_center)
        grad_center += np.einsum("bn,bnd->bd", neg_scores, negative_vecs)
        np.multiply(pos_error, center_vecs, out=gradients[size:2 * size])
        np.multiply(neg_scores[:, :, np.newaxis], center_vecs[:, np.newaxis, :],
                    out=gradients[2 * size:].reshape(negatives.shape + (dim,)))
        labels = np.concatenate([centers, contexts + vocab_size,
                                 negatives.reshape(-1) + 2 * vocab_size])
        self._apply_mean_updates(labels, gradients, learning_rate)

    def _apply_mean_updates(self, labels: np.ndarray, gradients: np.ndarray,
                            learning_rate: float) -> None:
        """Move each row by lr times the mean of its label's gradients:
        labels ``t``, ``V + t`` and ``2V + t`` update ``vectors[t]``, then
        ``_context_vectors[t]`` twice, in that order.

        The table vocabulary is tiny relative to the batch, so each token
        appears many times per batch.  Summed scatter updates computed
        from stale vectors would multiply the effective step by the
        repetition count and diverge; averaging per token keeps steps
        bounded.  Tokens absent from the batch divide a +0.0 sum by 1 and
        stay put.
        """
        vocab_size = self.vocab_size
        sums = label_matrix_sums(gradients, labels, 3 * vocab_size)
        counts = label_counts(labels, 3 * vocab_size)
        step = learning_rate * (sums / np.maximum(counts, 1.0)[:, np.newaxis])
        self.vectors -= step[:vocab_size]
        self._context_vectors -= step[vocab_size:2 * vocab_size]
        self._context_vectors -= step[2 * vocab_size:]

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
