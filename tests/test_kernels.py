"""Fast-vs-reference bit-identity of the vectorized kernels.

Every dual-path primitive in ``repro.core.kernels`` must return *bitwise*
identical results under ``REPRO_KERNEL=fast`` (batched numpy) and
``REPRO_KERNEL=reference`` (the naive sequential loop of the same math) —
the fast path is restricted to primitives whose accumulation order matches
the loop exactly, and this suite is the enforcement.  On top of the
primitives, the consumers (KMeans, the coverage metric, greedy selection)
are replayed end-to-end under both backends, including the degenerate
inputs that exercise empty-cluster reseeds, constant columns and k >= n.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.kmeans import KMeans
from repro.core import kernels
from repro.core.kernels import (
    collapse_rows,
    group_members,
    kernel_backend,
    label_counts,
    label_matrix_sums,
    label_sums,
    popcount,
    refresh_kernel_backend,
    token_counts,
    union_mask,
    use_kernel_backend,
)
from repro.embedding.word2vec import (
    Word2Vec,
    Word2VecConfig,
    sample_training_pairs,
)


def both_backends(fn):
    """Run ``fn()`` under each backend; return the two results."""
    with use_kernel_backend("fast"):
        fast = fn()
    with use_kernel_backend("reference"):
        reference = fn()
    return fast, reference


@st.composite
def labelled_matrix(draw):
    """(matrix, labels, n_labels) with random shape, scale and gaps."""
    n = draw(st.integers(min_value=1, max_value=60))
    d = draw(st.integers(min_value=1, max_value=8))
    n_labels = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    constant_column = draw(st.booleans())
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, d)) * scale
    if constant_column:
        matrix[:, 0] = draw(st.sampled_from([0.0, -0.0, 3.25]))
    # Not every label need appear: empty groups must count as zero.
    labels = rng.integers(0, n_labels, size=n)
    return matrix, labels, n_labels


@settings(max_examples=60, deadline=None)
@given(data=labelled_matrix())
def test_label_matrix_sums_bit_identical(data):
    matrix, labels, n_labels = data
    fast, reference = both_backends(
        lambda: label_matrix_sums(matrix, labels, n_labels)
    )
    assert fast.dtype == reference.dtype
    assert np.array_equal(fast, reference)  # bitwise: no tolerance


@settings(max_examples=30, deadline=None)
@given(data=labelled_matrix(), flips=st.integers(min_value=0, max_value=10))
def test_label_matrix_sums_scratch_refresh_matches_full_build(data, flips):
    """The stale-row partial rebuild equals a from-scratch evaluation."""
    matrix, labels, n_labels = data
    rng = np.random.default_rng(flips)
    scratch = np.empty(matrix.shape, dtype=np.int64)
    # Full in-place build, then perturb some labels and refresh only those.
    label_matrix_sums(matrix, labels, n_labels, scratch, None)
    moved = rng.choice(
        matrix.shape[0], size=min(flips, matrix.shape[0]), replace=False
    )
    new_labels = labels.copy()
    new_labels[moved] = rng.integers(0, n_labels, size=moved.size)
    stale = np.flatnonzero(new_labels != labels)
    refreshed = label_matrix_sums(
        matrix, new_labels, n_labels, scratch, stale
    )
    fresh = label_matrix_sums(matrix, new_labels, n_labels)
    assert np.array_equal(refreshed, fresh)


@settings(max_examples=60, deadline=None)
@given(data=labelled_matrix())
def test_label_counts_and_sums_bit_identical(data):
    matrix, labels, n_labels = data
    values = matrix[:, 0]
    for fn in (
        lambda: label_counts(labels, n_labels),
        lambda: label_sums(values, labels, n_labels),
        lambda: token_counts(labels.reshape(-1, 1), n_labels),
    ):
        fast, reference = both_backends(fn)
        assert np.array_equal(fast, reference)


@settings(max_examples=60, deadline=None)
@given(data=labelled_matrix())
def test_group_members_identical(data):
    _, labels, n_labels = data
    fast, reference = both_backends(lambda: group_members(labels, n_labels))
    assert len(fast) == len(reference) == n_labels
    for f, r in zip(fast, reference):
        assert np.array_equal(f, r)


@st.composite
def collapsible_matrix(draw):
    """Matrices with heavy row duplication and tricky float values."""
    n = draw(st.integers(min_value=1, max_value=50))
    d = draw(st.integers(min_value=1, max_value=6))
    n_distinct = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(n_distinct, d))
    if draw(st.booleans()):
        pool[0] = 0.0
        if n_distinct > 1:
            pool[1] = -0.0  # must stay distinct from +0.0 (bitwise rows)
    if draw(st.booleans()) and d > 1:
        pool[:, -1] = np.nan  # NaN != NaN, but bytes are equal
    return pool[rng.integers(0, n_distinct, size=n)]


@settings(max_examples=60, deadline=None)
@given(matrix=collapsible_matrix())
def test_collapse_rows_bit_identical(matrix):
    fast, reference = both_backends(lambda: collapse_rows(matrix))
    n = matrix.shape[0]
    assert fast.n_unique == reference.n_unique
    assert fast.is_identity(n) == reference.is_identity(n)
    assert np.array_equal(fast.index, reference.index)
    assert np.array_equal(fast.inverse, reference.inverse)
    assert np.array_equal(fast.counts, reference.counts)
    # The reconstruction is byte-exact (first-occurrence representatives).
    raw = np.ascontiguousarray(matrix)
    assert np.array_equal(
        raw[fast.index][fast.inverse].view(np.uint8),
        raw.view(np.uint8),
    )


@settings(max_examples=40, deadline=None)
@given(
    n_rows=st.integers(min_value=0, max_value=40),
    n_patterns=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_popcount_and_union_bit_identical(n_rows, n_patterns, seed):
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 2, size=(n_patterns, n_rows), dtype=np.uint8)
    packed = np.packbits(masks, axis=1)
    fast, reference = both_backends(
        lambda: (popcount(packed), union_mask(packed))
    )
    assert fast[0] == reference[0] == int(masks.sum())
    assert np.array_equal(fast[1], reference[1])


# ---------------------------------------------------------------------------
# Consumers replayed under both backends
# ---------------------------------------------------------------------------

@st.composite
def kmeans_instance(draw):
    kind = draw(st.sampled_from(["random", "coincident", "clustered", "tiny"]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if kind == "coincident":
        # All points identical: duplicate seedings collapse the restarts
        # and every non-first cluster starts empty.
        n = draw(st.integers(min_value=2, max_value=20))
        points = np.tile(rng.normal(size=(1, 3)), (n, 1))
    elif kind == "tiny":
        points = rng.normal(size=(draw(st.integers(1, 3)), 2))
    elif kind == "clustered":
        blob_a = rng.normal(size=(12, 3)) * 0.01
        blob_b = rng.normal(size=(12, 3)) * 0.01 + 10.0
        points = np.concatenate([blob_a, blob_b])
        points[:, -1] = 2.5  # constant column
    else:
        points = rng.normal(size=(draw(st.integers(2, 40)), 4))
    k = draw(st.integers(min_value=1, max_value=6))  # k >= n allowed
    weighted = draw(st.booleans())
    weights = (
        rng.integers(1, 5, size=points.shape[0]).astype(float)
        if weighted else None
    )
    return points, k, weights, seed


@settings(max_examples=40, deadline=None)
@given(instance=kmeans_instance())
def test_kmeans_fit_bit_identical_across_backends(instance):
    points, k, weights, seed = instance

    def run():
        model = KMeans(n_clusters=k, n_init=4, seed=seed)
        return model.fit(points, weights=weights)

    fast, reference = both_backends(run)
    assert np.array_equal(fast.centers, reference.centers)  # bitwise
    assert np.array_equal(fast.labels, reference.labels)
    assert fast.inertia == reference.inertia
    # Empty-cluster reseeds kept every cluster populated (n >= k case).
    if points.shape[0] >= k and np.unique(points, axis=0).shape[0] >= k:
        assert np.unique(fast.labels).size == k


def parent_mean_update(table, token_ids, gradients, learning_rate):
    """The SGNS mean update as spelled before it moved onto the kernels:
    an ``np.add.at`` scatter, then division of the touched rows only.

    The backend diff proves fast == reference; this oracle pins both to
    the original arithmetic, so they cannot drift together.
    """
    accumulated = np.zeros_like(table)
    np.add.at(accumulated, token_ids, gradients)
    counts = np.bincount(token_ids, minlength=table.shape[0]).astype(np.float64)
    touched = counts > 0
    accumulated[touched] /= counts[touched, np.newaxis]
    table -= learning_rate * accumulated


@st.composite
def mean_update_instance(draw):
    """(table, token_ids, gradients, learning_rate) with repeated ids,
    vocabulary ids absent from the batch, signed zeros and magnitudes
    mixed from 1e-6 to 1e6 within one batch."""
    n_tokens = draw(st.integers(min_value=1, max_value=12))
    batch = draw(st.integers(min_value=1, max_value=60))
    d = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))

    def values(shape):
        out = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
        zeros = rng.random(shape) < 0.2
        out[zeros] = np.copysign(0.0, rng.normal(size=int(zeros.sum())))
        return out

    present = rng.choice(n_tokens, size=rng.integers(1, n_tokens + 1),
                         replace=False)
    token_ids = rng.choice(present, size=batch)
    learning_rate = draw(st.sampled_from([1e-4, 0.0125, 0.05, 1.0]))
    return values((n_tokens, d)), token_ids, values((batch, d)), learning_rate


@settings(max_examples=60, deadline=None)
@given(center=mean_update_instance(), data=st.data())
def test_word2vec_mean_update_matches_parent_arithmetic(center, data):
    """The grouped update (one block, labels offset by table) equals three
    parent updates in order: center vectors, then the context vectors by
    the context rows, then by the negative rows."""
    vectors, center_ids, center_grads, learning_rate = center
    n_tokens, d = vectors.shape
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    context_table = vectors[rng.permutation(n_tokens)]
    groups = [(center_ids, center_grads)]
    for _ in range(2):
        size = data.draw(st.integers(min_value=1, max_value=60))
        present = rng.choice(n_tokens, size=rng.integers(1, n_tokens + 1),
                             replace=False)
        grads = rng.normal(size=(size, d)) * 10.0 ** rng.uniform(-6, 6, (size, d))
        grads[rng.random((size, d)) < 0.2] *= 0.0  # signed zeros
        groups.append((rng.choice(present, size=size), grads))
    expected_vectors, expected_context = vectors.copy(), context_table.copy()
    parent_mean_update(expected_vectors, *groups[0], learning_rate)
    parent_mean_update(expected_context, *groups[1], learning_rate)
    parent_mean_update(expected_context, *groups[2], learning_rate)
    labels = np.concatenate([ids + offset * n_tokens
                             for offset, (ids, _) in enumerate(groups)])
    gradients = np.concatenate([grads for _, grads in groups])
    model = Word2Vec(n_tokens, Word2VecConfig(dim=d), seed=0)
    for backend in (kernels.FAST, kernels.REFERENCE):
        model.vectors, model._context_vectors = vectors.copy(), context_table.copy()
        with use_kernel_backend(backend):
            model._apply_mean_updates(labels, gradients, learning_rate)
        # signed zeros too
        assert model.vectors.tobytes() == expected_vectors.tobytes(), backend
        assert model._context_vectors.tobytes() == expected_context.tobytes(), backend


@settings(max_examples=25, deadline=None)
@given(
    vocab_size=st.integers(min_value=1, max_value=12),
    lengths=st.lists(st.integers(min_value=1, max_value=8),
                     min_size=1, max_size=6),
    dim=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    data=st.data(),
)
def test_word2vec_train_bit_identical_across_backends(vocab_size, lengths,
                                                      dim, seed, data):
    rng = np.random.default_rng(seed)
    # Tokens outside ``present`` never occur, so their noise weight is 0.
    present = rng.choice(vocab_size, size=rng.integers(1, vocab_size + 1),
                         replace=False)
    sentences = [rng.choice(present, size=n) for n in lengths]
    config = Word2VecConfig(dim=dim, epochs=2, negatives=2)
    n_pairs = len(sample_training_pairs(
        sentences, config.context_samples, config.max_pairs, rng
    ))
    # A batch size that leaves a short last batch (or one short batch).
    config.batch_size = data.draw(
        st.integers(min_value=1, max_value=n_pairs + 1)
        .filter(lambda b: n_pairs % b != 0 or n_pairs == 0)
    )

    def run():
        return Word2Vec(vocab_size, config, seed=seed).train(sentences)

    fast, reference = both_backends(run)
    assert np.array_equal(fast.vectors, reference.vectors)
    assert np.array_equal(fast._context_vectors, reference._context_vectors)


def _tiny_coverage_setup(seed):
    from repro.binning import TableBinner
    from repro.frame.frame import DataFrame
    from repro.metrics.coverage import CoverageEvaluator
    from repro.rules import RuleMiner

    rng = np.random.default_rng(seed)
    n = 30
    frame = DataFrame({
        "A": rng.choice(list("abc"), size=n).tolist(),
        "B": rng.choice(list("pq"), size=n).tolist(),
        "C": rng.choice(list("xyz"), size=n).tolist(),
    })
    binned = TableBinner().bin_table(frame)
    rules = RuleMiner(min_support=0.1, min_confidence=0.2,
                      min_rule_size=2, min_lift=None).mine(binned)
    return binned, CoverageEvaluator(binned, rules)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=999))
def test_coverage_and_greedy_identical_across_backends(seed):
    from repro.baselines.greedy import greedy_row_selection
    from repro.metrics.coverage import IncrementalCoverage

    def run():
        binned, evaluator = _tiny_coverage_setup(seed)
        columns = list(binned.columns)[:2]
        selected, cov = greedy_row_selection(evaluator, columns, 4)
        inc = IncrementalCoverage(evaluator, columns)
        gains = inc.gains_for_rows(np.arange(binned.n_rows))
        realized = [inc.add(row) for row in selected]
        return (
            evaluator.upcov, selected, cov, gains.tolist(), realized,
            inc.covered_cells,
        )

    fast, reference = both_backends(run)
    assert fast == reference


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=999),
    rate=st.sampled_from([0.05, 0.2, 1.0]),
)
def test_stochastic_greedy_identical_across_backends(seed, rate):
    from repro.baselines.greedy_approx import stochastic_greedy_row_selection

    def run():
        binned, evaluator = _tiny_coverage_setup(seed)
        columns = list(binned.columns)[:2]
        return stochastic_greedy_row_selection(
            evaluator, columns, 5, np.random.default_rng(seed),
            sample_rate=rate, min_sample=4,
        )

    fast, reference = both_backends(run)
    assert fast == reference


# ---------------------------------------------------------------------------
# Backend plumbing
# ---------------------------------------------------------------------------

def test_unknown_backend_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "turbo")
    with pytest.raises(ValueError, match="REPRO_KERNEL"):
        refresh_kernel_backend()
    monkeypatch.delenv("REPRO_KERNEL")
    refresh_kernel_backend()


def test_use_kernel_backend_restores_previous(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    refresh_kernel_backend()
    assert kernel_backend() == kernels.FAST
    with use_kernel_backend("reference"):
        assert kernel_backend() == kernels.REFERENCE
        with use_kernel_backend("fast"):
            assert kernel_backend() == kernels.FAST
        assert kernel_backend() == kernels.REFERENCE
    assert kernel_backend() == kernels.FAST
