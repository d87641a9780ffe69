"""Tests for the one-BLAS-thread scope (repro.utils.blas).

Inside :func:`single_blas_thread` every loaded OpenBLAS runs on one thread;
the saved count comes back when the last holder leaves, whether the body
returns or raises, however the scopes nest and however many threads hold
them.  Clustering inside the scope must be bit-identical to clustering on
two BLAS threads at a size where OpenBLAS splits the GEMM.  The
OpenBLAS-only cases skip only when numpy is built against another BLAS.
"""

import contextlib
import sys
import threading

import numpy as np
import pytest

import repro  # noqa: F401  (loads scipy, and with it scipy's own OpenBLAS)
from repro.binning import TableBinner, normalize_table, strategies
from repro.cluster import KMeans
from repro.cluster.centroids import select_representatives
from repro.datasets import make_dataset
from repro.utils import blas
from repro.utils.blas import loaded_openblas, single_blas_thread

needs_openblas = pytest.mark.skipif(
    not blas.numpy_links_openblas(),
    reason="numpy is not built against OpenBLAS",
)


def counts(libraries):
    return [library.num_threads() for library in libraries]


@pytest.fixture()
def two_threads():
    """Every loaded OpenBLAS set to two threads (a count the scope must
    restore, whatever the host's default), and back after the test."""
    libraries = loaded_openblas()
    saved = counts(libraries)
    for library in libraries:
        library.set_num_threads(2)
    try:
        yield libraries
    finally:
        for library, count in zip(libraries, saved):
            library.set_num_threads(count)


@needs_openblas
class TestScope:
    def test_finds_the_openblas_numpy_links(self):
        assert loaded_openblas()

    def test_drives_every_mapped_openblas(self, two_threads):
        """numpy's wheel and scipy's each bundle an OpenBLAS (ILP64 and
        LP64 symbol names): the scope drives every one mapped."""
        mapped = blas._mapped_openblas_paths()
        assert sorted(library.path for library in two_threads) == sorted(mapped)
        with single_blas_thread():
            assert counts(two_threads) == [1] * len(mapped)

    def test_one_thread_inside_saved_count_after(self, two_threads):
        with single_blas_thread():
            assert counts(two_threads) == [1] * len(two_threads)
        assert counts(two_threads) == [2] * len(two_threads)

    def test_restored_when_the_body_raises(self, two_threads):
        with pytest.raises(RuntimeError, match="boom"):
            with single_blas_thread():
                raise RuntimeError("boom")
        assert counts(two_threads) == [2] * len(two_threads)

    def test_nested_scopes_restore_on_the_outermost_exit(self, two_threads):
        with single_blas_thread():
            with single_blas_thread():
                assert counts(two_threads) == [1] * len(two_threads)
            assert counts(two_threads) == [1] * len(two_threads)
        assert counts(two_threads) == [2] * len(two_threads)

    def test_concurrent_holders(self, two_threads):
        """16 threads enter and leave in a loop with a tiny switch
        interval: the count is 1 whenever any thread is inside and the
        saved count once all have left."""
        n_threads, rounds = 16, 200
        barrier = threading.Barrier(n_threads)
        seen = []

        def holder():
            barrier.wait(timeout=30)
            for _ in range(rounds):
                with single_blas_thread():
                    seen.append(tuple(counts(two_threads)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=holder)
                       for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == n_threads * rounds
        assert set(seen) == {(1,) * len(two_threads)}
        assert counts(two_threads) == [2] * len(two_threads)

    def test_clustering_is_bit_identical_to_two_threads(self, two_threads):
        """2,000 x 32 points: far above the few hundred rows where
        OpenBLAS starts splitting the (n x 32) . (32 x k) score GEMM."""
        points = np.random.default_rng(5).normal(size=(2_000, 32))

        def cluster():
            result = KMeans(n_clusters=10, n_init=4, seed=3).fit(points)
            picked = select_representatives(points, 10, n_init=4, seed=3)
            return (result.centers.tobytes(), result.labels.tobytes(),
                    np.float64(result.inertia).tobytes(), picked)

        on_two_threads = cluster()
        with single_blas_thread():
            assert counts(two_threads) == [1] * len(two_threads)
            on_one_thread = cluster()
        assert on_one_thread == on_two_threads


@needs_openblas
def test_kde_binning_is_bit_identical_to_two_threads(two_threads, monkeypatch):
    """KDE binning's solves run inside the scope; with the scope taken out
    they run on two threads, and the token ids and vocabulary are the
    same bytes."""
    frame = normalize_table(make_dataset("flights", n_rows=2_000, seed=1).frame)
    binner = TableBinner()
    scoped = binner.bin_table(frame)
    monkeypatch.setattr(strategies, "single_blas_thread", contextlib.nullcontext)
    unscoped = binner.bin_table(frame)
    assert counts(two_threads) == [2] * len(two_threads)
    assert scoped.token_ids.tobytes() == unscoped.token_ids.tobytes()
    assert scoped.vocab == unscoped.vocab
    assert scoped.vocab_fingerprint == unscoped.vocab_fingerprint


def test_scope_without_openblas_is_a_no_op(two_threads, monkeypatch):
    """Where the lookup finds no library the scope changes nothing."""
    monkeypatch.setattr(blas, "find_openblas", lambda: ())
    monkeypatch.setattr(blas, "_SCOPE", blas._OneThreadScope())
    with single_blas_thread():
        assert loaded_openblas() == ()
        with single_blas_thread():
            assert counts(two_threads) == [2] * len(two_threads)
    assert counts(two_threads) == [2] * len(two_threads)
