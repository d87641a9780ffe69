"""Tests for the session-serving layer (repro.serve)."""

import threading

import numpy as np
import pytest

from repro.queries.ops import SPQuery
from repro.queries.predicates import Eq, InRange
from repro.serve import CacheStats, LRUCache, query_fingerprint


class TestQueryFingerprint:
    def test_none_is_stable(self):
        assert query_fingerprint(None) == query_fingerprint(None)

    def test_distinct_queries_distinct_fingerprints(self):
        a = SPQuery(projection=("SIZE", "SPEED"))
        b = SPQuery(projection=("SIZE", "KIND"))
        c = SPQuery((Eq("KIND", "alpha"),), projection=("SIZE", "SPEED"))
        fingerprints = {query_fingerprint(q) for q in (a, b, c)}
        assert len(fingerprints) == 3
        assert query_fingerprint(None) not in fingerprints

    def test_equivalent_queries_share_fingerprint(self):
        a = SPQuery((InRange("SIZE", low=0.0, high=1.0),))
        b = SPQuery((InRange("SIZE", low=0.0, high=1.0),))
        assert query_fingerprint(a) == query_fingerprint(b)

    def test_fingerprint_method_wins(self):
        class Custom:
            def fingerprint(self):
                return "custom-key"

            def describe(self):
                return "ignored"

        assert query_fingerprint(Custom()) == "custom-key"

    def test_empty_projection_distinct_from_none(self):
        # projection=() (invalid: keeps no columns) must not share a cache
        # slot with projection=None (keeps all columns)
        pred = (Eq("KIND", "alpha"),)
        assert query_fingerprint(SPQuery(pred)) != query_fingerprint(
            SPQuery(pred, projection=())
        )

    def test_unfingerprintable_query_rejected(self):
        class Opaque:
            pass

        # repr() of such an object embeds a memory address — a recycled
        # address would silently alias another query's cache entry.
        with pytest.raises(TypeError, match="fingerprint"):
            query_fingerprint(Opaque())


class TestLRUCache:
    def test_put_get_and_stats(self):
        cache = LRUCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats
        assert isinstance(stats, CacheStats)
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_evicts_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert len(cache) == 2

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_put_reports_evicted_entries(self):
        cache = LRUCache(maxsize=2)
        assert cache.put("a", 1) == []
        cache.put("b", 2)
        assert cache.put("c", 3) == [("a", 1)]

    def test_pop_and_keys(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh: b becomes least recently used
        assert cache.keys() == ["b", "a"]
        assert cache.pop("b") == 2
        assert cache.pop("b", "gone") == "gone"
        assert cache.keys() == ["a"]

    def test_stats_consistent_under_thread_hammering(self):
        """The concurrent serving path shares one cache across threads; the
        counters must stay exact and the size bounded, with no lost updates
        or torn OrderedDict state."""
        cache = LRUCache(maxsize=16)
        n_threads, ops_per_thread = 8, 2000
        barrier = threading.Barrier(n_threads)
        errors = []

        def hammer(thread_id):
            try:
                barrier.wait()
                for i in range(ops_per_thread):
                    key = (thread_id * i) % 48  # overlapping key space
                    if cache.get(key) is None:
                        cache.put(key, key)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        stats = cache.stats
        assert stats.hits + stats.misses == n_threads * ops_per_thread
        assert stats.size <= stats.maxsize
        assert len(cache) == stats.size
        # every surviving entry is intact (no torn values)
        for key in cache.keys():
            assert cache.get(key) == key


class TestSubTabSelectorVectors:
    """The selector's cached tuple-vector fast path serves query views."""

    def test_view_row_vectors_match_model(self, fitted_engine, fitted_subtab):
        selector = fitted_engine.selector
        binned = fitted_subtab.binned
        rows = np.array([0, 7, 11, 42])
        columns = list(binned.columns[1:4])
        view = binned.subset(rows=rows, columns=columns)
        np.testing.assert_array_equal(
            selector.view_row_vectors(rows, columns),
            fitted_subtab.model.row_vectors(view),
        )
        # full-column fast path
        np.testing.assert_array_equal(
            selector.view_row_vectors(rows, binned.columns),
            fitted_subtab.model.row_vectors(binned.subset(rows=rows)),
        )

    def test_view_row_vectors_accept_boolean_masks(self, fitted_engine,
                                                   fitted_subtab):
        selector = fitted_engine.selector
        binned = fitted_subtab.binned
        mask = np.zeros(binned.n_rows, dtype=bool)
        mask[[2, 9, 30]] = True
        columns = list(binned.columns[1:3])
        np.testing.assert_array_equal(
            selector.view_row_vectors(mask, columns),
            fitted_subtab.model.row_vectors(
                binned.subset(rows=mask, columns=columns)
            ),
        )
        with pytest.raises(IndexError):
            selector.view_row_vectors(np.array([0.5, 1.5]), columns)
