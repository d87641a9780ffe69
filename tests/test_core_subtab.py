"""Unit + integration tests for the SubTab core (Algorithm 2)."""

import pytest

from repro.core import (
    NotFittedError,
    SubTab,
    SubTabConfig,
    SubTable,
    subtable_from_selection,
)
from repro.core.selection import centroid_selection, column_dispersions
from repro.embedding.word2vec import Word2VecConfig
from repro.frame.frame import DataFrame
from repro.queries import Eq, SPQuery


class TestFit:
    def test_select_before_fit_raises(self, fast_subtab_config):
        with pytest.raises(NotFittedError):
            SubTab(fast_subtab_config).select()

    def test_fit_records_timings(self, fitted_subtab):
        timings = fitted_subtab.timings_
        assert timings["preprocess_total"] > 0
        assert timings["preprocess_embedding"] > 0

    def test_fit_with_shared_binning_skips_binning(self, planted_frame,
                                                   planted_binned,
                                                   fast_subtab_config):
        subtab = SubTab(fast_subtab_config).fit(planted_frame, binned=planted_binned)
        assert subtab.timings_["preprocess_binning"] == 0.0
        assert subtab.binned is planted_binned


class TestSelect:
    def test_dimensions(self, fitted_subtab):
        result = fitted_subtab.select(k=5, l=4)
        assert result.shape == (5, 4)

    def test_rows_are_valid_indices(self, fitted_subtab):
        result = fitted_subtab.select(k=5, l=4)
        n = fitted_subtab.frame.n_rows
        assert all(0 <= i < n for i in result.row_indices)
        assert len(set(result.row_indices)) == 5

    def test_targets_always_included(self, fitted_subtab):
        result = fitted_subtab.select(k=4, l=3, targets=["OUTCOME"])
        assert "OUTCOME" in result.columns

    def test_too_many_targets_raises(self, fitted_subtab):
        with pytest.raises(ValueError):
            fitted_subtab.select(k=3, l=1, targets=["OUTCOME", "KIND"])

    def test_unknown_target_raises(self, fitted_subtab):
        with pytest.raises(ValueError):
            fitted_subtab.select(targets=["NOPE"])

    def test_k_larger_than_table(self, fast_subtab_config):
        frame = DataFrame({"a": [1.0, 2.0, 30.0], "b": ["x", "y", "z"]})
        subtab = SubTab(fast_subtab_config).fit(frame)
        result = subtab.select(k=10, l=2)
        assert result.shape == (3, 2)

    def test_deterministic_given_seed(self, planted_frame, fast_subtab_config):
        first = SubTab(fast_subtab_config).fit(planted_frame).select()
        second = SubTab(fast_subtab_config).fit(planted_frame).select()
        assert first.row_indices == second.row_indices
        assert first.columns == second.columns

    def test_covers_all_archetypes(self, fitted_subtab):
        """Each planted group should contribute at least one selected row."""
        result = fitted_subtab.select(k=6, l=5)
        sizes = [fitted_subtab.frame.column("SIZE")[i] for i in result.row_indices]
        small = any(s < 600 for s in sizes)
        large = any(s > 1500 for s in sizes)
        assert small and large

    def test_invalid_dimensions(self, fitted_subtab):
        with pytest.raises(ValueError):
            fitted_subtab.select(k=0, l=3)


class TestQueryPath:
    def test_select_on_query_result(self, fitted_subtab):
        query = SPQuery([Eq("KIND", "beta")], projection=["SIZE", "OUTCOME", "KIND"])
        result = fitted_subtab.select(k=3, l=2, query=query)
        assert result.shape[0] <= 3
        assert set(result.columns) <= {"SIZE", "OUTCOME", "KIND"}
        # all selected rows satisfy the query
        for i in result.row_indices:
            assert fitted_subtab.frame.column("KIND")[i] == "beta"

    def test_empty_query_raises(self, fitted_subtab):
        query = SPQuery([Eq("KIND", "does-not-exist")])
        with pytest.raises(ValueError):
            fitted_subtab.select(query=query)

    def test_query_reuses_embedding(self, fitted_subtab):
        """Selection on a query must be much faster than pre-processing."""
        query = SPQuery([Eq("KIND", "alpha")])
        fitted_subtab.select(k=3, l=3, query=query)
        assert fitted_subtab.timings_["select"] < fitted_subtab.timings_[
            "preprocess_total"
        ]


class TestSubTableResult:
    def test_from_selection(self, planted_frame):
        subtable = subtable_from_selection(planted_frame, [0, 2], ["SIZE", "KIND"])
        assert subtable.shape == (2, 2)
        assert subtable.frame.column("SIZE")[0] == planted_frame.column("SIZE")[0]
        # Duplicate rows and reordered columns give the frame taken, then projected.
        rows, columns = [17, 3, 3, 150, 0], ["NOISE", "KIND", "SIZE"]
        subtable = subtable_from_selection(planted_frame, rows, columns)
        assert subtable.frame == planted_frame.take(rows).project(columns)
        assert subtable.row_indices == rows and subtable.columns == columns

    def test_consistency_validation(self, planted_frame):
        frame = planted_frame.take([0]).project(["SIZE"])
        with pytest.raises(ValueError):
            SubTable(frame=frame, row_indices=[0, 1], columns=["SIZE"])

    def test_contains_value_categorical(self, planted_frame):
        subtable = subtable_from_selection(planted_frame, [0], ["KIND"])
        kind = planted_frame.column("KIND")[0]
        assert subtable.contains_value("KIND", kind)
        assert not subtable.contains_value("KIND", "zzz")
        assert not subtable.contains_value("MISSING_COLUMN", "x")

    def test_contains_value_numeric(self, planted_frame):
        subtable = subtable_from_selection(planted_frame, [0], ["SIZE"])
        value = planted_frame.column("SIZE")[0]
        assert subtable.contains_value("SIZE", value)
        assert not subtable.contains_value("SIZE", "not-a-number")

    def test_to_string_renders_all(self, planted_frame):
        subtable = subtable_from_selection(planted_frame, [0, 1], ["SIZE", "KIND"])
        text = str(subtable)
        assert "[2 rows x 2 columns]" in text


class TestSelectionInternals:
    def test_column_dispersion_zero_for_constant(self, planted_binned,
                                                  fitted_subtab):
        dispersions = column_dispersions(planted_binned, fitted_subtab.model)
        names = planted_binned.columns
        # OUTCOME (binary, strongly patterned) disperses more than a constant
        assert dispersions[names.index("SIZE")] > 0

    def test_centroid_selection_modes(self, planted_binned, fitted_subtab):
        for column_mode in ("dispersion", "centroid"):
            for row_mode in ("cluster", "mass"):
                rows, columns = centroid_selection(
                    planted_binned, fitted_subtab.model, 4, 3,
                    column_mode=column_mode, row_mode=row_mode, seed=0,
                )
                assert len(rows) == 4
                assert len(columns) == 3

    def test_invalid_modes(self, planted_binned, fitted_subtab):
        with pytest.raises(ValueError):
            centroid_selection(planted_binned, fitted_subtab.model, 2, 2,
                               column_mode="nope")
        with pytest.raises(ValueError):
            centroid_selection(planted_binned, fitted_subtab.model, 2, 2,
                               row_mode="nope")


class TestConfig:
    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            SubTabConfig(k=0)

    def test_invalid_embedder(self):
        with pytest.raises(ValueError):
            SubTabConfig(embedder="bert")

    def test_pmi_embedder_runs(self, planted_frame):
        config = SubTabConfig(k=3, l=3, embedder="pmi", seed=0,
                              word2vec=Word2VecConfig(dim=8))
        result = SubTab(config).fit(planted_frame).select()
        assert result.shape == (3, 3)
