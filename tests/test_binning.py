"""Unit + property tests for repro.binning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binning import (
    EQUAL_WIDTH,
    KDE,
    MISSING_LABEL,
    OTHER_LABEL,
    QUANTILE,
    BinnedView,
    TableBinner,
    bin_categorical_column,
    bin_numeric_column,
    fingerprint_vocab,
    make_token,
    normalize_column,
    normalize_table,
    normalize_text,
)
from repro.frame.column import Column
from repro.frame.frame import DataFrame


#: Raw categorical cells: repeats, ``None``, control characters, tab and
#: space runs, and strings that normalize to ``""``.
_RAW_CELLS = st.one_of(
    st.none(),
    st.sampled_from(["ok", " ok ", "a\tb", "a \t\t b", "\x00", " \t ",
                     "\x07\x1f", "N/A", " nan ", "x\u200by"]),
    st.text(alphabet=st.sampled_from(["a", "B", " ", "\t", "\n", "\r",
                                      "\x00", "\x1f", "\u200b", "\u00e9"]),
            max_size=8),
)


def _normalize_per_cell(column):
    """The per-cell spelling of ``normalize_column``: every cell is
    normalized on its own."""
    values = [None if value is None else normalize_text(value)
              for value in column.values]
    values = [None if value == "" else value for value in values]
    return Column(column.name, values, kind=column.kind)


class TestNormalize:
    def test_strips_control_characters(self):
        assert normalize_text("a\x00b\x01c") == "abc"

    def test_collapses_whitespace(self):
        assert normalize_text("  a \t b  ") == "a b"

    def test_normalize_table_renames_columns(self):
        frame = DataFrame({" a ": [1.0]})
        assert normalize_table(frame).columns == ["a"]

    def test_empty_string_becomes_missing(self):
        frame = DataFrame({"c": ["ok", "\x00"]})
        assert normalize_table(frame).column("c").n_missing() == 1

    @given(st.lists(_RAW_CELLS, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_column_matches_the_per_cell_spelling(self, cells):
        column = Column("c", cells, kind="categorical")
        expected = _normalize_per_cell(column)
        normalized = normalize_column(column)
        assert normalized == expected
        assert list(normalized.values) == list(expected.values)


class TestNumericBinning:
    @pytest.mark.parametrize("strategy", [KDE, EQUAL_WIDTH, QUANTILE])
    def test_partition_invariant(self, strategy):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.normal(0, 1, 200), rng.normal(10, 1, 200)])
        column = Column("x", values)
        binning = bin_numeric_column(column, n_bins=5, strategy=strategy)
        codes = binning.assign(column.values)
        # every value in exactly one bin
        for value, code in zip(column.values, codes):
            assert binning.bins[code].contains(value)

    def test_kde_finds_modes(self):
        rng = np.random.default_rng(1)
        values = np.concatenate([rng.normal(0, 0.5, 300), rng.normal(100, 0.5, 300)])
        binning = bin_numeric_column(Column("x", values), n_bins=2, strategy=KDE)
        codes = binning.assign(values)
        # the two modes land in different bins
        assert codes[0] != codes[-1] or len(set(codes)) == 2

    def test_few_distinct_values_get_own_bins(self):
        column = Column("b", [0.0, 1.0] * 50)
        binning = bin_numeric_column(column, n_bins=5)
        assert binning.n_bins == 2
        codes = binning.assign(column.values)
        assert len(set(codes)) == 2

    def test_missing_bin_added_when_needed(self):
        column = Column("x", [1.0, None, 3.0, 2.0])
        binning = bin_numeric_column(column, n_bins=2)
        assert binning.labels[-1] == MISSING_LABEL
        codes = binning.assign(column.values)
        assert codes[1] == binning.n_bins - 1

    def test_constant_column_single_bin(self):
        column = Column("x", [5.0] * 20)
        binning = bin_numeric_column(column, n_bins=5)
        assert binning.n_bins == 1

    def test_all_missing_column(self):
        column = Column("x", [None, None])
        binning = bin_numeric_column(column, n_bins=5)
        codes = binning.assign(column.values)
        assert set(codes) == {0}

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False,
                      min_value=-1e5, max_value=1e5),
            min_size=2, max_size=200,
        ),
        n_bins=st.integers(min_value=1, max_value=8),
        strategy=st.sampled_from([KDE, EQUAL_WIDTH, QUANTILE]),
    )
    def test_partition_property(self, values, n_bins, strategy):
        column = Column("x", values)
        binning = bin_numeric_column(column, n_bins=n_bins, strategy=strategy)
        codes = binning.assign(column.values)
        assert len(codes) == len(values)
        for value, code in zip(column.values, codes):
            assert binning.bins[code].contains(value)
        # at most n_bins value bins (+1 for missing)
        assert binning.n_bins <= n_bins + 1


class TestCategoricalBinning:
    def test_each_value_a_bin_when_few(self):
        column = Column("c", ["a", "b", "a", "c"])
        binning = bin_categorical_column(column, max_categories=5)
        assert set(binning.labels) == {"a", "b", "c"}

    def test_other_bin_for_long_tail(self):
        values = [f"v{i}" for i in range(20)] + ["common"] * 30
        column = Column("c", values)
        binning = bin_categorical_column(column, max_categories=4)
        assert OTHER_LABEL in binning.labels
        codes = binning.assign(column.values)
        assert len(set(codes)) <= 4
        # most frequent value keeps its own bin
        assert "common" in binning.labels

    def test_missing_bin(self):
        column = Column("c", ["a", None])
        binning = bin_categorical_column(column)
        codes = binning.assign(column.values)
        assert binning.bins[codes[1]].kind == "missing"


class TestTableBinner:
    def test_codes_shape_and_tokens(self):
        frame = DataFrame({"x": [1.0, 2.0, 30.0], "c": ["a", "b", "a"]})
        binned = TableBinner(n_bins=2).bin_table(frame)
        assert binned.codes.shape == (3, 2)
        assert binned.token_ids.shape == (3, 2)
        assert binned.n_tokens == len(binned.vocab)
        # token round trip
        token = binned.token_of_cell(0, "c")
        assert token == make_token("c", "a")
        column, bin_ = binned.bin_of_token(binned.token_to_id[token])
        assert column == "c" and bin_.label == "a"

    def test_subset_preserves_binning(self):
        frame = DataFrame({"x": [1.0, 2.0, 30.0, 40.0], "c": ["a", "b", "a", "b"]})
        binned = TableBinner(n_bins=2).bin_table(frame)
        view = binned.subset(rows=[0, 2], columns=["c"])
        assert view.codes.shape == (2, 1)
        assert view.codes[0, 0] == binned.codes[0, 1]
        # token ids stay global: the view gathers the parent's ids untouched
        assert np.array_equal(view.token_ids[:, 0], binned.token_ids[[0, 2], 1])
        assert view.token_of_cell(0, "c") == binned.token_of_cell(0, "c")


class TestBinnedView:
    @pytest.fixture()
    def binned(self):
        frame = DataFrame({
            "x": [1.0, 2.0, 30.0, 40.0, 5.0],
            "c": ["a", "b", "a", "b", "a"],
            "y": [0.1, 0.2, 9.0, 9.1, 0.3],
        })
        return TableBinner(n_bins=2).bin_table(frame)

    def test_view_shares_token_space(self, binned):
        view = binned.subset(rows=[1, 3], columns=["c", "y"])
        assert isinstance(view, BinnedView)
        assert view.vocab is binned.vocab
        assert view.token_to_id is binned.token_to_id
        assert view.n_tokens == binned.n_tokens
        assert view.vocab_fingerprint == binned.vocab_fingerprint

    def test_view_token_ids_are_a_gather(self, binned):
        rows = [4, 0, 2]
        view = binned.subset(rows=rows, columns=["y", "x"])
        col_idx = [binned.column_index("y"), binned.column_index("x")]
        assert np.array_equal(
            view.token_ids, binned.token_ids[np.ix_(rows, col_idx)]
        )
        # cells still round-trip to the same (column, bin) pairs
        for i, row in enumerate(rows):
            for j, name in enumerate(["y", "x"]):
                assert view.token_of_cell(i, name) == binned.token_of_cell(row, name)
                assert view.item_of_cell(i, name) == binned.item_of_cell(row, name)

    def test_bin_of_token_delegates_to_root(self, binned):
        view = binned.subset(columns=["y"])
        token_id = int(view.token_ids[0, 0])
        assert view.bin_of_token(token_id) == binned.bin_of_token(token_id)

    def test_chained_views_flatten_to_root(self, binned):
        view = binned.subset(rows=[0, 2, 3, 4], columns=["x", "y"])
        nested = view.subset(rows=[1, 3], columns=["y"])
        assert nested.parent is binned
        assert np.array_equal(nested.row_indices, np.array([2, 4]))
        assert np.array_equal(
            nested.token_ids,
            binned.token_ids[np.ix_([2, 4], [binned.column_index("y")])],
        )

    def test_fingerprint_differs_for_rebinned_subset(self, binned):
        rebinned = TableBinner(n_bins=2).bin_table(binned.frame.project(["c", "y"]))
        assert rebinned.vocab_fingerprint != binned.vocab_fingerprint

    def test_empty_and_boolean_row_selections(self, binned):
        empty = binned.subset(rows=[])
        assert empty.n_rows == 0 and empty.n_cols == binned.n_cols
        mask = np.array([True, False, True, False, False])
        masked = binned.subset(rows=mask)
        assert np.array_equal(masked.row_indices, np.array([0, 2]))
        with pytest.raises(IndexError):
            binned.subset(rows=[0.5, 1.5])

    def test_fingerprint_is_content_based(self):
        assert fingerprint_vocab(["a=1", "b=2"]) == fingerprint_vocab(["a=1", "b=2"])
        assert fingerprint_vocab(["a=1", "b=2"]) != fingerprint_vocab(["b=2", "a=1"])

    def test_item_of_cell(self):
        frame = DataFrame({"c": ["a", "b"]})
        binned = TableBinner().bin_table(frame)
        assert binned.item_of_cell(0, "c") == ("c", "a")

    def test_invalid_n_bins(self):
        with pytest.raises(ValueError):
            TableBinner(n_bins=0)

    def test_item_matrix_matches_codes(self):
        frame = DataFrame({"x": [1.0, 100.0], "c": ["a", "b"]})
        binned = TableBinner(n_bins=2).bin_table(frame)
        matrix = binned.item_matrix()
        assert matrix[0][1] == ("c", "a")
        assert len(matrix) == 2 and len(matrix[0]) == 2
