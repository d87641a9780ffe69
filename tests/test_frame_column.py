"""Unit tests for repro.frame.column."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.frame.column import (
    CATEGORICAL,
    NUMERIC,
    Column,
    coerce_cells,
    infer_kind,
)


class TestInferKind:
    def test_numbers_are_numeric(self):
        assert infer_kind([1, 2.5, 3]) == NUMERIC

    def test_numeric_strings_are_numeric(self):
        assert infer_kind(["1", "2.5", " 3 "]) == NUMERIC

    def test_text_is_categorical(self):
        assert infer_kind(["a", "b"]) == CATEGORICAL

    def test_mixed_text_and_numbers_is_categorical(self):
        assert infer_kind([1, "two"]) == CATEGORICAL

    def test_booleans_are_categorical(self):
        assert infer_kind([True, False]) == CATEGORICAL

    def test_missing_values_are_ignored(self):
        assert infer_kind([None, float("nan"), 3.0]) == NUMERIC


class TestNumericColumn:
    def test_coerces_to_float64(self):
        column = Column("x", [1, 2, 3])
        assert column.is_numeric
        assert column.values.dtype == np.float64

    def test_none_becomes_nan(self):
        column = Column("x", [1.0, None, 3.0])
        assert math.isnan(column[1])
        assert column.n_missing() == 1

    def test_missing_strings_become_nan(self):
        column = Column("x", ["1", "", "NA", "nan", "2"], kind=NUMERIC)
        assert column.n_missing() == 3

    def test_stats_skip_missing(self):
        column = Column("x", [1.0, None, 3.0])
        assert column.min() == 1.0
        assert column.max() == 3.0
        assert column.mean() == 2.0

    def test_stats_on_all_missing_are_nan(self):
        column = Column("x", [None, None])
        assert math.isnan(column.mean())

    def test_distinct_excludes_missing(self):
        column = Column("x", [1.0, 1.0, 2.0, None])
        assert column.distinct() == [1.0, 2.0]
        assert column.n_distinct() == 2


class TestCategoricalColumn:
    def test_values_become_strings(self):
        column = Column("c", ["a", 5, True], kind=CATEGORICAL)
        assert list(column.values) == ["a", "5", "True"]

    def test_missing_is_none(self):
        column = Column("c", ["a", None, "nan"], kind=CATEGORICAL)
        assert column.n_missing() == 2

    def test_value_counts_sorted_by_frequency(self):
        column = Column("c", ["b", "a", "b", "c", "b", "a"])
        assert list(column.value_counts().items()) == [("b", 3), ("a", 2), ("c", 1)]

    def test_numeric_stats_raise(self):
        column = Column("c", ["a", "b"])
        with pytest.raises(TypeError):
            column.mean()


class TestColumnOps:
    def test_take_reorders(self):
        column = Column("x", [10.0, 20.0, 30.0])
        taken = column.take([2, 0])
        assert list(taken.values) == [30.0, 10.0]

    def test_take_allows_duplicates(self):
        column = Column("x", [10.0, 20.0])
        assert len(column.take([0, 0, 1])) == 3

    def test_mask_filters(self):
        column = Column("x", [1.0, 2.0, 3.0])
        kept = column.mask(np.array([True, False, True]))
        assert list(kept.values) == [1.0, 3.0]

    def test_mask_wrong_length_raises(self):
        column = Column("x", [1.0, 2.0])
        with pytest.raises(ValueError):
            column.mask(np.array([True]))

    def test_rename_preserves_data(self):
        column = Column("x", [1.0]).rename("y")
        assert column.name == "y"
        assert column[0] == 1.0

    def test_equality_handles_nan(self):
        a = Column("x", [1.0, None])
        b = Column("x", [1.0, None])
        assert a == b

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Column("", [1.0])


# -- the categorical array route of Column._coerce against the per-cell oracle

class _Str(str):
    pass


_MARKERS = st.builds(
    lambda marker, upper, left, right: (
        left + "".join(c.upper() if u else c for c, u in zip(marker, upper))
        + right),
    st.sampled_from(["", "na", "nan", "null", "none", "n/a"]),
    st.lists(st.booleans(), min_size=4, max_size=4),
    st.sampled_from(["", " ", "\t", "  "]),
    st.sampled_from(["", " ", "\n"]),
)
_STRINGS = st.one_of(_MARKERS, st.text(max_size=4),
                     st.sampled_from(["1.5", " 2 ", "-inf", "a b"]))
_STRING_CELLS = st.one_of(_STRINGS, st.none())
#: Cells that send a sequence down the per-cell route.
_OTHER_CELLS = st.one_of(
    st.floats(), st.integers(), st.booleans(), _STRINGS.map(_Str),
    st.floats().map(np.float64), st.booleans().map(np.bool_),
    st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
)


def _object_array(values: list) -> np.ndarray:
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


@st.composite
def _categorical_inputs(draw):
    """Mostly ``str``/``None`` cells (the array route), sometimes with one
    cell that sends the sequence down the per-cell route."""
    values = draw(st.lists(_STRING_CELLS, max_size=12))
    if values and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(_OTHER_CELLS)
    return draw(st.sampled_from([list, tuple, _object_array]))(values)


@settings(max_examples=400, deadline=None)
@given(values=_categorical_inputs())
@example(values=["a", None, " NA ", "None", "b", "a", "\tn/A"])
@example(values=("nan", 1.5, math.nan, True, _Str("None")))
def test_coerce_matches_the_per_cell_loop(values):
    expected = coerce_cells(values, CATEGORICAL)
    actual = Column._coerce(values, CATEGORICAL)
    assert actual.dtype == expected.dtype == object
    assert actual.tolist() == expected.tolist()
    assert [type(v) for v in actual] == [type(v) for v in expected]
