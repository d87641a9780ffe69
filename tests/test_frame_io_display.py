"""Unit + property tests for CSV I/O and display rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame.display import render_full, render_truncated
from repro.frame.frame import DataFrame
from repro.frame.io import read_csv, to_csv


class TestCsvRoundTrip:
    def test_simple_roundtrip(self, tmp_path):
        frame = DataFrame({"a": [1.0, 2.5], "b": ["x", "y y"]})
        path = tmp_path / "t.csv"
        to_csv(frame, path)
        loaded = read_csv(path)
        assert loaded == frame

    def test_missing_values_roundtrip(self, tmp_path):
        frame = DataFrame({"a": [1.0, None], "b": [None, "x"]})
        path = tmp_path / "t.csv"
        to_csv(frame, path)
        loaded = read_csv(path)
        assert loaded.column("a").n_missing() == 1
        assert loaded.column("b").n_missing() == 1

    def test_type_inference(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,x\n2,y\n")
        loaded = read_csv(path)
        assert loaded.column("a").is_numeric
        assert loaded.column("b").is_categorical

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_ragged_record_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(ValueError, match="expected 2 fields"):
            read_csv(path)

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.none(),
                st.floats(
                    allow_nan=False, allow_infinity=False,
                    min_value=-1e6, max_value=1e6,
                ),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_numeric_roundtrip_property(self, tmp_path_factory, values):
        frame = DataFrame({"v": values})
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        to_csv(frame, path)
        loaded = read_csv(path)
        original = frame.column("v").values
        reloaded = loaded.column("v").values
        assert np.allclose(original, reloaded, equal_nan=True, rtol=1e-9)


class TestDisplay:
    def test_truncated_shows_corners(self):
        frame = DataFrame({f"c{i}": list(range(100)) for i in range(20)})
        text = render_truncated(frame, max_rows=10, max_cols=10)
        assert "..." in text
        assert "[100 rows x 20 columns]" in text
        assert "c0" in text and "c19" in text
        # middle columns elided
        assert "c9 " not in text

    def test_small_frame_not_truncated(self):
        frame = DataFrame({"a": [1.0, 2.0]})
        text = render_truncated(frame)
        assert "..." not in text

    def test_render_full_shows_all_rows(self):
        frame = DataFrame({"a": [float(i) for i in range(30)]})
        text = render_full(frame)
        assert "29.0" in text

    def test_decorator_applied(self):
        frame = DataFrame({"a": [1.0]})
        text = render_full(frame, decorate=lambda i, j, s: f"<{s}>")
        assert "<" in text

    def test_nan_rendered(self):
        frame = DataFrame({"a": [None]})
        assert "NaN" in render_full(frame)

    def test_empty_frame(self):
        assert "Empty" in render_truncated(DataFrame({}))

    def test_repr_is_truncated_view(self):
        frame = DataFrame({"a": list(range(100))})
        assert "[100 rows x 1 columns]" in repr(frame)
