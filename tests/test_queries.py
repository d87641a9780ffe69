"""Tests for predicates, SP queries, sessions, and the replay study."""

import numpy as np
import pytest

from repro.core.result import subtable_from_selection
from repro.frame.frame import DataFrame
from repro.queries import (
    COLUMN_FRAGMENT,
    Eq,
    Fragment,
    GroupByOp,
    Gt,
    InRange,
    InSet,
    IsMissing,
    Lt,
    SPQuery,
    SessionBuilder,
    SessionGenerator,
    SortOp,
    capture_rates_by_width,
    fragment_captured,
    replay_sessions,
    session_result,
)


@pytest.fixture
def frame():
    return DataFrame({
        "num": [1.0, 5.0, 10.0, None],
        "cat": ["a", "b", "a", "c"],
    })


class TestPredicates:
    def test_eq_categorical(self, frame):
        assert list(Eq("cat", "a").mask(frame)) == [True, False, True, False]

    def test_eq_numeric(self, frame):
        assert list(Eq("num", 5).mask(frame)) == [False, True, False, False]

    def test_in_range(self, frame):
        assert list(InRange("num", 2, 10).mask(frame)) == [False, True, True, False]

    def test_gt_lt_ignore_missing(self, frame):
        assert list(Gt("num", 4).mask(frame)) == [False, True, True, False]
        assert list(Lt("num", 4).mask(frame)) == [True, False, False, False]

    def test_is_missing(self, frame):
        assert list(IsMissing("num").mask(frame)) == [False, False, False, True]

    def test_in_set(self, frame):
        assert list(InSet("cat", ["a", "c"]).mask(frame)) == [True, False, True, True]

    @pytest.mark.parametrize("value", ["a", None, 1, ["a"], ("a",)])
    def test_eq_categorical_matches_cell_comparisons(self, value):
        frame = DataFrame({"cat": ["a", None, "b", "a", None]})
        cells = frame.column("cat").values
        oracle = np.array([cell == value for cell in cells], dtype=bool)
        mask = Eq("cat", value).mask(frame)
        assert mask.dtype == bool
        assert mask.tolist() == oracle.tolist()

    def test_fragments_include_column_and_value(self):
        fragments = Eq("cat", "a").fragments()
        kinds = {f.kind for f in fragments}
        assert kinds == {"column", "value"}

    def test_describe(self):
        assert "cat" in Eq("cat", "a").describe()


class TestSPQuery:
    def test_conjunction(self, frame):
        query = SPQuery([Gt("num", 2), Eq("cat", "a")])
        assert list(query.row_indices(frame)) == [2]

    def test_projection(self, frame):
        query = SPQuery(projection=["cat"])
        assert query.apply(frame).columns == ["cat"]

    def test_unknown_projection_raises(self, frame):
        with pytest.raises(KeyError):
            SPQuery(projection=["nope"]).output_columns(frame)

    def test_composition(self, frame):
        first = SPQuery([Gt("num", 2)])
        second = SPQuery([Eq("cat", "a")], projection=["num"])
        composed = first.and_then(second)
        result = composed.apply(frame)
        assert result.columns == ["num"]
        assert result.n_rows == 1

    def test_describe(self):
        text = SPQuery([Eq("cat", "a")], projection=["num"]).describe()
        assert "SELECT num" in text


class TestOps:
    def test_group_by_op(self, frame):
        result = GroupByOp(["cat"], "num", "count").apply(frame)
        assert result.n_rows == 3

    def test_sort_op(self, frame):
        result = SortOp("num").apply(frame)
        assert result.column("num")[0] == 1.0


class TestSessionBuilder:
    def test_state_accumulates(self, frame):
        builder = SessionBuilder("demo")
        builder.filter(Gt("num", 2)).project(["num", "cat"]).sort("num")
        session = builder.build()
        assert len(session) == 3
        final = session.steps[-1].state
        assert final.projection == ("num", "cat")
        assert len(final.predicates) == 1

    def test_group_and_sort_do_not_change_state(self, frame):
        builder = SessionBuilder("demo")
        builder.filter(Eq("cat", "a")).group_by(["cat"], "num")
        session = builder.build()
        assert session.steps[0].state == session.steps[1].state

    def test_session_result(self, frame):
        builder = SessionBuilder("demo").filter(Eq("cat", "a"))
        result = session_result(frame, builder.build().steps[0])
        assert result.n_rows == 2

    def test_consecutive_pairs(self):
        builder = SessionBuilder("demo")
        builder.sort("num").sort("cat").sort("num")
        pairs = list(builder.build().consecutive_pairs())
        assert len(pairs) == 2


class TestFragmentCapture:
    def make_subtable(self, frame, rows, columns):
        return subtable_from_selection(frame, rows, columns)

    def test_column_fragment(self, frame):
        subtable = self.make_subtable(frame, [0], ["num"])
        assert fragment_captured(subtable, Fragment(COLUMN_FRAGMENT, "num"))
        assert not fragment_captured(subtable, Fragment(COLUMN_FRAGMENT, "cat"))

    def test_value_fragment(self, frame):
        subtable = self.make_subtable(frame, [0, 1], ["cat"])
        assert fragment_captured(subtable, Fragment("value", "cat", value="a"))
        assert not fragment_captured(subtable, Fragment("value", "cat", value="zz"))

    def test_range_fragment(self, frame):
        subtable = self.make_subtable(frame, [0, 1], ["num"])
        assert fragment_captured(subtable, Fragment("value", "num", low=0.0, high=2.0))
        assert not fragment_captured(
            subtable, Fragment("value", "num", low=100.0, high=200.0)
        )


class FirstRowsSelector:
    """Degenerate selector used to make replay behaviour deterministic."""

    name = "FirstRows"

    def __init__(self, frame):
        self._frame = frame

    def select(self, k, l, query=None, targets=()):
        if query is None:
            rows = np.arange(self._frame.n_rows)
            columns = list(self._frame.columns)
        else:
            rows = query.row_indices(self._frame)
            columns = query.output_columns(self._frame)
        if len(rows) == 0:
            raise ValueError("empty result")
        keep_rows = [int(i) for i in rows[:k]]
        keep_columns = columns[:l]
        return subtable_from_selection(self._frame, keep_rows, keep_columns)


class TestReplay:
    def test_replay_counts_fragments(self, frame):
        builder = SessionBuilder("s")
        builder.sort("num").filter(Eq("cat", "a"))
        session = builder.build()
        selector = FirstRowsSelector(frame)
        result = replay_sessions(selector, [session], k=4, l=2)
        # one pair: sort -> filter; filter has 2 fragments (column + value)
        assert result.total == 2
        assert 0 <= result.capture_rate <= 1.0

    def test_rates_by_width_monotone_total(self, frame):
        builder = SessionBuilder("s")
        builder.sort("num").filter(Eq("cat", "a")).sort("cat")
        session = builder.build()
        selector = FirstRowsSelector(frame)
        rates = capture_rates_by_width(selector, [session], widths=[1, 2], k=4)
        assert set(rates.keys()) == {1, 2}


class TestSessionGenerator:
    @pytest.fixture(scope="class")
    def generator(self, planted_binned):
        return SessionGenerator(
            planted_binned, pattern_columns=["SIZE", "OUTCOME"], seed=0
        )

    def test_generates_requested_count(self, generator):
        sessions = generator.generate(5, min_steps=3, max_steps=5)
        assert len(sessions) == 5
        for session in sessions:
            assert 3 <= len(session) <= 5

    def test_states_never_empty(self, generator, planted_binned):
        sessions = generator.generate(5, min_steps=4, max_steps=6)
        frame = planted_binned.frame
        for session in sessions:
            for step in session:
                assert len(step.state.row_indices(frame)) > 0

    def test_fragments_present(self, generator):
        sessions = generator.generate(3)
        assert any(step.fragments for session in sessions for step in session)
