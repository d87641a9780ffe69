"""EDA sessions: sequences of exploratory operations over one table.

A session mirrors the structure of the real-life analysis sessions used in
the paper's simulation study (Milo & Somech's 122 recorded sessions over the
cyber-security dataset): a chain of filter / project / group-by / sort
steps.  Each step carries (a) the cumulative selection-projection state —
what SubTab would be asked to display after the step — and (b) the fragments
(columns, selection terms) the step itself references, which the replay
study tests against the previous step's sub-table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.frame.frame import DataFrame
from repro.queries.ops import GroupByOp, SPQuery, SortOp
from repro.queries.predicates import Fragment

FILTER = "filter"
PROJECT = "project"
GROUP_BY = "group_by"
SORT = "sort"

STEP_KINDS = (FILTER, PROJECT, GROUP_BY, SORT)


@dataclass(frozen=True)
class SessionStep:
    """One exploratory operation.

    ``state`` is the cumulative SP query after this step (group-by and sort
    steps observe the data without changing the SP state).
    """

    kind: str
    description: str
    state: SPQuery
    fragments: tuple = ()

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")


@dataclass
class EDASession:
    """An ordered list of steps over one dataset."""

    dataset: str
    steps: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def consecutive_pairs(self):
        """(previous step, next step) pairs, the unit of the Fig. 6 study."""
        for i in range(len(self.steps) - 1):
            yield self.steps[i], self.steps[i + 1]


class SessionBuilder:
    """Incrementally builds an :class:`EDASession` while tracking SP state."""

    def __init__(self, dataset: str):
        self._session = EDASession(dataset=dataset)
        self._state = SPQuery()

    @property
    def state(self) -> SPQuery:
        return self._state

    def filter(self, predicate) -> "SessionBuilder":
        self._state = SPQuery(
            self._state.predicates + (predicate,), self._state.projection
        )
        self._append(FILTER, predicate.describe(), tuple(predicate.fragments()))
        return self

    def project(self, columns: Sequence[str]) -> "SessionBuilder":
        self._state = SPQuery(self._state.predicates, tuple(columns))
        fragments = tuple(Fragment("column", name) for name in columns)
        self._append(PROJECT, f"PROJECT {', '.join(columns)}", fragments)
        return self

    def group_by(self, keys: Sequence[str], agg_column: str,
                 agg_func: str = "count") -> "SessionBuilder":
        op = GroupByOp(keys, agg_column, agg_func)
        self._append(GROUP_BY, op.describe(), tuple(op.fragments()))
        return self

    def sort(self, column: str, ascending: bool = True) -> "SessionBuilder":
        op = SortOp(column, ascending)
        self._append(SORT, op.describe(), tuple(op.fragments()))
        return self

    def _append(self, kind: str, description: str, fragments: tuple) -> None:
        self._session.steps.append(
            SessionStep(
                kind=kind,
                description=description,
                state=self._state,
                fragments=fragments,
            )
        )

    def build(self) -> EDASession:
        return self._session


def session_result(frame: DataFrame, step: SessionStep) -> DataFrame:
    """Materialize the SP result the analyst is looking at after ``step``."""
    return step.state.apply(frame)
