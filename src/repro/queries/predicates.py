"""Selection predicates for SP queries.

Predicates evaluate to boolean row masks over a DataFrame and expose the
*query fragments* they reference (column names and selection terms), which
the simulation study (Fig. 6) checks against sub-table contents.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.frame.frame import DataFrame

COLUMN_FRAGMENT = "column"
VALUE_FRAGMENT = "value"


@dataclass(frozen=True)
class Fragment:
    """One reusable piece of a query: a column reference or a selection term.

    For value fragments over numeric columns, ``low``/``high`` describe the
    value region the term selects, so "the sub-table exposed this region"
    can be tested without requiring an exact numeric match.
    """

    kind: str
    column: str
    value: object = None
    low: float | None = None
    high: float | None = None


class Predicate(ABC):
    """A boolean condition over rows."""

    @abstractmethod
    def mask(self, frame: DataFrame) -> np.ndarray:
        """Boolean keep-mask over the rows of ``frame``."""

    @abstractmethod
    def fragments(self) -> list[Fragment]:
        """The query fragments this predicate references."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable form, e.g. ``DISTANCE > 1500``."""

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class Eq(Predicate):
    """``column == value`` (categorical or numeric equality)."""

    column: str
    value: object

    def mask(self, frame: DataFrame) -> np.ndarray:
        column = frame.column(self.column)
        if column.is_numeric:
            return column.values == float(self.value)
        # A 0-d object array compares every cell with the value as one
        # object, even when the value is a list or a tuple.
        value = np.empty((), dtype=object)
        value[()] = self.value
        return column.values == value

    def fragments(self) -> list[Fragment]:
        return [
            Fragment(COLUMN_FRAGMENT, self.column),
            Fragment(VALUE_FRAGMENT, self.column, value=self.value),
        ]

    def describe(self) -> str:
        return f"{self.column} == {self.value!r}"


@dataclass(frozen=True)
class InRange(Predicate):
    """``low <= column <= high`` over a numeric column."""

    column: str
    low: float
    high: float

    def mask(self, frame: DataFrame) -> np.ndarray:
        values = frame.column(self.column).values
        with np.errstate(invalid="ignore"):
            return (values >= self.low) & (values <= self.high)

    def fragments(self) -> list[Fragment]:
        return [
            Fragment(COLUMN_FRAGMENT, self.column),
            Fragment(VALUE_FRAGMENT, self.column, low=self.low, high=self.high),
        ]

    def describe(self) -> str:
        return f"{self.low!r} <= {self.column} <= {self.high!r}"


@dataclass(frozen=True)
class Gt(Predicate):
    """``column > threshold`` over a numeric column."""

    column: str
    threshold: float

    def mask(self, frame: DataFrame) -> np.ndarray:
        values = frame.column(self.column).values
        with np.errstate(invalid="ignore"):
            return values > self.threshold

    def fragments(self) -> list[Fragment]:
        return [
            Fragment(COLUMN_FRAGMENT, self.column),
            Fragment(VALUE_FRAGMENT, self.column, low=self.threshold, high=float("inf")),
        ]

    def describe(self) -> str:
        return f"{self.column} > {self.threshold!r}"


@dataclass(frozen=True)
class Lt(Predicate):
    """``column < threshold`` over a numeric column."""

    column: str
    threshold: float

    def mask(self, frame: DataFrame) -> np.ndarray:
        values = frame.column(self.column).values
        with np.errstate(invalid="ignore"):
            return values < self.threshold

    def fragments(self) -> list[Fragment]:
        return [
            Fragment(COLUMN_FRAGMENT, self.column),
            Fragment(VALUE_FRAGMENT, self.column, low=float("-inf"), high=self.threshold),
        ]

    def describe(self) -> str:
        return f"{self.column} < {self.threshold!r}"


@dataclass(frozen=True)
class IsMissing(Predicate):
    """``column IS NULL``."""

    column: str

    def mask(self, frame: DataFrame) -> np.ndarray:
        return frame.column(self.column).missing_mask()

    def fragments(self) -> list[Fragment]:
        return [Fragment(COLUMN_FRAGMENT, self.column)]

    def describe(self) -> str:
        return f"{self.column} IS MISSING"


@dataclass(frozen=True)
class InSet(Predicate):
    """``column IN (v1, v2, ...)`` over a categorical column."""

    column: str
    values: tuple

    def __init__(self, column: str, values: Sequence):
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "values", tuple(values))

    def mask(self, frame: DataFrame) -> np.ndarray:
        allowed = set(self.values)
        column = frame.column(self.column)
        return np.array([cell in allowed for cell in column.values], dtype=bool)

    def fragments(self) -> list[Fragment]:
        fragments = [Fragment(COLUMN_FRAGMENT, self.column)]
        fragments.extend(
            Fragment(VALUE_FRAGMENT, self.column, value=value) for value in self.values
        )
        return fragments

    def describe(self) -> str:
        return f"{self.column} IN {self.values!r}"


def conjunction_mask(predicates: Sequence[Predicate], frame: DataFrame) -> np.ndarray:
    """AND of all predicate masks (all rows when the list is empty)."""
    mask = np.ones(frame.n_rows, dtype=bool)
    for predicate in predicates:
        mask &= predicate.mask(frame)
    return mask
