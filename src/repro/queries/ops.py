"""Query operations over DataFrames: SP queries plus group-by and sort.

:class:`SPQuery` (selection-projection) is the query class whose results
SubTab displays interactively (paper Section 5.1: "if the analyst issues a
selection-projection (SP) query on T ... we need only to compute the vector
representation of rows and columns in Q(T)").  It implements the protocol
:meth:`row_indices` / :meth:`output_columns` consumed by
:meth:`repro.core.SubTab.select`.

Group-by and sort operations appear in EDA sessions (Fig. 6's replay); they
are modeled here so sessions can be executed end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.frame.frame import DataFrame
from repro.queries.predicates import (
    COLUMN_FRAGMENT,
    Fragment,
    Predicate,
    conjunction_mask,
)


@dataclass(frozen=True)
class SPQuery:
    """A conjunctive selection followed by a projection.

    ``predicates=()`` selects all rows; ``projection=None`` keeps all columns.
    """

    predicates: tuple = ()
    projection: Optional[tuple] = None

    def __init__(self, predicates: Sequence[Predicate] = (),
                 projection: Optional[Sequence[str]] = None):
        object.__setattr__(self, "predicates", tuple(predicates))
        object.__setattr__(
            self, "projection", None if projection is None else tuple(projection)
        )

    # -- protocol used by SubTab.select -------------------------------------
    def row_indices(self, frame: DataFrame) -> np.ndarray:
        return np.flatnonzero(conjunction_mask(self.predicates, frame))

    def output_columns(self, frame: DataFrame) -> list[str]:
        if self.projection is None:
            return list(frame.columns)
        missing = [name for name in self.projection if name not in frame]
        if missing:
            raise KeyError(f"projection references unknown columns {missing}")
        return list(self.projection)

    # -- execution -------------------------------------------------------------
    def apply(self, frame: DataFrame) -> DataFrame:
        result = frame.take(self.row_indices(frame))
        return result.project(self.output_columns(frame))

    def and_then(self, other: "SPQuery") -> "SPQuery":
        """Compose two SP queries (conjunction of selections, later projection)."""
        projection = other.projection if other.projection is not None else self.projection
        return SPQuery(self.predicates + other.predicates, projection)

    def fragments(self) -> list[Fragment]:
        fragments: list[Fragment] = []
        for predicate in self.predicates:
            fragments.extend(predicate.fragments())
        if self.projection is not None:
            fragments.extend(
                Fragment(COLUMN_FRAGMENT, name) for name in self.projection
            )
        return fragments

    def fingerprint(self) -> str:
        """Injective cache key for the serving layer.

        Content-based (predicates are frozen dataclasses whose repr shows
        their values), and — unlike :meth:`describe` — it distinguishes
        ``projection=None`` (keep all columns) from ``projection=()``
        (keep none, an invalid query), so semantically different queries
        never share a cache slot.
        """
        return f"SPQuery:{(self.predicates, self.projection)!r}"

    def describe(self) -> str:
        where = " AND ".join(p.describe() for p in self.predicates) or "TRUE"
        select = ", ".join(self.projection) if self.projection else "*"
        return f"SELECT {select} WHERE {where}"


@dataclass(frozen=True)
class GroupByOp:
    """GROUP BY ``keys`` with one aggregation (used in EDA sessions)."""

    keys: tuple
    agg_column: str
    agg_func: str = "count"

    def __init__(self, keys: Sequence[str], agg_column: str, agg_func: str = "count"):
        object.__setattr__(self, "keys", tuple(keys))
        object.__setattr__(self, "agg_column", agg_column)
        object.__setattr__(self, "agg_func", agg_func)

    def apply(self, frame: DataFrame) -> DataFrame:
        return frame.group_by(list(self.keys)).agg({self.agg_column: self.agg_func})

    def fragments(self) -> list[Fragment]:
        fragments = [Fragment(COLUMN_FRAGMENT, key) for key in self.keys]
        fragments.append(Fragment(COLUMN_FRAGMENT, self.agg_column))
        return fragments

    def describe(self) -> str:
        return (
            f"GROUP BY {', '.join(self.keys)} "
            f"AGG {self.agg_func}({self.agg_column})"
        )


@dataclass(frozen=True)
class SortOp:
    """ORDER BY one column."""

    column: str
    ascending: bool = True

    def apply(self, frame: DataFrame) -> DataFrame:
        return frame.sort_by(self.column, ascending=self.ascending)

    def fragments(self) -> list[Fragment]:
        return [Fragment(COLUMN_FRAGMENT, self.column)]

    def describe(self) -> str:
        direction = "ASC" if self.ascending else "DESC"
        return f"ORDER BY {self.column} {direction}"
