"""The SubTable result object: a k x l view plus provenance.

Besides the materialized :class:`~repro.frame.DataFrame`, the result keeps
the *global* row indices and the column names relative to the full table, so
that metrics (which are defined over the full table T) and the highlighting
UI can trace every sub-table cell back to its origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.frame.display import render_full
from repro.frame.frame import DataFrame


@dataclass
class SubTable:
    """A selected sub-table.

    Attributes
    ----------
    frame:
        The materialized k x l table.
    row_indices:
        Positions of the selected rows in the *full* table T.
    columns:
        Selected column names (a subset of T's columns, in display order).
    targets:
        Target columns that were forced into the selection (U*).
    """

    frame: DataFrame
    row_indices: list[int]
    columns: list[str]
    targets: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.frame.columns != list(self.columns):
            raise ValueError("frame columns must match the selected columns")
        if self.frame.n_rows != len(self.row_indices):
            raise ValueError("frame rows must match row_indices")

    @property
    def shape(self) -> tuple[int, int]:
        return self.frame.shape

    def to_string(self, decorate=None) -> str:
        """Full textual rendering (optionally decorated by the highlighter)."""
        return render_full(self.frame, decorate=decorate)

    def __str__(self) -> str:
        return self.to_string()

    def contains_value(self, column: str, value) -> bool:
        """Whether the sub-table shows ``value`` in ``column``.

        Used by the simulation study (Fig. 6) to test if a next-query
        fragment was visible in the previous sub-table.
        """
        if column not in self.frame:
            return False
        selected = self.frame.column(column)
        if selected.is_numeric:
            try:
                target = float(value)
            except (TypeError, ValueError):
                return False
            return any(v == target for v in selected.non_missing_values())
        return str(value) in set(selected.non_missing_values())


def subtable_from_selection(
    full_frame: DataFrame,
    row_indices: Sequence[int],
    columns: Sequence[str],
    targets: Sequence[str] = (),
) -> SubTable:
    """Materialize a :class:`SubTable` from global row/column selections."""
    frame = full_frame.project(list(columns)).take(list(row_indices))
    return SubTable(
        frame=frame,
        row_indices=list(int(i) for i in row_indices),
        columns=list(columns),
        targets=list(targets),
    )
