"""A small columnar DataFrame: the relational substrate for SubTab.

Supports the operations the paper's EDA setting needs: row selection,
column projection, sorting, grouping with aggregation, sampling, and a
pandas-like truncated display (which motivates the whole paper — the default
``display()`` shows an arbitrary corner of the table).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.frame.column import CATEGORICAL, Column
from repro.utils.rng import ensure_rng


class DataFrame:
    """An ordered collection of equally-long :class:`Column` objects."""

    def __init__(self, data: "Mapping[str, Sequence] | Sequence[Column]" = ()):
        self._columns: dict[str, Column] = {}
        if isinstance(data, Mapping):
            items: Iterable = data.items()
            for name, values in items:
                column = values if isinstance(values, Column) else Column(name, values)
                self._add_column(column.rename(name) if column.name != name else column)
        else:
            for column in data:
                if not isinstance(column, Column):
                    raise TypeError("sequence form requires Column instances")
                self._add_column(column)

    def _add_column(self, column: Column) -> None:
        if column.name in self._columns:
            raise ValueError(f"duplicate column name {column.name!r}")
        if self._columns:
            expected = self.n_rows
            if len(column) != expected:
                raise ValueError(
                    f"column {column.name!r} has {len(column)} rows, expected {expected}"
                )
        self._columns[column.name] = column

    # -- shape & access ------------------------------------------------------
    @property
    def columns(self) -> list[str]:
        return list(self._columns.keys())

    @property
    def n_rows(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    @property
    def n_cols(self) -> int:
        return len(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(f"no column named {name!r}; have {self.columns}") from None

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self.n_rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, DataFrame):
            return NotImplemented
        if self.columns != other.columns:
            return False
        return all(self._columns[name] == other._columns[name] for name in self.columns)

    def row(self, index: int) -> dict:
        """The row at ``index`` as a ``{column: value}`` dict."""
        if not (-self.n_rows <= index < self.n_rows):
            raise IndexError(f"row index {index} out of range for {self.n_rows} rows")
        return {name: column[index] for name, column in self._columns.items()}

    def iter_rows(self):
        """Yield rows as dicts (used by small-table consumers only)."""
        for i in range(self.n_rows):
            yield self.row(i)

    def to_dict(self) -> dict[str, list]:
        """Plain-python representation, mostly for tests."""
        return {name: list(column.values) for name, column in self._columns.items()}

    # -- relational operations -------------------------------------------------
    def project(self, names: Sequence[str]) -> "DataFrame":
        """Projection: keep only ``names``, in the given order."""
        missing = [name for name in names if name not in self._columns]
        if missing:
            raise KeyError(f"unknown columns {missing}; have {self.columns}")
        return DataFrame([self._columns[name] for name in names])

    def drop(self, names: Sequence[str]) -> "DataFrame":
        """Complement of :meth:`project`."""
        names = set(names)
        return self.project([name for name in self.columns if name not in names])

    def take(self, indices) -> "DataFrame":
        """Row selection by integer positions (in order, duplicates allowed)."""
        indices = np.asarray(indices, dtype=np.int64)
        return DataFrame([column.take(indices) for column in self._columns.values()])

    def filter(self, predicate: "np.ndarray | Callable[[dict], bool]") -> "DataFrame":
        """Row selection by boolean mask or per-row predicate function."""
        if callable(predicate):
            mask = np.fromiter(
                (bool(predicate(row)) for row in self.iter_rows()),
                dtype=bool,
                count=self.n_rows,
            )
        else:
            mask = np.asarray(predicate, dtype=bool)
            if mask.shape != (self.n_rows,):
                raise ValueError("mask length must equal the number of rows")
        return DataFrame([column.mask(mask) for column in self._columns.values()])

    def sort_by(self, name: str, ascending: bool = True) -> "DataFrame":
        """Stable sort by one column; missing values sort last."""
        column = self.column(name)
        missing = column.missing_mask()
        if column.is_numeric:
            keys = column.values.copy()
            keys[missing] = np.inf if ascending else -np.inf
            order = np.argsort(keys, kind="stable")
        else:
            present = np.flatnonzero(~missing)
            absent = np.flatnonzero(missing)
            present_sorted = present[
                np.argsort(np.array([str(column[i]) for i in present]), kind="stable")
            ]
            order = np.concatenate([present_sorted, absent]) if len(absent) else present_sorted
        if not ascending:
            present_part = order[~missing[order]]
            absent_part = order[missing[order]]
            order = np.concatenate([present_part[::-1], absent_part])
        return self.take(order)

    def head(self, n: int = 5) -> "DataFrame":
        return self.take(np.arange(min(n, self.n_rows)))

    def tail(self, n: int = 5) -> "DataFrame":
        start = max(0, self.n_rows - n)
        return self.take(np.arange(start, self.n_rows))

    def sample(self, n: int, seed=None, replace: bool = False) -> "DataFrame":
        """Uniform row sample of size ``n`` (without replacement by default)."""
        rng = ensure_rng(seed)
        if not replace and n > self.n_rows:
            raise ValueError(f"cannot sample {n} rows from {self.n_rows} without replacement")
        indices = rng.choice(self.n_rows, size=n, replace=replace)
        return self.take(indices)

    def concat_rows(self, other: "DataFrame") -> "DataFrame":
        """Vertical concatenation; schemas must match exactly."""
        if self.columns != other.columns:
            raise ValueError("schemas differ; cannot concatenate")
        merged = []
        for name in self.columns:
            left, right = self._columns[name], other._columns[name]
            kind = left.kind if left.kind == right.kind else CATEGORICAL
            values = np.concatenate([np.asarray(left.values, dtype=object),
                                     np.asarray(right.values, dtype=object)])
            merged.append(Column(name, values, kind=kind))
        return DataFrame(merged)

    def with_column(self, column: Column) -> "DataFrame":
        """New frame with ``column`` appended (or replaced if the name exists)."""
        columns = [self._columns[name] for name in self.columns if name != column.name]
        columns.append(column)
        return DataFrame(columns)

    def group_by(self, names: "str | Sequence[str]") -> "GroupBy":
        """Group rows by one or more columns; see :class:`GroupBy`."""
        if isinstance(names, str):
            names = [names]
        for name in names:
            self.column(name)  # validate
        return GroupBy(self, list(names))

    # -- summaries ---------------------------------------------------------------
    def describe(self) -> dict[str, dict]:
        """Per-column summary: kind, missing count, distinct count, numeric stats."""
        summary = {}
        for name, column in self._columns.items():
            info = {
                "kind": column.kind,
                "n_missing": column.n_missing(),
                "n_distinct": column.n_distinct(),
            }
            if column.is_numeric and column.n_missing() < len(column):
                info.update(
                    min=column.min(), max=column.max(),
                    mean=column.mean(), std=column.std(),
                )
            summary[name] = info
        return summary

    def __repr__(self) -> str:
        from repro.frame.display import render_truncated

        return render_truncated(self)


class GroupBy:
    """Deferred grouping over a :class:`DataFrame`.

    Aggregations: ``count``, ``sum``, ``mean``, ``min``, ``max``, ``nunique``.
    Missing group keys form their own group (rendered as ``None``/``NaN``).
    """

    _NUMERIC_AGGS = {
        "sum": np.nansum,
        "mean": np.nanmean,
        "min": np.nanmin,
        "max": np.nanmax,
    }

    def __init__(self, frame: DataFrame, keys: list[str]):
        self._frame = frame
        self._keys = keys
        self._groups = self._build_groups()

    def _build_groups(self) -> dict[tuple, np.ndarray]:
        frame = self._frame
        key_columns = [frame.column(name) for name in self._keys]
        buckets: dict[tuple, list[int]] = {}
        for i in range(frame.n_rows):
            key = tuple(
                None if missing else column[i]
                for column, missing in (
                    (col, bool(col.missing_mask()[i])) for col in key_columns
                )
            )
            buckets.setdefault(key, []).append(i)
        return {key: np.array(rows, dtype=np.int64) for key, rows in buckets.items()}

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    def groups(self) -> dict[tuple, np.ndarray]:
        """Mapping from group key tuple to row indices."""
        return dict(self._groups)

    def agg(self, spec: Mapping[str, str]) -> DataFrame:
        """Aggregate: ``spec`` maps column name -> aggregation name.

        Returns a frame with one row per group: the key columns followed by
        ``{column}_{agg}`` result columns.
        """
        frame = self._frame
        keys_sorted = sorted(self._groups.keys(), key=lambda key: tuple(str(part) for part in key))
        out: dict[str, list] = {name: [] for name in self._keys}
        result_names = [f"{column}_{agg}" for column, agg in spec.items()]
        for name in result_names:
            out[name] = []
        for key in keys_sorted:
            rows = self._groups[key]
            for name, part in zip(self._keys, key):
                out[name].append(part)
            for (column_name, agg), result_name in zip(spec.items(), result_names):
                out[result_name].append(self._aggregate(column_name, agg, rows))
        return DataFrame(out)

    def _aggregate(self, column_name: str, agg: str, rows: np.ndarray):
        column = self._frame.column(column_name)
        if agg == "count":
            return int((~column.missing_mask()[rows]).sum())
        if agg == "nunique":
            return column.take(rows).n_distinct()
        if agg in self._NUMERIC_AGGS:
            if not column.is_numeric:
                raise TypeError(f"{agg} requires numeric column, {column_name!r} is categorical")
            values = column.values[rows]
            if np.isnan(values).all():
                return float("nan")
            return float(self._NUMERIC_AGGS[agg](values))
        raise ValueError(f"unknown aggregation {agg!r}")
