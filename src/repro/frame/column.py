"""Typed columns backed by numpy arrays.

This module is part of the pandas substrate (the paper hooks into pandas;
pandas is not available offline, so we provide an equivalent columnar
structure).  Two kinds of columns exist:

* ``numeric`` — float64 storage, ``NaN`` marks missing values.  Integer input
  is widened to float64, mirroring pandas' nullable behaviour.
* ``categorical`` — object storage of strings, ``None`` marks missing values.
  Booleans are stored as the strings ``"True"``/``"False"``.

Columns are treated as immutable by convention: operations return new
columns rather than mutating in place.

Values reach a column's storage by an array route or by the per-cell
route, and the routes build the same values:

* A ``list`` or ``tuple`` whose cells are all exactly ``str`` or ``None``
  (categorical kind) becomes an object array of the same objects; each
  *distinct* string is tested once for being a missing marker, and the
  cells equal to a marker become ``None``.  The per-cell route returns
  ``str(value)``, which is ``value`` itself for an exact ``str``.
* A float array of numeric kind is copied as float64.
* Everything else (lists of numbers, bools, numpy scalars, subclasses of
  ``str``, other arrays) takes the per-cell route, :func:`coerce_cells`,
  which also serves as the tests' oracle.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"

_MISSING_STRINGS = {"", "na", "nan", "null", "none", "n/a"}


def _is_missing_scalar(value) -> bool:
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    if isinstance(value, np.floating) and np.isnan(value):
        return True
    return False


#: Cell types whose sequences take the array route of :meth:`Column._coerce`.
_STRING_CELLS = frozenset({str, type(None)})


def _missing_markers(values: Sequence) -> list:
    """The distinct strings among ``values`` that mark a missing cell."""
    return [value for value in set(values)
            if value is not None and value.strip().lower() in _MISSING_STRINGS]


def coerce_cells(values: Sequence, kind: str) -> np.ndarray:
    """Coerce ``values`` to a column's storage one cell at a time."""
    if kind == NUMERIC:
        out = np.empty(len(values), dtype=np.float64)
        for i, value in enumerate(values):
            if _is_missing_scalar(value):
                out[i] = np.nan
            elif isinstance(value, str):
                stripped = value.strip()
                if stripped.lower() in _MISSING_STRINGS:
                    out[i] = np.nan
                else:
                    out[i] = float(stripped)
            else:
                out[i] = float(value)
        return out
    out = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        if _is_missing_scalar(value):
            out[i] = None
        elif isinstance(value, str) and value.strip().lower() in _MISSING_STRINGS:
            out[i] = None
        elif isinstance(value, (bool, np.bool_)):
            out[i] = "True" if value else "False"
        else:
            out[i] = str(value)
    return out


def infer_kind(values: Iterable) -> str:
    """Infer whether ``values`` form a numeric or categorical column.

    A column is numeric when every non-missing value is a real number or a
    string that parses as one; otherwise it is categorical.
    """
    saw_value = False
    for value in values:
        if _is_missing_scalar(value):
            continue
        saw_value = True
        if isinstance(value, bool) or isinstance(value, np.bool_):
            return CATEGORICAL
        if isinstance(value, (int, float, np.integer, np.floating)):
            continue
        if isinstance(value, str):
            if value.strip().lower() in _MISSING_STRINGS:
                continue  # missing marker, not evidence of a kind
            try:
                float(value)
            except ValueError:
                return CATEGORICAL
            continue
        return CATEGORICAL
    # An all-missing column defaults to numeric (all-NaN), like pandas.
    return NUMERIC if saw_value or True else NUMERIC


class Column:
    """A named, typed column of values.

    Parameters
    ----------
    name:
        Column name.
    values:
        Any sequence; values are coerced according to ``kind``.
    kind:
        ``"numeric"`` or ``"categorical"``; inferred when omitted.
    """

    __slots__ = ("name", "kind", "_data")

    def __init__(self, name: str, values: Sequence, kind: str | None = None):
        if not isinstance(name, str) or not name:
            raise ValueError("column name must be a non-empty string")
        self.name = name
        if kind is None:
            if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
                kind = NUMERIC
            else:
                kind = infer_kind(values)
        if kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"unknown column kind {kind!r}")
        self.kind = kind
        self._data = self._coerce(values, kind)

    @classmethod
    def _from_coerced(cls, name: str, data: np.ndarray, kind: str) -> "Column":
        """Construct from an already-canonical backing array, skipping
        :meth:`_coerce`.  Only for data that came out of another Column's
        storage (take/mask/rename) — the per-value coercion loop dominates
        view construction on the serving hot path."""
        if not isinstance(name, str) or not name:
            raise ValueError("column name must be a non-empty string")
        column = cls.__new__(cls)
        column.name = name
        column.kind = kind
        column._data = data
        return column

    @staticmethod
    def _coerce(values: Sequence, kind: str) -> np.ndarray:
        if kind == NUMERIC and isinstance(values, np.ndarray) and values.dtype.kind == "f":
            return values.astype(np.float64, copy=True)
        if (kind == CATEGORICAL and isinstance(values, (list, tuple))
                and set(map(type, values)) <= _STRING_CELLS):
            out = np.array(values, dtype=object)
            for marker in _missing_markers(values):
                out[out == marker] = None
            return out
        return coerce_cells(values, kind)

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self):
        return iter(self._data)

    def __getitem__(self, index):
        return self._data[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.name != other.name or self.kind != other.kind:
            return False
        if self.kind == NUMERIC:
            return bool(
                np.array_equal(self._data, other._data, equal_nan=True)
            )
        return bool(np.array_equal(self._data, other._data))

    def __repr__(self) -> str:
        return f"Column({self.name!r}, kind={self.kind}, n={len(self)})"

    # -- accessors ----------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The backing numpy array (do not mutate)."""
        return self._data

    @property
    def is_numeric(self) -> bool:
        return self.kind == NUMERIC

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL

    def missing_mask(self) -> np.ndarray:
        """Boolean mask, ``True`` where the value is missing."""
        if self.kind == NUMERIC:
            return np.isnan(self._data)
        return np.array([value is None for value in self._data], dtype=bool)

    def n_missing(self) -> int:
        return int(self.missing_mask().sum())

    def non_missing_values(self) -> np.ndarray:
        """Values with missing entries removed."""
        return self._data[~self.missing_mask()]

    def distinct(self) -> list:
        """Distinct non-missing values, in first-appearance order."""
        seen: dict = {}
        for value, missing in zip(self._data, self.missing_mask()):
            if missing:
                continue
            if value not in seen:
                seen[value] = None
        return list(seen.keys())

    def n_distinct(self) -> int:
        return len(self.distinct())

    # -- statistics (numeric only) ------------------------------------------
    def _require_numeric(self, op: str) -> np.ndarray:
        if self.kind != NUMERIC:
            raise TypeError(f"{op} requires a numeric column; {self.name!r} is categorical")
        return self._data

    def min(self) -> float:
        data = self._require_numeric("min")
        return float(np.nanmin(data)) if not np.isnan(data).all() else float("nan")

    def max(self) -> float:
        data = self._require_numeric("max")
        return float(np.nanmax(data)) if not np.isnan(data).all() else float("nan")

    def mean(self) -> float:
        data = self._require_numeric("mean")
        return float(np.nanmean(data)) if not np.isnan(data).all() else float("nan")

    def std(self) -> float:
        data = self._require_numeric("std")
        return float(np.nanstd(data)) if not np.isnan(data).all() else float("nan")

    # -- transformations ------------------------------------------------------
    def take(self, indices) -> "Column":
        """New column containing the rows at ``indices`` (in order)."""
        indices = np.asarray(indices)
        return Column._from_coerced(self.name, self._data[indices], self.kind)

    def mask(self, keep: np.ndarray) -> "Column":
        """New column keeping rows where the boolean ``keep`` mask is True."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != self._data.shape:
            raise ValueError("mask length must equal column length")
        return Column._from_coerced(self.name, self._data[keep], self.kind)

    def rename(self, name: str) -> "Column":
        return Column._from_coerced(name, self._data.copy(), self.kind)

    def value_counts(self) -> dict:
        """Counts of non-missing values, most frequent first."""
        counts: dict = {}
        for value, missing in zip(self._data, self.missing_mask()):
            if missing:
                continue
            counts[value] = counts.get(value, 0) + 1
        return dict(sorted(counts.items(), key=lambda item: (-item[1], str(item[0]))))
