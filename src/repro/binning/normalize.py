"""Value normalization — the first pre-processing step of Algorithm 2.

The paper normalizes raw values ("e.g., remove illegal characters") before
binning.  We strip control characters, trim and collapse whitespace in
categorical values, and trim column names.
"""

from __future__ import annotations

import re
import unicodedata

from repro.frame.column import Column
from repro.frame.frame import DataFrame

_WHITESPACE_RUN = re.compile(r"\s+")


def normalize_text(value: str) -> str:
    """Canonical form of a categorical value: printable, single-spaced."""
    cleaned = "".join(
        ch for ch in value if unicodedata.category(ch)[0] != "C" or ch in " \t"
    )
    return _WHITESPACE_RUN.sub(" ", cleaned).strip()


def normalize_column(column: Column) -> Column:
    """Normalize one column (numeric columns pass through unchanged).

    A categorical column repeats a few distinct strings, so each distinct
    string is normalized once.
    """
    if column.is_numeric:
        return column
    # Normalization can empty a string, which then counts as missing.
    normalized = {value: normalize_text(value) or None
                  for value in set(column.values) if value is not None}
    normalized[None] = None
    values = [normalized[value] for value in column.values]
    return Column(column.name, values, kind=column.kind)


def normalize_table(frame: DataFrame) -> DataFrame:
    """Normalize all values and column names of ``frame``."""
    columns = []
    for name in frame.columns:
        column = normalize_column(frame.column(name))
        clean_name = normalize_text(name)
        if clean_name != column.name:
            column = column.rename(clean_name)
        columns.append(column)
    return DataFrame(columns)
