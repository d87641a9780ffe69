"""JSON wire format for requests and responses crossing process boundaries.

The serving transports (the socket and asyncio servers, the HTTP
gateway, and the clients that speak to them) move
:class:`~repro.api.SelectionRequest` and
:class:`~repro.api.SelectionResponse` objects between processes as JSON
text.  This module owns the codecs for the payloads those objects carry:

* selection-projection queries (:class:`~repro.queries.ops.SPQuery` and
  every built-in predicate) — the only query family the engines serve;
* fairness constraints (:class:`~repro.core.fairness.GroupRepresentation`);
* sub-tables (column-ordered cell values plus provenance), reconstructed
  into the same :class:`~repro.core.SubTable`/:class:`~repro.frame.DataFrame`
  structures the in-process path produces.

The encoding is lossless by construction: ``decode_query(encode_query(q))``
compares equal to ``q`` (the query dataclasses are frozen value objects),
and numpy scalars are narrowed to the Python numbers they wrap, which the
predicates' ``__eq__`` treats as identical.  Unsupported query types raise
:class:`WireFormatError` — the wire never silently drops a constraint.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np

from repro.core.fairness import GroupRepresentation
from repro.core.result import SubTable
from repro.frame.column import Column
from repro.frame.frame import DataFrame
from repro.queries.ops import SPQuery
from repro.queries.predicates import Eq, Gt, InRange, InSet, IsMissing, Lt

#: Bumped when the wire layout changes incompatibly; decoders reject
#: payloads written by a different version instead of guessing.
WIRE_VERSION = 1


class WireFormatError(TypeError):
    """A payload cannot be encoded to — or decoded from — the wire format."""


def _scalar(value: Any) -> Any:
    """Narrow numpy scalars to the Python numbers JSON can carry."""
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    return value


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def _encode_predicate(predicate: Any) -> dict:
    if isinstance(predicate, Eq):
        return {"op": "eq", "column": predicate.column,
                "value": _scalar(predicate.value)}
    if isinstance(predicate, InRange):
        return {"op": "in_range", "column": predicate.column,
                "low": _scalar(predicate.low), "high": _scalar(predicate.high)}
    if isinstance(predicate, Gt):
        return {"op": "gt", "column": predicate.column,
                "threshold": _scalar(predicate.threshold)}
    if isinstance(predicate, Lt):
        return {"op": "lt", "column": predicate.column,
                "threshold": _scalar(predicate.threshold)}
    if isinstance(predicate, IsMissing):
        return {"op": "is_missing", "column": predicate.column}
    if isinstance(predicate, InSet):
        return {"op": "in_set", "column": predicate.column,
                "values": [_scalar(v) for v in predicate.values]}
    raise WireFormatError(
        f"cannot encode predicate type {type(predicate).__name__}; the wire "
        "format covers the built-in predicates (Eq, InRange, Gt, Lt, "
        "IsMissing, InSet)"
    )


def _decode_predicate(payload: dict) -> Any:
    op = payload.get("op")
    if op == "eq":
        return Eq(payload["column"], payload["value"])
    if op == "in_range":
        return InRange(payload["column"], payload["low"], payload["high"])
    if op == "gt":
        return Gt(payload["column"], payload["threshold"])
    if op == "lt":
        return Lt(payload["column"], payload["threshold"])
    if op == "is_missing":
        return IsMissing(payload["column"])
    if op == "in_set":
        return InSet(payload["column"], payload["values"])
    raise WireFormatError(f"unknown predicate op {op!r} on the wire")


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def encode_query(query: Any) -> Optional[dict]:
    """Wire payload for a query (``None`` stays ``None``: the full table)."""
    if query is None:
        return None
    if isinstance(query, SPQuery):
        return {
            "type": "sp",
            "predicates": [_encode_predicate(p) for p in query.predicates],
            "projection": (None if query.projection is None
                           else list(query.projection)),
        }
    raise WireFormatError(
        f"cannot encode query type {type(query).__name__}; only SPQuery "
        "(and None) cross the wire"
    )


def decode_query(payload: Optional[dict]) -> Any:
    if payload is None:
        return None
    if payload.get("type") != "sp":
        raise WireFormatError(f"unknown query type {payload.get('type')!r}")
    return SPQuery(
        predicates=[_decode_predicate(p) for p in payload["predicates"]],
        projection=payload["projection"],
    )


# ---------------------------------------------------------------------------
# Fairness constraints
# ---------------------------------------------------------------------------

def encode_fairness(fairness: Any) -> Optional[dict]:
    if fairness is None:
        return None
    if isinstance(fairness, GroupRepresentation):
        return {
            "type": "group_representation",
            "column": fairness.column,
            "min_per_group": int(fairness.min_per_group),
            "min_group_share": float(fairness.min_group_share),
        }
    raise WireFormatError(
        f"cannot encode fairness constraint {type(fairness).__name__}; only "
        "GroupRepresentation crosses the wire"
    )


def decode_fairness(payload: Optional[dict]) -> Any:
    if payload is None:
        return None
    if payload.get("type") != "group_representation":
        raise WireFormatError(
            f"unknown fairness constraint type {payload.get('type')!r}"
        )
    return GroupRepresentation(
        column=payload["column"],
        min_per_group=payload["min_per_group"],
        min_group_share=payload["min_group_share"],
    )


# ---------------------------------------------------------------------------
# Sub-tables
# ---------------------------------------------------------------------------

def encode_subtable(subtable: SubTable) -> dict:
    """Column-ordered cells plus provenance; missing cells become ``null``."""
    columns_data = []
    for name in subtable.columns:
        column = subtable.frame.column(name)
        if column.is_numeric:
            values = [None if math.isnan(v) else float(v)
                      for v in column.values]
        else:
            values = [None if v is None else str(v) for v in column.values]
        columns_data.append({"name": name, "kind": column.kind,
                             "values": values})
    return {
        "row_indices": [int(i) for i in subtable.row_indices],
        "columns": list(subtable.columns),
        "targets": list(subtable.targets),
        "cells": columns_data,
    }


def decode_subtable(payload: dict) -> SubTable:
    # Column's coercion maps null to NaN (numeric) / None (categorical).
    columns = [
        Column(spec["name"], spec["values"], kind=spec["kind"])
        for spec in payload["cells"]
    ]
    return SubTable(
        frame=DataFrame(columns),
        row_indices=list(payload["row_indices"]),
        columns=list(payload["columns"]),
        targets=list(payload["targets"]),
    )
