"""Typed request/response objects for the serving stack.

A :class:`SelectionRequest` captures everything a display needs — sub-table
dimensions, the exploratory query, target columns, fairness constraint,
per-request mode overrides, and (for the multi-dataset stack) the
``dataset``/``algorithm`` routing keys — in one validated value object, so
every entry point (Engine, Workspace, serving backends, CLI, benchmarks)
speaks the same vocabulary.  A :class:`SelectionResponse` pairs the selected
:class:`~repro.core.SubTable` with timing and cache metadata, making the
paper's preprocess/select split (Fig. 9) observable per request.

Both objects cross process boundaries losslessly: ``to_json``/``from_json``
serialize every field — queries and fairness constraints included — via the
codecs in :mod:`repro.api.wire`, which is how socket, asyncio and HTTP
servers receive requests and return responses.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.api.wire import (
    WIRE_VERSION,
    WireFormatError,
    decode_fairness,
    decode_query,
    decode_subtable,
    encode_fairness,
    encode_query,
    encode_subtable,
)
from repro.core.result import SubTable
from repro.utils.validation import validate_selection_args

REQUEST_WIRE_FORMAT = "repro-selection-request"
RESPONSE_WIRE_FORMAT = "repro-selection-response"


def _check_wire_envelope(payload: Any, expected_format: str) -> dict:
    if not isinstance(payload, dict):
        raise WireFormatError(
            f"expected a JSON object for {expected_format}, got "
            f"{type(payload).__name__}"
        )
    if payload.get("format") != expected_format:
        raise WireFormatError(
            f"payload format {payload.get('format')!r} is not "
            f"{expected_format!r}"
        )
    if payload.get("wire_version") != WIRE_VERSION:
        raise WireFormatError(
            f"wire version {payload.get('wire_version')!r} is not supported "
            f"by this build (expected {WIRE_VERSION})"
        )
    return payload

#: Mode-override keys a request may carry; selectors declare the subset they
#: support via ``supported_modes`` and reject the rest at select time.
MODE_KEYS = ("row_mode", "column_mode", "centroid_mode")


@dataclass(frozen=True)
class SelectionRequest:
    """One display's worth of selection arguments.

    Attributes
    ----------
    k, l:
        Requested sub-table dimensions; ``None`` defers to the engine
        config's defaults.
    query:
        Optional selection-projection query (any object exposing
        ``row_indices(frame)`` and ``output_columns(frame)``); ``None``
        selects from the full table.
    targets:
        Target columns U*, always included among the selected columns.
    fairness:
        Optional :class:`~repro.core.fairness.GroupRepresentation`
        constraint (embedding-based selectors only; never cached).
    row_mode, column_mode, centroid_mode:
        Per-request overrides of the configured selection modes; ``None``
        keeps the configured value.
    use_cache:
        Whether the engine may serve/store this request from its LRU.
    dataset:
        Routing key for the multi-dataset stack: the store name of the
        artifact this request should be served from.  A
        :class:`~repro.api.Workspace` requires it; a bare
        :class:`~repro.api.Engine` only checks it against its own dataset
        label (when both are set) so mis-routed requests fail loudly.
    algorithm:
        Optional routing key naming the selection algorithm; ``None`` uses
        the serving engine's (for a Workspace: the artifact's persisted)
        algorithm.
    """

    k: Optional[int] = None
    l: Optional[int] = None
    query: Any = None
    targets: tuple = ()
    fairness: Any = None
    row_mode: Optional[str] = None
    column_mode: Optional[str] = None
    centroid_mode: Optional[str] = None
    use_cache: bool = True
    dataset: Optional[str] = None
    algorithm: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        # Validate what is knowable without the engine's config; requests
        # deferring k or l to the config are validated at serve time, after
        # the defaults are resolved (same central validator either way).
        if self.k is not None and self.l is not None:
            validate_selection_args(self.k, self.l, self.targets)

    def resolve(self, default_k: int, default_l: int) -> tuple[int, int]:
        """The effective (k, l) given the engine config's defaults."""
        return (
            default_k if self.k is None else self.k,
            default_l if self.l is None else self.l,
        )

    def mode_overrides(self) -> dict[str, str]:
        """The non-``None`` mode overrides as a plain dict."""
        overrides = {}
        for key in MODE_KEYS:
            value = getattr(self, key)
            if value is not None:
                overrides[key] = value
        return overrides

    def replace(self, **changes) -> "SelectionRequest":
        """A copy of this request with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- wire format ---------------------------------------------------------
    def to_wire(self) -> dict:
        """JSON-serializable payload carrying every field of this request."""
        return {
            "format": REQUEST_WIRE_FORMAT,
            "wire_version": WIRE_VERSION,
            "k": self.k,
            "l": self.l,
            "query": encode_query(self.query),
            "targets": list(self.targets),
            "fairness": encode_fairness(self.fairness),
            "row_mode": self.row_mode,
            "column_mode": self.column_mode,
            "centroid_mode": self.centroid_mode,
            "use_cache": self.use_cache,
            "dataset": self.dataset,
            "algorithm": self.algorithm,
        }

    def to_json(self) -> str:
        """The request as JSON text (``from_json`` round-trips every field)."""
        return json.dumps(self.to_wire(), sort_keys=True)

    @classmethod
    def from_wire(cls, payload: dict) -> "SelectionRequest":
        payload = _check_wire_envelope(payload, REQUEST_WIRE_FORMAT)
        return cls(
            k=payload["k"],
            l=payload["l"],
            query=decode_query(payload["query"]),
            targets=tuple(payload["targets"]),
            fairness=decode_fairness(payload["fairness"]),
            row_mode=payload["row_mode"],
            column_mode=payload["column_mode"],
            centroid_mode=payload["centroid_mode"],
            use_cache=payload["use_cache"],
            dataset=payload["dataset"],
            algorithm=payload["algorithm"],
        )

    @classmethod
    def from_json(cls, text: "str | bytes | dict") -> "SelectionRequest":
        """Rebuild a request serialized by :meth:`to_json`.

        Accepts the JSON text (or an already-parsed payload dict) and
        re-validates the fields exactly like direct construction.
        """
        payload = text if isinstance(text, dict) else json.loads(text)
        return cls.from_wire(payload)


@dataclass
class SelectionResponse:
    """A served selection plus its provenance.

    Attributes
    ----------
    subtable:
        The selected k x l sub-table.  Responses may share this object with
        the engine's LRU — treat it as immutable.
    request:
        The request that produced it.
    algorithm:
        Canonical registry name of the algorithm that served it.
    k, l:
        The effective dimensions after applying config defaults.
    cache_hit:
        Whether the subtable came from the engine's LRU.
    select_seconds:
        Wall-clock spent in this call (≈0 on cache hits).
    timings:
        Engine-level timing metadata: the preprocess split recorded at
        fit/load time plus this request's ``select_seconds`` — the paper's
        Figure-9 decomposition, per request.
    """

    subtable: SubTable
    request: SelectionRequest
    algorithm: str
    k: int
    l: int
    cache_hit: bool
    select_seconds: float
    timings: dict = field(default_factory=dict)

    @property
    def shape(self) -> tuple[int, int]:
        return self.subtable.shape

    def __str__(self) -> str:
        return str(self.subtable)

    # -- wire format ---------------------------------------------------------
    def to_wire(self) -> dict:
        """JSON-serializable payload: the sub-table's cells and provenance,
        the request, and the serving metadata."""
        return {
            "format": RESPONSE_WIRE_FORMAT,
            "wire_version": WIRE_VERSION,
            "algorithm": self.algorithm,
            "k": self.k,
            "l": self.l,
            "cache_hit": self.cache_hit,
            "select_seconds": self.select_seconds,
            "timings": dict(self.timings),
            "request": self.request.to_wire(),
            "subtable": encode_subtable(self.subtable),
        }

    def to_json(self) -> str:
        """The response as JSON text (``from_json`` reconstructs it)."""
        return json.dumps(self.to_wire(), sort_keys=True)

    @classmethod
    def from_wire(cls, payload: dict) -> "SelectionResponse":
        payload = _check_wire_envelope(payload, RESPONSE_WIRE_FORMAT)
        return cls(
            subtable=decode_subtable(payload["subtable"]),
            request=SelectionRequest.from_wire(payload["request"]),
            algorithm=payload["algorithm"],
            k=payload["k"],
            l=payload["l"],
            cache_hit=payload["cache_hit"],
            select_seconds=payload["select_seconds"],
            timings=dict(payload["timings"]),
        )

    @classmethod
    def from_json(cls, text: "str | bytes | dict") -> "SelectionResponse":
        """Rebuild a response serialized by :meth:`to_json` — the sub-table's
        frame, provenance, and metadata are reconstructed losslessly."""
        payload = text if isinstance(text, dict) else json.loads(text)
        return cls.from_wire(payload)
