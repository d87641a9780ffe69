"""The serving stack: protocol → registry → engine → store → workspace.

Public surface::

    from repro.api import (
        Workspace, ArtifactStore, Engine,               # serving front door
        SelectionRequest, SelectionResponse, Selector,
        make_selector, register_selector, selector_names,
        ArtifactError, StoreError, UnknownEntryError, StaleFingerprintError,
        WorkspaceError, WireFormatError,
        load_artifact, save_artifact,
        LRUCache, CacheStats, query_fingerprint,
    )

Layered bottom-up:

* :class:`Selector` — the structural protocol every algorithm satisfies
  (``fit``/``prepare`` once, ``select`` per display);
* :func:`make_selector` / :func:`register_selector` — the string-keyed
  registry covering SubTab and all baselines, open to new backends;
* :class:`SelectionRequest` / :class:`SelectionResponse` — typed
  request/response objects with centralized validation, ``dataset``/
  ``algorithm`` routing keys, and a lossless JSON wire format
  (``to_json``/``from_json``) for crossing process boundaries;
* :class:`Engine` — the per-dataset serving kernel: LRU-cached selection
  over any registered selector, plus ``save``/``load`` of the fitted state
  so restarts skip preprocessing;
* :class:`ArtifactStore` — a directory of named, versioned, fingerprint-
  checked artifacts (one per dataset × refresh);
* :class:`Workspace` — the multi-dataset front door: routes requests (and
  batches, via ``select_many``) to lazily loaded engines behind a
  capacity-bounded eviction policy.

For serving topologies above this stack — socket and asyncio
transports, consistent-hash clusters — see the
:class:`repro.serve.ExecutionBackend` protocol and its implementations
(:mod:`repro.serve`).
"""

from repro.api.artifacts import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    ArtifactError,
    LoadedArtifact,
    load_artifact,
    save_artifact,
)
from repro.api.cache import (
    FULL_TABLE_FINGERPRINT,
    CacheStats,
    LRUCache,
    query_fingerprint,
)
from repro.api.engine import Engine
from repro.api.protocol import Selector
from repro.api.registry import (
    SelectorSpec,
    make_selector,
    register_selector,
    resolve_name,
    selector_aliases,
    selector_names,
    selector_spec,
)
from repro.api.request import SelectionRequest, SelectionResponse
from repro.api.store import (
    ArtifactStore,
    StaleFingerprintError,
    StoreError,
    StoreRecord,
    UnknownEntryError,
)
from repro.api.wire import WIRE_VERSION, WireFormatError
from repro.api.workspace import Workspace, WorkspaceError, WorkspaceStats

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ArtifactStore",
    "CacheStats",
    "Engine",
    "FULL_TABLE_FINGERPRINT",
    "LRUCache",
    "LoadedArtifact",
    "SelectionRequest",
    "SelectionResponse",
    "Selector",
    "SelectorSpec",
    "StaleFingerprintError",
    "StoreError",
    "StoreRecord",
    "UnknownEntryError",
    "WIRE_VERSION",
    "WireFormatError",
    "Workspace",
    "WorkspaceError",
    "WorkspaceStats",
    "load_artifact",
    "make_selector",
    "query_fingerprint",
    "register_selector",
    "resolve_name",
    "save_artifact",
    "selector_aliases",
    "selector_names",
    "selector_spec",
]
