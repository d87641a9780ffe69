"""Persistable fitted artifacts: save/load the preprocessed engine state.

The paper's two-phase design (Alg. 2) pays normalization, binning, and
embedding training once per table; this module makes that investment
durable.  An artifact is a directory holding

* ``manifest.json`` — format/version tag, algorithm name, full pipeline
  config, column schema, per-column binning structures, and content
  fingerprints;
* ``arrays.npz`` — the bin-code matrix, the normalized frame's column data,
  and (for embedding-based algorithms) the trained cell vectors.

Loading rebuilds the exact :class:`~repro.binning.pipeline.BinnedTable`
(same vocabulary, same global token ids) and
:class:`~repro.embedding.model.CellEmbeddingModel`, verified end to end:
the format version must match, the rebuilt vocabulary must hash to the
manifest's ``vocab_fingerprint``, and the code matrix must hash to
``data_fingerprint``.  A stale or mixed-up artifact raises
:class:`ArtifactError` — it never mis-serves.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from repro.binning.base import Bin, ColumnBinning
from repro.binning.pipeline import BinnedTable
from repro.core.config import SubTabConfig
from repro.embedding.model import CellEmbeddingModel
from repro.frame.column import Column
from repro.frame.frame import DataFrame

ARTIFACT_FORMAT = "repro-engine-artifact"
ARTIFACT_VERSION = 1
MANIFEST_FILE = "manifest.json"
ARRAYS_FILE = "arrays.npz"


class ArtifactError(RuntimeError):
    """A saved artifact is missing, stale, or inconsistent with its arrays."""


def _codes_fingerprint(codes: np.ndarray) -> str:
    digest = hashlib.sha1()
    digest.update(str(codes.shape).encode())
    digest.update(np.ascontiguousarray(codes, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _vectors_fingerprint(vectors: np.ndarray) -> str:
    digest = hashlib.sha1()
    digest.update(str(vectors.shape).encode())
    digest.update(np.ascontiguousarray(vectors, dtype=np.float64).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Binning (de)serialization
# ---------------------------------------------------------------------------

def _bin_to_dict(bin_: Bin) -> dict:
    return {
        "label": bin_.label,
        "kind": bin_.kind,
        "low": bin_.low,
        "high": bin_.high,
        "closed_right": bin_.closed_right,
        "categories": sorted(map(str, bin_.categories)),
    }


def _bin_from_dict(column: str, payload: dict) -> Bin:
    return Bin(
        column=column,
        label=payload["label"],
        kind=payload["kind"],
        low=payload["low"],
        high=payload["high"],
        closed_right=payload["closed_right"],
        categories=frozenset(payload["categories"]),
    )


def _binning_to_dict(binning: ColumnBinning) -> dict:
    edges = binning._edges
    return {
        "column": binning.column,
        "edges": None if edges is None else [float(e) for e in edges],
        "bins": [_bin_to_dict(b) for b in binning.bins],
    }


def _binning_from_dict(payload: dict) -> ColumnBinning:
    column = payload["column"]
    bins = [_bin_from_dict(column, b) for b in payload["bins"]]
    edges = payload["edges"]
    return ColumnBinning(
        column,
        bins,
        edges=None if edges is None else np.asarray(edges, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# Save
# ---------------------------------------------------------------------------

def save_artifact(
    path: "str | Path",
    *,
    algorithm: str,
    config: SubTabConfig,
    binned: BinnedTable,
    model: Optional[CellEmbeddingModel] = None,
) -> Path:
    """Write the fitted state to directory ``path`` and return it.

    ``binned`` must be a root table (not a query view); ``model``, when
    given, must be trained on ``binned``'s token space.
    """
    if getattr(binned, "parent", None) is not None:
        raise ValueError("cannot persist a query view; save the root BinnedTable")
    if model is not None and model.vocab_fingerprint != binned.vocab_fingerprint:
        raise ValueError(
            "embedding model's vocabulary does not match the binned table; "
            "refusing to persist an inconsistent artifact"
        )
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    frame = binned.frame
    arrays: dict[str, np.ndarray] = {"codes": binned.codes.astype(np.int64)}
    columns_meta = []
    for j, name in enumerate(frame.columns):
        column = frame.column(name)
        columns_meta.append({"name": name, "kind": column.kind})
        if column.is_numeric:
            arrays[f"column_{j}"] = column.values.astype(np.float64)
        else:
            missing = column.missing_mask()
            values = np.array(
                ["" if m else str(v) for v, m in zip(column.values, missing)]
            )
            arrays[f"column_{j}"] = values
            arrays[f"column_missing_{j}"] = missing
    manifest = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "algorithm": algorithm,
        "config": config.to_dict(),
        "n_rows": binned.n_rows,
        "n_cols": binned.n_cols,
        "columns": columns_meta,
        "binnings": [_binning_to_dict(binned.binnings[n]) for n in binned.columns],
        "vocab_fingerprint": binned.vocab_fingerprint,
        "data_fingerprint": _codes_fingerprint(binned.codes),
        "has_embedding": model is not None,
    }
    if model is not None:
        arrays["embedding"] = model.vectors
        manifest["embedding_dim"] = model.dim
        manifest["embedding_fingerprint"] = _vectors_fingerprint(model.vectors)

    with (path / ARRAYS_FILE).open("wb") as handle:
        np.savez_compressed(handle, **arrays)
    with (path / MANIFEST_FILE).open("w") as handle:
        json.dump(manifest, handle, indent=2)
    return path


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------

@dataclass
class LoadedArtifact:
    """The reconstructed fitted state of a saved engine."""

    algorithm: str
    config: SubTabConfig
    binned: BinnedTable
    model: Optional[CellEmbeddingModel]
    manifest: dict


def load_artifact(path: "str | Path") -> LoadedArtifact:
    """Rebuild the fitted state saved at ``path``, verifying integrity.

    Raises :class:`ArtifactError` when the directory is not an artifact,
    was written by an incompatible format version, or when any content
    fingerprint disagrees with the manifest (stale manifest, swapped
    arrays, truncated files).
    """
    path = Path(path)
    manifest_path = path / MANIFEST_FILE
    arrays_path = path / ARRAYS_FILE
    if not manifest_path.is_file() or not arrays_path.is_file():
        raise ArtifactError(f"{path} is not an engine artifact (missing files)")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as error:
        raise ArtifactError(f"{manifest_path} is not valid JSON: {error}") from None
    if manifest.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(
            f"{path} is not an engine artifact (format "
            f"{manifest.get('format')!r})"
        )
    version = manifest.get("version")
    if version != ARTIFACT_VERSION:
        raise ArtifactError(
            f"artifact version {version!r} is not supported by this build "
            f"(expected {ARTIFACT_VERSION}); re-fit and re-save the engine"
        )

    try:
        config = SubTabConfig.from_dict(manifest["config"])
    except (TypeError, ValueError, KeyError) as error:
        raise ArtifactError(f"artifact config is not loadable: {error}") from None

    with np.load(arrays_path, allow_pickle=False) as arrays:
        codes = arrays["codes"]
        columns = []
        for j, meta in enumerate(manifest["columns"]):
            if meta["kind"] == "numeric":
                columns.append(Column(meta["name"], arrays[f"column_{j}"],
                                      kind="numeric"))
            else:
                raw = arrays[f"column_{j}"]
                missing = arrays[f"column_missing_{j}"]
                values = [None if m else str(v) for v, m in zip(raw, missing)]
                columns.append(Column(meta["name"], values, kind="categorical"))
        vectors = arrays["embedding"] if manifest.get("has_embedding") else None

    frame = DataFrame(columns)
    binnings = {b["column"]: _binning_from_dict(b) for b in manifest["binnings"]}
    missing_binnings = [n for n in frame.columns if n not in binnings]
    if missing_binnings:
        raise ArtifactError(
            f"artifact manifest lacks binnings for columns {missing_binnings}"
        )
    if codes.shape != (manifest["n_rows"], manifest["n_cols"]):
        raise ArtifactError(
            f"codes shape {codes.shape} disagrees with the manifest "
            f"({manifest['n_rows']}, {manifest['n_cols']})"
        )
    if _codes_fingerprint(codes) != manifest["data_fingerprint"]:
        raise ArtifactError(
            "bin-code matrix does not match the manifest's data fingerprint; "
            "the artifact is stale or its files were mixed up"
        )

    binned = BinnedTable(frame, binnings, codes)
    if binned.vocab_fingerprint != manifest["vocab_fingerprint"]:
        raise ArtifactError(
            "rebuilt vocabulary does not match the manifest's fingerprint; "
            "the artifact is stale or corrupted"
        )

    model = None
    if vectors is not None:
        if _vectors_fingerprint(vectors) != manifest.get("embedding_fingerprint"):
            raise ArtifactError(
                "embedding vectors do not match the manifest's fingerprint; "
                "the artifact is stale or its files were mixed up"
            )
        model = CellEmbeddingModel(vectors, binned.vocab)

    return LoadedArtifact(
        algorithm=manifest["algorithm"],
        config=config,
        binned=binned,
        model=model,
        manifest=manifest,
    )
