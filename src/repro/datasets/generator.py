"""Row sampler for :class:`~repro.datasets.schema.DatasetSpec`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.datasets.schema import (
    CATEGORICAL,
    DERIVED,
    NUMERIC,
    DatasetSpec,
)
from repro.frame.column import Column
from repro.frame.frame import DataFrame
from repro.utils.rng import ensure_rng


@dataclass
class SyntheticDataset:
    """A generated table plus its ground truth.

    ``archetype_labels[i]`` names the latent profile row i was drawn from —
    the simulated user study uses it to validate analyst insights, and tests
    use it to check that planted patterns are recoverable.
    """

    spec: DatasetSpec
    frame: DataFrame
    archetype_labels: list = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def target_columns(self) -> list[str]:
        return list(self.spec.target_columns)

    @property
    def pattern_columns(self) -> list[str]:
        return list(self.spec.pattern_columns)


def _generate_numeric(spec, archetypes: np.ndarray, archetype_names: list[str],
                      rng: np.random.Generator) -> np.ndarray:
    n = len(archetypes)
    values = np.empty(n, dtype=np.float64)
    for index, name in enumerate(archetype_names):
        mask = archetypes == index
        count = int(mask.sum())
        if count == 0:
            continue
        mean, std = spec.params_for(name)
        values[mask] = rng.normal(mean, std, size=count)
        missing_rate = spec.missing_for(name)
        if missing_rate > 0:
            drop = rng.random(count) < missing_rate
            block = values[mask]
            block[drop] = np.nan
            values[mask] = block
    if spec.clip is not None:
        low, high = spec.clip
        values = np.clip(values, low, high)
    if spec.round_to is not None:
        with np.errstate(invalid="ignore"):
            values = np.round(values, spec.round_to)
        if spec.round_to == 0:
            # Keep integer-valued floats tidy (float storage retains NaN).
            values = np.where(np.isnan(values), np.nan, values)
    return values


def _generate_categorical(spec, archetypes: np.ndarray, archetype_names: list[str],
                          rng: np.random.Generator) -> list:
    values = np.full(len(archetypes), None, dtype=object)
    for index, name in enumerate(archetype_names):
        rows = np.flatnonzero(archetypes == index)
        if len(rows) == 0:
            continue
        weights = spec.weights_for(name)
        options = np.array([*weights, None], dtype=object)  # None: missing
        probabilities = np.array(list(weights.values()), dtype=np.float64)
        probabilities = probabilities / probabilities.sum()
        draws = rng.choice(len(weights), size=len(rows), p=probabilities)
        missing_rate = spec.missing_for(name)
        draws[rng.random(len(rows)) < missing_rate] = len(weights)
        values[rows] = options[draws]
    return values.tolist()  # derived-column specs read it from ``generated``


def generate_dataset(
    spec: DatasetSpec,
    n_rows: Optional[int] = None,
    seed=None,
) -> SyntheticDataset:
    """Sample ``n_rows`` rows from ``spec`` (default: the spec's scale)."""
    n = spec.default_rows if n_rows is None else n_rows
    if n < 1:
        raise ValueError(f"n_rows must be positive, got {n}")
    rng = ensure_rng(seed)
    archetype_names, probabilities = spec.archetype_probabilities()
    archetypes = rng.choice(len(archetype_names), size=n, p=probabilities)

    generated: dict[str, np.ndarray | list] = {}
    columns: list[Column] = []
    for column_spec in spec.columns:
        if column_spec.kind == NUMERIC:
            values = _generate_numeric(column_spec, archetypes, archetype_names, rng)
            generated[column_spec.name] = values
            columns.append(Column(column_spec.name, values, kind="numeric"))
        elif column_spec.kind == CATEGORICAL:
            values = _generate_categorical(column_spec, archetypes, archetype_names, rng)
            generated[column_spec.name] = values
            columns.append(Column(column_spec.name, values, kind="categorical"))
        elif column_spec.kind == DERIVED:
            values = np.asarray(column_spec.fn(generated, rng), dtype=np.float64)
            if values.shape != (n,):
                raise ValueError(
                    f"derived column {column_spec.name!r} returned shape "
                    f"{values.shape}, expected ({n},)"
                )
            generated[column_spec.name] = values
            columns.append(Column(column_spec.name, values, kind="numeric"))
        else:
            raise ValueError(f"unknown column kind {column_spec.kind!r}")

    frame = DataFrame(columns)
    labels = np.array(archetype_names, dtype=object)[archetypes].tolist()
    return SyntheticDataset(spec=spec, frame=frame, archetype_labels=labels)
