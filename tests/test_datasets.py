"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.binning import TableBinner
from repro.datasets import generator
from repro.datasets import (
    CategoricalSpec,
    DatasetSpec,
    DerivedSpec,
    NumericSpec,
    dataset_names,
    dataset_spec,
    generate_dataset,
    make_dataset,
    resolve_name,
)
from repro.frame.column import Column, coerce_cells
from repro.rules import RuleMiner

ALL_DATASETS = ["flights", "cyber", "spotify", "credit", "funds", "loans"]


class TestRegistry:
    def test_all_names_present(self):
        assert dataset_names() == sorted(ALL_DATASETS)

    @pytest.mark.parametrize("alias,name", [
        ("FL", "flights"), ("cy", "cyber"), ("SP", "spotify"),
        ("CC", "credit"), ("USF", "funds"), ("bl", "loans"),
    ])
    def test_aliases(self, alias, name):
        assert resolve_name(alias) == name

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            resolve_name("nope")


@pytest.mark.parametrize("name", ALL_DATASETS)
class TestEachDataset:
    def test_generates_with_ground_truth(self, name):
        dataset = make_dataset(name, n_rows=300, seed=0)
        spec = dataset_spec(name)
        assert dataset.frame.shape == (300, len(spec.columns))
        assert len(dataset.archetype_labels) == 300
        assert set(dataset.archetype_labels) <= set(spec.archetypes)

    def test_target_columns_exist(self, name):
        dataset = make_dataset(name, n_rows=50, seed=1)
        for target in dataset.target_columns:
            assert target in dataset.frame

    def test_pattern_columns_exist(self, name):
        dataset = make_dataset(name, n_rows=50, seed=1)
        for column in dataset.pattern_columns:
            assert column in dataset.frame

    def test_deterministic_given_seed(self, name):
        a = make_dataset(name, n_rows=100, seed=7)
        b = make_dataset(name, n_rows=100, seed=7)
        assert a.frame == b.frame
        assert a.archetype_labels == b.archetype_labels

    def test_seeds_differ(self, name):
        a = make_dataset(name, n_rows=100, seed=1)
        b = make_dataset(name, n_rows=100, seed=2)
        assert a.frame != b.frame


class TestPlantedStructure:
    def test_flights_cancelled_flights_lack_departure(self):
        dataset = make_dataset("flights", n_rows=2000, seed=0)
        frame = dataset.frame
        cancelled = frame.column("CANCELLED").values == 1.0
        departure_missing = frame.column("DEPARTURE_TIME").missing_mask()
        # almost all cancelled flights have missing departure time
        assert departure_missing[cancelled].mean() > 0.9
        assert departure_missing[~cancelled].mean() < 0.1

    def test_flights_distance_airtime_correlated(self):
        dataset = make_dataset("flights", n_rows=2000, seed=0)
        frame = dataset.frame
        distance = frame.column("DISTANCE").values
        air_time = frame.column("AIR_TIME").values
        keep = ~np.isnan(air_time)
        correlation = np.corrcoef(distance[keep], air_time[keep])[0, 1]
        assert correlation > 0.95

    def test_credit_is_all_numeric(self):
        dataset = make_dataset("credit", n_rows=100, seed=0)
        assert all(
            dataset.frame.column(name).is_numeric
            for name in dataset.frame.columns
        )

    def test_rules_are_minable(self):
        """The planted patterns yield prominent rules at paper thresholds."""
        dataset = make_dataset("spotify", n_rows=2000, seed=0)
        binned = TableBinner().bin_table(dataset.frame)
        rules = RuleMiner().mine(binned)
        assert len(rules) > 10

    def test_archetype_shares_roughly_match(self):
        dataset = make_dataset("cyber", n_rows=5000, seed=0)
        spec = dataset_spec("cyber")
        names, probs = spec.archetype_probabilities()
        counts = {name: 0 for name in names}
        for label in dataset.archetype_labels:
            counts[label] += 1
        for name, prob in zip(names, probs):
            assert counts[name] / 5000 == pytest.approx(prob, abs=0.05)


class TestSpecMachinery:
    def test_derived_column(self):
        spec = DatasetSpec(
            name="demo",
            archetypes={"a": 1.0},
            columns=[
                NumericSpec("x", default=(10.0, 1.0)),
                DerivedSpec("y", fn=lambda values, rng: values["x"] * 2),
            ],
        )
        dataset = generate_dataset(spec, n_rows=50, seed=0)
        assert np.allclose(
            dataset.frame.column("y").values,
            dataset.frame.column("x").values * 2,
        )

    def test_missing_rates_honored(self):
        spec = DatasetSpec(
            name="demo",
            archetypes={"a": 1.0},
            columns=[NumericSpec("x", default=(0.0, 1.0), missing=0.5)],
        )
        dataset = generate_dataset(spec, n_rows=2000, seed=0)
        rate = dataset.frame.column("x").n_missing() / 2000
        assert rate == pytest.approx(0.5, abs=0.05)

    def test_categorical_weights_honored(self):
        spec = DatasetSpec(
            name="demo",
            archetypes={"a": 1.0},
            columns=[CategoricalSpec("c", default={"x": 3, "y": 1})],
        )
        dataset = generate_dataset(spec, n_rows=4000, seed=0)
        counts = dataset.frame.column("c").value_counts()
        assert counts["x"] / 4000 == pytest.approx(0.75, abs=0.03)

    def test_clip_and_round(self):
        spec = DatasetSpec(
            name="demo",
            archetypes={"a": 1.0},
            columns=[NumericSpec("x", default=(0.0, 100.0), clip=(0, 1), round_to=0)],
        )
        dataset = generate_dataset(spec, n_rows=200, seed=0)
        values = dataset.frame.column("x").values
        assert ((values >= 0) & (values <= 1)).all()

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            DatasetSpec(
                name="demo",
                archetypes={"a": 1.0},
                columns=[NumericSpec("x"), NumericSpec("x")],
            )

    def test_missing_weights_for_archetype_rejected(self):
        with pytest.raises(ValueError):
            DatasetSpec(
                name="demo",
                archetypes={"a": 1.0, "b": 1.0},
                columns=[CategoricalSpec("c", by_archetype={"a": {"x": 1}})],
            )

    def test_bad_row_count(self):
        spec = dataset_spec("cyber")
        with pytest.raises(ValueError):
            generate_dataset(spec, n_rows=0)


def _per_row_categorical(spec, archetypes, archetype_names, rng):
    """The per-row categorical fill the array fill replaced: the oracle."""
    values = [None] * len(archetypes)
    for index, name in enumerate(archetype_names):
        rows = np.flatnonzero(archetypes == index)
        if len(rows) == 0:
            continue
        weights = spec.weights_for(name)
        options = list(weights.keys())
        probabilities = np.array([weights[o] for o in options], dtype=np.float64)
        probabilities = probabilities / probabilities.sum()
        draws = rng.choice(len(options), size=len(rows), p=probabilities)
        missing_rate = spec.missing_for(name)
        missing_draws = rng.random(len(rows)) < missing_rate
        for row, draw, is_missing in zip(rows, draws, missing_draws):
            values[row] = None if is_missing else options[draw]
    return values


@pytest.mark.parametrize("name", ALL_DATASETS)
def test_generation_matches_the_per_row_oracle(name, monkeypatch):
    sizes_and_seeds = [(rows, seed) for rows in (500, 2000) for seed in (0, 1, 7)]
    built = [make_dataset(name, n_rows=rows, seed=seed)
             for rows, seed in sizes_and_seeds]
    monkeypatch.setattr(generator, "_generate_categorical", _per_row_categorical)
    monkeypatch.setattr(Column, "_coerce", staticmethod(coerce_cells))
    for dataset, (rows, seed) in zip(built, sizes_and_seeds):
        oracle = make_dataset(name, n_rows=rows, seed=seed)
        assert dataset.archetype_labels == oracle.archetype_labels
        assert dataset.frame.columns == oracle.frame.columns
        for column_name in oracle.frame.columns:
            got, want = dataset.frame.column(column_name), oracle.frame.column(column_name)
            assert got.kind == want.kind
            assert got.values.dtype == want.values.dtype
            if want.is_numeric:
                assert got.values.tobytes() == want.values.tobytes()
            else:
                assert got.values.tolist() == want.values.tolist()
