"""Tests for the unified selector surface (repro.api).

Covers the registry (every name constructs, prepares, selects), the typed
request/response objects with centralized validation, the Engine facade
(config defaults, LRU behavior, mode overrides, fairness routing), and
artifact persistence (save/load parity, preprocess skipping, stale-artifact
rejection).
"""

import itertools
import json
import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import (
    ARTIFACT_VERSION,
    ArtifactError,
    ArtifactStore,
    Engine,
    SelectionRequest,
    SelectionResponse,
    Selector,
    load_artifact,
    make_selector,
    register_selector,
    resolve_name,
    selector_names,
    selector_spec,
    Workspace,
)
from repro.baselines import NaiveClusteringSelector, SubTabSelector
from repro.core import SubTab, SubTabConfig
from repro.core.fairness import GroupRepresentation
from repro.datasets import make_dataset
from repro.embedding.word2vec import Word2VecConfig
from repro.queries import Eq, SessionGenerator, SPQuery

# Cheap per-algorithm counts so the full-registry sweep stays fast.
FAST_OPTIONS = {
    "ran": dict(max_draws=3),
    "mab": dict(iterations=10),
    "greedy": dict(max_combinations=5, order="random"),
    "greedy-approx": dict(max_combinations=5, sample_rate=0.5, min_sample=4),
    "semigreedy": dict(max_combinations=5),
    "embdi": dict(walks_per_node=1, walk_length=6,
                  word2vec=Word2VecConfig(epochs=1, dim=8)),
}


@pytest.fixture(scope="module")
def fast_config(fast_subtab_config):
    return fast_subtab_config


@pytest.fixture(scope="module")
def subtab_engine(planted_frame, fast_config):
    return Engine("subtab", fast_config).fit(planted_frame)


class TestRegistry:
    def test_names_cover_all_algorithms(self):
        assert selector_names() == [
            "embdi", "greedy", "greedy-approx", "mab", "nc", "ran",
            "semigreedy", "subtab",
        ]

    @pytest.mark.parametrize("name", [
        "subtab", "ran", "nc", "greedy", "greedy-approx", "semigreedy",
        "mab", "embdi",
    ])
    def test_every_name_constructs_prepares_selects(self, name, planted_binned,
                                                    fast_config):
        selector = make_selector(name, fast_config, **FAST_OPTIONS.get(name, {}))
        assert isinstance(selector, Selector)
        assert not selector.is_fitted
        selector.prepare(planted_binned.frame, binned=planted_binned)
        assert selector.is_fitted
        result = selector.select(k=3, l=3)
        assert result.shape == (3, 3)

    def test_aliases_resolve(self):
        assert resolve_name("random") == "ran"
        assert resolve_name("naive_cluster") == "nc"
        assert resolve_name("SubTab") == "subtab"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown selector kind"):
            make_selector("definitely-not-registered")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_selector("subtab", lambda config: None)

    def test_custom_backend_plugs_into_engine(self, planted_frame):
        register_selector(
            "nc-test-clone",
            lambda config, **options: NaiveClusteringSelector(
                seed=config.seed, **options
            ),
            description="registry extension test",
            overwrite=True,
        )
        engine = Engine("nc-test-clone", SubTabConfig(k=3, l=3, seed=0))
        engine.fit(planted_frame)
        assert engine.select().shape == (3, 3)

    def test_spec_metadata(self):
        spec = selector_spec("subtab")
        assert spec.interactive
        assert "SubTab" in spec.description


class TestSelectionRequest:
    def test_targets_normalized_to_tuple(self):
        request = SelectionRequest(targets=["A", "B"])
        assert request.targets == ("A", "B")

    def test_invalid_dimensions_use_canonical_message(self):
        with pytest.raises(
            ValueError, match=r"sub-table dimensions must be positive, got k=0, l=3"
        ):
            SelectionRequest(k=0, l=3)

    def test_too_many_targets(self):
        with pytest.raises(ValueError, match="cannot fit 2 target columns"):
            SelectionRequest(k=3, l=1, targets=("A", "B"))

    def test_mode_overrides_collects_non_none(self):
        request = SelectionRequest(row_mode="mass", centroid_mode=None)
        assert request.mode_overrides() == {"row_mode": "mass"}

    def test_replace(self):
        request = SelectionRequest(k=4, l=3)
        changed = request.replace(l=5)
        assert (changed.k, changed.l) == (4, 5)
        assert request.l == 3


class TestEngineServing:
    def test_defaults_come_from_config(self, subtab_engine, fast_config):
        response = subtab_engine.select()
        assert isinstance(response, SelectionResponse)
        assert response.shape == (fast_config.k, fast_config.l)
        assert (response.k, response.l) == (fast_config.k, fast_config.l)

    def test_requires_fit(self, fast_config):
        engine = Engine("subtab", fast_config)
        with pytest.raises(RuntimeError, match="fit"):
            engine.select()

    def test_matches_direct_subtab(self, subtab_engine, fitted_subtab):
        cold = fitted_subtab.select(k=5, l=4)
        served = subtab_engine.select(k=5, l=4).subtable
        assert served.row_indices == cold.row_indices
        assert served.columns == cold.columns

    def test_cache_hit_returns_same_subtable(self, planted_frame, fast_config):
        engine = Engine("subtab", fast_config).fit(planted_frame)
        first = engine.select(k=4, l=3)
        second = engine.select(k=4, l=3)
        assert not first.cache_hit and second.cache_hit
        assert second.subtable is first.subtable
        assert engine.cache_stats.hits == 1

    def test_mode_overrides_key_the_cache(self, planted_frame, fast_config):
        engine = Engine("subtab", fast_config).fit(planted_frame)
        default = engine.select(k=4, l=3)
        overridden = engine.select(k=4, l=3, row_mode="mass")
        assert engine.cache_stats.misses == 2
        assert not overridden.cache_hit
        assert default.subtable.shape == overridden.subtable.shape

    def test_recompute_after_eviction_matches_cached_result(self, planted_frame,
                                                            fast_config):
        """Deterministic selectors re-produce the evicted entry bit-for-bit,
        so the served answer never depends on cache capacity."""
        engine = Engine("subtab", fast_config, cache_size=1).fit(planted_frame)
        first = engine.select(k=4, l=3).subtable
        engine.select(k=3, l=3)  # evicts the (4, 3) entry
        recomputed = engine.select(k=4, l=3)
        assert not recomputed.cache_hit
        assert recomputed.subtable.row_indices == first.row_indices
        assert recomputed.subtable.columns == first.columns

    def test_cache_key_includes_dimensions_and_targets(self, fitted_subtab):
        engine = Engine("subtab", selector=SubTabSelector(subtab=fitted_subtab))
        a = engine.select(k=4, l=3).subtable
        b = engine.select(k=3, l=3).subtable
        c = engine.select(k=4, l=3, targets=("OUTCOME",)).subtable
        assert engine.cache_stats.misses == 3
        assert b is not a and c is not a
        assert "OUTCOME" in c.columns

    def test_clear_cache(self, fitted_subtab):
        engine = Engine("subtab", selector=SubTabSelector(subtab=fitted_subtab))
        engine.select(k=4, l=3)
        engine.clear_cache()
        assert engine.cache_stats.size == 0
        engine.select(k=4, l=3)
        assert engine.cache_stats.misses == 1

    def test_empty_projection_still_raises_after_cache_warm(self,
                                                            fitted_subtab):
        engine = Engine("subtab", selector=SubTabSelector(subtab=fitted_subtab))
        pred = (Eq("KIND", "alpha"),)
        engine.select(k=3, l=2, query=SPQuery(pred))  # warms the cache
        with pytest.raises(ValueError, match="no columns"):
            engine.select(k=3, l=2, query=SPQuery(pred, projection=()))

    def test_use_cache_false_bypasses_lru(self, planted_frame, fast_config):
        engine = Engine("subtab", fast_config).fit(planted_frame)
        engine.select(SelectionRequest(k=4, l=3, use_cache=False))
        engine.select(SelectionRequest(k=4, l=3, use_cache=False))
        assert engine.cache_stats.hits == 0
        assert engine.cache_stats.size == 0

    def test_query_served_like_cold_pipeline(self, subtab_engine, fitted_subtab):
        query = SPQuery((Eq("KIND", "alpha"),),
                        projection=("SIZE", "OUTCOME", "KIND"))
        cold = fitted_subtab.select(k=3, l=2, query=query)
        served = subtab_engine.select(k=3, l=2, query=query).subtable
        assert served.row_indices == cold.row_indices
        assert served.columns == cold.columns

    @pytest.mark.parametrize("name", selector_names())
    def test_interactive_selector_repeats_its_answer(self, name, fast_config):
        """Every registered selector, not only the interactive ones,
        answers a repeated uncached request the same way."""
        engine = Engine(name, fast_config,
                        selector_options=FAST_OPTIONS.get(name))
        engine.fit(make_dataset("cyber", n_rows=300, seed=0).frame)
        request = SelectionRequest(k=5, l=4, use_cache=False)
        first, second = engine.select(request), engine.select(request)
        assert second.subtable.row_indices == first.subtable.row_indices
        assert second.subtable.columns == first.subtable.columns

    @pytest.mark.parametrize("name", selector_names())
    def test_generator_seed_is_refused(self, name, fast_config):
        """A Generator seed would be shared by every select, so a repeated
        request would draw from where the last one stopped."""
        with pytest.raises(TypeError, match="int or None"):
            Engine(name, fast_config, selector_options=dict(
                FAST_OPTIONS.get(name, {}), seed=np.random.default_rng(0),
            ))

    def test_request_and_kwargs_are_exclusive(self, subtab_engine):
        with pytest.raises(TypeError):
            subtab_engine.select(SelectionRequest(k=3, l=3), k=3)

    def test_concurrent_selects_keep_their_own_modes(self, subtab_engine,
                                                     monkeypatch):
        """A request's mode overrides reach its own selection even when
        another select on the same engine starts in between."""
        modes = dict(row_mode="mass", column_mode="centroid")
        solo = subtab_engine.select(
            SelectionRequest(k=5, l=4, use_cache=False, **modes)
        ).subtable
        default = subtab_engine.select(
            SelectionRequest(k=5, l=4, use_cache=False)
        ).subtable
        assert (solo.row_indices, solo.columns) != (
            default.row_indices, default.columns
        )

        selector = subtab_engine.selector
        select_from_view = selector._select_from_view
        a_entered, b_entered = threading.Event(), threading.Event()

        def hook(*args, **kwargs):
            if threading.current_thread().name == "A":
                a_entered.set()
                assert b_entered.wait(timeout=30)
            else:
                b_entered.set()
            return select_from_view(*args, **kwargs)

        monkeypatch.setattr(selector, "_select_from_view", hook)
        served = {}

        def serve(name, request):
            served[name] = subtab_engine.select(request).subtable

        a = threading.Thread(name="A", target=serve, args=(
            "A", SelectionRequest(k=5, l=4, use_cache=False, **modes)))
        b = threading.Thread(name="B", target=serve, args=(
            "B", SelectionRequest(k=5, l=4, use_cache=False)))
        a.start()
        assert a_entered.wait(timeout=30)
        b.start()
        for thread in (a, b):
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert (served["A"].row_indices, served["A"].columns) == (
            solo.row_indices, solo.columns
        )
        assert (served["B"].row_indices, served["B"].columns) == (
            default.row_indices, default.columns
        )

    def test_concurrent_greedy_approx_selects_keep_their_own_rng(
            self, monkeypatch):
        """Each greedy-approx select samples rows from its own seeded
        generator, even when another select on the same engine draws in
        between."""
        from repro.datasets import make_dataset

        engine = Engine(
            "greedy-approx", SubTabConfig(k=5, l=4, seed=0),
            selector_options=dict(max_combinations=6),
        ).fit(make_dataset("cyber", n_rows=300, seed=0).frame)
        request = SelectionRequest(k=5, l=4, use_cache=False)
        serial = engine.select(request).subtable

        selector = engine.selector
        row_selection = selector._row_selection
        a_waiting, b_drew = threading.Event(), threading.Event()

        def hook(*args, **kwargs):
            name = threading.current_thread().name
            if name == "A" and not a_waiting.is_set():
                a_waiting.set()
                assert b_drew.wait(timeout=30)
            picked = row_selection(*args, **kwargs)
            if name == "B":
                b_drew.set()
            return picked

        monkeypatch.setattr(selector, "_row_selection", hook)
        served = {}

        def serve(name):
            served[name] = engine.select(request).subtable

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            a = threading.Thread(name="A", target=serve, args=("A",))
            b = threading.Thread(name="B", target=serve, args=("B",))
            a.start()
            assert a_waiting.wait(timeout=30)
            b.start()
            for thread in (a, b):
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for name in ("A", "B"):
            assert (served[name].row_indices, served[name].columns) == (
                serial.row_indices, serial.columns
            )

    def test_unsupported_mode_override_raises(self, planted_frame):
        engine = Engine("nc", SubTabConfig(k=3, l=3, seed=0)).fit(planted_frame)
        with pytest.raises(ValueError, match="mode overrides"):
            engine.select(k=3, l=3, row_mode="mass")

    def test_fairness_on_embedding_selector(self, subtab_engine):
        fairness = GroupRepresentation(column="KIND", min_group_share=0.0)
        response = subtab_engine.select(
            SelectionRequest(k=6, l=4, fairness=fairness)
        )
        assert response.shape == (6, 4)
        kinds = {
            response.subtable.frame.column("KIND")[i]
            for i in range(response.subtable.frame.n_rows)
        }
        assert kinds == {"alpha", "beta", "gamma"}

    def test_fairness_never_cached(self, planted_frame, fast_config):
        engine = Engine("subtab", fast_config).fit(planted_frame)
        fairness = GroupRepresentation(column="KIND", min_group_share=0.0)
        engine.select(SelectionRequest(k=6, l=4, fairness=fairness))
        assert engine.cache_stats.size == 0

    def test_fairness_rejected_without_embedding(self, planted_frame):
        engine = Engine("nc", SubTabConfig(k=3, l=3, seed=0)).fit(planted_frame)
        fairness = GroupRepresentation(column="KIND", min_group_share=0.0)
        with pytest.raises(ValueError, match="fairness"):
            engine.select(SelectionRequest(k=3, l=3, fairness=fairness))

    def test_timings_expose_preprocess_split(self, subtab_engine):
        response = subtab_engine.select(k=3, l=3)
        assert response.timings["preprocess_total"] > 0
        assert "select_seconds" in response.timings


def _request_mix(engine, seed, **routing):
    """Seeded uncached requests over generated session states: their
    queries and projections, random sizes and targets and, where the
    selector takes them, mode overrides."""
    draw = random.Random(seed)
    modal = bool(engine.selector.supported_modes)
    requests = []
    for session in SessionGenerator(engine.binned, seed=seed).generate(3):
        for step in session:
            columns = step.state.output_columns(engine.frame)
            modes = {}
            if modal and draw.random() < 0.5:
                modes = dict(
                    row_mode=draw.choice(("mass", "cluster")),
                    column_mode=draw.choice(("dispersion", "centroid")),
                )
            requests.append(SelectionRequest(
                k=draw.randint(3, 6), l=draw.randint(2, 4), query=step.state,
                targets=tuple(draw.sample(columns, min(len(columns),
                                                       draw.randint(0, 1)))),
                use_cache=False, **modes, **routing,
            ))
    return requests


def _outcome(serve, request):
    """The reply's selection, or the error it raised."""
    try:
        subtable = serve(request).subtable
    except Exception as error:
        return type(error).__name__, str(error)
    return subtable.row_indices, subtable.columns, subtable.targets


def _race(serve, requests, serial, n_threads=4, per_thread=12):
    """Threads send seeded draws of ``requests``; returns every reply that
    differs from the ``serial`` one."""
    diffs = []

    def drive(seed):
        draw = random.Random(seed)
        for _ in range(per_thread):
            i = draw.randrange(len(requests))
            outcome = _outcome(serve, requests[i])
            if outcome != serial[i]:
                diffs.append((requests[i], outcome, serial[i]))

    threads = [threading.Thread(target=drive, args=(seed,))
               for seed in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    return diffs


class TestConcurrentDifferential:
    """Threads racing on one engine, or one workspace, get for every
    request the reply the serial pipeline gives it."""

    @pytest.fixture(scope="class")
    def cyber_frame(self):
        return make_dataset("cyber", n_rows=300, seed=0).frame

    @pytest.mark.parametrize("name", selector_names())
    def test_engine_replies_match_serial(self, name, fast_config,
                                         cyber_frame):
        engine = Engine(name, fast_config,
                        selector_options=FAST_OPTIONS.get(name))
        engine.fit(cyber_frame)
        requests = _request_mix(engine, seed=1)
        serial = [_outcome(engine.select, request) for request in requests]
        assert not _race(engine.select, requests, serial)

    def test_workspace_replies_match_serial(self, fast_config, cyber_frame,
                                            tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("cyber", Engine("subtab", fast_config).fit(cyber_frame))
        store.save("spotify", Engine("nc", fast_config).fit(
            make_dataset("spotify", n_rows=300, seed=0).frame
        ))
        serial_workspace = Workspace(store)
        requests = [
            request
            for seed, dataset in enumerate(("cyber", "spotify"))
            for request in _request_mix(
                serial_workspace.engine_for(dataset), seed, dataset=dataset
            )
        ]
        serial = [_outcome(serial_workspace.select, request)
                  for request in requests]
        # A fresh workspace: the racing threads also fault the engines in.
        assert not _race(Workspace(store).select, requests, serial)


class TestClockIndependence:
    """No selector's reply depends on the clock: with every clock read an
    hour after the last, each request gets its real-time reply."""

    @pytest.mark.parametrize("name", selector_names())
    def test_reply_ignores_a_jumping_clock(self, name, fast_config,
                                           monkeypatch):
        # RAN at its registry defaults (60 draws); the rest at test counts.
        options = {} if name == "ran" else FAST_OPTIONS.get(name)
        engine = Engine(name, fast_config, selector_options=options)
        engine.fit(make_dataset("cyber", n_rows=300, seed=0).frame)
        requests = _request_mix(engine, seed=2)
        real = [_outcome(engine.select, request) for request in requests]
        hours = itertools.count(3600.0, 3600.0)
        monkeypatch.setattr(time, "perf_counter", lambda: next(hours))
        monkeypatch.setattr(time, "monotonic", lambda: next(hours))
        jumped = [_outcome(engine.select, request) for request in requests]
        assert jumped == real


class TestArtifactRoundTrip:
    """Engine.save/Engine.load parity across algorithms (acceptance criteria)."""

    @pytest.fixture(scope="class")
    def artifact_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("artifacts")

    def _roundtrip(self, algorithm, frame, config, path, options=None):
        options = options or {}
        fitted = Engine(algorithm, config, selector_options=options).fit(frame)
        fitted.save(path)
        loaded = Engine.load(path, selector_options=options)
        return fitted, loaded

    @pytest.mark.parametrize("algorithm", ["subtab", "ran", "nc"])
    def test_loaded_engine_is_bit_identical(self, algorithm, planted_frame,
                                            fast_config, artifact_dir):
        path = artifact_dir / f"roundtrip-{algorithm}"
        fitted, loaded = self._roundtrip(
            algorithm, planted_frame, fast_config, path,
            options=FAST_OPTIONS.get(algorithm),
        )
        assert loaded.algorithm == algorithm
        assert loaded.config == fitted.config
        # Both engines select for the first time here, so stateful-RNG
        # selectors (RAN) are compared from identical generator states.
        query = SPQuery((Eq("KIND", "beta"),))
        for request in (
            SelectionRequest(k=4, l=3),
            SelectionRequest(k=3, l=2, query=query),
            SelectionRequest(k=4, l=3, targets=("OUTCOME",)),
        ):
            cold = fitted.select(request).subtable
            warm = loaded.select(request).subtable
            assert warm.row_indices == cold.row_indices
            assert warm.columns == cold.columns
            assert warm.targets == cold.targets

    @pytest.mark.parametrize("algorithm", ["subtab", "ran", "nc"])
    def test_load_skips_preprocessing(self, algorithm, planted_frame,
                                      fast_config, artifact_dir):
        path = artifact_dir / f"timing-{algorithm}"
        fitted, loaded = self._roundtrip(
            algorithm, planted_frame, fast_config, path,
            options=FAST_OPTIONS.get(algorithm),
        )
        assert fitted.timings_["preprocess_total"] > 0
        assert loaded.timings_["preprocess_normalize"] == 0.0
        assert loaded.timings_["preprocess_binning"] == 0.0
        assert "artifact_load" in loaded.timings_
        if algorithm == "subtab":
            # Embedding training dominates subtab's fit; skipping it must
            # make the loaded engine's preparation a small fraction of the
            # original preprocessing.  (RAN/NC preparation is scorer
            # construction, which runs on both paths and is timing-noisy.)
            assert (loaded.timings_["preprocess_total"]
                    <= 0.5 * fitted.timings_["preprocess_total"])

    def test_subtab_load_skips_embedding_training(self, planted_frame,
                                                  fast_config, artifact_dir):
        path = artifact_dir / "embedding-skip"
        fitted, loaded = self._roundtrip("subtab", planted_frame, fast_config, path)
        assert fitted.selector.timings_["preprocess_embedding"] > 0
        assert loaded.selector.timings_["preprocess_embedding"] == 0.0
        np.testing.assert_array_equal(
            loaded.selector.subtab.model.vectors,
            fitted.selector.subtab.model.vectors,
        )

    def test_binned_table_round_trips_exactly(self, planted_frame, fast_config,
                                              artifact_dir):
        path = artifact_dir / "binned-exact"
        fitted, loaded = self._roundtrip("subtab", planted_frame, fast_config, path)
        cold, warm = fitted.binned, loaded.binned
        np.testing.assert_array_equal(warm.codes, cold.codes)
        np.testing.assert_array_equal(warm.token_ids, cold.token_ids)
        assert warm.vocab == cold.vocab
        assert warm.vocab_fingerprint == cold.vocab_fingerprint
        assert warm.frame == cold.frame

    def test_artifact_loadable_under_different_algorithm(self, planted_frame,
                                                         fast_config,
                                                         artifact_dir):
        path = artifact_dir / "cross-algo"
        Engine("subtab", fast_config).fit(planted_frame).save(path)
        loaded = Engine.load(path, algorithm="nc")
        assert loaded.algorithm == "nc"
        assert loaded.select(k=3, l=3).shape == (3, 3)


class TestStaleArtifactRejection:
    @pytest.fixture()
    def saved(self, tmp_path, planted_frame, fast_config):
        path = tmp_path / "artifact"
        Engine("subtab", fast_config).fit(planted_frame).save(path)
        return path

    def _edit_manifest(self, path, **changes):
        manifest = json.loads((path / "manifest.json").read_text())
        manifest.update(changes)
        (path / "manifest.json").write_text(json.dumps(manifest))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ArtifactError, match="not an engine artifact"):
            load_artifact(tmp_path / "nope")

    def test_wrong_format_tag(self, saved):
        self._edit_manifest(saved, format="something-else")
        with pytest.raises(ArtifactError, match="not an engine artifact"):
            Engine.load(saved)

    def test_unsupported_version(self, saved):
        self._edit_manifest(saved, version=ARTIFACT_VERSION + 1)
        with pytest.raises(ArtifactError, match="version"):
            Engine.load(saved)

    def test_tampered_vocab_fingerprint(self, saved):
        self._edit_manifest(saved, vocab_fingerprint="0" * 40)
        with pytest.raises(ArtifactError, match="vocabulary"):
            Engine.load(saved)

    def test_swapped_arrays_detected(self, saved):
        arrays_path = saved / "arrays.npz"
        with np.load(arrays_path, allow_pickle=False) as arrays:
            payload = {name: arrays[name] for name in arrays.files}
        payload["codes"] = payload["codes"].copy()
        payload["codes"][0, 0] = (payload["codes"][0, 0] + 1) % 2
        with arrays_path.open("wb") as handle:
            np.savez(handle, **payload)
        with pytest.raises(ArtifactError, match="data fingerprint"):
            Engine.load(saved)

    def test_tampered_embedding_detected(self, saved):
        arrays_path = saved / "arrays.npz"
        with np.load(arrays_path, allow_pickle=False) as arrays:
            payload = {name: arrays[name] for name in arrays.files}
        payload["embedding"] = payload["embedding"] + 1.0
        with arrays_path.open("wb") as handle:
            np.savez(handle, **payload)
        with pytest.raises(ArtifactError, match="embedding"):
            Engine.load(saved)

    def test_corrupt_manifest_json(self, saved):
        (saved / "manifest.json").write_text("{not json")
        with pytest.raises(ArtifactError, match="JSON"):
            Engine.load(saved)

    def test_unknown_config_field_rejected(self, saved):
        manifest = json.loads((saved / "manifest.json").read_text())
        manifest["config"]["knob_from_the_future"] = 1
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="config"):
            Engine.load(saved)


class TestValidationUnification:
    """The four historical validation copies now share one helper (and one
    set of messages) in repro.utils.validation."""

    DIMENSION_MESSAGE = "sub-table dimensions must be positive, got k=0, l=3"

    def test_config_uses_canonical_message(self):
        with pytest.raises(ValueError, match=self.DIMENSION_MESSAGE):
            SubTabConfig(k=0, l=3)

    def test_subtab_select_uses_canonical_message(self, fitted_subtab):
        with pytest.raises(ValueError, match=self.DIMENSION_MESSAGE):
            fitted_subtab.select(k=0, l=3)

    def test_base_selector_uses_canonical_message(self, planted_binned):
        selector = NaiveClusteringSelector(seed=0).prepare(
            planted_binned.frame, binned=planted_binned
        )
        with pytest.raises(ValueError, match=self.DIMENSION_MESSAGE):
            selector.select(k=0, l=3)

    def test_centroid_selection_uses_canonical_message(self, planted_binned,
                                                       fitted_subtab):
        from repro.core.selection import centroid_selection

        with pytest.raises(ValueError, match=self.DIMENSION_MESSAGE):
            centroid_selection(planted_binned, fitted_subtab.model, 0, 3)

    def test_target_messages_identical_across_entry_points(self, planted_binned,
                                                           fitted_subtab):
        from repro.core.selection import centroid_selection

        message = r"target columns \['NOPE'\] are not in the query result"
        selector = NaiveClusteringSelector(seed=0).prepare(
            planted_binned.frame, binned=planted_binned
        )
        with pytest.raises(ValueError, match=message):
            selector.select(k=3, l=3, targets=["NOPE"])
        with pytest.raises(ValueError, match=message):
            centroid_selection(
                planted_binned, fitted_subtab.model, 3, 3, targets=["NOPE"]
            )
        with pytest.raises(ValueError, match=message):
            fitted_subtab.select(k=3, l=3, targets=["NOPE"])


class TestBinningConfigHonored:
    """BaseSelector.prepare no longer ignores binning configuration/seed."""

    def test_selector_seed_threads_into_binner(self):
        selector = NaiveClusteringSelector(seed=7)
        binner = selector.make_binner()
        assert binner.seed == 7

    def test_explicit_binner_wins(self, planted_frame):
        from repro.binning.pipeline import TableBinner

        binner = TableBinner(n_bins=3, max_categories=5, seed=11)
        selector = NaiveClusteringSelector(seed=0, binner=binner)
        assert selector.make_binner() is binner
        selector.prepare(planted_frame)
        numeric_binning = selector.binned.binning_of("SIZE")
        # 3 value bins (+ possibly a missing bin) instead of the default 5.
        assert numeric_binning.n_bins <= 4

    def test_subtab_selector_binner_follows_config(self):
        from repro.baselines import SubTabSelector

        config = SubTabConfig(n_bins=7, max_categories=6, seed=13)
        binner = SubTabSelector(config).make_binner()
        assert (binner.n_bins, binner.max_categories, binner.seed) == (7, 6, 13)


class TestRowModeSourceOfTruth:
    """SubTabConfig is the single source of the row_mode default, and the
    centroid_selection signature agrees with it."""

    def test_defaults_agree(self):
        import inspect

        from repro.core.selection import centroid_selection

        signature = inspect.signature(centroid_selection)
        assert signature.parameters["row_mode"].default == SubTabConfig().row_mode
