"""Smoke tests for the experiment harness (small scales)."""

import pytest

from repro.api import SelectionRequest
from repro.bench import (
    bench_rows,
    format_bars,
    format_series,
    format_table,
    load_bundle,
    make_selector,
    prepare_selectors,
    render_record,
    scale_factor,
)
from repro.bench.serving import closed_loop, fitted
from repro.queries import Eq, SPQuery
from repro.serve import InProcessBackend


class TestReporting:
    def test_format_table(self):
        text = format_table("Title", ["a", "b"], [[1, 0.5], ["x", 2.0]])
        assert "Title" in text
        assert "0.500" in text

    def test_format_series_missing_cells(self):
        text = format_series("S", "x", {"A": {1: 0.5}, "B": {2: 0.7}})
        assert "-" in text

    def test_format_bars(self):
        text = format_bars("B", {"one": 1.0, "half": 0.5})
        assert "#" in text

    def test_format_bars_empty(self):
        assert "no data" in format_bars("B", {})


class TestHarness:
    def test_scale_factor_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_factor() == 1.0

    def test_scale_factor_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert bench_rows("cyber") == int(4000 * 2.5)

    def test_scale_factor_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "zero")
        with pytest.raises(ValueError):
            scale_factor()
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            scale_factor()

    def test_bundle_and_selectors(self):
        bundle = load_bundle("cyber", n_rows=300, seed=0)
        assert bundle.frame.n_rows == 300
        scorer = bundle.scorer()
        assert scorer is bundle.scorer()  # cached
        selectors = prepare_selectors(bundle, ["subtab", "nc"], seed=0)
        assert set(selectors.keys()) == {"SubTab", "NC"}
        for selector in selectors.values():
            result = selector.select(k=4, l=4)
            assert result.shape == (4, 4)

    def test_unknown_selector_kind(self):
        bundle = load_bundle("cyber", n_rows=200, seed=0)
        with pytest.raises(ValueError):
            make_selector("nope", bundle)


class TestLegHarness:
    """The serving experiments' leg harness, in process."""

    REQUESTS = [SelectionRequest(k=4, l=3), SelectionRequest(k=3, l=3)]

    def test_closed_loop_returns_the_leg_keys(self, fitted_engine):
        batch = InProcessBackend(fitted_engine).select_many
        for leg in (closed_loop(fitted_engine.select, self.REQUESTS),
                    closed_loop(batch, self.REQUESTS, batch=True)):
            assert set(leg) == {"served", "seconds", "qps"}
            assert leg["served"] == 2
            assert leg["seconds"] > 0 and leg["qps"] > 0

    def test_latency_leg_counts_a_raising_request_as_an_error(
            self, fitted_engine):
        no_columns = SelectionRequest(
            k=3, l=2, query=SPQuery((Eq("KIND", "alpha"),), projection=())
        )
        leg = closed_loop(fitted_engine.select,
                          self.REQUESTS + [no_columns] + self.REQUESTS,
                          latency=True)
        assert set(leg) == {"requests", "errors", "elapsed_seconds",
                            "achieved_qps", "latency"}
        assert (leg["requests"], leg["errors"]) == (5, 1)
        latency = leg["latency"]
        assert latency["count"] == 4
        assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]

    def test_fitted_removes_its_store_on_exit_and_on_error(self):
        bundle = load_bundle("cyber", n_rows=120, seed=0)
        with fitted([bundle], k=4, l=3, seed=0) as fit:
            root = fit.store.root
            assert fit.store.names() == ["cyber"]
            assert fit.seconds["cyber"] > 0
        assert not root.exists()
        with pytest.raises(RuntimeError, match="body failed"):
            with fitted([bundle], k=4, l=3, seed=0) as fit:
                root = fit.store.root
                raise RuntimeError("body failed")
        assert not root.exists()

    def test_render_record_labels_legs_by_key_path(self):
        text = render_record({
            "experiment": "demo",
            "k": 3,
            "baseline": {"served": 2, "seconds": 0.5, "qps": 4.0},
            "members": {"2": {"served": 2, "seconds": 1.0, "qps": 2.0}},
        })
        assert "demo" in text and "k=3" in text
        assert "baseline" in text and "members.2" in text
