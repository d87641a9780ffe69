"""Unit + integration tests for the baseline selectors."""

import numpy as np
import pytest

from repro.baselines import (
    EmbDISelector,
    GreedySelector,
    MABSelector,
    NaiveClusteringSelector,
    RandomSelector,
    SemiGreedySelector,
    SubTabSelector,
    UCBArms,
    greedy_row_selection,
    iterate_column_subsets,
    one_hot_rows,
)
from repro.core.config import SubTabConfig
from repro.embedding.word2vec import Word2VecConfig
from repro.metrics import SubTableScorer
from repro.queries import Eq, SPQuery
from repro.rules import RuleMiner


@pytest.fixture(scope="module")
def scorer(planted_binned):
    miner = RuleMiner(min_support=0.1, min_confidence=0.5,
                      min_rule_size=2, min_lift=None)
    return SubTableScorer(planted_binned, miner=miner)


def prepared(selector, planted_binned):
    return selector.prepare(planted_binned.frame, binned=planted_binned)


class TestCommonProtocol:
    @pytest.mark.parametrize("factory", [
        lambda s: RandomSelector(max_draws=5, scorer=s, seed=0),
        lambda s: NaiveClusteringSelector(seed=0),
        lambda s: MABSelector(iterations=20, scorer=s, seed=0),
    ])
    def test_dimensions_and_validity(self, factory, scorer, planted_binned):
        selector = prepared(factory(scorer), planted_binned)
        result = selector.select(k=4, l=3)
        assert result.shape == (4, 3)
        assert len(set(result.row_indices)) == 4

    def test_unprepared_raises(self):
        with pytest.raises(RuntimeError):
            NaiveClusteringSelector().select(k=2, l=2)

    def test_query_restriction(self, scorer, planted_binned):
        selector = prepared(NaiveClusteringSelector(seed=0), planted_binned)
        query = SPQuery([Eq("KIND", "beta")], projection=["SIZE", "KIND"])
        result = selector.select(k=3, l=2, query=query)
        for i in result.row_indices:
            assert planted_binned.frame.column("KIND")[i] == "beta"

    def test_targets_forced(self, scorer, planted_binned):
        selector = prepared(
            RandomSelector(max_draws=3, scorer=scorer, seed=0),
            planted_binned,
        )
        result = selector.select(k=3, l=2, targets=["OUTCOME"])
        assert "OUTCOME" in result.columns


class TestRandomSelector:
    def test_more_draws_never_worse(self, scorer, planted_binned):
        few = prepared(
            RandomSelector(max_draws=3, scorer=scorer, seed=7),
            planted_binned,
        ).select(k=5, l=3)
        many = prepared(
            RandomSelector(max_draws=40, scorer=scorer, seed=7),
            planted_binned,
        ).select(k=5, l=3)
        score_few = scorer.combined(few.row_indices, few.columns)
        score_many = scorer.combined(many.row_indices, many.columns)
        # same seed stream: the 40-draw run includes the 3-draw prefix
        assert score_many >= score_few - 1e-12

    def test_invalid_budget(self):
        # The draw count is the only thing that ends RAN's loop.
        for max_draws in (None, 0, -1):
            with pytest.raises(ValueError, match="max_draws"):
                RandomSelector(max_draws=max_draws)


class TestNaiveClustering:
    def test_one_hot_shape(self, planted_binned):
        features = one_hot_rows(planted_binned.subset(rows=range(20)))
        assert features.shape[0] == 20
        assert features.shape[1] >= planted_binned.n_cols

    def test_missing_values_encoded_as_zero(self, planted_binned):
        features = one_hot_rows(planted_binned)
        assert np.isfinite(features).all()


class TestGreedy:
    def test_row_selection_matches_coverage(self, scorer):
        rows, cov = greedy_row_selection(
            scorer.evaluator, scorer.binned.columns, 5
        )
        assert len(rows) == 5
        assert cov == pytest.approx(
            scorer.evaluator.coverage(rows, scorer.binned.columns)
        )

    def test_greedy_beats_first_rows(self, scorer):
        columns = scorer.binned.columns
        rows, cov = greedy_row_selection(scorer.evaluator, columns, 5)
        baseline = scorer.evaluator.coverage(list(range(5)), columns)
        assert cov >= baseline - 1e-12

    def test_column_subset_iteration(self):
        subsets = list(iterate_column_subsets(["a", "b", "c"], 2, []))
        assert len(subsets) == 3
        subsets_with_target = list(iterate_column_subsets(["a", "b", "c"], 2, ["c"]))
        assert all("c" in subset for subset in subsets_with_target)
        assert len(subsets_with_target) == 2

    def test_random_order_requires_rng(self):
        with pytest.raises(ValueError):
            list(iterate_column_subsets(["a", "b"], 1, [], order="random"))

    def test_selector_end_to_end(self, scorer, planted_binned):
        selector = GreedySelector(rules=scorer.rules, max_combinations=5, seed=0)
        prepared(selector, planted_binned)
        result = selector.select(k=4, l=3)
        assert result.shape == (4, 3)

    def test_semi_greedy_stops_on_count(self, scorer, planted_binned):
        assert SemiGreedySelector().max_combinations == 50
        subsets = []

        class Counting(SemiGreedySelector):
            def _row_selection(self, evaluator, columns, *rest):
                subsets.append(columns)
                return super()._row_selection(evaluator, columns, *rest)

        selector = prepared(
            Counting(rules=scorer.rules, max_combinations=3, seed=0),
            planted_binned,
        )
        result = selector.select(k=3, l=3)
        assert result.shape == (3, 3)
        # C(5, 3) = 10 subsets exist; the count stops the walk at 3.
        assert len(subsets) == 3

    def test_greedy_approx_defaults_stop_after_50_subsets(self, monkeypatch):
        # The registry builds an interactive selector: at its defaults a
        # 26-column table at l=7 must not walk all C(26, 7) = 657,800
        # column subsets.
        from repro.api import make_selector
        from repro.baselines.greedy_approx import ApproxGreedySelector
        from repro.datasets import make_dataset

        row_selection = ApproxGreedySelector._row_selection
        calls = []

        def counted(self, *args):
            calls.append(args[1])
            if len(calls) > 50:
                raise AssertionError("walked past 50 column subsets")
            return row_selection(self, *args)

        monkeypatch.setattr(ApproxGreedySelector, "_row_selection", counted)
        selector = make_selector("greedy-approx", SubTabConfig(seed=0))
        selector.prepare(make_dataset("flights", n_rows=300, seed=0).frame)
        assert selector.select(k=10, l=7).shape == (10, 7)
        assert len(calls) == 50


class TestMAB:
    def test_ucb_prefers_unseen_arms(self):
        arms = UCBArms(4)
        arms.update(np.array([0]), reward=1.0)
        scores = arms.scores()
        assert np.isinf(scores[1:]).all()
        assert not np.isinf(scores[0])

    def test_ucb_mean_plus_bonus(self):
        arms = UCBArms(2, exploration=1.0)
        arms.update(np.array([0]), 0.6)
        arms.update(np.array([1]), 0.2)
        arms.update(np.array([0]), 0.8)
        scores = arms.scores()
        assert scores[0] > scores[1]

    def test_more_iterations_never_worse_on_coverage(self, scorer, planted_binned):
        """The bandit's objective is cell coverage (the paper's reward)."""
        short = prepared(
            MABSelector(iterations=5, scorer=scorer, seed=3), planted_binned
        ).select(k=4, l=3)
        long = prepared(
            MABSelector(iterations=60, scorer=scorer, seed=3), planted_binned
        ).select(k=4, l=3)
        coverage = scorer.evaluator.coverage
        assert coverage(long.row_indices, long.columns) >= (
            coverage(short.row_indices, short.columns) - 1e-12
        )


class TestEmbDI:
    def test_end_to_end(self, planted_binned):
        selector = EmbDISelector(
            walks_per_node=1, walk_length=6,
            word2vec=Word2VecConfig(epochs=1, dim=8), seed=0,
        )
        prepared(selector, planted_binned)
        result = selector.select(k=4, l=3)
        assert result.shape == (4, 3)
        assert selector.timings_["preprocess_embedding"] > 0


class TestSubTabAdapter:
    def test_matches_interface(self, planted_binned):
        config = SubTabConfig(seed=0, word2vec=Word2VecConfig(epochs=1, dim=8))
        selector = SubTabSelector(config)
        prepared(selector, planted_binned)
        result = selector.select(k=4, l=3, targets=["OUTCOME"])
        assert result.shape == (4, 3)
        assert "OUTCOME" in result.columns
        assert selector.name == "SubTab"

    def test_rejects_config_and_subtab(self, fitted_subtab, fast_subtab_config):
        with pytest.raises(ValueError, match="not both"):
            SubTabSelector(config=fast_subtab_config, subtab=fitted_subtab)


class TestOrderingOnPlantedData:
    def test_subtab_scores_high_on_planted_data(self, scorer, planted_binned):
        """SubTab reaches a high combined score on strongly-patterned data.

        The five-column fixture is easy enough that even naive clustering
        does well; the paper's full ordering (SubTab > RAN > NC) is asserted
        at dataset scale by the benchmark suite, while this unit test pins
        an absolute quality floor.
        """
        config = SubTabConfig(seed=0, word2vec=Word2VecConfig(epochs=3, dim=16))
        subtab = prepared(SubTabSelector(config), planted_binned)
        s_subtab = subtab.select(k=5, l=4)
        score_subtab = scorer.combined(s_subtab.row_indices, s_subtab.columns)
        assert score_subtab > 0.55
