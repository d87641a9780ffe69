"""End-to-end integration tests across the whole stack.

Each test exercises the full pipeline — synthesize data, fit, select,
score — the way a downstream user would, on small scales so the suite stays
fast.
"""

import numpy as np
import pytest

from repro.baselines import NaiveClusteringSelector, SubTabSelector
from repro.bench import load_bundle, prepare_selectors
from repro.core import GroupRepresentation, SubTab, SubTabConfig
from repro.core.highlight import RuleHighlighter
from repro.datasets import dataset_names, make_dataset
from repro.embedding.word2vec import Word2VecConfig
from repro.queries import Eq, Gt, SPQuery, SessionGenerator, replay_sessions

FAST_W2V = Word2VecConfig(epochs=2, dim=16)


@pytest.mark.parametrize("name", dataset_names())
def test_subtab_end_to_end_on_every_dataset(name):
    """Fit + select + targets on each of the paper's six datasets."""
    dataset = make_dataset(name, n_rows=400, seed=0)
    config = SubTabConfig(k=5, l=5, seed=0, word2vec=FAST_W2V)
    subtab = SubTab(config).fit(dataset.frame)
    result = subtab.select(targets=dataset.target_columns)
    assert result.shape == (5, 5)
    for target in dataset.target_columns:
        assert target in result.columns


def test_full_exploration_workflow():
    """The README workflow: table -> query -> highlighted sub-table."""
    bundle = load_bundle("spotify", n_rows=800, seed=2)
    selector = SubTabSelector(SubTabConfig(seed=2, word2vec=FAST_W2V))
    selector.prepare(bundle.frame, binned=bundle.binned)

    query = SPQuery([Gt("POPULARITY", 60)])
    result = selector.select(k=6, l=6, query=query, targets=["POPULARITY"])
    assert result.shape[1] == 6

    scorer = bundle.scorer(targets=["POPULARITY"])
    scores = scorer.score(result.row_indices, result.columns)
    assert 0.0 <= scores.combined <= 1.0

    rendered = RuleHighlighter(scorer.evaluator, result).render()
    assert "rows x" in rendered


def test_session_replay_round_trip():
    bundle = load_bundle("cyber", n_rows=600, seed=3)
    generator = SessionGenerator(
        bundle.binned, pattern_columns=bundle.dataset.pattern_columns, seed=3
    )
    sessions = generator.generate(3, min_steps=3, max_steps=4)
    selector = SubTabSelector(SubTabConfig(seed=3, word2vec=FAST_W2V))
    selector.prepare(bundle.frame, binned=bundle.binned)
    result = replay_sessions(selector, sessions, k=6, l=5)
    assert result.total > 0
    assert 0.0 <= result.capture_rate <= 1.0


def test_fair_selection_on_loans():
    """Fairness extension over a realistic protected attribute."""
    dataset = make_dataset("loans", n_rows=600, seed=4)
    config = SubTabConfig(k=8, l=6, seed=4, word2vec=FAST_W2V)
    subtab = SubTab(config).fit(dataset.frame)
    constraint = GroupRepresentation("HOME_OWNERSHIP", min_group_share=0.1)
    result = subtab.select(fairness=constraint)
    shown = {
        subtab.frame.column("HOME_OWNERSHIP")[i] for i in result.row_indices
    }
    # the three major ownership groups all appear
    assert len(shown) >= 3


def test_selectors_agree_on_interface_constraints():
    """Every prepared selector respects dimensions, targets, and row bounds."""
    bundle = load_bundle("loans", n_rows=500, seed=5)
    selectors = prepare_selectors(bundle, ["subtab", "ran", "nc"], seed=5)
    for name, selector in selectors.items():
        result = selector.select(k=5, l=4, targets=["LOAN_STATUS"])
        assert result.shape == (5, 4), name
        assert "LOAN_STATUS" in result.columns, name
        assert len(set(result.row_indices)) == 5, name


def test_query_result_subtable_faster_than_fit():
    """The paper's interactivity claim, end to end."""
    dataset = make_dataset("cyber", n_rows=1000, seed=6)
    subtab = SubTab(SubTabConfig(k=6, l=6, seed=6, word2vec=FAST_W2V))
    subtab.fit(dataset.frame)
    query = SPQuery([Eq("PROTOCOL", "tcp")])
    subtab.select(query=query)
    assert subtab.timings_["select"] < subtab.timings_["preprocess_total"]
