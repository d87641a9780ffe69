"""Ablation benches for the reconstruction's own design choices.

Not part of the paper's evaluation — these isolate our reconstruction's
moving parts:

* embedding method: tabular Word2Vec (default) vs deterministic PPMI+SVD;
* sentence corpus: tuple-sentences only (our default) vs the paper's
  tuple+column sentences, which over a *binned* table pull same-column bins
  together (see repro.core.config);
* column stage: dispersion-weighted budget (our default) vs the literal
  one-representative-per-cluster rule of Algorithm 2;
* binning strategy: KDE (paper) vs equal-width vs quantile.

Each bench prints the combined score per variant and asserts only sanity
(scores in range, experiments complete); docs/architecture.md maps the
pipeline stages the variants swap.
"""

import pytest

from repro.bench import format_table, load_bundle
from repro.bench.harness import make_selector
from repro.binning import TableBinner
from repro.core.config import SubTabConfig

DATASET = "spotify"
ROWS = 1500


@pytest.fixture(scope="module")
def bundle():
    return load_bundle(DATASET, n_rows=ROWS, seed=0)


def score_config(bundle, config) -> tuple:
    selector = make_selector("subtab", bundle, seed=0, subtab_config=config)
    subtable = selector.select(k=10, l=10)
    scores = bundle.scorer().score(subtable.row_indices, subtable.columns)
    return scores.cell_coverage, scores.diversity, scores.combined


def test_ablation_embedding_method(benchmark, bundle, capsys):
    def run():
        rows = []
        for embedder in ("word2vec", "pmi"):
            cov, div, comb = score_config(
                bundle, SubTabConfig(seed=0, embedder=embedder)
            )
            rows.append([embedder, cov, div, comb])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(
            f"Ablation: embedding method ({DATASET})",
            ["embedder", "coverage", "diversity", "combined"], rows,
        ))
    for _, cov, div, comb in rows:
        assert 0.0 <= comb <= 1.0
        assert comb > 0.3  # both embedders must be functional


def test_ablation_corpus_mode(benchmark, capsys):
    """Corpus choice is dataset-dependent (see ``corpus_mode`` in
    ``repro.core.config``; docs/architecture.md maps the embedding layer).

    Column-sentences hurt on the wide, missing-heavy FL (same-column bins
    are pulled together) and help mildly on the narrow SP; this bench
    records both so the default (rows-only) stays justified by the
    flagship dataset without hiding the trade-off.
    """

    def run():
        rows = []
        for dataset in ("flights", DATASET):
            ds_bundle = load_bundle(dataset, n_rows=ROWS, seed=0)
            for mode in ("rows", "rows+columns"):
                cov, div, comb = score_config(
                    ds_bundle, SubTabConfig(seed=0, corpus_mode=mode)
                )
                rows.append([dataset, mode, cov, div, comb])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(
            "Ablation: sentence corpus (flights + spotify)",
            ["dataset", "corpus", "coverage", "diversity", "combined"], rows,
        ))
    by_key = {(row[0], row[1]): row[4] for row in rows}
    # the motivating case: rows-only must not lose on flights
    assert by_key[("flights", "rows")] >= by_key[("flights", "rows+columns")] - 0.05
    for value in by_key.values():
        assert 0.0 <= value <= 1.0


def test_ablation_selection_modes(benchmark, bundle, capsys):
    def run():
        rows = []
        for column_mode in ("dispersion", "centroid"):
            for row_mode in ("cluster", "mass"):
                cov, div, comb = score_config(
                    bundle,
                    SubTabConfig(seed=0, column_mode=column_mode, row_mode=row_mode),
                )
                rows.append([f"{column_mode}/{row_mode}", cov, div, comb])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(
            f"Ablation: column/row budget modes ({DATASET})",
            ["column/row mode", "coverage", "diversity", "combined"], rows,
        ))
    for _, cov, div, comb in rows:
        assert 0.0 <= comb <= 1.0


def test_ablation_binning_strategy(benchmark, capsys):
    def run():
        rows = []
        for strategy in ("kde", "width", "quantile"):
            bundle = load_bundle(DATASET, n_rows=ROWS, seed=0)
            rebinned = TableBinner(strategy=strategy, seed=0).bin_table(bundle.frame)
            bundle.binned = rebinned
            bundle._scorers.clear()
            cov, div, comb = score_config(
                bundle, SubTabConfig(seed=0, bin_strategy=strategy)
            )
            rows.append([strategy, cov, div, comb])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(
            f"Ablation: binning strategy ({DATASET})",
            ["strategy", "coverage", "diversity", "combined"], rows,
        ))
    for _, cov, div, comb in rows:
        assert 0.0 <= comb <= 1.0
