"""Figure 8 — diversity / cell coverage / combined per dataset and selector.

Paper numbers (alpha = 0.5): SubTab achieves the best combined score on FL,
SP and CY (e.g. SP: SubTab 0.68, RAN 0.47, NC 0.51); on FL and CY it also
has the best diversity, while on SP RAN is slightly more diverse but with
far lower coverage.

Reproduction target: SubTab's combined score is the best or statistically
tied with RAN's on every dataset, and strictly above NC's.  (Our RAN is a
draw-bounded direct optimizer of the evaluation metric — see
``repro.baselines.random_search`` — which makes it a stronger baseline at
benchmark scale than the paper's; margins are therefore tighter.)
"""

from repro.bench import run_quality_experiment


def test_fig8_quality_metrics(benchmark, once, capsys):
    result = once(
        benchmark,
        run_quality_experiment,
        dataset_names=("flights", "spotify", "cyber"),
        n_rows=1500,
        seed=0,
    )
    with capsys.disabled():
        print()
        print(result.render())

    for dataset, per_selector in result.scores.items():
        subtab = per_selector["SubTab"]
        ran = per_selector["RAN"]
        nc = per_selector["NC"]
        assert subtab.combined > nc.combined, dataset
        assert subtab.combined >= ran.combined - 0.06, dataset
        assert subtab.cell_coverage > nc.cell_coverage, dataset
