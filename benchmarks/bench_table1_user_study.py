"""Table 1 + Figure 5 — the simulated user study.

Paper numbers (15 participants, SP/FL/BL, rule coloring on SP and FL only):

    Table 1: # correct insights  SubTab 4 (85%) | RAN 1.2 (30%) | NC 0.2 (6%)
             % users w/o insights        0%     |     12%       |    89%
             # total insights           4.5     |    3.67       |   1.5
    Fig. 5:  SubTab rated > 4 on all four questions, above RAN and NC.

Reproduction target: the *ordering* — SubTab finds the most correct
insights with the highest correctness rate; NC trails on both; ratings
rank SubTab first.
"""

from repro.bench import run_user_study_experiment


def test_table1_and_fig5_user_study(benchmark, once, capsys):
    result = once(
        benchmark,
        run_user_study_experiment,
        n_rows=1500,
        n_participants=15,
        seed=0,
    )
    with capsys.disabled():
        print()
        print(result.render())

    study = result.study
    assert study["SubTab"].avg_correct_insights >= study["NC"].avg_correct_insights
    assert study["SubTab"].avg_correct_insights >= study["RAN"].avg_correct_insights
    assert study["SubTab"].pct_correct >= study["NC"].pct_correct
    assert study["SubTab"].pct_no_insights <= study["NC"].pct_no_insights

    ratings = result.ratings
    for question in ("satisfaction", "usefulness", "column_quality", "row_quality"):
        assert getattr(ratings["SubTab"], question) >= getattr(
            ratings["NC"], question
        ) - 0.1
