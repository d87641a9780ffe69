"""Experiment harness regenerating every table and figure of Section 6.

Public surface::

    from repro.bench import (
        run_quality_experiment,        # Figure 8
        run_slow_baselines_experiment, # Figure 7
        run_runtime_experiment,        # Figure 9
        run_parameter_tuning_experiment,  # Figure 10
        run_session_experiment,        # Figure 6
        run_user_study_experiment,     # Table 1 + Figure 5
    )

The serving experiments behind the ``BENCH_*.json`` records, and the leg
harness they share, live in :mod:`repro.bench.serving`; each returns its
JSON record, which :func:`render_record` prints.
"""

from repro.bench.harness import (
    BENCH_ROWS,
    DatasetBundle,
    bench_rows,
    load_bundle,
    make_selector,
    prepare_selectors,
    scale_factor,
)
from repro.bench.experiments import (
    ParameterTuningResult,
    QualityResult,
    RuntimeResult,
    SessionStudyResult,
    SlowBaselineResult,
    UserStudyExperimentResult,
    run_parameter_tuning_experiment,
    run_quality_experiment,
    run_runtime_experiment,
    run_session_experiment,
    run_slow_baselines_experiment,
    run_user_study_experiment,
)
from repro.bench.reporting import format_bars, format_series, format_table
from repro.bench.serving import (
    best_tradeoff_point,
    render_record,
    run_async_qps_experiment,
    run_cluster_qps_experiment,
    run_http_cache_experiment,
    run_http_qps_experiment,
    run_kernel_qps_experiment,
    run_loadgen_experiment,
    run_pool_qps_experiment,
    run_serve_session_experiment,
)

__all__ = [
    "BENCH_ROWS",
    "DatasetBundle",
    "ParameterTuningResult",
    "QualityResult",
    "RuntimeResult",
    "SessionStudyResult",
    "SlowBaselineResult",
    "UserStudyExperimentResult",
    "bench_rows",
    "best_tradeoff_point",
    "format_bars",
    "format_series",
    "format_table",
    "load_bundle",
    "make_selector",
    "prepare_selectors",
    "render_record",
    "run_async_qps_experiment",
    "run_cluster_qps_experiment",
    "run_http_cache_experiment",
    "run_http_qps_experiment",
    "run_kernel_qps_experiment",
    "run_loadgen_experiment",
    "run_parameter_tuning_experiment",
    "run_pool_qps_experiment",
    "run_quality_experiment",
    "run_runtime_experiment",
    "run_serve_session_experiment",
    "run_session_experiment",
    "run_slow_baselines_experiment",
    "run_user_study_experiment",
    "scale_factor",
]
