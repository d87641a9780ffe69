"""Open-loop load harness: simulated analyst fleets at production scale.

``repro.loadgen`` makes "serves millions of users" falsifiable: it
replays thousands of seeded analyst sessions (zipf dataset popularity,
Poisson arrivals, exponential think times) against any
:class:`~repro.serve.backend.ExecutionBackend` and reports latency
percentiles, the saturation knee, and error counts through the
:mod:`repro.obs` histogram machinery.

Build the workload (:func:`sample_sessions` → :func:`build_schedule`),
then drive it (:func:`run_open_loop`); sweep ``arrival_rate`` and pick
the knee with :func:`find_knee`.  Schedules are pure functions of their
seed (checked by :meth:`OpenLoopSchedule.fingerprint`), and the
reprolint determinism rule runs in strict mode over this package, so an
unseeded draw cannot silently break reproducibility.
"""

from repro.loadgen.runner import (
    DEFAULT_MAX_SESSIONS,
    LoadgenReport,
    find_knee,
    run_open_loop,
)
from repro.loadgen.workload import (
    ArrivalEvent,
    OpenLoopSchedule,
    build_schedule,
    sample_sessions,
)

__all__ = [
    "ArrivalEvent",
    "DEFAULT_MAX_SESSIONS",
    "LoadgenReport",
    "OpenLoopSchedule",
    "build_schedule",
    "find_knee",
    "run_open_loop",
    "sample_sessions",
]
