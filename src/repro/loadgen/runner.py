"""Drive an open-loop schedule against any ExecutionBackend.

The dispatcher walks the schedule's arrival times on a wall clock and
hands each session to a worker thread — arrivals never wait for
completions (open loop), so when the backend saturates, queueing delay
lands in the latency histogram instead of silently throttling the
offered load.  Two guards keep the numbers honest:

* **anti-coordinated-omission**: a session's first request is timed from
  its *scheduled* arrival, so time spent waiting for a free worker (or a
  late dispatcher) counts against the system under test, exactly as a
  real analyst would experience it;
* **taxonomy-aware accounting**: a :class:`~repro.serve.errors
  .BackendError` (dead socket, exhausted cluster) aborts the session and
  counts as an ``error``; request-shaped failures (degenerate generated
  states the engine rejects on every replica) count as ``rejected`` and
  the session continues — the smoke gate demands zero *errors* while
  tolerating rejections, which the generator produces by design.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from repro.loadgen.workload import ArrivalEvent, OpenLoopSchedule
from repro.obs import Histogram
from repro.serve.errors import BackendError

#: Default cap on concurrently running sessions.  Sized for thousands of
#: *scheduled* analysts: sessions mostly think/wait, so a few hundred OS
#: threads carry them; past the cap, arrivals queue (and the queueing
#: shows up in first-step latency, as it should).
DEFAULT_MAX_SESSIONS = 256


class _RunState:
    """Counters shared by the session workers (all updates under one lock)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.completed_sessions = 0
        self.completed_requests = 0
        self.errors = 0
        self.rejected = 0

    def count(self, *, requests: int = 0, sessions: int = 0,
              errors: int = 0, rejected: int = 0) -> None:
        with self._lock:
            self.completed_requests += requests
            self.completed_sessions += sessions
            self.errors += errors
            self.rejected += rejected


@dataclasses.dataclass
class LoadgenReport:
    """One open-loop run's results (JSON-portable via :meth:`to_json`)."""

    #: What the schedule offered.
    offered_sessions: int
    offered_requests: int
    offered_qps: float
    #: What the backend delivered.
    completed_sessions: int
    completed_requests: int
    rejected: int
    errors: int
    duration_seconds: float
    achieved_qps: float
    #: End-to-end request latency snapshot (p50/p95/p99, seconds).
    latency: dict
    #: Schedule provenance.
    arrival_rate: float
    schedule_fingerprint: str

    @property
    def saturation_ratio(self) -> float:
        """Achieved over offered throughput: ~1 below capacity, falling
        once the backend can no longer keep pace with arrivals."""
        if self.offered_qps <= 0:
            return 0.0
        return self.achieved_qps / self.offered_qps

    def to_json(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["saturation_ratio"] = self.saturation_ratio
        return payload


def _run_session(backend, event: ArrivalEvent, run_start: float,
                 state: _RunState, latency: Histogram) -> None:
    failed = False
    for position, request in enumerate(event.requests):
        if position:
            time.sleep(event.think_times[position - 1])
            send_origin = time.perf_counter()
        else:
            # First step: timed from the scheduled arrival, not from
            # whenever a worker got around to it (coordinated omission
            # would otherwise hide every queueing delay).
            send_origin = run_start + event.time
        try:
            backend.select(request)
        except BackendError:
            state.count(errors=1)
            failed = True
            break
        except Exception:
            # Request-shaped: the generated state is degenerate and would
            # fail identically on every replica.  Not a serving failure.
            state.count(rejected=1)
            continue
        latency.observe(time.perf_counter() - send_origin)
        state.count(requests=1)
    if not failed:
        state.count(sessions=1)


def run_open_loop(
    backend,
    schedule: OpenLoopSchedule,
    *,
    max_sessions: int = DEFAULT_MAX_SESSIONS,
) -> LoadgenReport:
    """Replay ``schedule`` against ``backend``; the measured report.

    ``backend`` is any :class:`~repro.serve.backend.ExecutionBackend` —
    the intended subject is a pipelined
    :class:`~repro.serve.aio.AsyncRemoteBackend` (sessions multiplex over
    one socket), but an in-process engine works for tests.  The call
    blocks until every scheduled session has finished.
    """
    if max_sessions < 1:
        raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
    state = _RunState()
    latency = Histogram("loadgen.latency_seconds")
    run_start = time.perf_counter()
    with ThreadPoolExecutor(
        max_workers=max_sessions, thread_name_prefix="loadgen-session"
    ) as executor:
        futures = []
        for event in schedule.arrivals:
            lead = event.time - (time.perf_counter() - run_start)
            if lead > 0:
                time.sleep(lead)
            futures.append(executor.submit(
                _run_session, backend, event, run_start, state, latency
            ))
        for future in futures:
            future.result()
    duration = time.perf_counter() - run_start
    handled = state.completed_requests + state.rejected
    scheduled_span = schedule.duration_seconds
    return LoadgenReport(
        offered_sessions=schedule.n_sessions,
        offered_requests=schedule.n_requests,
        offered_qps=(schedule.n_requests / scheduled_span
                     if scheduled_span > 0 else float(schedule.n_requests)),
        completed_sessions=state.completed_sessions,
        completed_requests=state.completed_requests,
        rejected=state.rejected,
        errors=state.errors,
        duration_seconds=duration,
        achieved_qps=handled / duration if duration > 0 else 0.0,
        latency=latency.snapshot(),
        arrival_rate=schedule.arrival_rate,
        schedule_fingerprint=schedule.fingerprint(),
    )


def find_knee(reports: Sequence[LoadgenReport],
              threshold: float = 0.9) -> Optional[LoadgenReport]:
    """The saturation knee of a rate sweep: the highest-offered-rate run
    still delivering at least ``threshold`` of its offered throughput
    (``None`` when even the lowest rate saturates)."""
    knee = None
    for report in sorted(reports, key=lambda r: r.offered_qps):
        if report.saturation_ratio >= threshold:
            knee = report
    return knee
