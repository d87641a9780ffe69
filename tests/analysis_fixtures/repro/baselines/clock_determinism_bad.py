"""Selector fixture: loops that stop on the clock instead of a count."""

import time
from time import monotonic, perf_counter_ns


def best_draw_until_deadline(draw, score, budget):
    deadline = time.perf_counter() + budget  # BAD: clock read
    best = None
    while time.perf_counter() < deadline:  # BAD: clock read
        candidate = draw()
        if best is None or score(candidate) > score(best):
            best = candidate
    return best


def iterations_until(budget, step):
    start = monotonic()  # BAD: from-imported clock
    while monotonic() - start < budget:  # BAD
        step()
    return perf_counter_ns() - time.time_ns()  # BAD: both _ns forms
