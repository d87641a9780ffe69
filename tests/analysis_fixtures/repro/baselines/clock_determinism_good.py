"""Selector fixture: a loop ended by a count; a fit timed with ``timed``."""

from repro.utils.rng import ensure_rng
from repro.utils.timer import timed


def best_of_draws(draw, score, max_draws, seed: int):
    rng = ensure_rng(seed)
    best = None
    for _ in range(max_draws):  # OK: stops on a count
        candidate = draw(rng)
        if best is None or score(candidate) > score(best):
            best = candidate
    return best


def fit_embedding(timings, embedder, table):
    with timed(timings, "preprocess_embedding"):  # OK: fit timing
        return embedder.fit(table)
