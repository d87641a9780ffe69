"""Seeded random number helpers.

The library's stochastic components (embedding training, clustering
restarts, dataset synthesis) accept either an integer seed or a
:class:`numpy.random.Generator`; selectors take an integer seed only and
build each select's generator from it.  Centralizing the coercion here
keeps every experiment reproducible end to end.
"""

from __future__ import annotations

import numpy as np

RngLike = "int | np.random.Generator | None"


def ensure_rng(seed_or_rng=None) -> np.random.Generator:
    """Coerce ``seed_or_rng`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged so that callers can share state).
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if seed_or_rng is None or isinstance(seed_or_rng, (int, np.integer)):
        return np.random.default_rng(seed_or_rng)
    raise TypeError(
        f"expected int seed, numpy Generator or None, got {type(seed_or_rng).__name__}"
    )


def spawn_rng(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Used when an experiment fans out into parallel-in-spirit sub-tasks
    (e.g. one generator per simulated analyst) that must not share streams.
    """
    seeds = rng.integers(0, 2**63 - 1, size=count)
    return [np.random.default_rng(int(seed)) for seed in seeds]
