"""Sampling-based approximate Greedy — the paper's Section-4 acceleration.

Exact ``GreedyRowSelection`` evaluates the marginal gain of *every*
candidate row before each pick.  The sampling variant (stochastic greedy;
Mirzasoleiman et al., AAAI 2015, which the paper's Section 4 builds on)
draws a uniform random sample of the remaining candidates per pick and
takes the best gain inside the sample.  With sample size
``s = (n / k) * ln(1 / epsilon)`` the expected cell coverage is within a
``(1 - 1/e - epsilon)`` factor of the optimum for the fixed column set —
an explicit quality-for-latency dial: per-pick work drops from ``O(n)``
gain evaluations to ``O(s)``.

``ApproxGreedySelector`` exposes the dial through the selector registry
(``make_selector("greedy-approx", sample_rate=..., epsilon=...)``).  Row
sampling re-seeds from the configured seed on every select call, so a
given (table, query, k, l) request returns the same sub-table on every
serving topology — the backend-equivalence suite relies on replayability,
not statefulness, for stochastic selectors.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.baselines.greedy import GreedySelector
from repro.metrics.coverage import CoverageEvaluator, IncrementalCoverage
from repro.rules.miner import RuleMiner
from repro.rules.rule import AssociationRule


def sample_size_for(
    n_candidates: int,
    k: int,
    sample_rate: Optional[float] = None,
    epsilon: Optional[float] = None,
    min_sample: int = 32,
) -> int:
    """Per-pick sample size for ``n_candidates`` rows and ``k`` picks.

    ``sample_rate`` (fraction of the candidate pool) wins when given;
    otherwise ``epsilon`` sets the stochastic-greedy size
    ``ceil((n / k) * ln(1 / epsilon))``.  The result is clamped to
    ``[min(min_sample, n), n]`` — tiny pools degrade gracefully to exact
    greedy rather than starving the picker.
    """
    if n_candidates <= 0:
        return 0
    if sample_rate is not None:
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in (0, 1], got {sample_rate}")
        size = math.ceil(sample_rate * n_candidates)
    elif epsilon is not None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        size = math.ceil((n_candidates / max(k, 1)) * math.log(1.0 / epsilon))
    else:
        raise ValueError("one of sample_rate or epsilon is required")
    return min(n_candidates, max(min(min_sample, n_candidates), size))


def stochastic_greedy_row_selection(
    evaluator: CoverageEvaluator,
    columns: Sequence[str],
    k: int,
    rng: np.random.Generator,
    candidate_rows: Optional[np.ndarray] = None,
    sample_rate: Optional[float] = None,
    epsilon: Optional[float] = 0.1,
    min_sample: int = 32,
) -> tuple[list[int], float]:
    """Stochastic-greedy row stage: per pick, best gain within a sample.

    Returns (selected global row indices, cell coverage in [0, 1]) like
    :func:`~repro.baselines.greedy.greedy_row_selection`; the sample per
    pick is drawn without replacement from the not-yet-selected rows.
    """
    coverage = IncrementalCoverage(evaluator, columns)
    if candidate_rows is None:
        candidate_rows = np.arange(evaluator.binned.n_rows)
    pool = np.asarray(candidate_rows, dtype=np.int64).copy()
    n = pool.size
    k = min(k, n)
    size = sample_size_for(n, k, sample_rate, epsilon, min_sample)
    selected: list[int] = []
    # ``pool[:end]`` holds the not-yet-selected rows; a picked row swaps to
    # the shrinking tail so sampling stays O(size) per pick.
    end = n
    for _ in range(k):
        if end == 0:
            break
        take = min(size, end)
        if take == end:
            sample_positions = np.arange(end)
        else:
            sample_positions = rng.choice(end, size=take, replace=False)
        sample = pool[sample_positions]
        gains = coverage.gains_for_rows(sample)
        best = int(gains.argmax())
        row = int(sample[best])
        coverage.add(row)
        selected.append(row)
        position = int(sample_positions[best])
        end -= 1
        pool[position], pool[end] = pool[end], pool[position]
    return selected, coverage.coverage


class ApproxGreedySelector(GreedySelector):
    """Greedy with the Section-4 sampled row stage.

    Column-subset enumeration comes from :class:`GreedySelector`; only the
    row stage differs.  ``max_combinations`` defaults to 50 subsets, as
    :class:`~repro.baselines.greedy.SemiGreedySelector` does: the selector
    is interactive, and a wide table has hundreds of thousands of
    subsets.  In the default lexicographic order those 50 are the first
    in table column order: on a 26-column table at ``l=7`` each of them
    holds the first five free columns.  The quality-vs-latency dial:

    - ``sample_rate``: fixed fraction of the candidate pool per pick
      (bench sweeps use this for an interpretable x-axis);
    - ``epsilon``: stochastic-greedy schedule ``(n/k) ln(1/eps)`` with the
      ``(1 - 1/e - eps)`` expected-quality bound (default when neither is
      given: ``epsilon=0.1``);
    - ``min_sample``: floor that keeps tiny samples from starving picks.
    """

    name = "GreedyApprox"

    def __init__(
        self,
        rules: Optional[Sequence[AssociationRule]] = None,
        miner: Optional[RuleMiner] = None,
        max_combinations: Optional[int] = 50,
        order: str = "lexicographic",
        seed=None,
        binner=None,
        sample_rate: Optional[float] = None,
        epsilon: Optional[float] = None,
        min_sample: int = 32,
    ):
        super().__init__(
            rules=rules,
            miner=miner,
            max_combinations=max_combinations,
            order=order,
            seed=seed,
            binner=binner,
        )
        if sample_rate is None and epsilon is None:
            epsilon = 0.1
        # Validate eagerly: a bad dial should fail at construction, not on
        # the first select.
        sample_size_for(1024, 8, sample_rate, epsilon, min_sample)
        if min_sample < 1:
            raise ValueError(f"min_sample must be >= 1, got {min_sample}")
        self.sample_rate = sample_rate
        self.epsilon = epsilon
        self.min_sample = min_sample

    def _row_selection(
        self,
        evaluator: CoverageEvaluator,
        columns: Sequence[str],
        k: int,
        candidate_rows: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[list[int], float]:
        return stochastic_greedy_row_selection(
            evaluator,
            columns,
            k,
            rng,
            candidate_rows=candidate_rows,
            sample_rate=self.sample_rate,
            epsilon=self.epsilon,
            min_sample=self.min_sample,
        )
