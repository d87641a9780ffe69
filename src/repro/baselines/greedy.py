"""Greedy sub-table selection — paper Algorithm 1 and its semi-greedy variant.

``GreedyRowSelection`` adds rows one at a time, each time picking the row
with the largest marginal cell-coverage gain.  Because cell coverage is
non-negative, monotone and submodular in rows (for fixed columns), the
greedy selection is a (1 - 1/e)-approximation of the optimal row choice for
those columns (Nemhauser et al. 1978) — a property our tests verify against
brute force on small inputs.

``ColumnSelection`` enumerates column subsets of size l and keeps the best
greedy sub-table.  Full enumeration is infeasible beyond toy widths (the
paper's complexity argument), so :class:`SemiGreedySelector` walks the
combinations in random order under a time/iteration budget and can be halted
any time — matching the paper's "traverse the column combinations in a
random order" modification (Section 6.1, baseline 5).

Lazy evaluation: marginal gains only shrink as rows are added, so candidates
are kept in a max-heap of stale gains and re-evaluated only when they
surface — the standard accelerated greedy.
"""

from __future__ import annotations

import heapq
import time
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.baselines.base import BaseSelector
from repro.binning.pipeline import BinnedTable
from repro.metrics.coverage import CoverageEvaluator, IncrementalCoverage
from repro.rules.miner import RuleMiner
from repro.rules.rule import AssociationRule
from repro.utils.rng import ensure_rng


def greedy_row_selection(
    evaluator: CoverageEvaluator,
    columns: Sequence[str],
    k: int,
    candidate_rows: Optional[np.ndarray] = None,
) -> tuple[list[int], float]:
    """GreedyRowSelection of Algorithm 1 with lazy gain evaluation.

    Returns (selected global row indices, cell coverage in [0, 1]).
    """
    coverage = IncrementalCoverage(evaluator, columns)
    if candidate_rows is None:
        candidate_rows = np.arange(evaluator.binned.n_rows)
    # Heap of (-stale_gain, row); gains can only decrease (submodularity).
    # The initial sweep is one batched evaluation — rows sharing a pattern
    # signature share one gain computation.
    initial_gains = coverage.gains_for_rows(np.asarray(candidate_rows))
    heap: list[tuple[float, int]] = [
        (-float(gain), int(row))
        for gain, row in zip(initial_gains, candidate_rows)
    ]
    heapq.heapify(heap)

    selected: list[int] = []
    while heap and len(selected) < k:
        negative_gain, row = heapq.heappop(heap)
        fresh_gain = coverage.gain(row)
        if heap and -heap[0][0] > fresh_gain:
            # A stale entry: push back with the fresh gain and retry.
            heapq.heappush(heap, (-float(fresh_gain), row))
            continue
        coverage.add(row)
        selected.append(row)
    # Pad with arbitrary unselected rows if coverage saturated early.
    if len(selected) < min(k, len(candidate_rows)):
        chosen = set(selected)
        for row in candidate_rows:
            if int(row) not in chosen:
                selected.append(int(row))
                chosen.add(int(row))
            if len(selected) == min(k, len(candidate_rows)):
                break
    return selected, coverage.coverage


def iterate_column_subsets(
    columns: Sequence[str],
    l: int,
    targets: Sequence[str],
    order: str = "lexicographic",
    rng: Optional[np.random.Generator] = None,
) -> Iterable[tuple[str, ...]]:
    """All size-l column subsets containing the targets.

    ``order="random"`` yields them in a uniformly random order (the
    semi-greedy traversal); note this materializes the combination list.
    """
    free = [name for name in columns if name not in targets]
    n_free = l - len(targets)
    if n_free < 0:
        raise ValueError("more targets than columns requested")
    if n_free > len(free):
        yield tuple(columns)
        return
    combos = combinations(free, n_free)
    if order == "random":
        if rng is None:
            raise ValueError("random order requires an rng")
        materialized = list(combos)
        rng.shuffle(materialized)
        combos = iter(materialized)
    targets = list(targets)
    for combo in combos:
        chosen = set(combo) | set(targets)
        yield tuple(name for name in columns if name in chosen)


class GreedySelector(BaseSelector):
    """Algorithm 1: exhaustive column enumeration + greedy rows.

    Only practical when C(m, l) is small; the experiment harness uses it on
    narrow tables and as the quality ceiling of Fig. 7.  A ``time_budget``
    (seconds) optionally halts the enumeration early, returning the best
    sub-table found so far — then the approximation guarantee no longer
    spans all column subsets (the paper makes the same caveat).
    """

    name = "Greedy"

    def __init__(
        self,
        rules: Optional[Sequence[AssociationRule]] = None,
        miner: Optional[RuleMiner] = None,
        time_budget: Optional[float] = None,
        max_combinations: Optional[int] = None,
        order: str = "lexicographic",
        seed=None,
        binner=None,
    ):
        super().__init__(seed=seed, binner=binner)
        self._rules = list(rules) if rules is not None else None
        self._miner = miner
        self.time_budget = time_budget
        self.max_combinations = max_combinations
        self.order = order
        self._evaluator: Optional[CoverageEvaluator] = None

    def _after_prepare(self) -> None:
        if self._rules is None:
            miner = self._miner or RuleMiner()
            self._rules = miner.mine(self._binned)
        self._evaluator = CoverageEvaluator(self._binned, self._rules)

    def _row_selection(
        self,
        evaluator: CoverageEvaluator,
        columns: Sequence[str],
        k: int,
        candidate_rows: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[list[int], float]:
        """Row stage for one column subset; subclasses swap the strategy
        (the sampling-based approximation overrides this hook)."""
        return greedy_row_selection(
            evaluator, columns, k, candidate_rows=candidate_rows
        )

    def _select_from_view(
        self,
        view: BinnedTable,
        rows: np.ndarray,
        columns: list[str],
        k: int,
        l: int,
        targets: list[str],
        modes: Mapping[str, str],
    ) -> tuple[list[int], list[str]]:
        evaluator = self._evaluator
        deadline = (
            time.perf_counter() + self.time_budget if self.time_budget else None
        )
        best_cov = -1.0
        best: tuple[list[int], tuple[str, ...]] | None = None
        n_seen = 0
        # One generator per select, for the column order and the row stage:
        # a repeated request gets the same answer whatever ran before.
        rng = ensure_rng(self._seed)
        for subset in iterate_column_subsets(
            columns, l, targets, order=self.order, rng=rng
        ):
            selected_rows, cov = self._row_selection(
                evaluator, subset, min(k, len(rows)), rows, rng
            )
            if cov > best_cov:
                best_cov = cov
                best = (selected_rows, subset)
            n_seen += 1
            if self.max_combinations and n_seen >= self.max_combinations:
                break
            if deadline and time.perf_counter() > deadline:
                break
        assert best is not None
        global_rows, chosen_columns = best
        # Translate global rows back to view-local positions for the base class.
        position = {int(row): i for i, row in enumerate(rows)}
        local = [position[int(row)] for row in global_rows]
        return local, list(chosen_columns)


class SemiGreedySelector(GreedySelector):
    """The any-time variant: random column order + budget (Section 6.1)."""

    name = "SemiGreedy"

    def __init__(
        self,
        rules: Optional[Sequence[AssociationRule]] = None,
        miner: Optional[RuleMiner] = None,
        time_budget: float = 5.0,
        max_combinations: Optional[int] = None,
        seed=None,
        binner=None,
    ):
        super().__init__(
            rules=rules,
            miner=miner,
            time_budget=time_budget,
            max_combinations=max_combinations,
            order="random",
            seed=seed,
            binner=binner,
        )
