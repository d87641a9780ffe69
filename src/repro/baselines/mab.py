"""Multi-Armed Bandit baseline with UCB (paper Section 6.1, baseline 4).

Every row and every column is an arm.  Each iteration assembles a candidate
sub-table from the k row-arms and l column-arms with the highest Upper
Confidence Bound scores (forced targets excluded from the bandit), evaluates
it, and credits the reward — "the cell coverage score", per the paper — to
all participating arms.  UCB (Lai & Robbins / Auer et al.) balances
exploring rarely-tried rows against exploiting rows that appeared in
high-coverage sub-tables.  Because the bandit optimizes coverage alone, its
best sub-table tends to repeat pattern rows and scores poorly on the
combined metric — the behaviour Fig. 7 reports.

The paper reports that even after very long runs MAB trails the other
baselines — reward credit over 10+ joint arms is too diffuse — and the
reproduction of Fig. 7 shows the same behaviour at scaled iteration counts.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.baselines.base import BaseSelector
from repro.binning.pipeline import BinnedTable
from repro.metrics.combined import SubTableScorer
from repro.rules.miner import RuleMiner
from repro.utils.rng import ensure_rng


class UCBArms:
    """UCB-1 bookkeeping for one family of arms (rows or columns)."""

    def __init__(self, n_arms: int, exploration: float = 1.4):
        if n_arms < 1:
            raise ValueError("need at least one arm")
        self.counts = np.zeros(n_arms, dtype=np.int64)
        self.sums = np.zeros(n_arms, dtype=np.float64)
        self.exploration = exploration
        self.total_plays = 0

    def scores(self) -> np.ndarray:
        """UCB score per arm; unseen arms get +inf (forced exploration)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            means = np.where(self.counts > 0, self.sums / self.counts, 0.0)
            bonus = self.exploration * np.sqrt(
                np.log(max(self.total_plays, 1)) / self.counts
            )
        scores = means + bonus
        scores[self.counts == 0] = np.inf
        return scores

    def top(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Indices of the ``n`` best arms, random tie-breaking."""
        scores = self.scores()
        jitter = rng.random(len(scores)) * 1e-9
        return np.argsort(-(scores + jitter))[:n]

    def update(self, arms: np.ndarray, reward: float) -> None:
        self.counts[arms] += 1
        self.sums[arms] += reward
        self.total_plays += 1


class MABSelector(BaseSelector):
    """UCB bandit over joint row/column arms."""

    name = "MAB"

    def __init__(
        self,
        iterations: int = 300,
        exploration: float = 1.4,
        scorer: SubTableScorer | None = None,
        miner: Optional[RuleMiner] = None,
        seed=None,
        binner=None,
    ):
        super().__init__(seed=seed, binner=binner)
        if iterations < 1:
            raise ValueError("iterations must be positive")
        self.iterations = iterations
        self.exploration = exploration
        self._scorer = scorer
        self._miner = miner

    def _after_prepare(self) -> None:
        if self._scorer is None:
            self._scorer = SubTableScorer(self._binned, miner=self._miner)

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
        scorer = self._scorer
        # A fresh generator per select: a repeated request gets the same
        # answer whatever this selector served before.
        rng = ensure_rng(self._seed)
        n = len(rows)
        k = min(k, n)
        free_columns = [name for name in columns if name not in targets]
        n_free = min(l - len(targets), len(free_columns))

        row_arms = UCBArms(n, exploration=self.exploration)
        column_arms = UCBArms(max(len(free_columns), 1), exploration=self.exploration)

        best_score = -1.0
        best: tuple[list[int], list[str]] | None = None
        for _ in range(self.iterations):
            local_rows = row_arms.top(k, rng)
            if n_free > 0:
                column_picks = column_arms.top(n_free, rng)
                chosen = {free_columns[i] for i in column_picks}
            else:
                column_picks = np.empty(0, dtype=np.int64)
                chosen = set()
            chosen.update(targets)
            selected_columns = [name for name in columns if name in chosen]

            # Reward is cell coverage (paper Section 6.1, baseline 4).
            reward = scorer.score(rows[local_rows], selected_columns).cell_coverage
            row_arms.update(local_rows, reward)
            if n_free > 0:
                column_arms.update(column_picks, reward)
            if reward > best_score:
                best_score = reward
                best = (sorted(int(i) for i in local_rows), selected_columns)
        assert best is not None
        return best
