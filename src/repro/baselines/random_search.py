"""RAN baseline (paper Section 6.1, baseline 1).

Repeatedly draws k uniformly random rows and l uniformly random columns for
a fixed time budget, scores each draw with the combined metric, and returns
the best sub-table seen.  The paper gives it one minute per display; the
budget is configurable so scaled experiments stay fast.
"""

from __future__ import annotations

import time
from typing import Mapping

import numpy as np

from repro.baselines.base import BaseSelector, random_column_choice
from repro.binning.pipeline import BinnedTable
from repro.metrics.combined import SubTableScorer
from repro.rules.miner import RuleMiner
from repro.utils.rng import ensure_rng


class RandomSelector(BaseSelector):
    """Best-of-random-draws selector.

    Parameters
    ----------
    time_budget:
        Wall-clock seconds to spend drawing (paper: 60).
    min_draws:
        Draw at least this many candidates regardless of the budget, so the
        baseline is meaningful even with a tiny budget.
    max_draws:
        Cap on the number of draws.  On the paper's 6M-row tables one
        combined-score evaluation costs seconds, so a one-minute loop
        amounts to a few dozen draws; benchmark tables are hundreds of times
        smaller, and without this cap RAN degenerates into a direct
        random-search optimizer of the evaluation metric.  The default (60)
        matches the paper-scale draw budget; set ``None`` to disable.
    scorer / miner:
        Scoring is the paper's combined metric; a pre-built scorer may be
        shared across selectors to avoid re-mining rules.
    """

    name = "RAN"

    def __init__(
        self,
        time_budget: float = 1.0,
        min_draws: int = 30,
        max_draws: "int | None" = 60,
        scorer: SubTableScorer | None = None,
        miner: RuleMiner | None = None,
        seed=None,
        binner=None,
    ):
        super().__init__(seed=seed, binner=binner)
        if time_budget <= 0:
            raise ValueError("time_budget must be positive")
        if max_draws is not None and max_draws < min_draws:
            raise ValueError("max_draws must be >= min_draws")
        self.time_budget = time_budget
        self.min_draws = min_draws
        self.max_draws = max_draws
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
        deadline = time.perf_counter() + self.time_budget
        best_score = -1.0
        best: tuple[list[int], list[str]] | None = None
        draws = 0
        while draws < self.min_draws or time.perf_counter() < deadline:
            local_rows = rng.choice(n, size=k, replace=False)
            chosen_columns = random_column_choice(rng, columns, l, targets)
            global_rows = rows[local_rows]
            score = scorer.combined(global_rows, chosen_columns)
            if score > best_score:
                best_score = score
                best = (sorted(int(i) for i in local_rows), chosen_columns)
            draws += 1
            if self.max_draws is not None and draws >= self.max_draws:
                break
            if draws >= self.min_draws and time.perf_counter() >= deadline:
                break
        assert best is not None  # min_draws >= 1 guarantees at least one draw
        return best
