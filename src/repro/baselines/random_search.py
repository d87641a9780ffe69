"""RAN baseline (paper Section 6.1, baseline 1).

Draws k uniformly random rows and l uniformly random columns a fixed number
of times, scores each draw with the combined metric, and returns the best
sub-table seen.  The paper gives it one minute per display, which on its
tables amounts to a few dozen draws; the draw count stands in for that
minute, so a reply never depends on how fast the host is.
"""

from __future__ import annotations

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
    max_draws:
        Number of draws.  On the paper's 6M-row tables one combined-score
        evaluation costs seconds, so a one-minute loop amounts to a few
        dozen draws; benchmark tables are hundreds of times smaller, and an
        unbounded RAN would degenerate into a direct random-search
        optimizer of the evaluation metric.  The default (60) matches the
        paper-scale draw count; it must be at least 1.
    scorer / miner:
        Scoring is the paper's combined metric; a pre-built scorer may be
        shared across selectors to avoid re-mining rules.
    """

    name = "RAN"

    def __init__(
        self,
        max_draws: int = 60,
        scorer: SubTableScorer | None = None,
        miner: RuleMiner | None = None,
        seed=None,
        binner=None,
    ):
        super().__init__(seed=seed, binner=binner)
        if max_draws is None or max_draws < 1:
            raise ValueError(f"max_draws must be at least 1, got {max_draws}")
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
        best_score = -1.0
        best: tuple[list[int], list[str]] | None = None
        for _ in range(self.max_draws):
            local_rows = rng.choice(n, size=k, replace=False)
            chosen_columns = random_column_choice(rng, columns, l, targets)
            global_rows = rows[local_rows]
            score = scorer.combined(global_rows, chosen_columns)
            if score > best_score:
                best_score = score
                best = (sorted(int(i) for i in local_rows), chosen_columns)
        assert best is not None  # max_draws >= 1 guarantees one draw
        return best
