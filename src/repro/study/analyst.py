"""Simulated analysts for the user study (paper Section 6.2.1).

A human participant looks at a sub-table, notices values that co-occur
across rows, and writes down insights.  The simulated analyst formalizes
that reading process — and nothing more; in particular it never peeks at
the full table:

1. every pair of cells in a sub-table row (optionally anchored at a target
   column) is a *candidate pattern*, abstracted to (column, bin) items using
   the same binning a human would infer from the displayed values;
2. a candidate is *noticeable* when it repeats across at least
   ``min_evidence`` sub-table rows — a single co-occurrence does not read as
   a pattern;
3. the analyst reports up to ``max_insights`` insights, sampling noticeable
   candidates with probability proportional to their in-sub-table evidence
   (stronger repetition is more likely to be written down).

Correctness of the reported insights is judged afterwards against the full
table (:mod:`repro.study.insights`), mirroring how the paper's authors
manually validated participants' statements.  Sub-tables that juxtapose
misleading rows — e.g. random rows that happen to repeat an arbitrary value
— therefore produce confidently-wrong analysts, which is exactly the failure
mode the paper reports for RAN and NC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from repro.binning.base import MISSING_LABEL
from repro.binning.pipeline import BinnedTable
from repro.core.result import SubTable
from repro.study.insights import Insight
from repro.utils.rng import ensure_rng


@dataclass
class AnalystReport:
    """What one simulated participant wrote down for one sub-table."""

    insights: list = field(default_factory=list)

    @property
    def n_insights(self) -> int:
        return len(self.insights)


class SimulatedAnalyst:
    """One participant with a given attentiveness.

    Parameters
    ----------
    binned:
        Binned full table — used *only* to translate displayed cell values
        into bin labels (the abstraction a human reader performs), never to
        validate candidates.
    max_insights:
        How many insights the participant writes down at most.
    min_evidence:
        Minimum number of sub-table rows exhibiting a pattern before the
        participant notices it.
    attention:
        Fraction of candidate cell pairs the participant actually considers
        (humans do not exhaustively scan wide tables).
    """

    def __init__(
        self,
        binned: BinnedTable,
        max_insights: int = 5,
        min_evidence: int = 2,
        attention: float = 0.9,
        seed=None,
    ):
        self.binned = binned
        self.max_insights = max_insights
        self.min_evidence = min_evidence
        self.attention = attention
        self._rng = ensure_rng(seed)

    # -- reading the sub-table ----------------------------------------------
    def _row_items(self, subtable: SubTable, position: int) -> list:
        """(column, bin label) items of one sub-table row, skipping missing."""
        global_row = subtable.row_indices[position]
        items = []
        for column in subtable.columns:
            column_name, label = self.binned.item_of_cell(global_row, column)
            if label != MISSING_LABEL:
                items.append((column_name, label))
        return items

    def _candidates(self, subtable: SubTable, targets: Sequence[str]) -> dict:
        """Candidate patterns -> number of supporting sub-table rows."""
        target_set = set(targets)
        counts: dict[Insight, int] = {}
        for position in range(subtable.frame.n_rows):
            items = self._row_items(subtable, position)
            target_items = [item for item in items if item[0] in target_set]
            other_items = [item for item in items if item[0] not in target_set]
            pairs = list(combinations(other_items, 2))
            if self.attention < 1.0 and pairs:
                keep = self._rng.random(len(pairs)) < self.attention
                pairs = [pair for pair, kept in zip(pairs, keep) if kept]
            for pair in pairs:
                if target_items:
                    for conclusion in target_items:
                        insight = Insight(frozenset(pair), conclusion)
                        counts[insight] = counts.get(insight, 0) + 1
                else:
                    insight = Insight(frozenset(pair))
                    counts[insight] = counts.get(insight, 0) + 1
        return counts

    # -- reading highlighted rules -----------------------------------------
    def _rule_candidates(self, covered_rules, targets: Sequence[str]) -> dict:
        """Insights an analyst reads off the colored rules (paper UI).

        The paper colors, per row, one association rule covered by the
        sub-table; participants in the SP and FL tasks saw those colors and
        the study found them "very helpful".  A colored rule converts
        directly into an insight; it gets a high evidence weight because it
        is visually singled out rather than inferred from repetition.
        """
        target_set = set(targets)
        candidates: dict[Insight, int] = {}
        for rule in covered_rules:
            items = list(rule.items)
            target_items = [item for item in items if item[0] in target_set]
            other_items = [item for item in items if item[0] not in target_set]
            if not other_items:
                continue
            if target_items:
                insight = Insight(frozenset(other_items), target_items[0])
            else:
                insight = Insight(frozenset(other_items))
            weight = self.min_evidence + rule.size
            candidates[insight] = max(candidates.get(insight, 0), weight)
        return candidates

    # -- reporting ------------------------------------------------------------
    def examine(
        self,
        subtable: SubTable,
        targets: Sequence[str] = (),
        covered_rules: Sequence = (),
    ) -> AnalystReport:
        """Read ``subtable`` (and any highlighted rules) and report insights."""
        counts = self._candidates(subtable, targets)
        noticeable = {
            insight: count
            for insight, count in counts.items()
            if count >= self.min_evidence
        }
        noticeable.update(self._rule_candidates(covered_rules, targets))
        if not noticeable:
            return AnalystReport(insights=[])
        insights = list(noticeable.keys())
        weights = np.array([noticeable[i] for i in insights], dtype=np.float64)
        weights = weights / weights.sum()
        n_report = min(self.max_insights, len(insights))
        chosen = self._rng.choice(
            len(insights), size=n_report, replace=False, p=weights
        )
        return AnalystReport(insights=[insights[i] for i in chosen])
