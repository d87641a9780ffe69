"""Association-rule highlighting for sub-table display (paper Figures 1, 3).

The paper's UI colors, in each sub-table row, the cells participating in one
association rule that holds for that row ("to avoid visual clutter we only
highlight one rule per row").  We reproduce that with ANSI colors: for every
selected row we pick the *largest* covered rule holding for it (ties broken
by confidence), assign rules distinct colors, and decorate the rendered grid.
"""

from __future__ import annotations

from typing import Optional

from repro.core.result import SubTable
from repro.metrics.coverage import CoverageEvaluator

ANSI_COLORS = [
    "\033[48;5;208m",  # orange (the paper's first example rule)
    "\033[48;5;33m",   # blue (the paper's second example rule)
    "\033[48;5;40m",   # green
    "\033[48;5;170m",  # violet
    "\033[48;5;220m",  # gold
    "\033[48;5;45m",   # cyan
]
ANSI_RESET = "\033[0m"


class RuleHighlighter:
    """Maps each sub-table row to at most one covered rule for coloring."""

    def __init__(self, evaluator: CoverageEvaluator, subtable: SubTable):
        self._evaluator = evaluator
        self._subtable = subtable
        self._rule_per_row = self._pick_rules()
        self._colors = self._assign_colors()

    # -- rule selection ----------------------------------------------------------
    def _pick_rules(self) -> list[Optional[int]]:
        """Pick one covered pattern per sub-table row (largest, then surest)."""
        evaluator = self._evaluator
        covered = set(
            evaluator.covered_pattern_ids(
                self._subtable.row_indices, self._subtable.columns
            )
        )
        picks: list[Optional[int]] = []
        for global_row in self._subtable.row_indices:
            holding = [
                pattern_id
                for pattern_id in evaluator.patterns_holding_for_row(global_row)
                if pattern_id in covered
            ]
            if not holding:
                picks.append(None)
                continue
            best = max(holding, key=self._pattern_rank)
            picks.append(best)
        return picks

    def _pattern_rank(self, pattern_id: int) -> tuple:
        rule = self._best_rule(pattern_id)
        return (rule.size, rule.confidence)

    def _best_rule(self, pattern_id: int):
        """The most confident rule split of a pattern (for the legend)."""
        return max(
            self._evaluator.rules_of_pattern(pattern_id),
            key=lambda rule: rule.confidence,
        )

    def _assign_colors(self) -> dict[int, str]:
        colors: dict[int, str] = {}
        for pattern_id in self._rule_per_row:
            if pattern_id is not None and pattern_id not in colors:
                colors[pattern_id] = ANSI_COLORS[len(colors) % len(ANSI_COLORS)]
        return colors

    # -- rendering ------------------------------------------------------------
    @property
    def highlighted_rules(self) -> list:
        """The distinct rules that received a color, in color order."""
        return [self._best_rule(pattern_id) for pattern_id in self._colors]

    def rule_for_row(self, position: int):
        """The rule highlighted on sub-table row ``position`` (or None)."""
        pattern_id = self._rule_per_row[position]
        return None if pattern_id is None else self._best_rule(pattern_id)

    def decorate(self, row: int, col: int, text: str) -> str:
        """Cell decorator compatible with :func:`repro.frame.render_grid`."""
        pattern_id = self._rule_per_row[row]
        if pattern_id is None:
            return text
        column_name = self._subtable.columns[col]
        if column_name not in self._evaluator.pattern_columns(pattern_id):
            return text
        return f"{self._colors[pattern_id]}{text}{ANSI_RESET}"

    def legend(self) -> str:
        """One line per highlighted rule, prefixed by its color swatch."""
        lines = []
        for pattern_id, color in self._colors.items():
            rule = self._best_rule(pattern_id)
            lines.append(f"{color}  {ANSI_RESET} {rule}")
        return "\n".join(lines)

    def render(self, with_legend: bool = True) -> str:
        """The highlighted sub-table, optionally followed by the rule legend."""
        body = self._subtable.to_string(decorate=self.decorate)
        if with_legend and self._colors:
            return f"{body}\n\nHighlighted rules:\n{self.legend()}"
        return body


def highlight(
    subtable: SubTable,
    evaluator: CoverageEvaluator,
    with_legend: bool = True,
) -> str:
    """Convenience wrapper: render ``subtable`` with rule highlighting."""
    return RuleHighlighter(evaluator, subtable).render(with_legend=with_legend)
