"""Tests for the fairness extension (group representation)."""

import pytest

from repro.core import GroupRepresentation, is_fair
from repro.core.fairness import (
    eligible_groups,
    enforce_representation,
    representation_counts,
)


class TestConstraint:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupRepresentation("KIND", min_per_group=0)
        with pytest.raises(ValueError):
            GroupRepresentation("KIND", min_group_share=1.0)

    def test_eligible_groups_respects_share(self, planted_binned):
        # every KIND group is >= 20% of the data
        constraint = GroupRepresentation("KIND", min_group_share=0.1)
        groups = eligible_groups(planted_binned, constraint)
        assert len(groups) == 3
        # an absurd share threshold exempts everything
        strict = GroupRepresentation("KIND", min_group_share=0.99)
        assert eligible_groups(planted_binned, strict) == []


class TestEnforcement:
    def _vectors(self, binned, fitted):
        return fitted.model.row_vectors(binned)

    def test_repair_adds_missing_group(self, planted_binned, fitted_subtab):
        kinds = planted_binned.frame.column("KIND").values
        # a selection containing only alpha rows
        alpha_rows = [i for i in range(len(kinds)) if kinds[i] == "alpha"][:6]
        constraint = GroupRepresentation("KIND")
        assert not is_fair(planted_binned, alpha_rows, constraint)
        repaired = enforce_representation(
            planted_binned, alpha_rows,
            self._vectors(planted_binned, fitted_subtab), constraint,
        )
        assert len(repaired) == 6
        assert is_fair(planted_binned, repaired, constraint)

    def test_fair_selection_unchanged(self, planted_binned, fitted_subtab):
        kinds = planted_binned.frame.column("KIND").values
        one_each = []
        for kind in ("alpha", "beta", "gamma"):
            one_each.append(next(i for i in range(len(kinds)) if kinds[i] == kind))
        constraint = GroupRepresentation("KIND")
        repaired = enforce_representation(
            planted_binned, one_each,
            self._vectors(planted_binned, fitted_subtab), constraint,
        )
        assert sorted(repaired) == sorted(one_each)

    def test_infeasible_budget_serves_largest(self, planted_binned, fitted_subtab):
        kinds = planted_binned.frame.column("KIND").values
        constraint = GroupRepresentation("KIND", min_per_group=2)
        # budget of 3 cannot host 2 rows of each of 3 groups
        start = [0, 1, 2]
        repaired = enforce_representation(
            planted_binned, start,
            self._vectors(planted_binned, fitted_subtab), constraint,
        )
        assert len(repaired) == 3

    def test_counts(self, planted_binned):
        constraint = GroupRepresentation("KIND")
        counts = representation_counts(planted_binned, [0, 1, 2], constraint)
        assert sum(counts.values()) == 3


class TestSubTabIntegration:
    def test_select_with_fairness(self, fitted_subtab):
        constraint = GroupRepresentation("KIND")
        result = fitted_subtab.select(k=6, l=4, fairness=constraint)
        assert result.shape == (6, 4)
        kinds = {
            fitted_subtab.frame.column("KIND")[i] for i in result.row_indices
        }
        assert kinds == {"alpha", "beta", "gamma"}
