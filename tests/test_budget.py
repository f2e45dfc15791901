"""Tests for resource budgets and budget reports."""

import pytest

from repro.core.budget import BudgetReport, ResourceBudget, snapshot
from repro.exceptions import BudgetError


class TestResourceBudget:
    def test_limits_follow_alpha(self):
        budget = ResourceBudget(alpha=0.1, graph_size=1000, visit_coefficient=2.0)
        assert budget.size_limit == 100
        assert budget.visit_limit == 200

    def test_limits_are_computed_once_at_construction(self):
        budget = ResourceBudget(alpha=0.25, graph_size=1000, visit_coefficient=3.0)
        assert vars(budget)["size_limit"] == 250  # stored, not derived per call
        assert vars(budget)["visit_limit"] == 750
        budget.charge_storage(249)
        assert budget.can_store(1) and not budget.can_store(2)
        assert snapshot(budget).size_limit == 250

    def test_limits_are_at_least_one(self):
        budget = ResourceBudget(alpha=0.0001, graph_size=100)
        assert budget.size_limit == 1
        assert budget.visit_limit == 1

    def test_invalid_parameters(self):
        with pytest.raises(BudgetError):
            ResourceBudget(alpha=0.0, graph_size=10)
        with pytest.raises(BudgetError):
            ResourceBudget(alpha=1.5, graph_size=10)
        with pytest.raises(BudgetError):
            ResourceBudget(alpha=0.5, graph_size=-1)
        with pytest.raises(BudgetError):
            ResourceBudget(alpha=0.5, graph_size=10, visit_coefficient=0)

    def test_alpha_one_allowed_for_baselines(self):
        budget = ResourceBudget(alpha=1.0, graph_size=50)
        assert budget.size_limit == 50

    def test_charging_and_exhaustion(self):
        budget = ResourceBudget(alpha=0.5, graph_size=10)
        assert budget.size_limit == 5
        assert not budget.storage_exhausted()
        budget.charge_storage(3)
        assert budget.storage_remaining() == 2
        assert budget.can_store(2)
        assert not budget.can_store(3)
        budget.charge_storage(2)
        assert budget.storage_exhausted()
        assert budget.utilisation() == pytest.approx(1.0)

    def test_visit_charging(self):
        budget = ResourceBudget(alpha=0.5, graph_size=10, visit_coefficient=3)
        assert budget.visit_limit == 15
        budget.charge_visit(10)
        assert not budget.visits_exhausted()
        budget.charge_visit(5)
        assert budget.visits_exhausted()
        assert budget.visited == 15

    def test_negative_charges_rejected(self):
        budget = ResourceBudget(alpha=0.5, graph_size=10)
        with pytest.raises(BudgetError):
            budget.charge_visit(-1)
        with pytest.raises(BudgetError):
            budget.charge_storage(-1)

    def test_released_storage_frees_room_but_never_more_than_was_charged(self):
        budget = ResourceBudget(alpha=0.5, graph_size=10)
        budget.charge_storage(5)
        assert budget.storage_exhausted()
        budget.release_storage(2)
        assert (budget.stored, budget.storage_remaining()) == (3, 2)
        with pytest.raises(BudgetError):
            budget.release_storage(4)
        with pytest.raises(BudgetError):
            budget.release_storage(-1)
        assert budget.stored == 3

    def test_reset(self):
        budget = ResourceBudget(alpha=0.5, graph_size=10)
        budget.charge_storage(2)
        budget.charge_visit(4)
        budget.reset()
        assert budget.stored == 0
        assert budget.visited == 0


class TestBudgetReport:
    def test_snapshot_reflects_state(self):
        budget = ResourceBudget(alpha=0.2, graph_size=100, visit_coefficient=2)
        budget.charge_storage(10)
        budget.charge_visit(30)
        report = snapshot(budget)
        assert isinstance(report, BudgetReport)
        assert report.stored == 10
        assert report.visited == 30
        assert report.within_size_bound
        assert report.within_visit_bound
        assert report.fraction_of_graph_visited == pytest.approx(0.3)

    def test_report_flags_violations(self):
        report = BudgetReport(
            alpha=0.1, graph_size=100, size_limit=10, visit_limit=20, stored=11, visited=25
        )
        assert not report.within_size_bound
        assert not report.within_visit_bound

    def test_fraction_of_empty_graph(self):
        report = BudgetReport(alpha=0.1, graph_size=0, size_limit=1, visit_limit=1, stored=0, visited=0)
        assert report.fraction_of_graph_visited == 0.0
