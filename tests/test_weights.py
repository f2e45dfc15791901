"""Tests for guarded conditions and the cost/potential weight estimator."""

import pytest

from repro.core.weights import IsomorphismGuard, SimulationGuard, WeightEstimator
from repro.graph.digraph import DiGraph
from repro.graph.neighborhood import NeighborhoodIndex
from repro.patterns.pattern import make_pattern


@pytest.fixture
def sim_guard(example1_graph, example1_query):
    return SimulationGuard(
        example1_query, example1_graph, "Michael", NeighborhoodIndex(example1_graph)
    )


@pytest.fixture
def iso_guard(example1_graph, example1_query):
    return IsomorphismGuard(
        example1_query, example1_graph, "Michael", NeighborhoodIndex(example1_graph)
    )


class TestSimulationGuard:
    def test_personalized_pinned_by_identity(self, sim_guard):
        assert sim_guard.check("Michael", "Michael")
        assert not sim_guard.check("cc1", "Michael")

    def test_label_mismatch_fails(self, sim_guard):
        assert not sim_guard.check("hg1", "CC")

    def test_cc_without_cl_child_fails(self, sim_guard):
        # The paper's Example 4: cc2 is ruled out because it has no CL child.
        assert sim_guard.check("cc1", "CC")
        assert sim_guard.check("cc3", "CC")
        assert not sim_guard.check("cc2", "CC")

    def test_cl_needs_cc_and_hg_parents(self, sim_guard):
        assert sim_guard.check("cl3", "CL")
        assert sim_guard.check("cl4", "CL")
        assert not sim_guard.check("cl2", "CL")  # no parents at all
        assert not sim_guard.check("cl1", "CL")  # HG parent only

    def test_guard_is_necessary_not_sufficient(self, example1_graph, example1_query, sim_guard):
        # hg1 passes the guard (Michael parent + CL child) but is not a match
        # because its CL child is not itself a match — the guard only filters.
        assert sim_guard.check("hg1", "HG")

    def test_personalized_neighbor_requirement(self, example1_graph):
        # Query node whose parent is the personalized node: candidates must be
        # actual children of vp, not just have some Michael-labelled parent.
        pattern = make_pattern(
            {"m": "Michael", "c": "CC"}, [("m", "c")], personalized="m", output="c"
        )
        guard = SimulationGuard(pattern, example1_graph, "Michael", NeighborhoodIndex(example1_graph))
        assert guard.check("cc1", "c")

    def test_results_are_memoised(self, sim_guard):
        assert sim_guard.check("cc1", "CC")
        assert ("cc1", "CC") in sim_guard._cache
        assert sim_guard.check("cc1", "CC")  # second call hits the cache


class TestIsomorphismGuard:
    def test_degree_requirement(self, iso_guard):
        # CC needs at least one parent and one child in the data graph.
        assert iso_guard.check("cc1", "CC")
        assert not iso_guard.check("cc2", "CC")

    def test_label_mismatch_fails(self, iso_guard):
        assert not iso_guard.check("hg1", "CC")

    def test_distinct_neighbor_requirement(self):
        # Query: A with two distinct B children; data node with a single B
        # child fails the distinctness check even though a label exists.
        pattern = make_pattern({0: "A", 1: "B", 2: "B"}, [(0, 1), (0, 2)], personalized=0, output=1)
        graph = DiGraph()
        graph.add_node("a1", "A")
        graph.add_node("b", "B")
        graph.add_edge("a1", "b")
        graph.add_node("a2", "A")
        graph.add_node("b1", "B")
        graph.add_node("b2", "B")
        graph.add_edge("a2", "b1")
        graph.add_edge("a2", "b2")
        guard = IsomorphismGuard(pattern, graph, "a1", NeighborhoodIndex(graph))
        assert not guard.check("a1", 0)
        guard2 = IsomorphismGuard(pattern, graph, "a2", NeighborhoodIndex(graph))
        assert guard2.check("a2", 0)

    def test_degree_dominance_of_neighbors(self):
        # The query child has degree 2, so the data child must have degree >= 2.
        pattern = make_pattern(
            {0: "A", 1: "B", 2: "C"}, [(0, 1), (1, 2)], personalized=0, output=2
        )
        graph = DiGraph()
        graph.add_node("a", "A")
        graph.add_node("b_low", "B")
        graph.add_edge("a", "b_low")  # b_low has degree 1 < 2
        guard = IsomorphismGuard(pattern, graph, "a", NeighborhoodIndex(graph))
        assert not guard.check("a", 0)


def estimator_with(graph, query, guard, members=(), **options):
    """A search state whose ``G_Q`` holds ``members``, admitted in order."""
    estimator = WeightEstimator(query, graph, "Michael", guard, **options)
    for member in members:
        estimator.admit(member)
    return estimator


class TestWeightEstimator:
    def test_cost_drops_as_gq_grows(self, example1_graph, example1_query, sim_guard):
        # cc1 needs a Michael parent and a CL child; nothing in G_Q plays either yet.
        empty = estimator_with(example1_graph, example1_query, sim_guard)
        assert empty.cost("cc1", "CC") == 2
        partial = estimator_with(example1_graph, example1_query, sim_guard, ["Michael"])
        assert partial.cost("cc1", "CC") == 1
        partial.admit("cl3")  # one more node joining updates the cost in place
        assert partial.cost("cc1", "CC") == 0

    def test_potential_counts_useful_neighbors(self, example1_graph, example1_query, sim_guard):
        estimator = estimator_with(example1_graph, example1_query, sim_guard)
        # cc3's neighbours outside G_Q: Michael (candidate for Michael query
        # node? no — pinned), cl3, cl4 (candidates for CL).
        potential = estimator.potential("cc3", "CC")
        assert potential >= 2

    def test_potential_excludes_gq_members(self, example1_graph, example1_query, sim_guard):
        estimator = estimator_with(example1_graph, example1_query, sim_guard)
        full = estimator.potential("cc3", "CC")
        estimator.admit("cl3")
        estimator.admit("cl4")
        assert estimator.potential("cc3", "CC") < full

    def test_weight_prefers_high_potential_low_cost(self, example1_graph, example1_query, sim_guard):
        estimator = estimator_with(example1_graph, example1_query, sim_guard, ["Michael"])
        assert estimator.weight("cc3", "CC") > estimator.weight("cc2", "CC")

    def test_scan_cap_bounds_potential(self, example1_graph, example1_query, sim_guard):
        estimator = estimator_with(example1_graph, example1_query, sim_guard, max_scan=1)
        assert estimator.potential("cc3", "CC") <= 1
