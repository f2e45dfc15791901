"""Tests for the dynamic reduction (Search / Pick) machinery."""

import pytest

from repro.core.budget import ResourceBudget
from repro.core.reduction import DynamicReducer
from repro.core.weights import Remainder, SimulationGuard, WeightEstimator
from repro.graph.digraph import DiGraph
from repro.graph.neighborhood import NeighborhoodIndex
from repro.graph.subgraph import is_subgraph
from repro.patterns.pattern import make_pattern


def make_reducer(graph, pattern, vp, alpha, visit_coefficient=None, **kwargs):
    index = NeighborhoodIndex(graph)
    guard = SimulationGuard(pattern, graph, vp, index)
    budget = ResourceBudget(
        alpha=alpha, graph_size=graph.size(), visit_coefficient=visit_coefficient or graph.max_degree() or 1
    )
    return DynamicReducer(
        pattern=pattern,
        graph=graph,
        personalized_match=vp,
        guard=guard,
        budget=budget,
        **kwargs,
    ), budget


class TestSearch:
    def test_subgraph_respects_size_budget(self, example1_graph, example1_query):
        reducer, budget = make_reducer(example1_graph, example1_query, "Michael", alpha=0.5)
        result = reducer.search()
        assert result.subgraph.size() <= budget.size_limit
        assert result.budget.within_size_bound

    def test_result_is_subgraph_of_host(self, example1_graph, example1_query):
        reducer, _ = make_reducer(example1_graph, example1_query, "Michael", alpha=0.9)
        result = reducer.search()
        assert is_subgraph(result.subgraph, example1_graph)

    def test_contains_personalized_match(self, example1_graph, example1_query):
        reducer, _ = make_reducer(example1_graph, example1_query, "Michael", alpha=0.9)
        assert "Michael" in reducer.search().subgraph

    def test_excludes_guard_failures(self, example1_graph, example1_query):
        reducer, _ = make_reducer(example1_graph, example1_query, "Michael", alpha=0.9)
        subgraph = reducer.search().subgraph
        assert "cc2" not in subgraph  # no CL child
        assert "cl2" not in subgraph  # no parents

    def test_captures_the_match_region(self, example1_graph, example1_query):
        reducer, _ = make_reducer(example1_graph, example1_query, "Michael", alpha=0.9)
        subgraph = reducer.search().subgraph
        for node in ("cc1", "cc3", "hg3", "cl3", "cl4"):
            assert node in subgraph

    def test_missing_personalized_match_returns_empty(self, example1_graph, example1_query):
        reducer, _ = make_reducer(example1_graph, example1_query, "nobody", alpha=0.5)
        result = reducer.search()
        assert result.subgraph.size() == 0
        assert result.passes == 0

    def test_tiny_budget_still_bounded(self, example1_graph, example1_query):
        reducer, budget = make_reducer(example1_graph, example1_query, "Michael", alpha=0.1)
        result = reducer.search()
        assert result.subgraph.size() <= budget.size_limit

    def test_bound_grows_over_passes(self, example1_graph, example1_query):
        reducer, _ = make_reducer(
            example1_graph, example1_query, "Michael", alpha=0.9, initial_bound=1
        )
        result = reducer.search()
        assert result.passes >= 1
        # One pass at b = 1, then one more per resume at b + 1.
        assert result.final_bound == 1 + result.passes - 1

    def test_candidate_counts_track_added_nodes(self, example1_graph, example1_query):
        reducer, _ = make_reducer(example1_graph, example1_query, "Michael", alpha=0.9)
        result = reducer.search()
        assert result.candidate_counts["Michael"] == 1
        assert sum(result.candidate_counts.values()) == result.subgraph.num_nodes()

    def test_depth_restriction_keeps_gq_in_ball(self, small_social_graph):
        from repro.graph.neighborhood import nodes_within_hops
        from repro.patterns.generator import embedded_pattern

        pattern, vp = embedded_pattern(small_social_graph, 4, 5, seed=3)
        reducer, _ = make_reducer(small_social_graph, pattern, vp, alpha=0.3)
        subgraph = reducer.search().subgraph
        ball_nodes = nodes_within_hops(small_social_graph, vp, pattern.diameter())
        assert set(subgraph.nodes()) <= ball_nodes

    def test_visit_accounting_is_positive(self, example1_graph, example1_query):
        reducer, budget = make_reducer(example1_graph, example1_query, "Michael", alpha=0.9)
        reducer.search()
        assert budget.visited > 0


class TestAblationModes:
    def test_fifo_mode_still_bounded(self, example1_graph, example1_query):
        reducer, budget = make_reducer(
            example1_graph, example1_query, "Michael", alpha=0.5, use_weights=False
        )
        result = reducer.search()
        assert result.subgraph.size() <= budget.size_limit
        assert "Michael" in result.subgraph

    def test_guardless_mode_admits_label_matches_only(self, example1_graph, example1_query):
        reducer, _ = make_reducer(
            example1_graph, example1_query, "Michael", alpha=0.9, use_guard=False
        )
        subgraph = reducer.search().subgraph
        # Without the guard, cc2 (a CC-labelled child of Michael) may enter GQ.
        assert "Michael" in subgraph
        for node in subgraph.nodes():
            assert example1_graph.label(node) in {"Michael", "HG", "CC", "CL"}


class TestStopReason:
    """Why a search stopped, and the spend it reports beside it."""

    @staticmethod
    def fan(spokes: int):
        """``vp`` (label P) with ``spokes`` children labelled A; the pattern is ``p -> a``."""
        graph = DiGraph()
        graph.add_node("vp", "P")
        for position in range(spokes):
            graph.add_node(f"a{position}", "A")
            graph.add_edge("vp", f"a{position}")
        pattern = make_pattern({"p": "P", "a": "A"}, [("p", "a")], personalized="p", output="a")
        return graph, pattern

    def test_storage(self):
        graph, pattern = self.fan(5)  # |G| = 11, so alpha 0.3 allows 3 items
        reducer, budget = make_reducer(graph, pattern, "vp", alpha=0.3)
        result = reducer.search()
        # vp, then its best A and the edge between them: G_Q is full in pass 1,
        # with the Pick at vp (5 eligible, b = 2) still cut and holding three.
        assert (result.stop, result.passes, result.budget.stored) == ("storage", 1, 3)
        assert result.spend() == {
            "passes": 1,
            "stop": "storage",
            "cut": 1,
            "ungiven": 3,
            "stored": 3,
            "size_limit": 3,
            "visited": result.budget.visited,
            "visit_limit": budget.visit_limit,
        }

    def test_fixpoint(self):
        graph, pattern = self.fan(3)
        graph.add_node("b", "B")  # a child no query node asks for: G_Q never fills
        graph.add_edge("vp", "b")
        reducer, budget = make_reducer(graph, pattern, "vp", alpha=1.0)
        result = reducer.search()
        # Pass 1 takes two spokes (b = 2) and cuts the Pick at vp; pass 2
        # (b = 3) makes that Pick again, which gives the third spoke and
        # leaves nothing cut.
        assert (result.stop, result.passes, result.final_bound, result.cut, result.ungiven) == (
            "fixpoint", 2, 3, 0, 0
        )
        assert result.subgraph.num_nodes() == 4
        # vp, three spokes and three edges (7 items), and the Pick at vp
        # twice, charged |N(vp)| = 4 each time.  The allowance is
        # c * alpha * |G| with c = d_G = 4 and |G| = 9.
        assert (result.budget.visited, result.budget.visit_limit) == (15, 36)
        assert result.spend()["visit_limit"] == budget.visit_limit == 36

    def test_visits(self):
        graph, pattern = self.fan(5)  # |G| = 11: c = 0.75 allows 8 visits
        reducer, budget = make_reducer(graph, pattern, "vp", alpha=1.0, visit_coefficient=0.75)
        result = reducer.search()
        # vp (1), the Pick at vp (|N(vp)| = 5), the best spoke and its edge
        # (2): the next spoke's visit would pass the cap, long before storage
        # (11) fills or the cut Pick at vp runs out.
        assert (result.stop, result.passes, result.cut, result.ungiven) == ("visits", 1, 1, 3)
        assert (result.budget.visited, budget.visit_limit, result.budget.stored) == (8, 8, 3)
        assert result.subgraph.num_nodes() == 2

    def test_a_remainder_holds_what_its_pick_has_not_given(self):
        graph, pattern = self.fan(5)
        guard = SimulationGuard(pattern, graph, "vp", NeighborhoodIndex(graph))
        state = WeightEstimator(pattern, graph, "vp", guard)
        eligible = state.eligible("vp", "a")
        remainder = Remainder(state, eligible, "a", weighted=False)  # scan order
        assert remainder.take(2) == eligible[:2]
        assert (len(remainder), list(remainder)) == (3, eligible[2:])

    def test_missing_personalized_match(self, example1_graph, example1_query):
        reducer, _ = make_reducer(example1_graph, example1_query, "nobody", alpha=0.5)
        assert reducer.search().stop == "fixpoint"
