"""Additional edge-case coverage for the dynamic reduction and its weights."""

import numpy as np
import pytest

from repro.core.budget import ResourceBudget
from repro.core.rbsim import RBSim, RBSimConfig, rbsim
from repro.core.rbsub import RBSub
from repro.core.reduction import DynamicReducer
from repro.core.weights import IsomorphismGuard, SimulationGuard
from repro.graph.digraph import DiGraph
from repro.graph.generators import complete_bipartite_graph, star_graph
from repro.graph.neighborhood import NeighborhoodIndex
from repro.matching.strong_simulation import simulation_witnesses
from repro.patterns.pattern import make_pattern


class TestDegenerateQueries:
    def test_single_edge_pattern_on_star(self):
        graph = star_graph(12)
        pattern = make_pattern({0: "HUB", 1: "LEAF"}, [(0, 1)], personalized=0, output=1)
        # The per-query-node bound b grows by one per pass, and the cut Pick at
        # the hub resumes until it has given every leaf: with a budget large
        # enough to hold the whole star (alpha = 1) all 12 are found.
        answer = rbsim(pattern, graph, 0, alpha=1.0)
        assert answer.answer == set(range(1, 13))
        # Below that the answer is a budget-bounded subset.
        capped = rbsim(pattern, graph, 0, alpha=0.9)
        assert capped.answer
        assert capped.answer <= answer.answer

    def test_single_edge_pattern_with_tiny_budget(self):
        graph = star_graph(12)
        pattern = make_pattern({0: "HUB", 1: "LEAF"}, [(0, 1)], personalized=0, output=1)
        answer = rbsim(pattern, graph, 0, alpha=0.2)  # budget of 5 items
        assert answer.answer  # some leaves found
        assert answer.answer < set(range(1, 13))  # but not all: budget binds
        assert answer.subgraph_size <= max(1, int(0.2 * graph.size()))

    def test_pattern_label_absent_from_graph(self):
        graph = star_graph(5)
        pattern = make_pattern({0: "HUB", 1: "GHOST"}, [(0, 1)], personalized=0, output=1)
        answer = rbsim(pattern, graph, 0, alpha=0.9)
        assert answer.answer == set()
        # Only the personalized node itself can enter G_Q.
        assert answer.subgraph.num_nodes() <= 1

    def test_backward_query_edge(self):
        # Query: output node is a *parent* of the personalized node.
        graph = DiGraph()
        graph.add_node("boss", "B")
        graph.add_node("me", "M")
        graph.add_node("other", "B")
        graph.add_edge("boss", "me")
        graph.add_edge("other", "boss")
        pattern = make_pattern({"m": "M", "b": "B"}, [("b", "m")], personalized="m", output="b")
        answer = rbsim(pattern, graph, "me", alpha=0.9)
        assert answer.answer == {"boss"}

    def test_dense_bipartite_respects_budget(self):
        graph = complete_bipartite_graph(6, 6)
        pattern = make_pattern({0: "L", 1: "R"}, [(0, 1)], personalized=0, output=1)
        alpha = 0.25
        answer = rbsim(pattern, graph, ("l", 0), alpha=alpha)
        assert answer.subgraph_size <= max(1, int(alpha * graph.size()))
        assert answer.answer <= {("r", index) for index in range(6)}


class TestReducerConfiguration:
    def test_initial_bound_one_resumes_until_a_stop(self, example1_graph, example1_query):
        index = NeighborhoodIndex(example1_graph)
        guard = SimulationGuard(example1_query, index.graph, "Michael", index)
        # alpha 0.7 (16 items) binds: the unweighted pass fills G_Q, so the
        # weighted search restarts, at b = 1.
        budget = ResourceBudget(alpha=0.7, graph_size=example1_graph.size(), visit_coefficient=10)
        reducer = DynamicReducer(
            example1_query, index.graph, "Michael", guard, budget, simulation_witnesses,
            initial_bound=1,
        )
        result = reducer.search()
        assert result.stop in {"storage", "visits", "fixpoint"}
        assert result.restarted and result.passes >= 2 and result.repicks
        assert result.final_bound == result.passes  # b = 1 in pass 1, one more per pass
        assert "Michael" in result.subgraph

    def test_max_depth_zero_limits_to_personalized_node(self, example1_graph, example1_query):
        index = NeighborhoodIndex(example1_graph)
        guard = SimulationGuard(example1_query, index.graph, "Michael", index)
        budget = ResourceBudget(alpha=0.9, graph_size=example1_graph.size(), visit_coefficient=10)
        reducer = DynamicReducer(
            example1_query, index.graph, "Michael", guard, budget, simulation_witnesses,
            max_depth=0,
        )
        result = reducer.search()
        assert set(result.subgraph.nodes()) == {"Michael"}

    def test_rbsim_config_is_frozen(self):
        config = RBSimConfig()
        with pytest.raises(Exception):
            config.initial_bound = 99  # type: ignore[misc]

    def test_rbsub_takes_the_rbsim_config(self):
        config = RBSimConfig(initial_bound=3)
        assert RBSub(star_graph(4), 0.5, config=config)._config is config
        assert RBSub(star_graph(4), 0.5)._config == RBSimConfig()

    def test_isomorphism_guard_on_star_center(self):
        graph = star_graph(4)
        pattern = make_pattern({0: "HUB", 1: "LEAF", 2: "LEAF"}, [(0, 1), (0, 2)], personalized=0, output=1)
        index = NeighborhoodIndex(graph)
        guard = IsomorphismGuard(pattern, index.graph, 0, index)
        rows = np.array([index.graph.index_of(0), index.graph.index_of(1)])
        assert guard.check_rows(rows, 0).tolist() == [True, False]  # a leaf cannot host the hub query node

    def test_matchers_reusable_across_queries(self, example1_graph, example1_query):
        sim = RBSim(example1_graph, alpha=0.9)
        sub = RBSub(example1_graph, alpha=0.9)
        first = sim.answer(example1_query, "Michael").answer
        second = sim.answer(example1_query, "Michael").answer
        assert first == second == {"cl3", "cl4"}
        assert sub.answer(example1_query, "Michael").answer == {"cl3", "cl4"}
