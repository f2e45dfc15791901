"""Tests for the RBSim resource-bounded strong-simulation algorithm."""

import pytest

from repro.core.accuracy import pattern_accuracy
from repro.core.rbsim import RBSim, RBSimConfig, rbsim
from repro.core.rbsub import RBSub
from repro.graph.csr import CSRGraph, freeze
from repro.graph.neighborhood import NeighborhoodIndex
from repro.graph.subgraph import is_subgraph
from repro.matching.strong_simulation import strong_simulation
from repro.patterns.generator import embedded_pattern
from repro.workloads.queries import generate_pattern_workload


class TestRBSimExample1:
    def test_exact_answer_with_generous_budget(self, example1_graph, example1_query):
        answer = rbsim(example1_query, example1_graph, "Michael", alpha=0.9)
        assert answer.answer == {"cl3", "cl4"}

    def test_subgraph_is_within_budget_and_host(self, example1_graph, example1_query):
        matcher = RBSim(example1_graph, alpha=0.5)
        answer = matcher.answer(example1_query, "Michael")
        assert answer.budget is not None
        assert answer.budget.within_size_bound
        assert is_subgraph(answer.subgraph, example1_graph)
        assert answer.subgraph_size <= answer.budget.size_limit

    def test_small_alpha_gives_subset_answer(self, example1_graph, example1_query):
        exact = strong_simulation(example1_query, example1_graph, "Michael").answer
        answer = rbsim(example1_query, example1_graph, "Michael", alpha=0.12)
        assert answer.answer <= exact

    def test_missing_personalized_match(self, example1_graph, example1_query):
        answer = rbsim(example1_query, example1_graph, "nobody", alpha=0.5)
        assert answer.answer == set()
        assert answer.subgraph_size == 0

    def test_example2_small_budget_still_exact(self, example1_graph, example1_query):
        # Mirrors Example 2: a budget of ~16 items suffices for 100% accuracy.
        alpha = 16 / example1_graph.size()
        answer = rbsim(example1_query, example1_graph, "Michael", alpha=alpha)
        exact = strong_simulation(example1_query, example1_graph, "Michael").answer
        assert pattern_accuracy(exact, answer.answer).f_measure == 1.0


class TestRBSimOnSurrogates:
    def test_no_false_positives_wrt_exact(self, small_social_graph):
        workload = generate_pattern_workload(small_social_graph, (4, 6), count=3, seed=2)
        matcher = RBSim(small_social_graph, alpha=0.05)
        for query in workload:
            exact = strong_simulation(query.pattern, small_social_graph, query.personalized_match).answer
            approx = matcher.answer(query.pattern, query.personalized_match).answer
            assert approx <= exact, "RBSim must never report a node that is not an exact match"

    def test_generous_budget_reaches_full_accuracy(self, small_social_graph):
        pattern, vp = embedded_pattern(small_social_graph, 4, 5, seed=8)
        exact = strong_simulation(pattern, small_social_graph, vp).answer
        approx = rbsim(pattern, small_social_graph, vp, alpha=0.9).answer
        assert pattern_accuracy(exact, approx).f_measure == 1.0

    def test_accuracy_never_decreases_with_alpha_for_fixed_query(self, small_social_graph):
        pattern, vp = embedded_pattern(small_social_graph, 4, 6, seed=15)
        exact = strong_simulation(pattern, small_social_graph, vp).answer
        scores = []
        for alpha in (0.01, 0.2, 0.9):
            approx = rbsim(pattern, small_social_graph, vp, alpha=alpha).answer
            scores.append(pattern_accuracy(exact, approx).f_measure)
        assert scores[-1] == 1.0

    def test_shared_neighborhood_index_gives_same_answer(self, small_social_graph):
        graph = freeze(small_social_graph)
        index = NeighborhoodIndex(graph)
        shared = RBSim(graph, alpha=0.1, neighborhood_index=index)
        fresh = RBSim(small_social_graph, alpha=0.1)
        pattern, vp = embedded_pattern(small_social_graph, 4, 5, seed=4)
        assert shared.answer(pattern, vp).answer == fresh.answer(pattern, vp).answer

    @pytest.mark.parametrize("matcher_class", [RBSim, RBSub])
    def test_an_index_over_another_graph_is_refused(self, small_social_graph, matcher_class):
        graph = freeze(small_social_graph)
        assert matcher_class(graph, 0.1, neighborhood_index=NeighborhoodIndex(graph)).graph is graph
        # Each freezes the DiGraph anew: the index would read another graph's rows.
        with pytest.raises(ValueError):
            matcher_class(small_social_graph, 0.1, neighborhood_index=NeighborhoodIndex(small_social_graph))
        with pytest.raises(ValueError):
            matcher_class(graph, 0.1, neighborhood_index=NeighborhoodIndex(freeze(small_social_graph)))

    def test_visit_bound_holds(self, small_social_graph):
        pattern, vp = embedded_pattern(small_social_graph, 4, 5, seed=6)
        matcher = RBSim(small_social_graph, alpha=0.05)
        answer = matcher.answer(pattern, vp)
        assert answer.budget.visited <= answer.budget.visit_limit * 1.0 + small_social_graph.max_degree()


class TestRBSimConfig:
    def test_properties_exposed(self, example1_graph):
        matcher = RBSim(example1_graph, alpha=0.3)
        assert matcher.alpha == 0.3
        assert isinstance(matcher.graph, CSRGraph)  # frozen on entry, order exact
        assert list(matcher.graph.edges()) == list(example1_graph.edges())

    def test_unanchored_mode_returns_some_answer(self, example1_graph, example1_query):
        config = RBSimConfig(allow_unanchored=True)
        matcher = RBSim(example1_graph, alpha=0.9, config=config)
        answer = matcher.answer(example1_query, personalized_match=None)
        # The unanchored extension seeds from a label-based guess; it must not
        # crash and must stay within budget.
        assert answer.budget is None or answer.budget.within_size_bound

    def test_anchored_mode_requires_match(self, example1_graph, example1_query):
        matcher = RBSim(example1_graph, alpha=0.5)
        answer = matcher.answer(example1_query, personalized_match=None)
        assert answer.answer == set()

    def test_reduce_only_entry_point(self, example1_graph, example1_query):
        matcher = RBSim(example1_graph, alpha=0.5)
        reduction = matcher.reduce(example1_query, "Michael")
        assert reduction.subgraph.num_nodes() >= 1
