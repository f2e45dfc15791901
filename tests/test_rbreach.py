"""Tests for the RBReach resource-bounded reachability algorithm."""

import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import path_graph, preferential_attachment_graph
from repro.graph.traversal import bidirectional_reachable
from repro.reachability.hierarchy import build_index
from repro.reachability.rbreach import RBReach, _candidates, rbreach
from repro.workloads.queries import generate_reachability_workload


@pytest.fixture(scope="module")
def social_graph():
    return preferential_attachment_graph(800, edges_per_node=2, seed=5, back_edge_probability=0.05)


@pytest.fixture(scope="module")
def reach(social_graph):
    return RBReach(build_index(social_graph, alpha=0.1))


class TestSoundness:
    def test_never_returns_false_positive(self, social_graph, reach):
        workload = generate_reachability_workload(social_graph, count=80, seed=3)
        for pair in workload.pairs:
            if reach.query(*pair).reachable:
                assert bidirectional_reachable(social_graph, *pair), (
                    f"RBReach returned a false positive for {pair}"
                )

    def test_same_scc_pairs_are_true(self, two_cycle_graph):
        matcher = RBReach.from_graph(two_cycle_graph, alpha=0.9)
        assert matcher.query(0, 2).reachable
        assert matcher.query(3, 5).reachable

    def test_unknown_nodes_answer_false(self, reach):
        assert not reach.query("ghost", "other-ghost").reachable

    def test_rank_pruning_rejects_impossible_direction(self):
        graph = path_graph(6)
        matcher = RBReach.from_graph(graph, alpha=0.9)
        answer = matcher.query(5, 0)
        assert not answer.reachable
        assert answer.visited <= 1  # rejected by the rank check alone

    def test_rank_window_prunes_index_neighbours(self, diamond_dag):
        """Lemma 5(2) per landmark: a neighbour ranked outside ``[vo.r, vp.r]`` never enters a frontier."""
        matcher = RBReach.from_graph(diamond_dag, alpha=1.0)
        a, c, d = map(matcher.index.compressed.component_of, "acd")
        rows, forward, _ = matcher._landmark_rows()
        assert set(forward[a]) == {c, d}
        assert (rows[a].rank, rows[c].rank, rows[d].rank) == (3, 2, 1)

        def admitted(low, high):
            return {node for _, _, node in _candidates(rows, forward[a], {a}, low, high)}

        assert admitted(0, 3) == {c, d}
        assert admitted(2, 3) == {c}  # d ranks below a query target of rank 2
        assert admitted(1, 1) == {d}  # c ranks above a query source of rank 1
        assert admitted(3, 3) == set()
        assert matcher.query("a", "c").met_at == c


class TestRecall:
    def test_generous_index_answers_path_queries(self):
        graph = path_graph(30)
        matcher = RBReach.from_graph(graph, alpha=0.9)
        assert matcher.query(0, 30).reachable
        assert matcher.query(5, 25).reachable
        assert not matcher.query(30, 0).reachable

    def test_accuracy_reasonable_on_social_graph(self, social_graph, reach):
        from repro.core.accuracy import boolean_accuracy

        workload = generate_reachability_workload(social_graph, count=80, seed=7)
        answers = reach.query_many(workload.pairs)
        report = boolean_accuracy(workload.truth, answers)
        assert report.precision >= 0.95
        assert report.recall >= 0.7

    def test_larger_alpha_never_much_worse(self, social_graph):
        from repro.core.accuracy import boolean_accuracy

        workload = generate_reachability_workload(social_graph, count=60, seed=9)
        small = RBReach(build_index(social_graph, alpha=0.02)).query_many(workload.pairs)
        large = RBReach(build_index(social_graph, alpha=0.3)).query_many(workload.pairs)
        small_acc = boolean_accuracy(workload.truth, small).f_measure
        large_acc = boolean_accuracy(workload.truth, large).f_measure
        assert large_acc >= small_acc - 0.05


class TestResourceBound:
    def test_visit_limit_respected(self, social_graph, reach):
        workload = generate_reachability_workload(social_graph, count=40, seed=11)
        for pair in workload.pairs:
            answer = reach.query(*pair)
            assert answer.visited <= reach.visit_limit + 1

    def test_visit_limit_equals_budget(self, reach):
        assert reach.visit_limit == max(1, reach.index.size_budget)

    def test_query_many_returns_all_pairs(self, social_graph, reach):
        workload = generate_reachability_workload(social_graph, count=20, seed=13)
        answers = reach.query_many(workload.pairs)
        assert set(answers) == set(workload.pairs)


class TestConvenience:
    def test_rbreach_wrapper(self):
        graph = path_graph(10)
        assert rbreach(graph, 0.9, 0, 10) is True
        assert rbreach(graph, 0.9, 10, 0) is False

    def test_from_graph_builds_index(self, two_cycle_graph):
        matcher = RBReach.from_graph(two_cycle_graph, alpha=0.5)
        assert matcher.index.size_budget >= 2
        assert matcher.query(0, 4).reachable  # 0 -> 2 -> 3 -> 4 via bridge
