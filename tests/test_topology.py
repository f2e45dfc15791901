"""Tests for topological ranks (the level peel over a CSR mirror) and the rank index."""

import pytest
from prepare_oracle import oracle_topological_ranks, verify_rank_invariant

from repro.exceptions import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import cycle_graph, layered_dag, path_graph
from repro.graph.topology import TopologicalRankIndex, csr_topological_ranks


def rank_index(dag: DiGraph) -> TopologicalRankIndex:
    return TopologicalRankIndex.from_mirror(CSRGraph.from_digraph(dag))


def ranks_of(dag: DiGraph):
    return rank_index(dag).ranks()


class TestTopologicalSort:
    def test_cycle_raises(self):
        with pytest.raises(GraphError):
            csr_topological_ranks(CSRGraph.from_digraph(cycle_graph(3)))

    def test_empty_graph(self):
        assert ranks_of(DiGraph()) == {}

    def test_ranks_match_the_oracle_on_a_layered_dag(self):
        dag = layered_dag(layers=6, width=5, seed=4)
        assert ranks_of(dag) == oracle_topological_ranks(dag)


class TestRanks:
    def test_path_ranks_decrease_towards_sink(self):
        assert ranks_of(path_graph(3)) == {0: 3, 1: 2, 2: 1, 3: 0}

    def test_diamond_ranks(self, diamond_dag):
        ranks = ranks_of(diamond_dag)
        assert ranks["e"] == 0
        assert ranks["d"] == 1
        assert ranks["b"] == ranks["c"] == 2
        assert ranks["a"] == 3

    def test_rank_invariant_holds(self, diamond_dag):
        assert verify_rank_invariant(diamond_dag, ranks_of(diamond_dag))

    def test_rank_invariant_detects_wrong_ranks(self, diamond_dag):
        wrong = ranks_of(diamond_dag)
        wrong["a"] = 0
        assert not verify_rank_invariant(diamond_dag, wrong)

    def test_edges_strictly_decrease_rank(self, diamond_dag):
        ranks = ranks_of(diamond_dag)
        for source, target in diamond_dag.edges():
            assert ranks[source] > ranks[target]

    def test_longest_path_length(self, diamond_dag):
        assert rank_index(diamond_dag).max_rank == 3
        assert rank_index(path_graph(7)).max_rank == 7


class TestRankIndex:
    def test_exposes_maxima(self, diamond_dag):
        index = rank_index(diamond_dag)
        assert index.max_rank == 3
        assert index.max_degree == diamond_dag.max_degree()
        assert index.rank("d") == 1
        assert index.ranks()["a"] == 3

    def test_selection_score_normalised(self, diamond_dag):
        index = rank_index(diamond_dag)
        scores = {node: index.selection_score(node) for node in diamond_dag.nodes()}
        assert all(score >= 0 for score in scores.values())
        assert scores["e"] == 0  # rank 0 sink
        assert scores["d"] > 0

    def test_selection_score_single_node_graph(self):
        graph = DiGraph()
        graph.add_node("only", "X")
        assert rank_index(graph).selection_score("only") == 0.0
