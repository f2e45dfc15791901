"""Tests for subgraph isomorphism (VF2 / VF2OPT) and candidate filters."""

import pytest

from reduction_oracle import embeddings
from repro.graph.digraph import DiGraph
from repro.graph.generators import complete_bipartite_graph
from repro.matching.filters import (
    degree_filtered_candidates,
    has_empty_candidate_set,
    label_candidates,
    structural_prune,
)
from repro.matching.vf2 import (
    embedding_witnesses,
    isomorphic_answer_in_subgraph,
    subgraph_isomorphism,
    vf2_opt,
)
from repro.patterns.pattern import make_pattern


class TestFilters:
    def test_label_candidates_pin_personalized(self, example1_graph, example1_query):
        candidates = label_candidates(example1_query, example1_graph, "Michael")
        assert candidates["Michael"] == {"Michael"}
        assert candidates["CC"] == {"cc1", "cc2", "cc3"}
        assert candidates["CL"] == {"cl1", "cl2", "cl3", "cl4"}

    def test_degree_filter_prunes_low_degree(self, example1_graph, example1_query):
        candidates = degree_filtered_candidates(example1_query, example1_graph, "Michael")
        # CC query node needs out-degree >= 1 (a CL child) and in-degree >= 1.
        assert "cc2" not in candidates["CC"]

    def test_structural_prune_converges_to_matches(self, example1_graph, example1_query):
        candidates = degree_filtered_candidates(example1_query, example1_graph, "Michael")
        pruned = structural_prune(example1_query, example1_graph, candidates)
        assert pruned["CL"] == {"cl3", "cl4"}
        assert pruned["HG"] == {"hg3"}

    def test_has_empty_candidate_set(self):
        assert has_empty_candidate_set({0: set(), 1: {1}})
        assert not has_empty_candidate_set({0: {2}, 1: {1}})


class TestSubgraphIsomorphism:
    def test_example1_answer(self, example1_graph, example1_query):
        result = subgraph_isomorphism(example1_query, example1_graph, "Michael")
        assert result.answer == {"cl3", "cl4"}
        assert list(result.embedding_of) == ["cl3", "cl4"]
        assert all(len(set(embedding.values())) == len(embedding) for embedding in result.embedding_of.values())

    def test_embeddings_respect_edges(self, example1_graph, example1_query):
        result = subgraph_isomorphism(example1_query, example1_graph, "Michael")
        for match, embedding in result.embedding_of.items():
            assert embedding[example1_query.output] == match
            for source, target in example1_query.edges:
                assert example1_graph.has_edge(embedding[source], embedding[target])

    def test_injectivity_required(self):
        # Pattern with two distinct B children; the data graph has only one B.
        pattern = make_pattern({0: "A", 1: "B", 2: "B"}, [(0, 1), (0, 2)], personalized=0, output=1)
        graph = DiGraph()
        graph.add_node("a", "A")
        graph.add_node("b", "B")
        graph.add_edge("a", "b")
        assert subgraph_isomorphism(pattern, graph, "a").answer == set()

    def test_two_b_children_found_when_present(self):
        pattern = make_pattern({0: "A", 1: "B", 2: "B"}, [(0, 1), (0, 2)], personalized=0, output=1)
        graph = DiGraph()
        graph.add_node("a", "A")
        graph.add_node("b1", "B")
        graph.add_node("b2", "B")
        graph.add_edge("a", "b1")
        graph.add_edge("a", "b2")
        assert subgraph_isomorphism(pattern, graph, "a").answer == {"b1", "b2"}

    def test_missing_personalized_match(self, example1_graph, example1_query):
        assert subgraph_isomorphism(example1_query, example1_graph, "nobody").answer == set()

    def test_answer_has_no_embedding_cap(self):
        # A three-leaf star on a 30-leaf star: 30 * 29 * 28 = 24 360 embeddings,
        # far past any cap, and every leaf is a match.
        graph = complete_bipartite_graph(1, 30)
        pattern = make_pattern(
            {0: "L", 1: "R", 2: "R", 3: "R"}, [(0, 1), (0, 2), (0, 3)], personalized=0, output=1
        )
        assert sum(1 for _ in embeddings(pattern, graph, ("l", 0))) == 24_360
        result = subgraph_isomorphism(pattern, graph, ("l", 0))
        assert result.answer == {("r", leaf) for leaf in range(30)}
        assert vf2_opt(pattern, graph, ("l", 0)).answer == result.answer

    def test_witnesses_are_the_first_embedding_per_match_in_sorted_order(self):
        # Ints sort numerically (2 < 9 < 10), and a str id is never compared with an int.
        pattern = make_pattern({"h": "H", "x": "B", "y": "B"}, [("h", "x"), ("h", "y")], personalized="h", output="x")
        graph = DiGraph()
        graph.add_node("hub", "H")
        for leaf in (10, "z", 9, 2):
            graph.add_node(leaf, "B")
            graph.add_edge("hub", leaf)
        result = subgraph_isomorphism(pattern, graph, "hub")
        assert list(result.embedding_of) == [2, 9, 10, "z"]
        assert [embedding["y"] for embedding in result.embedding_of.values()] == [9, 2, 2, 2]
        first = {}
        for embedding in embeddings(pattern, graph, "hub"):
            first.setdefault(embedding["x"], embedding)
        assert first == result.embedding_of
        assert embedding_witnesses(pattern, graph, "hub") == {("hub", 2), ("hub", 9), ("hub", 10), ("hub", "z")}
        assert embedding_witnesses(pattern, graph, "nobody") == set()

    def test_isomorphism_stricter_than_simulation(self, example1_graph):
        # Strong simulation allows one data node to play several roles along a
        # cycle; isomorphism needs distinct nodes.  Pattern: Michael with two
        # distinct HG friends — the data graph has three, so both semantics
        # succeed, but requiring four distinct CC fails for isomorphism.
        pattern = make_pattern(
            {"m": "Michael", "c1": "CC", "c2": "CC", "c3": "CC", "c4": "CC"},
            [("m", "c1"), ("m", "c2"), ("m", "c3"), ("m", "c4")],
            personalized="m",
            output="c1",
        )
        assert subgraph_isomorphism(pattern, example1_graph, "Michael").answer == set()


class TestVF2Opt:
    def test_vf2opt_matches_unrestricted_answer(self, example1_graph, example1_query):
        unrestricted = subgraph_isomorphism(example1_query, example1_graph, "Michael").answer
        optimised = vf2_opt(example1_query, example1_graph, "Michael")
        assert optimised.answer == unrestricted
        assert optimised.ball_size > 0

    def test_vf2opt_missing_personalized(self, example1_graph, example1_query):
        assert vf2_opt(example1_query, example1_graph, "nobody").answer == set()

    def test_answer_in_subgraph_helper(self, example1_graph, example1_query):
        from repro.graph.subgraph import induced_subgraph

        subgraph = induced_subgraph(example1_graph, ["Michael", "cc1", "hg3", "cl3"])
        assert isomorphic_answer_in_subgraph(example1_query, subgraph, "Michael") == {"cl3"}
        assert isomorphic_answer_in_subgraph(example1_query, DiGraph(), "Michael") == set()
