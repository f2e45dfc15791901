"""Tests for the hierarchical landmark index (RBIndex)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import IndexBuildError
from repro.graph.digraph import DiGraph
from repro.graph.generators import layered_dag, preferential_attachment_graph
from repro.graph.traversal import is_reachable
from repro.reachability.compression import compress
from repro.reachability.hierarchy import build_index, index_equivalent


@pytest.fixture(scope="module")
def social_graph():
    return preferential_attachment_graph(800, edges_per_node=2, seed=5, back_edge_probability=0.05)


@pytest.fixture(scope="module")
def social_index(social_graph):
    return build_index(social_graph, alpha=0.1)


class TestBuildIndex:
    def test_size_budget_respected(self, social_graph, social_index):
        assert social_index.size() <= social_index.size_budget
        assert social_index.size_budget <= max(2, int(0.1 * social_graph.size()))

    def test_landmark_count_within_half_budget(self, social_index):
        assert social_index.num_landmarks() <= social_index.size_budget // 2 + 1

    def test_levels_structure(self, social_index):
        assert social_index.num_levels() >= 1
        # Level 1 holds every landmark; higher levels are subsets.
        leaves = set(social_index.levels[0])
        for level in social_index.levels[1:]:
            assert set(level) <= leaves
            assert len(level) <= len(leaves)

    def test_landmark_info_populated(self, social_index):
        for landmark, info in social_index.landmarks.items():
            assert info.node == landmark
            assert info.cover_size >= 1
            assert 1 <= info.level <= social_index.num_levels()

    def test_index_edges_assert_true_reachability(self, social_graph, social_index):
        dag = social_index.compressed.dag
        checked = 0
        for source, targets in social_index.forward_edges.items():
            for target in targets:
                assert is_reachable(dag, source, target)
                checked += 1
                if checked >= 50:
                    return

    def test_forward_and_backward_edge_views_consistent(self, social_index):
        for source, targets in social_index.forward_edges.items():
            for target in targets:
                assert source in social_index.backward_edges[target]

    def test_out_of_index_labels_are_landmarks(self, social_index):
        for labels in list(social_index.forward_labels.values())[:50]:
            assert all(social_index.is_landmark(landmark) for landmark in labels)
        for labels in list(social_index.backward_labels.values())[:50]:
            assert all(social_index.is_landmark(landmark) for landmark in labels)

    def test_invalid_alpha_rejected(self, social_graph):
        with pytest.raises(IndexBuildError):
            build_index(social_graph, alpha=0.0)
        with pytest.raises(IndexBuildError):
            build_index(social_graph, alpha=1.5)

    def test_accepts_precompressed_graph(self, social_graph):
        compressed = compress(social_graph)
        index = build_index(compressed, alpha=0.05, reference_size=social_graph.size())
        assert index.compressed is compressed
        assert index.size() <= index.size_budget

    def test_empty_graph(self):
        index = build_index(DiGraph(), alpha=0.5)
        assert index.num_landmarks() == 0
        assert index.size() == 0

    def test_smaller_alpha_gives_smaller_index(self, social_graph):
        small = build_index(social_graph, alpha=0.02)
        large = build_index(social_graph, alpha=0.2)
        assert small.size() <= large.size()
        assert small.num_landmarks() <= large.num_landmarks()

    def test_dag_input_without_cycles(self):
        dag = layered_dag(layers=4, width=5, seed=7)
        index = build_index(dag, alpha=0.2)
        assert index.num_landmarks() >= 1
        assert index.size() <= index.size_budget

    def test_reference_size_controls_budget(self, social_graph):
        small_ref = build_index(social_graph, alpha=0.1, reference_size=100)
        assert small_ref.size_budget == 10
        assert small_ref.size() <= 10


class TestIndexEquivalence:
    """``index_equivalent`` and the column-wise ``LabelTable`` equality it reads."""

    @staticmethod
    def _index(graph, alpha=0.1):
        from repro.graph.csr import CSRGraph

        return build_index(compress(CSRGraph.from_digraph(graph)), alpha)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_table_equality_agrees_with_dict_equality(self, seed):
        rng = random.Random(seed)
        graph = preferential_attachment_graph(
            120, edges_per_node=2, seed=seed % 7, back_edge_probability=0.05
        )
        before = self._index(graph)
        nodes = list(graph.nodes())
        for _ in range(rng.randint(1, 3)):
            graph.add_edge(rng.choice(nodes), rng.choice(nodes))
        after = self._index(graph)
        for left, right in (
            (before.forward_labels, after.forward_labels),
            (before.backward_labels, after.backward_labels),
        ):
            assert (left == right) == (dict(left) == dict(right))
            assert left == dict(left) and dict(right) == right
        assert index_equivalent(before, after) == index_equivalent(after, before)

    def test_a_rebuild_on_an_equal_graph_is_equivalent(self, social_graph):
        first, second = self._index(social_graph.copy()), self._index(social_graph.copy())
        assert first.forward_labels is not second.forward_labels
        assert first.forward_labels == second.forward_labels
        assert index_equivalent(first, second)

    def test_an_index_at_another_alpha_is_not_equivalent(self, social_graph):
        assert not index_equivalent(self._index(social_graph, 0.1), self._index(social_graph, 0.2))
