"""Tests for greedy landmark selection, first-hit labels and landmark sweeps."""

import random

import numpy as np
import pytest

from prepare_oracle import oracle_selection_order, selection_scores
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import layered_dag, path_graph
from repro.graph.topology import TopologicalRankIndex
from repro.graph.traversal import descendants, is_reachable
from repro.reachability.hierarchy import sweep_landmarks
from repro.reachability.landmarks import (
    first_landmarks_hit,
    greedy_landmarks,
    selection_rows,
    selection_sort_key,
)


@pytest.fixture
def dag():
    return CSRGraph.from_digraph(layered_dag(layers=5, width=4, seed=2))


def ranks_of(mirror):
    return TopologicalRankIndex.from_mirror(mirror)


def order_of(mirror, weights=None):
    """The mirror's rows in the oracle's greedy order."""
    ordered = oracle_selection_order(mirror, ranks_of(mirror), weights)
    return np.fromiter(map(mirror.index_of, ordered), dtype=np.int64, count=len(ordered))


class TestGreedySelection:
    def test_requested_count(self, dag):
        landmarks = greedy_landmarks(dag, order_of(dag), count=6, exclusion_radius=2)
        assert len(landmarks) == 6
        assert len(set(landmarks)) == 6

    def test_zero_count(self, dag):
        assert greedy_landmarks(dag, order_of(dag), count=0, exclusion_radius=2) == []

    def test_count_larger_than_graph(self, dag):
        landmarks = greedy_landmarks(dag, order_of(dag), count=10_000, exclusion_radius=1)
        assert len(landmarks) <= dag.num_nodes()

    def test_exclusion_radius_spreads_selection(self):
        # A star: with a large exclusion radius, after picking the hub most
        # leaves are excluded, so fewer landmarks are selected.
        graph = DiGraph()
        graph.add_node("hub", "H")
        for leaf in range(10):
            graph.add_node(leaf, "L")
            graph.add_edge("hub", leaf)
        mirror = CSRGraph.from_digraph(graph)
        spread = greedy_landmarks(mirror, order_of(mirror), count=11, exclusion_radius=10)
        assert len(spread) < 11

    def test_weights_bias_selection(self, dag):
        target = sorted(dag.nodes())[0]
        weights = {node: 1.0 for node in dag.nodes()}
        weights[target] = 10_000.0
        landmarks = greedy_landmarks(dag, order_of(dag, weights), count=3, exclusion_radius=1)
        assert target in landmarks

    @pytest.mark.parametrize("seed", range(5))
    def test_selection_rows_sort_by_the_key(self, seed):
        """The array sort agrees with ``selection_sort_key``, ``repr`` tie-break included."""
        rng = random.Random(seed)
        pool = [0, 1, 2, 9, 10, 11, 19, 99, 100, 101, 109, 990, 1000, 10**6, 10**12 + 7]
        ids = sorted(set(pool + rng.sample(range(20_000), 300)))
        degrees = [rng.randrange(4) for _ in ids]  # few values: many ties reach the id
        ranks = [rng.randrange(3) for _ in ids]
        weights = [float(rng.choice([1, 1, 2, 7])) for _ in ids]
        rows = selection_rows(
            np.array(ids), np.array(degrees), np.array(ranks), np.array(weights, dtype=np.float64)
        )
        keys = [selection_sort_key(*columns) for columns in zip(ids, degrees, ranks, weights)]
        assert rows.tolist() == sorted(range(len(ids)), key=keys.__getitem__)

    def test_selection_scores_nonnegative(self, dag):
        ranks = ranks_of(dag)
        scores = selection_scores(dag, ranks)
        assert all(score >= 0 for score in scores.values())


class TestLandmarkLabels:
    def test_first_landmarks_hit_stops_at_landmarks(self):
        graph = path_graph(5)  # 0 -> 1 -> 2 -> 3 -> 4 -> 5
        landmarks = {2, 4}
        forward = first_landmarks_hit(graph, 0, landmarks, forward=True)
        # The BFS stops at landmark 2 and never reaches 4.
        assert forward == {2}

    def test_backward_direction(self):
        graph = path_graph(5)
        backward = first_landmarks_hit(graph, 5, {3}, forward=False)
        assert backward == {3}

    def test_landmark_start_returns_empty(self):
        graph = path_graph(3)
        assert first_landmarks_hit(graph, 1, {1, 2}, forward=True) == set()

    def test_max_labels_cap(self):
        graph = DiGraph()
        graph.add_node("s", "S")
        for leaf in range(6):
            graph.add_node(leaf, "L")
            graph.add_edge("s", leaf)
        labels = first_landmarks_hit(graph, "s", set(range(6)), forward=True, max_labels=3)
        assert len(labels) == 3


class TestLandmarkGraph:
    def test_landmark_reachability_matches_bfs(self, dag):
        landmarks = sorted(dag.nodes())[:8]
        _, reach = sweep_landmarks(dag, landmarks, forward=True)
        for source in landmarks:
            for target in landmarks:
                if source == target:
                    continue
                assert (target in reach[source]) == is_reachable(dag, source, target)

    def test_sweep_counts_are_descendant_counts(self, dag):
        landmarks = sorted(dag.nodes())[:6]
        counts, _ = sweep_landmarks(dag, landmarks, forward=True)
        assert counts == {landmark: len(descendants(dag, landmark)) for landmark in landmarks}
