"""Tests for r-hop neighbourhoods, balls and the Sl summaries."""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EdgeNotFoundError, NodeNotFoundError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import star_graph
from repro.graph.neighborhood import (
    NeighborhoodIndex,
    ball,
    ball_size,
    max_label_fanout,
    nodes_within_hops,
    summarize_node,
    theoretical_alpha_bound,
)
from repro.updates.delta import GraphDelta
from repro.updates.overlay import MutableOverlay


class TestNodesWithinHops:
    def test_radius_zero_is_just_the_center(self, diamond_dag):
        assert nodes_within_hops(diamond_dag, "a", 0) == {"a"}

    def test_radius_counts_both_directions(self, diamond_dag):
        # "d" is 1 hop from "b" (edge b->d) and 1 hop from "e" (edge d->e).
        assert nodes_within_hops(diamond_dag, "d", 1) == {"b", "c", "d", "e"}

    def test_radius_covers_whole_graph(self, diamond_dag):
        assert nodes_within_hops(diamond_dag, "a", 3) == {"a", "b", "c", "d", "e"}

    def test_negative_radius_raises(self, diamond_dag):
        with pytest.raises(ValueError):
            nodes_within_hops(diamond_dag, "a", -1)


class TestBall:
    def test_ball_is_induced(self, diamond_dag):
        the_ball = ball(diamond_dag, "a", 1)
        assert set(the_ball.nodes()) == {"a", "b", "c"}
        assert the_ball.has_edge("a", "b") and the_ball.has_edge("a", "c")
        assert the_ball.num_edges() == 2

    def test_ball_size_matches_ball(self, diamond_dag):
        assert ball_size(diamond_dag, "a", 2) == ball(diamond_dag, "a", 2).size()

    def test_example1_ball_radius_two_contains_cycling_lovers(self, example1_graph):
        the_ball = ball(example1_graph, "Michael", 2)
        assert "cl3" in the_ball and "cl4" in the_ball


class TestSummaries:
    def test_summarize_node_counts_labels_by_direction(self, example1_graph):
        summary = summarize_node(example1_graph, "Michael")
        assert summary.degree == 6
        assert summary.child_count("HG") == 3
        assert summary.child_count("CC") == 3
        assert summary.parent_count("HG") == 0
        assert summary.count("CC") == 3

    def test_summary_of_leaf(self, example1_graph):
        summary = summarize_node(example1_graph, "cl4")
        assert summary.degree == 2
        assert summary.parent_count("CC") == 1
        assert summary.parent_count("HG") == 1
        assert summary.child_count("CC") == 0

    def test_index_caches_and_precomputes(self, example1_graph):
        index = NeighborhoodIndex(example1_graph)
        assert len(index) == 0
        first = index.summary("Michael")
        assert len(index) == 1
        assert index.summary("Michael") is first
        index.precompute()
        assert len(index) == example1_graph.num_nodes()

    def test_index_predicates(self, example1_graph):
        index = NeighborhoodIndex(example1_graph)
        assert index.has_child_label("Michael", "HG")
        assert not index.has_parent_label("Michael", "HG")
        assert index.has_parent_label("cl3", "CC")
        assert index.degree("cc2") == 1


def assert_agrees_with_reference(index, graph, labels, rng):
    """Every predicate of ``index`` equals the answer read off ``summarize_node``."""
    for node in graph.nodes():
        reference = summarize_node(graph, node)
        for label in labels:
            assert index.has_child_label(node, label) == (reference.child_count(label) > 0)
            assert index.has_parent_label(node, label) == (reference.parent_count(label) > 0)
        for wanted in ([], rng.sample(labels, min(2, len(labels))), list(reference.child_label_counts)):
            need = index.requirement(wanted)
            assert index.has_child_labels(node, need) == all(
                reference.child_count(label) for label in wanted
            )
        for wanted in ([], rng.sample(labels, min(2, len(labels))), list(reference.parent_label_counts)):
            need = index.requirement(wanted)
            assert index.has_parent_labels(node, need) == all(
                reference.parent_count(label) for label in wanted
            )


def assert_rows_agree(index, csr, labels, rng):
    """``rows_have_labels`` over every row equals the per-node predicates."""
    rows = np.arange(csr.num_nodes(), dtype=np.int64)
    for wanted in ([], rng.sample(labels, min(2, len(labels))), labels[:1] + ["absent"]):
        need = index.requirement(wanted)
        for children, per_node in ((True, index.has_child_labels), (False, index.has_parent_labels)):
            expected = [per_node(node, need) for node in csr.nodes()]
            assert index.rows_have_labels(rows, need, children).tolist() == expected


class TestArrayBackedIndex:
    """The presence arrays of a CSR graph against the per-node reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_labels=st.sampled_from([1, 3, 64, 65, 130]),
    )
    def test_agrees_with_summarize_node_through_deltas(self, seed, num_labels):
        rng = random.Random(seed)
        labels = [f"L{i}" for i in range(num_labels)]
        graph = DiGraph()
        for node in range(rng.randint(0, 24)):
            graph.add_node(node, rng.choice(labels))
        nodes = list(graph.nodes())
        # Sparse on purpose: isolated nodes stay likely; self-loops allowed.
        for _ in range(len(nodes)):
            graph.add_edge(rng.choice(nodes), rng.choice(nodes))
        csr = CSRGraph.from_digraph(graph)
        index = NeighborhoodIndex(csr)
        assert all(index._row(node) is not None for node in nodes)
        assert_agrees_with_reference(index, csr, labels, rng)
        assert_rows_agree(index, csr, labels, rng)

        # Each delta lands on an overlay that freezes into the next graph,
        # which gets an index of its own, as an update re-prepares it.
        pool = nodes + ["x0", "x1", "x2"]
        delta_labels = labels + ["fresh"]  # a label the base table never saw
        for _ in range(3):
            overlay = MutableOverlay(csr)
            for _ in range(6):
                roll = rng.random()
                if roll < 0.35:
                    op = GraphDelta().add_edge(rng.choice(pool), rng.choice(pool))
                elif roll < 0.6:
                    op = GraphDelta().remove_edge(rng.choice(pool), rng.choice(pool))
                elif roll < 0.85:
                    op = GraphDelta().add_node(rng.choice(pool), label=rng.choice(delta_labels))
                else:
                    op = GraphDelta().remove_node(rng.choice(pool))
                try:
                    overlay.apply(op)
                except (NodeNotFoundError, EdgeNotFoundError):
                    pass
            # An overlay is no CSRGraph: its index summarises node by node.
            assert_agrees_with_reference(NeighborhoodIndex(overlay), overlay, delta_labels, rng)
            csr = overlay.freeze()
            index = NeighborhoodIndex(csr)
            assert all(index._row(node) is not None for node in csr.nodes())
            assert_agrees_with_reference(index, csr, delta_labels, rng)
            assert_rows_agree(index, csr, delta_labels, rng)
        assert_agrees_with_reference(pickle.loads(pickle.dumps(index)), csr, delta_labels, rng)


class TestFanoutAndBound:
    def test_max_label_fanout_of_star(self):
        graph = star_graph(7)
        assert max_label_fanout(graph, 0, 1) == 7

    def test_max_label_fanout_example1(self, example1_graph):
        # Michael has 3 HG children and 3 CC children within the 2-ball.
        assert max_label_fanout(example1_graph, "Michael", 2) == 3

    def test_theoretical_alpha_bound_in_unit_interval(self, example1_graph):
        bound = theoretical_alpha_bound(example1_graph, "Michael", 2, num_labels=4)
        assert 0 < bound <= 1

    def test_theoretical_alpha_bound_small_graph_is_one(self):
        graph = DiGraph()
        graph.add_node(0, "A")
        assert theoretical_alpha_bound(graph, 0, 1, num_labels=1, fanout=1) == 1.0
