"""Tests for guarded conditions and the cost/potential weight estimator."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guard_reference import checked, isomorphism_condition, simulation_condition
from repro.core.weights import IsomorphismGuard, SimulationGuard, WeightEstimator, _thresholds
from repro.graph.csr import CSRGraph, freeze
from repro.graph.digraph import DiGraph
from repro.graph.neighborhood import NeighborhoodIndex
from repro.patterns.pattern import make_pattern


def guard_on(guard_class, pattern, graph, vp):
    """``guard_class`` on the freeze of ``graph``, with the node-by-node
    ``check`` (the label test, then ``check_asked``)."""
    index = NeighborhoodIndex(graph)
    return checked(guard_class)(pattern, index.graph, vp, index)


@pytest.fixture
def example1_csr(example1_graph):
    return freeze(example1_graph)


@pytest.fixture
def sim_guard(example1_csr, example1_query):
    return guard_on(SimulationGuard, example1_query, example1_csr, "Michael")


@pytest.fixture
def iso_guard(example1_csr, example1_query):
    return guard_on(IsomorphismGuard, example1_query, example1_csr, "Michael")


class TestSimulationGuard:
    def test_personalized_pinned_by_identity(self, sim_guard):
        assert sim_guard.check("Michael", "Michael")
        assert not sim_guard.check("cc1", "Michael")

    def test_label_mismatch_fails(self, sim_guard):
        assert not sim_guard.check("hg1", "CC")

    def test_cc_without_cl_child_fails(self, sim_guard):
        # The paper's Example 4: cc2 is ruled out because it has no CL child.
        assert sim_guard.check("cc1", "CC")
        assert sim_guard.check("cc3", "CC")
        assert not sim_guard.check("cc2", "CC")

    def test_cl_needs_cc_and_hg_parents(self, sim_guard):
        assert sim_guard.check("cl3", "CL")
        assert sim_guard.check("cl4", "CL")
        assert not sim_guard.check("cl2", "CL")  # no parents at all
        assert not sim_guard.check("cl1", "CL")  # HG parent only

    def test_guard_is_necessary_not_sufficient(self, example1_csr, example1_query, sim_guard):
        # hg1 passes the guard (Michael parent + CL child) but is not a match
        # because its CL child is not itself a match — the guard only filters.
        assert sim_guard.check("hg1", "HG")

    def test_personalized_neighbor_requirement(self, example1_graph):
        # Query node whose parent is the personalized node: candidates must be
        # actual children of vp, not just have some Michael-labelled parent.
        pattern = make_pattern(
            {"m": "Michael", "c": "CC"}, [("m", "c")], personalized="m", output="c"
        )
        guard = guard_on(SimulationGuard, pattern, example1_graph, "Michael")
        assert guard.check("cc1", "c")

    def test_results_are_memoised(self, sim_guard, monkeypatch):
        # The oracle's ``check`` asks ``check_asked`` once per (node, query node).
        asked = []
        check_asked = SimulationGuard.check_asked

        def tallied(guard, node, query_node, row=None):
            asked.append((node, query_node))
            return check_asked(guard, node, query_node, row)

        monkeypatch.setattr(SimulationGuard, "check_asked", tallied)
        assert sim_guard.check("cc1", "CC")
        assert sim_guard.check("cc1", "CC")  # second call hits the memo
        assert asked == [("cc1", "CC")]


class TestIsomorphismGuard:
    def test_degree_requirement(self, iso_guard):
        # CC needs at least one parent and one child in the data graph.
        assert iso_guard.check("cc1", "CC")
        assert not iso_guard.check("cc2", "CC")

    def test_label_mismatch_fails(self, iso_guard):
        assert not iso_guard.check("hg1", "CC")

    def test_distinct_neighbor_requirement(self):
        # Query: A with two distinct B children; data node with a single B
        # child fails the distinctness check even though a label exists.
        pattern = make_pattern({0: "A", 1: "B", 2: "B"}, [(0, 1), (0, 2)], personalized=0, output=1)
        graph = DiGraph()
        graph.add_node("a1", "A")
        graph.add_node("b", "B")
        graph.add_edge("a1", "b")
        graph.add_node("a2", "A")
        graph.add_node("b1", "B")
        graph.add_node("b2", "B")
        graph.add_edge("a2", "b1")
        graph.add_edge("a2", "b2")
        guard = guard_on(IsomorphismGuard, pattern, graph, "a1")
        assert not guard.check("a1", 0)
        guard2 = guard_on(IsomorphismGuard, pattern, graph, "a2")
        assert guard2.check("a2", 0)

    def test_degree_dominance_of_neighbors(self):
        # The query child has degree 2, so the data child must have degree >= 2.
        pattern = make_pattern(
            {0: "A", 1: "B", 2: "C"}, [(0, 1), (1, 2)], personalized=0, output=2
        )
        graph = DiGraph()
        graph.add_node("a", "A")
        graph.add_node("b_low", "B")
        graph.add_edge("a", "b_low")  # b_low has degree 1 < 2
        guard = guard_on(IsomorphismGuard, pattern, graph, "a")
        assert not guard.check("a", 0)


# --------------------------------------------------------------------------- #
# Row space against node by node
# --------------------------------------------------------------------------- #
@st.composite
def guarded_cases(draw):
    """A random CSR graph over labels A-C, a random connected pattern whose
    labels may include Z (carried by no node: a ``None`` label key) and
    repeat around the two hubs of a bushy tree (several needs on one label
    and side), with ``up`` adjacent to at least one query node, and ``vp`` a
    node of the graph (or, rarely, none)."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    graph = DiGraph()
    size = draw(st.integers(min_value=2, max_value=24))
    for node in range(size):
        graph.add_node(node, rng.choice("AAABC"))
    for _ in range(draw(st.integers(min_value=0, max_value=6 * size))):
        source, target = rng.randrange(size), rng.randrange(size)
        if source != target:
            graph.add_edge(source, target)
            if rng.random() < 0.4:
                graph.add_edge(target, source)
    query_nodes = draw(st.integers(min_value=2, max_value=6))
    labels = {u: rng.choice("AAAABZ") for u in range(query_nodes)}
    edges = set()
    for u in range(1, query_nodes):  # a bushy tree through 0 = up and 1, then extra edges
        anchor = rng.randrange(min(u, 2))
        edges.add((anchor, u) if rng.random() < 0.5 else (u, anchor))
    for _ in range(draw(st.integers(min_value=0, max_value=query_nodes))):
        source, target = rng.randrange(query_nodes), rng.randrange(query_nodes)
        if source != target and (target, source) not in edges:
            edges.add((source, target))
    pattern = make_pattern(labels, sorted(edges), personalized=0, output=query_nodes - 1)
    vp = rng.randrange(size) if draw(st.integers(min_value=0, max_value=9)) else size
    return graph, pattern, vp


@settings(max_examples=60, deadline=None)
@given(guarded_cases())
@pytest.mark.parametrize("guard_class", [IsomorphismGuard, SimulationGuard])
def test_check_rows_and_check_asked_equal_evaluate_node_by_node(guard_class, case):
    """``check_rows`` over every row of a CSR graph (the isomorphism guard's
    threshold counts included), and ``check_asked`` with and without the
    row the search state loaded, equal ``C(v, u)`` written out node by node
    on the ``DiGraph`` (``tests/guard_reference.py``: the ``Sl`` summaries,
    or the greedy distinct assignment), and so does the oracle's ``check``."""
    graph, pattern, vp = case
    csr = CSRGraph.from_digraph(graph)
    guard = checked(guard_class)(pattern, csr, vp, NeighborhoodIndex(csr))
    reference = simulation_condition if guard_class is SimulationGuard else isomorphism_condition
    state = WeightEstimator(pattern, csr, vp, guard_class(pattern, csr, vp, NeighborhoodIndex(csr)))
    rows = np.arange(csr.num_nodes(), dtype=np.int64)
    nodes = csr.ids_of(rows)
    for u in pattern.nodes():
        expected = [reference(graph, pattern, vp, node, u) for node in nodes]
        assert [guard.check(node, u) for node in nodes] == expected
        assert guard.check_rows(rows, u).tolist() == expected
        # Reversed and repeated rows answer row by row too.
        half = len(nodes) // 2
        scrambled = np.concatenate((rows[::-1], rows[:half]))
        assert guard.check_rows(scrambled, u).tolist() == expected[::-1] + expected[:half]
        for node, passed in zip(nodes, expected):
            if u == pattern.personalized or graph.label(node) == pattern.label_of(u):
                assert guard.check_asked(node, u) == passed
                assert guard.check_asked(node, u, state._whole(node)) == passed


@pytest.mark.parametrize(
    "needed, thresholds",
    [([2], ((1, 2),)), ([1, 3, 3], ((2, 3), (3, 1))), ([2, 2, 2], ((3, 2),)), ([4, 1, 2], ((1, 4), (2, 2), (3, 1)))],
)
def test_thresholds_keep_the_last_of_each_run_of_equal_needs(needed, thresholds):
    assert _thresholds(needed) == thresholds


def estimator_with(graph, query, guard, members=(), **options):
    """A search state whose ``G_Q`` holds ``members``, admitted in order."""
    estimator = WeightEstimator(query, graph, "Michael", guard, **options)
    for member in members:
        estimator.admit(member)
    return estimator


class TestWeightEstimator:
    def test_cost_drops_as_gq_grows(self, example1_csr, example1_query, sim_guard):
        # cc1 needs a Michael parent and a CL child; nothing in G_Q plays either yet.
        empty = estimator_with(example1_csr, example1_query, sim_guard)
        assert empty.cost("cc1", "CC") == 2
        partial = estimator_with(example1_csr, example1_query, sim_guard, ["Michael"])
        assert partial.cost("cc1", "CC") == 1
        partial.admit("cl3")  # one more node joining updates the cost in place
        assert partial.cost("cc1", "CC") == 0

    def test_potential_counts_useful_neighbors(self, example1_csr, example1_query, sim_guard):
        estimator = estimator_with(example1_csr, example1_query, sim_guard)
        # cc3's neighbours outside G_Q: Michael (candidate for Michael query
        # node? no — pinned), cl3, cl4 (candidates for CL).
        potential = estimator.potential("cc3", "CC")
        assert potential >= 2

    def test_potential_excludes_gq_members(self, example1_csr, example1_query, sim_guard):
        estimator = estimator_with(example1_csr, example1_query, sim_guard)
        full = estimator.potential("cc3", "CC")
        estimator.admit("cl3")
        estimator.admit("cl4")
        assert estimator.potential("cc3", "CC") < full

    def test_weight_prefers_high_potential_low_cost(self, example1_csr, example1_query, sim_guard):
        estimator = estimator_with(example1_csr, example1_query, sim_guard, ["Michael"])
        assert estimator.weight("cc3", "CC") > estimator.weight("cc2", "CC")

    def test_scan_cap_bounds_potential(self, example1_csr, example1_query, sim_guard):
        estimator = estimator_with(example1_csr, example1_query, sim_guard, max_scan=1)
        assert estimator.potential("cc3", "CC") <= 1
