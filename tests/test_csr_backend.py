"""Backend parity: ``CSRGraph`` must be indistinguishable from ``DiGraph``.

Property-style tests over a spread of generated graphs assert that the CSR
backend agrees with the dict-of-sets backend on

* every structural observation of the :class:`GraphLike` protocol (labels,
  degrees, successor/predecessor sets *and iteration order*, membership);
* every order-insensitive traversal result (distance maps, reachability,
  components).

The resource-bounded algorithms freeze a ``DiGraph`` to a ``CSRGraph`` on
entry, so their answers on both backends are one path:
``tests/test_reduction_differential.py`` holds ``RBSim``/``RBSub`` on a
``DiGraph`` or an overlay to their freeze, and
``tests/test_prepare_differential.py`` holds ``compress``/``build_index`` on
both to the frozen oracle.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from prepare_oracle import oracle_from_digraph

from repro.exceptions import GraphError, NodeNotFoundError, WorkloadError
from repro.graph import traversal as tr
from repro.graph.csr import CSRGraph, _unique
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    community_graph,
    layered_dag,
    preferential_attachment_graph,
    random_graph,
    star_graph,
)
from repro.graph.io import read_edge_list, read_json, write_edge_list, write_json
from repro.graph.protocol import GraphLike
from repro.updates.overlay import MutableOverlay
from repro.workloads.datasets import load_dataset


def _sample_graphs():
    yield "random", random_graph(num_nodes=400, num_edges=900, seed=3)
    yield "scale-free", preferential_attachment_graph(
        num_nodes=400, edges_per_node=2, seed=5, back_edge_probability=0.1
    )
    yield "dag", layered_dag(layers=6, width=30, seed=2)
    yield "community", community_graph(communities=[40, 40, 40, 40], seed=1)
    yield "star", star_graph(leaves=25)


def _string_id_graph() -> DiGraph:
    graph = DiGraph()
    names = [f"node-{i}" for i in range(40)]
    rng = random.Random(11)
    for name in names:
        graph.add_node(name, rng.choice("abc"))
    for _ in range(90):
        graph.add_edge(rng.choice(names), rng.choice(names))
    return graph


class _Subclassed(DiGraph):
    """A ``DiGraph`` subclass: the freeze reads it node by node, through its views."""

    __slots__ = ()


def _rebuilt(graph, cls=DiGraph, node=lambda v: v, order=None, entry=None):
    """``graph`` re-inserted: ids mapped by ``node``, nodes in ``order``, edge endpoints by ``entry``."""
    copy = cls()
    for v in graph.nodes() if order is None else order:
        copy.add_node(node(v), graph.label(v))
    entry = entry or node
    for source, target in graph.edges():
        copy.add_edge(entry(source), entry(target))
    return copy


def _id_kind_graphs():
    """One graph under each id kind the freeze reads by its own path."""
    base = random_graph(num_nodes=150, num_edges=400, seed=7)
    shuffled = list(base.nodes())
    random.Random(7).shuffle(shuffled)
    yield "ints-out-of-order", _rebuilt(base, order=shuffled)
    # Ids 0..n-1 in order, but the adjacency holds ``numpy.int64`` and ``bool`` keys.
    yield "identity-numpy-entries", _rebuilt(
        base, entry=lambda v: True if v == 1 else np.int64(v)
    )
    yield "numpy-int64-ids", _rebuilt(base, node=np.int64)
    yield "subclass", _rebuilt(base, cls=_Subclassed)
    overlay = MutableOverlay(CSRGraph.from_digraph(base))
    overlay.remove_node(3)
    overlay.add_node(1000, "z")
    overlay.add_edge(1000, 0)
    overlay.add_edge(5, 1000)
    yield "overlay-after-removal", overlay


def _assert_same_arrays(actual: CSRGraph, expected: CSRGraph) -> None:
    assert list(actual._ids) == list(expected._ids)
    assert list(map(type, actual._ids)) == list(map(type, expected._ids))
    assert actual._identity == expected._identity
    assert actual._label_table == expected._label_table
    for name in ("_label_ids", "_succ_indptr", "_succ_indices", "_pred_indptr", "_pred_indices", "_degrees"):
        left, right = getattr(actual, name), getattr(expected, name)
        assert left.dtype == right.dtype and np.array_equal(left, right), name


_INT64_EDGES = st.one_of(
    st.integers(-64, 64),
    st.integers(2**62 - 64, 2**62 + 64),  # edge codes are ``source * width + target``
    st.integers(-(2**62) - 64, -(2**62) + 64),
    st.integers(-(2**63), 2**63 - 1),
)


@given(st.lists(_INT64_EDGES, max_size=300))
@example([])
@example([-(2**62)])
def test_sort_based_unique_equals_numpy_unique(values):
    array = np.array(values, dtype=np.int64)
    before = array.copy()
    got, expected = _unique(array), np.unique(array)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert np.array_equal(array, before)  # the input is not sorted in place


class TestStructuralParity:
    @pytest.mark.parametrize("name,graph", list(_sample_graphs()) + list(_id_kind_graphs()))
    def test_structure_matches(self, name, graph):
        csr = CSRGraph.from_digraph(graph)
        # Whatever path the freeze takes, its arrays are the element-by-element ones.
        _assert_same_arrays(csr, oracle_from_digraph(graph))
        csr.validate()
        assert isinstance(csr, GraphLike)
        assert isinstance(graph, GraphLike)
        assert csr.num_nodes() == graph.num_nodes()
        assert csr.num_edges() == graph.num_edges()
        assert csr.size() == graph.size()
        assert csr.max_degree() == graph.max_degree()
        assert list(csr.nodes()) == list(graph.nodes())
        assert sorted(csr.edges()) == sorted(graph.edges())
        assert csr.distinct_labels() == graph.distinct_labels()
        for node in graph.nodes():
            assert node in csr
            assert csr.label(node) == graph.label(node)
            assert set(csr.successors(node)) == graph.successors(node)
            assert set(csr.predecessors(node)) == graph.predecessors(node)
            # Iteration order is preserved, which is what makes the heuristic
            # algorithms take identical decisions on both backends.
            assert list(csr.successors(node)) == list(graph.successors(node))
            assert list(csr.predecessors(node)) == list(graph.predecessors(node))
            assert csr.neighbors(node) == graph.neighbors(node)
            assert csr.degree(node) == graph.degree(node)
            assert csr.out_degree(node) == graph.out_degree(node)
            assert csr.in_degree(node) == graph.in_degree(node)
        for label in graph.distinct_labels():
            assert csr.nodes_with_label(label) == graph.nodes_with_label(label)

    @pytest.mark.parametrize("name,graph", list(_sample_graphs()))
    def test_edge_membership(self, name, graph):
        csr = CSRGraph.from_digraph(graph)
        rng = random.Random(0)
        nodes = list(graph.nodes())
        for _ in range(200):
            source, target = rng.choice(nodes), rng.choice(nodes)
            assert csr.has_edge(source, target) == graph.has_edge(source, target)
        assert not csr.has_edge("missing", nodes[0])

    def test_round_trip(self):
        for _, graph in _sample_graphs():
            assert CSRGraph.from_digraph(graph).to_digraph() == graph

    def test_string_identifiers(self):
        graph = _string_id_graph()
        csr = CSRGraph.from_digraph(graph)
        assert csr.to_digraph() == graph
        for node in graph.nodes():
            assert set(csr.successors(node)) == graph.successors(node)
            assert csr.label(node) == graph.label(node)

    def test_label_id_is_the_label_table_row_on_every_way_to_a_graph(self):
        graph = _string_id_graph()
        csr = CSRGraph.from_digraph(graph)
        with csr.to_shared() as handle:
            attached = CSRGraph.from_shared(handle.name)
            candidates = [csr, pickle.loads(pickle.dumps(csr)), attached.graph]
            for candidate in candidates:
                for label in graph.distinct_labels():
                    row = candidate.label_id(label)
                    assert candidate._label_table[row] == label
                    assert set(candidate.nodes_with_label(label)) == graph.nodes_with_label(label)
                assert candidate.label_id("a label no node carries") is None
            attached.close()

    def test_from_edges_matches_digraph_semantics(self):
        graph = random_graph(num_nodes=120, num_edges=300, seed=9)
        labels = dict(graph.labels())
        labels["isolated"] = "z"
        edges = list(graph.edges()) + list(graph.edges())[:10]  # parallel edges collapse
        built = CSRGraph.from_edges(edges, labels)
        reference = DiGraph.from_edges(edges, labels)
        assert built.num_nodes() == reference.num_nodes()
        assert built.num_edges() == reference.num_edges()
        assert "isolated" in built and built.label("isolated") == "z"
        for node in reference.nodes():
            assert set(built.successors(node)) == reference.successors(node)
            assert built.label(node) == reference.label(node)

    def test_empty_and_missing_nodes(self):
        empty = CSRGraph.from_digraph(DiGraph())
        assert empty.num_nodes() == 0 and empty.num_edges() == 0
        assert empty.max_degree() == 0
        assert list(empty.nodes()) == []
        with pytest.raises(NodeNotFoundError):
            empty.successors("ghost")
        with pytest.raises(NodeNotFoundError):
            empty.label("ghost")


class TestTraversalParity:
    @pytest.mark.parametrize("name,graph", list(_sample_graphs()))
    def test_traversal_results_match(self, name, graph):
        csr = CSRGraph.from_digraph(graph)
        rng = random.Random(4)
        nodes = list(graph.nodes())
        for _ in range(12):
            source, target = rng.choice(nodes), rng.choice(nodes)
            for direction in ("forward", "backward", "both"):
                assert tr.bfs_levels(graph, source, direction=direction) == tr.bfs_levels(
                    csr, source, direction=direction
                )
            assert tr.bfs_levels(graph, source, max_hops=2) == tr.bfs_levels(
                csr, source, max_hops=2
            )
            assert tr.is_reachable(graph, source, target) == tr.is_reachable(csr, source, target)
            assert tr.bidirectional_reachable(graph, source, target) == tr.bidirectional_reachable(
                csr, source, target
            )
            assert tr.descendants(graph, source) == tr.descendants(csr, source)
            assert tr.ancestors(graph, source) == tr.ancestors(csr, source)
            assert tr.connected_component(graph, source) == tr.connected_component(csr, source)
        assert sorted(map(sorted, tr.weakly_connected_components(graph))) == sorted(
            map(sorted, tr.weakly_connected_components(csr))
        )

    def test_generic_traversals_accept_csr(self):
        graph = layered_dag(layers=5, width=10, seed=8)
        csr = CSRGraph.from_digraph(graph)
        source = next(iter(graph.nodes()))
        assert set(tr.bfs_order(csr, source)) == set(tr.bfs_order(graph, source))
        assert set(tr.dfs_order(csr, source)) == set(tr.dfs_order(graph, source))
        counter_digraph, counter_csr = [0], [0]
        nodes = list(graph.nodes())
        answer_digraph = tr.is_reachable(graph, nodes[0], nodes[-1], counter_digraph)
        answer_csr = tr.is_reachable(csr, nodes[0], nodes[-1], counter_csr)
        assert answer_digraph == answer_csr
        assert counter_digraph == counter_csr  # visit accounting uses the generic path


class TestLoading:
    def test_edge_list_round_trip_into_csr(self, tmp_path):
        graph = random_graph(num_nodes=60, num_edges=150, seed=21)
        path = tmp_path / "graph.tsv"
        write_edge_list(graph, path)
        loaded = read_edge_list(path, backend="csr")
        assert isinstance(loaded, CSRGraph)
        assert loaded.to_digraph() == graph

    def test_json_round_trip_into_csr(self, tmp_path):
        graph = random_graph(num_nodes=50, num_edges=120, seed=22)
        path = tmp_path / "graph.json"
        write_json(graph, path)
        loaded = read_json(path, backend="csr")
        assert isinstance(loaded, CSRGraph)
        assert loaded.to_digraph() == graph

    def test_csr_graph_can_be_written(self, tmp_path):
        graph = random_graph(num_nodes=40, num_edges=90, seed=23)
        csr = CSRGraph.from_digraph(graph)
        path = tmp_path / "csr.tsv"
        write_edge_list(csr, path)
        assert read_edge_list(path) == graph

    def test_unknown_backend_rejected(self, tmp_path):
        path = tmp_path / "graph.tsv"
        write_edge_list(random_graph(num_nodes=10, num_edges=15, seed=1), path)
        with pytest.raises(GraphError):
            read_edge_list(path, backend="adjacency-matrix")
        with pytest.raises(WorkloadError):
            load_dataset("youtube-small", backend="adjacency-matrix")

    def test_load_dataset_backend(self):
        digraph = load_dataset("youtube-small", seed=7)
        csr = load_dataset("youtube-small", seed=7, backend="csr")
        assert isinstance(csr, CSRGraph)
        assert csr.to_digraph() == digraph
