"""Property-based tests (hypothesis) for the graph substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st
from prepare_oracle import verify_rank_invariant

from repro.graph.components import condensation, is_dag, strongly_connected_components
from repro.graph.digraph import DiGraph
from repro.graph.neighborhood import nodes_within_hops
from repro.graph.subgraph import induced_subgraph, is_subgraph
from repro.graph.traversal import bidirectional_reachable, bfs_levels, is_reachable
from repro.reachability.compression import compress


@st.composite
def random_digraphs(draw, max_nodes=14, max_edges=35):
    """Small random digraphs with labels from a 3-letter alphabet."""
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    labels = draw(
        st.lists(st.sampled_from(["A", "B", "C"]), min_size=num_nodes, max_size=num_nodes)
    )
    graph = DiGraph()
    for node, label in enumerate(labels):
        graph.add_node(node, label)
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_nodes - 1),
                st.integers(min_value=0, max_value=num_nodes - 1),
            ),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    for source, target in pairs:
        if source != target:
            graph.add_edge(source, target)
    return graph


@settings(max_examples=60, deadline=None)
@given(random_digraphs())
def test_graph_invariants_hold(graph):
    """Structural invariants: size accounting and adjacency symmetry."""
    graph.validate()
    assert graph.size() == graph.num_nodes() + graph.num_edges()
    for source, target in graph.edges():
        assert source in graph.predecessors(target)
        assert target in graph.successors(source)


@settings(max_examples=60, deadline=None)
@given(random_digraphs())
def test_copy_equals_original(graph):
    assert graph.copy() == graph


@settings(max_examples=50, deadline=None)
@given(random_digraphs())
def test_scc_partition_and_condensation_dag(graph):
    """SCCs partition the nodes and the condensation is an acyclic DAG."""
    components = strongly_connected_components(graph)
    all_nodes = [node for component in components for node in component]
    assert sorted(all_nodes) == sorted(graph.nodes())
    assert len(all_nodes) == graph.num_nodes()
    result = condensation(graph)
    assert is_dag(result.dag)


@settings(max_examples=40, deadline=None)
@given(random_digraphs(), st.integers(min_value=0, max_value=13), st.integers(min_value=0, max_value=13))
def test_condensation_preserves_reachability(graph, source_index, target_index):
    """For sampled pairs, reachability on G equals reachability on the condensation."""
    nodes = sorted(graph.nodes())
    source = nodes[source_index % len(nodes)]
    target = nodes[target_index % len(nodes)]
    result = condensation(graph)
    original = bidirectional_reachable(graph, source, target)
    source_component = result.component_of(source)
    target_component = result.component_of(target)
    via_dag = source_component == target_component or is_reachable(
        result.dag, source_component, target_component
    )
    assert original == via_dag


@settings(max_examples=40, deadline=None)
@given(random_digraphs())
def test_topological_ranks_on_condensation(graph):
    """Ranks satisfy their defining recurrence and decrease along edges."""
    compressed = compress(graph)
    dag, ranks = compressed.dag, compressed.ranks.ranks()
    assert verify_rank_invariant(dag, ranks)
    for source, target in dag.edges():
        assert ranks[source] > ranks[target]


@settings(max_examples=40, deadline=None)
@given(random_digraphs(), st.integers(min_value=0, max_value=3))
def test_ball_monotone_in_radius(graph, radius):
    """N_r(v) grows with r and the induced ball is a subgraph of G."""
    center = sorted(graph.nodes())[0]
    smaller = nodes_within_hops(graph, center, radius)
    larger = nodes_within_hops(graph, center, radius + 1)
    assert smaller <= larger
    assert is_subgraph(induced_subgraph(graph, smaller), graph)


@settings(max_examples=40, deadline=None)
@given(random_digraphs())
def test_bfs_levels_are_shortest_distances(graph):
    """Hop levels never exceed the number of nodes and neighbours differ by <= 1."""
    source = sorted(graph.nodes())[0]
    levels = bfs_levels(graph, source, direction="forward")
    assert levels[source] == 0
    for node, level in levels.items():
        assert level <= graph.num_nodes()
        for child in graph.successors(node):
            if child in levels:
                assert levels[child] <= level + 1
