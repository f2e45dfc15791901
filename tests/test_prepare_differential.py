"""Differential and work-count tests for the array-pass ``RBIndex`` prepare.

``tests/prepare_oracle.py`` freezes the element-by-element prepare the array
passes replaced.  Both must produce the same objects: every CSR array of the
frozen graph, the DAG mirror's arrays, ranks with ``L`` and ``D``, the
selected leaves in order, every field of the landmark index — and therefore
the same ``RBReach`` answers, visit counts included.  The condensation and
the ranks of a ``CSRGraph`` are array-backed: ``component_of``, ``size_of``
and ``rank`` must agree with the oracle's containers for every node while no
container exists, and the containers materialised afterwards (``membership``,
``members``, the DAG's labels and both neighbour *orders*, ``ranks()``) must
equal the oracle's.  The out-of-index labels are int columns
(``LabelTable``): every DAG node's ``labels_of`` must iterate exactly as the
oracle's set — also for rows the caps 1–2 truncate, after a pickle
round-trip and after a shared-memory attach — and an update re-prepares
them as columns equal to the oracle's.  Ids ``0..n-1`` and a DAG mirror's
ids keep no per-node map, yet answer every lookup as ``{id: row}`` would.

The shard build is held to the oracle the same way: ``greedy_partition``
(on a ``DiGraph`` and on its freeze) must return the identical
``Partition`` — assignment items in order, boundary sets, cut and total
counts — and every shard's core list, halo and CSR arrays must be what the
node-by-node ``collect_halo`` and ``induced_order_preserving`` built.  Its
gates: a two-shard build of the benchmark's community graph asks no graph
for a per-node degree or neighbour set, and stays under 3 MB traced.

The count gate at the bottom is the deterministic stand-in for a timing floor
(timing is not bounded on this host): preparing REACH on a ``CSRGraph`` may
not insert a DAG edge one at a time, ask a ``DiGraph`` for a degree, freeze
anything twice or extract a landmark's bits with a per-landmark call — and,
with a read-only reach batch on top, may not build a ``DiGraph`` or touch
``membership``/``members`` at all.
"""

import pickle
import random
import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prepare_oracle import (
    OracleCondensation,
    oracle_build_index,
    oracle_collect_halo,
    oracle_compress,
    oracle_condensation,
    oracle_core_list,
    oracle_from_digraph,
    oracle_greedy_partition,
    oracle_induced_order_preserving,
    oracle_out_of_index_labels_by_sweep,
    oracle_select_leaves,
    oracle_strongly_connected_components,
    oracle_topological_ranks,
)
from repro import obs
from repro.engine import ReachQuery
from repro.engine.prepared import PreparedGraph, publish_state
from repro.exceptions import NodeNotFoundError, ShardError
from repro.graph import kernels
from repro.graph.components import (
    Condensation,
    _cyclic_core,
    condensation,
    strongly_connected_components,
)
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import community_graph, path_graph
from repro.graph.kernels import ReachBatch, reach_batch
from repro.graph.topology import TopologicalRankIndex, csr_topological_ranks
from repro.reachability.compression import compress
from repro.reachability.hierarchy import (
    HierarchicalLandmarkIndex,
    _cover_statistics,
    build_index,
    select_leaves,
)
from repro.reachability import landmarks
from repro.reachability.landmarks import LabelTable, out_of_index_labels
from repro.reachability.rbreach import RBReach
from repro.service import GraphService
from repro.shard import ShardedEngine
from repro.shard.partition import Partition, greedy_partition, partition_graph
from repro.shard.shards import build_shards, induced_order_preserving
from repro.updates.delta import GraphDelta
from repro.workloads.datasets import load_dataset

ALPHAS = (0.02, 0.2, 1.0)
LABELS = ["A", "B", "C", 7]
CSR_ARRAYS = (
    "_label_ids",
    "_succ_indptr",
    "_succ_indices",
    "_pred_indptr",
    "_pred_indices",
    "_degrees",
)
SHAPES = ("random", "dag", "giant_scc", "sparse", "cycles")
NAMINGS = ("identity", "shuffled", "strings", "floats", "mixed")


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def _node_names(num_nodes: int, naming: str, rng: random.Random):
    if naming == "identity":
        return list(range(num_nodes))
    if naming == "shuffled":  # ints, but position != id
        names = list(range(num_nodes))
        rng.shuffle(names)
        return names
    if naming == "strings":
        return [f"n{node}" for node in range(num_nodes)]
    if naming == "floats":  # ``2.0 == 2``: equal to its position, but not an int
        return [float(node) for node in range(num_nodes)]
    return [(node, "t") if node % 3 == 0 else f"n{node}" for node in range(num_nodes)]


def make_graph(num_nodes: int, shape: str, naming: str, seed: int) -> DiGraph:
    """A labelled digraph with self-loops, isolated nodes and reciprocal edges."""
    rng = random.Random(seed)
    names = _node_names(num_nodes, naming, rng)
    graph = DiGraph()
    for name in names:
        graph.add_node(name, rng.choice(LABELS))
    if num_nodes == 0:
        return graph
    edges = {
        "random": 2 * num_nodes,
        "dag": 2 * num_nodes,
        "giant_scc": num_nodes,
        "sparse": num_nodes // 3,
        "cycles": num_nodes // 2,
    }[shape]
    if shape == "giant_scc":  # one cycle through most nodes, the rest hang off it
        ring = names[: max(1, (3 * num_nodes) // 4)]
        for position, name in enumerate(ring):
            graph.add_edge(name, ring[(position + 1) % len(ring)])
    if shape == "cycles":  # every node on a ring of 1-5 (one node: a self-loop), so no row peels
        start = 0
        while start < num_nodes:
            ring = names[start : start + rng.randint(1, 5)]
            for position, name in enumerate(ring):
                graph.add_edge(name, ring[(position + 1) % len(ring)])
            start += len(ring)
    for _ in range(edges):
        source, target = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if shape == "dag" and source == target:
            continue
        if shape in ("dag", "cycles"):  # forward chords keep most rings apart
            source, target = min(source, target), max(source, target)
        graph.add_edge(names[source], names[target])  # source == target: a self-loop
        if shape != "dag" and rng.random() < 0.25:
            graph.add_edge(names[target], names[source])
    return graph


@st.composite
def graphs(draw):
    return make_graph(
        draw(st.integers(min_value=0, max_value=40)),
        draw(st.sampled_from(SHAPES)),
        draw(st.sampled_from(NAMINGS)),
        draw(st.integers(min_value=0, max_value=10_000)),
    )


# --------------------------------------------------------------------------- #
# Equality of the prepared objects
# --------------------------------------------------------------------------- #
def assert_same_csr(actual: CSRGraph, expected: CSRGraph) -> None:
    assert list(actual._ids) == list(expected._ids)
    assert list(map(type, actual._ids)) == list(map(type, expected._ids))
    assert actual._index == expected._index  # a map with ``dict`` semantics, if not a dict
    assert actual._identity == expected._identity
    if actual._identity:  # ids 0..n-1 keep no per-node object
        assert type(actual._ids) is range and not isinstance(actual._index, dict)
    assert actual._label_table == expected._label_table
    for name in CSR_ARRAYS:
        left, right = getattr(actual, name), getattr(expected, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name


def assert_same_dag(actual: DiGraph, expected: DiGraph) -> None:
    assert list(actual.nodes()) == list(expected.nodes())
    assert actual.labels() == expected.labels()
    assert actual.num_edges() == expected.num_edges()
    for node in expected.nodes():
        assert list(actual.successors(node)) == list(expected.successors(node))
        assert list(actual.predecessors(node)) == list(expected.predecessors(node))
    actual.validate()


def assert_same_condensation(actual: Condensation, expected: OracleCondensation) -> None:
    """The column accessors first, then the containers they materialise."""
    assert type(actual) is Condensation and type(expected) is OracleCondensation
    assert (actual._dag, actual._membership, actual._members) == (None, None, None)
    for node, component in expected.membership.items():
        assert actual.component_of(node) == component
        assert type(actual.component_of(node)) is int
    for component, nodes in expected.members.items():
        assert actual.size_of(component) == len(nodes)
        assert type(actual.size_of(component)) is int
    with pytest.raises(NodeNotFoundError):
        actual.component_of("no such node")
    assert (actual._dag, actual._membership, actual._members) == (None, None, None)

    assert actual.membership == expected.membership
    assert actual.members == expected.members
    assert_same_dag(actual.dag, expected.dag)
    assert actual.membership is actual.membership and actual.dag is actual.dag  # made once


def assert_same_compression(actual, expected) -> None:
    assert actual.ranks.graph is actual.dag_csr and actual.condensation._mirror is actual.dag_csr
    expected_ranks = expected.ranks.ranks()
    for component, rank in expected_ranks.items():
        assert actual.ranks.rank(component) == rank
        assert type(actual.ranks.rank(component)) is int
    for node in expected.original.nodes():
        assert actual.rank_of(node) == expected.rank_of(node)
    assert actual.ranks.ranks() == expected_ranks
    assert actual.ranks.max_rank == expected.ranks.max_rank
    assert actual.ranks.max_degree == expected.ranks.max_degree
    for component in expected_ranks:
        assert actual.ranks.selection_score(component) == expected.ranks.selection_score(component)
    assert actual.compression_ratio() == expected.compression_ratio()
    assert_same_csr(actual.dag_csr, expected.dag_csr)
    assert_same_condensation(actual.condensation, expected.condensation)


def assert_same_index(actual: HierarchicalLandmarkIndex, expected: HierarchicalLandmarkIndex) -> None:
    for field in fields(HierarchicalLandmarkIndex):
        if field.name != "compressed":
            assert getattr(actual, field.name) == getattr(expected, field.name), field.name
    assert list(actual.landmarks) == list(expected.landmarks)  # leaf order, not just the set


def assert_same_label_order(actual: HierarchicalLandmarkIndex, expected: HierarchicalLandmarkIndex) -> None:
    """Every DAG node's ``v.E`` iterates as the oracle's set does, both directions."""
    for table in (actual.forward_labels, actual.backward_labels):
        if actual.landmarks:  # an empty graph's index has no label sweep
            assert type(table) is LabelTable
    for node in expected.compressed.dag.nodes():
        for forward, table in ((True, expected.forward_labels), (False, expected.backward_labels)):
            labels = actual.labels_of(node, forward)
            assert list(labels) == list(table.get(node, ())), (node, forward)
            labels.add("scribble")  # the caller owns it
            assert "scribble" not in actual.labels_of(node, forward)


def assert_same_answers(actual: RBReach, expected: RBReach, pairs) -> None:
    for source, target in pairs:
        left, right = actual.query(source, target), expected.query(source, target)
        assert (left.reachable, left.visited, left.met_at, left.exhausted) == (
            right.reachable,
            right.visited,
            right.met_at,
            right.exhausted,
        ), (source, target)


def check_prepare(graph: DiGraph, alphas, reference_size=None, pair_count=40, seed=0) -> None:
    """The whole prepare, stage by stage, array passes against the oracle."""
    frozen, frozen_oracle = CSRGraph.from_digraph(graph), oracle_from_digraph(graph)
    assert_same_csr(frozen, frozen_oracle)
    # ``compress`` freezes a ``DiGraph`` on entry: handed the graph itself, it
    # gives what it gives on the freeze, so one substrate covers both.
    assert_same_compression(compress(graph), oracle_compress(frozen_oracle))
    check_prepared_csr(frozen, frozen_oracle, alphas, reference_size, pair_count, seed)


def check_prepared_csr(frozen, frozen_oracle, alphas, reference_size=None, pair_count=40, seed=0):
    assert strongly_connected_components(frozen) == oracle_strongly_connected_components(
        frozen_oracle
    )
    assert_same_condensation(condensation(frozen), oracle_condensation(frozen_oracle))

    compressed, compressed_oracle = compress(frozen), oracle_compress(frozen_oracle)
    assert_same_compression(compressed, compressed_oracle)
    compressed = compress(frozen)  # the stages below run on columns, no container built
    ranks = csr_topological_ranks(compressed.dag_csr)
    assert dict(zip(compressed.dag_csr.nodes(), ranks.tolist())) == oracle_topological_ranks(
        compressed_oracle.dag
    )

    rng = random.Random(seed)
    nodes = list(frozen.nodes())
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(pair_count if nodes else 0)]
    for alpha in alphas:
        size = frozen.size() if reference_size is None else reference_size
        budget = max(2, int(alpha * size))
        leaves = select_leaves(compressed, alpha, budget)
        assert leaves == oracle_select_leaves(compressed_oracle, alpha, budget)
        index = build_index(compressed, alpha, reference_size=reference_size)
        index_oracle = oracle_build_index(frozen_oracle, alpha, reference_size=reference_size)
        assert_same_index(index, index_oracle)
        assert_same_answers(RBReach(index), RBReach(index_oracle), pairs)
        assert_same_label_order(index, index_oracle)
        # A cap small enough that the ``first_landmarks_hit`` fallback runs.
        for cap in (1, 2):
            tables = out_of_index_labels(compressed.dag_csr, set(leaves), max_labels=cap)
            oracle_tables = oracle_out_of_index_labels_by_sweep(
                compressed_oracle.dag, compressed_oracle.dag_csr, set(leaves), cap
            )
            assert tables == oracle_tables
            for copy in (tables, pickle.loads(pickle.dumps(tables))):
                index.forward_labels, index.backward_labels = copy
                index_oracle.forward_labels, index_oracle.backward_labels = oracle_tables
                assert_same_label_order(index, index_oracle)
    condensed = compressed.condensation
    assert (condensed._dag, condensed._membership, condensed._members) == (None, None, None)


# --------------------------------------------------------------------------- #
# The sweep
# --------------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(graphs())
def test_array_prepare_matches_the_oracle(graph):
    check_prepare(graph, ALPHAS, pair_count=12)


@pytest.mark.parametrize("num_nodes", [0, 1])
@pytest.mark.parametrize("naming", NAMINGS)
def test_empty_and_one_node_graphs(num_nodes, naming):
    check_prepare(make_graph(num_nodes, "random", naming, seed=1), ALPHAS)


def test_one_node_with_a_self_loop():
    graph = DiGraph()
    graph.add_node("only", "A")
    graph.add_edge("only", "only")
    check_prepare(graph, ALPHAS)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("naming", NAMINGS)
def test_every_shape_and_naming_at_a_size_the_cap_bites(shape, naming):
    # Big enough that α = 0.2 selects several landmarks and label sets pass 2.
    check_prepare(make_graph(150, shape, naming, seed=11), ALPHAS)


@pytest.mark.parametrize("naming", ["identity", "strings"])
def test_the_peel_leaves_rings_and_takes_a_dag(naming):
    """``cycles`` keeps every row (its own arrays, uncopied), ``dag`` peels every row."""
    frozen = CSRGraph.from_digraph(make_graph(150, "cycles", naming, seed=11))
    assert any(source == target for source, target in frozen.edges())  # self-loops
    core, indptr, indices = _cyclic_core(frozen)
    assert core.all() and indptr is frozen._succ_indptr and indices is frozen._succ_indices
    core, indptr, indices = _cyclic_core(CSRGraph.from_digraph(make_graph(150, "dag", naming, seed=11)))
    assert not core.any() and indices.shape == (0,) and indptr.tolist() == [0]


def test_the_peel_gives_up_on_a_chain(monkeypatch):
    """A path peels two rows a round; peeling it to the end took 1.5 s at 20 000 rows."""
    passes = Counter()
    bincount = np.bincount

    def counted(*args, **kwargs):
        passes["bincount"] += 1
        return bincount(*args, **kwargs)

    frozen = CSRGraph.from_digraph(path_graph(2_000))
    monkeypatch.setattr(np, "bincount", counted)
    core, indptr, indices = _cyclic_core(frozen)
    assert passes["bincount"] == 2  # one round, then Tarjan takes every row
    assert core.all() and indptr is frozen._succ_indptr and indices is frozen._succ_indices


def test_boolean_ids_are_not_the_identity():
    graph = DiGraph.from_edges([(False, True)], labels={False: "A", True: "B"})
    assert not CSRGraph.from_digraph(graph)._identity
    check_prepare(graph, ALPHAS)


def test_overlay_substrate_gets_the_mirror_ranks_and_order():
    """``compress`` freezes every substrate that is not a ``CSRGraph``, overlays included."""
    from repro.updates.overlay import MutableOverlay

    graph = make_graph(90, "random", "identity", seed=3)
    overlay = MutableOverlay(CSRGraph.from_digraph(graph))
    overlay.remove_node(5)
    graph.remove_node(5)
    on_overlay, on_digraph = compress(overlay), compress(graph)
    for compressed in (on_overlay, on_digraph):
        assert compressed.condensation._mirror is compressed.dag_csr
        assert compressed.ranks.graph is compressed.dag_csr  # a rank column
    assert_same_compression(on_digraph, oracle_compress(oracle_from_digraph(graph)))
    assert on_overlay.condensation.membership == on_digraph.condensation.membership
    assert_same_dag(on_overlay.dag, on_digraph.dag)
    assert on_overlay.ranks.ranks() == on_digraph.ranks.ranks()
    assert on_overlay.ranks.max_degree == on_digraph.ranks.max_degree
    for alpha in ALPHAS:
        assert_same_index(
            build_index(on_overlay, alpha, reference_size=graph.size()),
            build_index(on_digraph, alpha, reference_size=graph.size()),
        )


# --------------------------------------------------------------------------- #
# Label columns and id maps: published, looked up as the dicts were
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("shape", SHAPES)
def test_label_columns_attach_as_views_of_the_mirror_segment(shape):
    graph = make_graph(150, shape, "shuffled", seed=11)
    prepared = PreparedGraph(graph)
    prepared.prepare("reach", 0.2)
    oracle = oracle_build_index(oracle_from_digraph(graph), 0.2)
    with publish_state(prepared) as handle:
        pages = np.frombuffer(handle._segments["csr1"]._segment.buf, dtype=np.uint8)  # the mirror's
        attached = handle.attach().reachability_index(0.2)
        columns = attached.columns()
        assert sorted(columns) == ["backward_offsets", "backward_values", "forward_offsets", "forward_values"]
        for name, column in columns.items():
            assert not column.flags.writeable and np.shares_memory(column, pages), name
        assert_same_index(attached, oracle)
        assert_same_label_order(attached, oracle)
        del pages, columns, column, attached


def test_an_update_re_prepares_every_index_like_a_fresh_prepare():
    """Built α indexes are rebuilt on arrays at once; a new α selects like a fresh prepare."""
    delta = GraphDelta().add_edge(3, 200).add_edge(200, 3).add_edge(40, 41)
    prepared = PreparedGraph(make_graph(300, "random", "identity", seed=5))
    prepared.prepare("reach", 0.05)
    assert prepared.apply_delta(delta).mode == "patched"
    assert type(prepared._indexes[0.05].forward_labels) is LabelTable
    mutated = make_graph(300, "random", "identity", seed=5)
    for source, target in ((3, 200), (200, 3), (40, 41)):
        mutated.add_edge(source, target)
    for alpha in (0.05, 0.2, 1.0):
        oracle = oracle_build_index(oracle_from_digraph(mutated), alpha)
        assert_same_index(prepared.reachability_index(alpha), oracle)
        assert_same_label_order(prepared.reachability_index(alpha), oracle)


ID_KEYS = [0, 1, 3, -1, -2, True, False, 1.0, 2.5, np.int64(3), np.float64(2.0), "1", None, (1,), 2**64 + 1]


def assert_same_id_map(graph: CSRGraph, reference: dict, keys) -> None:
    """``index_of``/``in``/``get`` of ``graph`` against the dict its ids would make."""
    for key in keys:
        expected = reference.get(key)
        assert graph._index.get(key) == expected and (key in graph) == (key in reference), key
        if expected is None:
            with pytest.raises(NodeNotFoundError):
                graph.index_of(key)
        else:
            assert graph.index_of(key) == expected and type(graph.index_of(key)) is int
    for unhashable in ([1], {1}, {1: 1}):
        for probe in (reference.get, graph._index.get, graph.__contains__):
            with pytest.raises(TypeError):
                probe(unhashable)


@pytest.mark.parametrize("num_nodes", [0, 1, 5])
def test_identity_id_map_has_dict_semantics(num_nodes):
    graph = CSRGraph.from_digraph(make_graph(num_nodes, "sparse", "identity", seed=1))
    assert type(graph._ids) is range and not isinstance(graph._index, dict)
    reference = {i: i for i in range(num_nodes)}
    assert_same_id_map(graph, reference, ID_KEYS + [num_nodes - 1, num_nodes, num_nodes + 7])
    assert graph.ids_of(np.arange(num_nodes)) == list(graph.nodes()) == list(reference)
    assert [graph.node_at(i) for i in range(num_nodes)] == list(reference)
    assert pickle.loads(pickle.dumps(graph))._index == reference


def test_the_dag_mirror_resolves_its_ids_through_columns():
    mirror = compress(CSRGraph.from_digraph(make_graph(200, "giant_scc", "identity", seed=4))).dag_csr
    ids = list(mirror.nodes())
    assert ids != list(range(len(ids)))  # the ring merged, so ids skip
    assert type(mirror._ids) is memoryview and not isinstance(mirror._index, dict)
    reference = {node: row for row, node in enumerate(ids)}
    assert_same_id_map(mirror, reference, ID_KEYS + list(range(-2, 205)))
    assert mirror.ids_of(np.arange(len(ids))) == ids
    assert [mirror.node_at(row) for row in range(len(ids))] == ids
    assert pickle.loads(pickle.dumps(mirror))._index == reference


# --------------------------------------------------------------------------- #
# Fixed cases: the benchmark's graphs
# --------------------------------------------------------------------------- #
def test_youtube_at_the_benchmark_alpha():
    graph = load_dataset("youtube", seed=7)
    frozen, frozen_oracle = CSRGraph.from_digraph(graph), oracle_from_digraph(graph)
    assert_same_csr(frozen, frozen_oracle)
    compressed, compressed_oracle = compress(frozen), oracle_compress(frozen_oracle)
    index = build_index(compressed, 0.02)
    assert index.num_landmarks() == 624
    assert_same_compression(compressed, compressed_oracle)
    index_oracle = oracle_build_index(frozen_oracle, 0.02)
    assert_same_index(index, index_oracle)
    rng = random.Random(7)
    nodes = list(frozen.nodes())
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(300)]
    assert_same_answers(RBReach(index), RBReach(index_oracle), pairs)


def benchmark_community_graph() -> DiGraph:
    return community_graph([120] + [60] * 79, intra_probability=0.1, inter_edges=0, seed=7)


def test_community_at_the_benchmark_alpha():
    graph = benchmark_community_graph()
    frozen, frozen_oracle = CSRGraph.from_digraph(graph), oracle_from_digraph(graph)
    assert_same_csr(frozen, frozen_oracle)
    index = build_index(compress(frozen), 0.01)
    assert index.num_landmarks() == 44
    assert_same_index(index, oracle_build_index(frozen_oracle, 0.01))


def test_one_shard_of_the_community_graph():
    graph = benchmark_community_graph()
    shards = build_shards(graph, partition_graph(graph, 2, seed=7))
    shard = shards[1]
    assert isinstance(shard.graph, CSRGraph)
    # The shard's CSR was induced, not frozen: rebuild the oracle's copy from its arrays.
    twin = CSRGraph(
        list(shard.graph._ids),
        list(shard.graph._label_table),
        *(getattr(shard.graph, name).copy() for name in CSR_ARRAYS),
    )
    check_prepared_csr(shard.graph, twin, (0.01,), reference_size=shard.core_size, pair_count=100)


# --------------------------------------------------------------------------- #
# The shard build: partitioner and row-sliced shard graphs against the oracle
# --------------------------------------------------------------------------- #
def assert_same_partition(actual: Partition, expected: Partition) -> None:
    assert list(actual.assignment.items()) == list(expected.assignment.items())
    assert list(map(type, actual.assignment)) == list(map(type, expected.assignment))
    assert actual.boundary == expected.boundary
    assert (actual.num_shards, actual.method, actual.seed) == (
        expected.num_shards,
        expected.method,
        expected.seed,
    )
    assert (actual.cut_edges, actual.total_edges) == (expected.cut_edges, expected.total_edges)


def check_shard_build(graph: DiGraph, num_shards: int, seed: int, halo_depth: int) -> None:
    """Same ``Partition`` from a ``DiGraph`` and its freeze, and the same shard arrays."""
    if num_shards > graph.num_nodes():
        for partition in (greedy_partition, oracle_greedy_partition):
            with pytest.raises(ShardError):
                partition(graph, num_shards, seed=seed)
        return
    expected = oracle_greedy_partition(graph, num_shards, seed=seed)
    assert_same_partition(greedy_partition(CSRGraph.from_digraph(graph), num_shards, seed=seed), expected)
    partition = greedy_partition(graph, num_shards, seed=seed)
    assert_same_partition(partition, expected)
    for shard_id, shard in build_shards(graph, partition, halo_depth=halo_depth).items():
        core_list = oracle_core_list(graph, partition, shard_id)
        halo = oracle_collect_halo(graph, core_list, set(core_list), halo_depth) if num_shards > 1 else []
        assert shard.core_list == core_list and shard.halo == set(halo)
        assert shard.core == set(core_list)
        assert_same_csr(shard.graph, oracle_induced_order_preserving(graph, core_list + halo))
        assert shard.core_size == len(core_list) + sum(map(graph.out_degree, core_list))


@st.composite
def shard_builds(draw):
    graph = make_graph(
        draw(st.integers(min_value=1, max_value=40)),
        draw(st.sampled_from(SHAPES)),  # "sparse": isolated nodes, more components than k
        draw(st.sampled_from(NAMINGS)),
        draw(st.integers(min_value=0, max_value=10_000)),
    )
    return graph, draw(st.integers(1, 5)), draw(st.integers(0, 3)), draw(st.integers(1, 3))


@settings(max_examples=80, deadline=None)
@given(shard_builds())
def test_shard_build_matches_the_oracle(build):
    check_shard_build(*build)


@settings(max_examples=40, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_node_by_node_induction_matches_the_oracle(graph, rng):
    """The spill path's ``induced_order_preserving``, on any node subset in any order."""
    nodes = rng.sample(list(graph.nodes()), rng.randint(0, graph.num_nodes()))
    assert_same_csr(induced_order_preserving(graph, nodes), oracle_induced_order_preserving(graph, nodes))


@pytest.mark.parametrize("num_nodes", [1, 2, 3, 5])
@pytest.mark.parametrize("naming", ["identity", "strings"])
def test_as_many_shards_as_nodes(num_nodes, naming):
    check_shard_build(make_graph(num_nodes, "sparse", naming, seed=3), num_nodes, 1, 2)


@pytest.mark.parametrize("num_shards", [2, 4])
def test_shard_build_of_the_community_graph(num_shards):
    check_shard_build(benchmark_community_graph(), num_shards, 0, 3)


def test_shard_build_of_youtube_small():
    graph = load_dataset("youtube-small", seed=7)
    for num_shards in (2, 4):
        check_shard_build(graph, num_shards, 7, 3)


@pytest.fixture
def adjacency_calls(monkeypatch):
    """Counts the per-node degree and neighbour reads a shard build must not make."""
    counts = Counter()
    for owner, names in ((DiGraph, ("neighbors", "degree", "max_degree")), (CSRGraph, ("neighbors", "degree"))):
        for name in names:
            original = getattr(owner, name)

            def wrapper(*args, _original=original, _key=f"{owner.__name__}.{name}", **kwargs):
                counts[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)
    return counts


def test_work_gate_sharded_build_reads_rows_not_nodes(adjacency_calls):
    graph = benchmark_community_graph()
    engine = ShardedEngine(graph, num_shards=2)
    assert engine.partition.cut_edges and all(shard.halo for shard in engine.shards.values())
    assert adjacency_calls == Counter()


def test_memory_gate_sharded_build():
    """No per-node lists: the per-node-list design peaked at 7.1 MB here."""
    graph = benchmark_community_graph()
    tracemalloc.start()
    try:
        ShardedEngine(graph, num_shards=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


# --------------------------------------------------------------------------- #
# ``ReachBatch.pairs()`` against the per-source accessors
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def sweep_graph():
    graph = make_graph(300, "random", "strings", seed=21)
    return graph, CSRGraph.from_digraph(graph)


def _pairs_by_source(batch: ReachBatch, rows=None):
    hit_rows, hit_sources = batch.pairs(rows)
    assert hit_rows.shape == hit_sources.shape
    grouped = {j: [] for j in range(batch.num_sources)}
    for row, j in zip(hit_rows.tolist(), hit_sources.tolist()):
        grouped[j].append(row)
    return grouped, list(zip(hit_rows.tolist(), hit_sources.tolist()))


@pytest.mark.parametrize("with_stop", [False, True], ids=["free", "absorbing"])
@pytest.mark.parametrize("num_sources", [1, 63, 64, 65, 256, 257])
def test_pairs_matches_rows_probe_rows_and_row_lists(sweep_graph, num_sources, with_stop):
    graph, frozen = sweep_graph
    names = list(graph.nodes())
    sources = names[:num_sources]
    stop = set(names[::3]) if with_stop else None
    candidates = np.array([frozen.index_of(name) for name in names[5:300:7]][::-1])
    bitset = reach_batch(frozen, sources, forward=True, stop=stop)
    oracle = reach_batch(graph, sources, forward=True, stop=stop)
    assert bitset._bits is not None and oracle._sets is not None
    for batch in (bitset, oracle):
        grouped, flat = _pairs_by_source(batch)
        assert flat == sorted(flat)  # ascending row, then source
        lists = batch.row_lists()
        for j in range(num_sources):
            assert grouped[j] == batch.rows(j) == lists[j].tolist()
        assert len(flat) == batch.total_bits() == sum(batch.counts())
        probed, flat = _pairs_by_source(batch, candidates)
        for j in range(num_sources):
            assert probed[j] == batch.probe_rows(j, candidates)
        position = {int(row): at for at, row in enumerate(candidates.tolist())}
        keys = [(position[row], j) for row, j in flat]
        assert keys == sorted(keys)  # position in ``rows``, then source
    assert _pairs_by_source(bitset)[1] == _pairs_by_source(oracle)[1]
    assert _pairs_by_source(bitset, candidates)[1] == _pairs_by_source(oracle, candidates)[1]


def test_pairs_of_an_empty_batch():
    frozen = CSRGraph.from_digraph(make_graph(10, "random", "identity", seed=2))
    rows, sources = reach_batch(frozen, []).pairs()
    assert rows.shape == sources.shape == (0,)


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
@pytest.mark.parametrize("absorbing", [False, True], ids=["full", "absorbing"])
def test_sweep_expands_no_more_words_than_it_sets_bits(forward, absorbing):
    """``kernel.sweep.words``: every expanded frontier entry carries a fresh bit."""
    compressed = compress(CSRGraph.from_digraph(make_graph(400, "random", "shuffled", seed=4)))
    mirror = compressed.dag_csr
    leaves = select_leaves(compressed, 0.05, 60)
    stop = np.zeros(mirror.num_nodes(), dtype=bool)
    stop[[mirror.index_of(leaf) for leaf in leaves]] = True
    obs.set_enabled(True)
    obs.REGISTRY.reset()
    try:
        batch = reach_batch(mirror, leaves, forward=forward, stop=stop if absorbing else None)
        assert 0 < obs.counter("kernel.sweep.words").value <= batch.total_bits()
    finally:
        obs.REGISTRY.reset()


# --------------------------------------------------------------------------- #
# Deterministic work gate
# --------------------------------------------------------------------------- #
@pytest.fixture
def work_counts(monkeypatch):
    """Counts the calls the array prepare must not (or must exactly) make."""
    counts = Counter()

    def counted(owner, name, wrap=lambda function: function):
        original = getattr(owner, name)
        original = getattr(original, "fget", original)  # a property: count its reads

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrap(wrapper))

    # A freeze reads an exact ``DiGraph`` as columns, never node by node.
    for name in ("add_edge", "degree", "successors", "predecessors", "label"):
        counted(DiGraph, name)
    for name in ("probe_rows", "row_lists", "rows", "mask"):
        counted(ReachBatch, name)
    # A build maps its landmarks to mirror rows once, for every sweep.
    counted(CSRGraph, "index_of")
    counted(kernels, "reach_batch")
    # ``getattr`` already bound the classmethod to ``CSRGraph``.
    counted(CSRGraph, "from_digraph", wrap=staticmethod)
    counted(DiGraph, "__init__")
    for name in ("dag", "membership", "members"):
        counted(Condensation, name, wrap=property)
    # The landmark order is one array sort: no per-component key, rank or
    # size (``rank`` is read once per landmark, for its ``LandmarkInfo``).
    counted(TopologicalRankIndex, "rank")
    counted(Condensation, "size_of")
    counted(landmarks, "selection_sort_key")
    return counts


GATED_TO_ZERO = ("add_edge", "degree", "probe_rows", "row_lists", "rows", "mask")


def assert_no_per_component_order(work_counts, landmarks_built: int) -> None:
    assert (work_counts["size_of"], work_counts["selection_sort_key"]) == (0, 0)
    assert work_counts["rank"] == landmarks_built
    assert work_counts["index_of"] <= landmarks_built


@pytest.mark.parametrize("naming", ["strings", "identity", "shuffled"])
def test_work_gate_preparing_reach_from_a_digraph(work_counts, naming):
    graph = make_graph(400, "random", naming, seed=9)
    work_counts.clear()  # building the input inserted its edges one by one
    prepared = PreparedGraph(graph)
    prepared.prepare("reach", 0.05)
    built = prepared.reachability_index(0.05).num_landmarks()
    assert built > 1
    assert work_counts["from_digraph"] == 1
    assert (work_counts["successors"], work_counts["predecessors"], work_counts["label"]) == (0, 0, 0)
    assert work_counts["reach_batch"] == 4  # two per statistics pass, two per label pass
    assert {name: work_counts[name] for name in GATED_TO_ZERO} == dict.fromkeys(GATED_TO_ZERO, 0)
    assert_no_per_component_order(work_counts, built)


def test_work_gate_preparing_reach_from_csr(work_counts):
    frozen = CSRGraph.from_digraph(make_graph(400, "giant_scc", "identity", seed=9))
    work_counts.clear()
    prepared = PreparedGraph(frozen)
    prepared.prepare("reach", 0.05)
    prepared.prepare("reach", 0.2)  # a second α reuses the compression
    assert work_counts["from_digraph"] == 0
    assert work_counts["reach_batch"] == 8
    assert {name: work_counts[name] for name in GATED_TO_ZERO} == dict.fromkeys(GATED_TO_ZERO, 0)
    built = sum(prepared.reachability_index(alpha).num_landmarks() for alpha in (0.05, 0.2))
    assert_no_per_component_order(work_counts, built)


def test_work_gate_per_pass(work_counts):
    compressed = compress(CSRGraph.from_digraph(make_graph(400, "random", "shuffled", seed=4)))
    leaves = select_leaves(compressed, 0.05, 60)
    work_counts.clear()
    _cover_statistics(compressed.dag_csr, leaves)
    assert work_counts["reach_batch"] == 2
    out_of_index_labels(compressed.dag_csr, set(leaves), max_labels=30)
    assert work_counts["reach_batch"] == 4
    assert {name: work_counts[name] for name in GATED_TO_ZERO} == dict.fromkeys(GATED_TO_ZERO, 0)


NO_CONTAINERS = ("__init__", "dag", "membership", "members")


def test_work_gate_fresh_csr_prepare_and_reach_batch_build_no_container(work_counts):
    """A read-only service never asks for what only an update needs."""
    graph = make_graph(400, "giant_scc", "strings", seed=9)
    frozen = CSRGraph.from_digraph(graph)
    rng = random.Random(9)
    nodes = list(graph.nodes())
    queries = [ReachQuery(rng.choice(nodes), rng.choice(nodes)) for _ in range(200)]
    work_counts.clear()
    with GraphService(frozen, executor="serial", cache_size=0) as service:
        service.prepare(reach_alphas=[0.05])
        report = service.run_batch(queries, 0.05)
    assert any(answer.reachable for answer in report.answers)
    assert {name: work_counts[name] for name in NO_CONTAINERS} == dict.fromkeys(NO_CONTAINERS, 0)
    # ... and neither does an update: it re-prepares on arrays, freezing nothing node by node.
    with GraphService(frozen, executor="serial", cache_size=0) as service:
        service.prepare(reach_alphas=[0.05])
        work_counts.clear()
        assert service.update(GraphDelta().add_edge(nodes[0], nodes[-1])).mode == "patched"
        assert {name: work_counts[name] for name in NO_CONTAINERS} == dict.fromkeys(NO_CONTAINERS, 0)
        assert work_counts["from_digraph"] == 0
