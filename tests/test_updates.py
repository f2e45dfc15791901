"""Tests for the incremental-update layer (``repro.updates`` + service wiring).

The load-bearing property is **rebuild equivalence**: after any delta
sequence, the updated service's answers are bit-identical — field by field,
``visited`` counters included — to a service freshly prepared on the mutated
graph, for every executor and worker count.  On top of that: the overlay
must mirror ``DiGraph`` op semantics exactly (including iteration order),
its array freeze must equal the node-by-node one, the comparison of the old
and the fresh condensation must name exactly the components that changed,
and cache invalidation must be surgical (touched entries evicted, untouched
entries provably still exact stay hot).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from guard_reference import has_child_label, has_parent_label
from repro.engine import PatternQuery, ReachQuery
from repro.engine.prepared import PreparedGraph
from repro.exceptions import EdgeNotFoundError, NodeNotFoundError, WorkloadError
from repro.graph.csr import CSRGraph, freeze
from repro.graph.digraph import DiGraph
from repro.graph.generators import preferential_attachment_graph
from repro.graph.protocol import GraphLike
from repro.reachability.compression import component_changes, compress
from repro.service import GraphService
from repro.updates import GraphDelta, MutableOverlay, overlay_digraph_equal
from repro.workloads.deltas import generate_delta_stream
from repro.workloads.queries import generate_reachability_workload

ALPHA = 0.05


def _reach_signature(answers):
    return [(a.reachable, a.visited, a.met_at, a.exhausted) for a in answers]


def _serial(graph, cache_size=0, **config) -> GraphService:
    """A serial service (cache-free unless asked): the reference the tests diff against."""
    return GraphService(graph, executor="serial", cache_size=cache_size, **config)


def _answers(service, queries, alpha=ALPHA):
    return _reach_signature(service.run_batch(queries, alpha).answers)


def _random_delta(rng, graph: DiGraph, ops: int, allow_removals: bool = False) -> GraphDelta:
    """A valid delta for ``graph`` (validated against a working copy)."""
    working = graph.copy()
    nodes = list(working.nodes())
    delta = GraphDelta()
    for position in range(ops):
        roll = rng.random()
        if roll < 0.35:
            source, target = rng.choice(nodes), rng.choice(nodes)
            delta.add_edge(source, target)
            working.add_edge(source, target)
        elif roll < 0.6:
            edges = list(working.edges())
            if not edges:
                continue
            source, target = rng.choice(edges)
            delta.remove_edge(source, target)
            working.remove_edge(source, target)
        elif roll < 0.8:
            name = f"fresh-{position}-{rng.randrange(1 << 20)}"
            label = rng.choice("XYZ")
            target = rng.choice(nodes)
            delta.add_node(name, label=label).add_edge(name, target)
            working.add_node(name, label)
            working.add_edge(name, target)
            nodes.append(name)
        elif allow_removals and len(nodes) > 4:
            victim = rng.choice(nodes)
            delta.remove_node(victim)
            working.remove_node(victim)
            nodes = [node for node in nodes if node != victim]
        else:
            delta.add_node(rng.choice(nodes), label=rng.choice("XYZ"))
    return delta


class TestGraphDelta:
    def test_builders_and_inspection(self):
        delta = GraphDelta().add_node("a", "L").add_edge("a", "b").remove_edge("b", "c").remove_node("d")
        assert delta.size() == len(delta) == 4
        assert delta.touched_nodes() == {"a", "b", "c", "d"}
        assert delta.has_node_removals()
        assert "add_edge=1" in repr(delta)

    def test_apply_to_digraph_matches_manual_ops(self):
        graph = DiGraph.from_edges([(1, 2), (2, 3)], labels={1: "A", 2: "B", 3: "C"})
        delta = GraphDelta().add_node(4, "D").add_edge(3, 4).remove_edge(1, 2)
        applied = delta.apply_to(graph)
        assert graph.has_edge(3, 4) and not graph.has_edge(1, 2)
        assert applied.nodes_added == [4]
        assert applied.edges_added == [(3, 4)]
        assert applied.edges_removed == [(1, 2)]

    def test_remove_node_records_incident_edges(self):
        graph = DiGraph.from_edges([(1, 2), (3, 2), (2, 4)])
        applied = GraphDelta().remove_node(2).apply_to(graph)
        assert set(applied.edges_removed) == {(1, 2), (3, 2), (2, 4)}
        assert applied.nodes_removed == [2]

    def test_invalid_ops_raise_like_digraph(self):
        graph = DiGraph.from_edges([(1, 2)])
        with pytest.raises(EdgeNotFoundError):
            GraphDelta().remove_edge(2, 1).apply_to(graph)
        with pytest.raises(NodeNotFoundError):
            GraphDelta().remove_node(99).apply_to(graph)
        with pytest.raises(NodeNotFoundError):
            GraphDelta().add_edge(1, 99).apply_to(graph)

    def test_reinsert_is_noop_and_relabel_recorded(self):
        graph = DiGraph.from_edges([(1, 2)], labels={1: "A", 2: "B"})
        applied = GraphDelta().add_edge(1, 2).add_node(1, "Z").apply_to(graph)
        assert applied.edges_added == []
        assert applied.relabeled == [1]
        assert graph.label(1) == "Z"


class TestMutableOverlay:
    def test_satisfies_graphlike(self):
        graph = preferential_attachment_graph(num_nodes=40, edges_per_node=2, seed=1)
        overlay = MutableOverlay(CSRGraph.from_digraph(graph))
        assert isinstance(overlay, GraphLike)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_overlay_matches_digraph_ops_exactly(self, seed):
        """Differential property: same ops, same state, same orders, same errors."""
        rng = random.Random(seed)
        graph = preferential_attachment_graph(
            num_nodes=40, edges_per_node=2, seed=seed % 7, back_edge_probability=0.15
        )
        overlay = MutableOverlay(CSRGraph.from_digraph(graph))
        mutable = graph.copy()
        pool = list(mutable.nodes()) + [f"x{i}" for i in range(8)]
        for _ in range(50):
            roll = rng.random()
            if roll < 0.35:
                op = GraphDelta().add_edge(rng.choice(pool), rng.choice(pool))
            elif roll < 0.6:
                op = GraphDelta().remove_edge(rng.choice(pool), rng.choice(pool))
            elif roll < 0.8:
                op = GraphDelta().add_node(rng.choice(pool), label=rng.choice("AB"))
            else:
                op = GraphDelta().remove_node(rng.choice(pool))
            digraph_error = overlay_error = None
            try:
                op.apply_to(mutable)
            except Exception as exc:  # noqa: BLE001 - differential comparison
                digraph_error = type(exc)
            try:
                overlay.apply(op)
            except Exception as exc:  # noqa: BLE001 - differential comparison
                overlay_error = type(exc)
            assert digraph_error == overlay_error
        assert overlay_digraph_equal(overlay, mutable)
        assert overlay.num_edges() == mutable.num_edges()
        for node in mutable.nodes():
            assert overlay.in_degree(node) == mutable.in_degree(node)
            assert overlay.out_degree(node) == mutable.out_degree(node)
            assert overlay.degree(node) == mutable.degree(node)
            assert list(overlay.neighbors(node)) == list(mutable.neighbors(node))
        assert overlay.labels() == dict(mutable.labels())
        for label in mutable.distinct_labels():
            assert overlay.nodes_with_label(label) == mutable.nodes_with_label(label)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000), removals=st.booleans())
    def test_freeze_equals_the_digraph_freeze(self, seed, removals):
        """Array for array, each delta over the last freeze, as updates chain them."""
        rng = random.Random(seed)
        graph = preferential_attachment_graph(
            num_nodes=40, edges_per_node=2, seed=seed % 7, back_edge_probability=0.15
        )
        frozen = CSRGraph.from_digraph(graph)
        mutable = graph.copy()
        for _ in range(2):
            overlay = MutableOverlay(frozen)
            delta = _random_delta(rng, mutable, ops=12, allow_removals=removals)
            delta.apply_to(mutable)
            overlay.apply(delta)
            frozen = overlay.freeze()
            assert_same_arrays(frozen, CSRGraph.from_digraph(overlay))
            assert_same_arrays(frozen, CSRGraph.from_digraph(mutable))

    def test_freeze_moves_reinserted_items_to_the_end(self):
        graph = DiGraph.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)], labels={0: "A", 1: "B", 2: "A", 3: "C"}
        )
        delta = (
            GraphDelta()
            .remove_node(1)
            .add_node(1, "Q")
            .add_edge(1, 0)
            .remove_edge(2, 0)
            .add_edge(2, 0)
            .add_node(3, "R")
            .add_node("new", "A")
            .add_edge("new", 1)
            .add_edge(0, "new")
        )
        overlay = MutableOverlay(CSRGraph.from_digraph(graph))
        overlay.apply(delta)
        mutable = graph.copy()
        delta.apply_to(mutable)
        frozen = overlay.freeze()
        assert list(frozen.nodes()) == [0, 2, 3, 1, "new"]
        assert list(frozen.successors(2)) == [3, 0]
        assert frozen._label_table == ["A", "R", "Q"]
        assert_same_arrays(frozen, CSRGraph.from_digraph(mutable))

    def test_freeze_reads_no_per_node_view(self, monkeypatch):
        graph = preferential_attachment_graph(num_nodes=60, edges_per_node=2, seed=3)
        overlay = MutableOverlay(CSRGraph.from_digraph(graph))
        overlay.apply(_random_delta(random.Random(3), graph, ops=25, allow_removals=True))
        expected = CSRGraph.from_digraph(overlay)
        for name in ("label", "successors", "predecessors", "neighbors", "nodes"):
            monkeypatch.setattr(MutableOverlay, name, None)
        assert_same_arrays(overlay.freeze(), expected)


    def test_freeze_over_a_digraph_base_goes_node_by_node(self):
        graph = preferential_attachment_graph(num_nodes=30, edges_per_node=2, seed=2)
        overlay = MutableOverlay(graph.copy())
        delta = _random_delta(random.Random(2), graph, ops=10, allow_removals=True)
        overlay.apply(delta)
        delta.apply_to(graph)
        assert_same_arrays(overlay.freeze(), CSRGraph.from_digraph(graph))

    def test_the_graph_freeze_sends_an_overlay_to_its_array_freeze(self, monkeypatch):
        """``repro.graph.csr.freeze`` (what the matchers and the ``Sl`` index
        call on entry) reads an overlay's arrays, not its per-node views."""
        graph = preferential_attachment_graph(num_nodes=60, edges_per_node=2, seed=5)
        overlay = MutableOverlay(CSRGraph.from_digraph(graph))
        overlay.apply(_random_delta(random.Random(5), graph, ops=25, allow_removals=True))
        expected = CSRGraph.from_digraph(overlay)
        for name in ("label", "successors", "predecessors", "neighbors", "nodes"):
            monkeypatch.setattr(MutableOverlay, name, None)
        assert_same_arrays(freeze(overlay), expected)

    def test_the_graph_freeze_of_a_csr_graph_is_the_graph_itself(self):
        frozen = CSRGraph.from_digraph(preferential_attachment_graph(num_nodes=20, edges_per_node=2, seed=1))
        assert freeze(frozen) is frozen

    def test_the_graph_freeze_of_a_digraph_keeps_its_order(self):
        graph = DiGraph.from_edges(
            [(3, 1), (1, 2), (2, 3), (3, 0), (0, 1)], labels={3: "A", 1: "B", 2: "A", 0: "C"}
        )
        frozen = freeze(graph)
        assert list(frozen.nodes()) == [3, 1, 2, 0]
        assert list(frozen.successors(3)) == [1, 0]
        assert_same_arrays(frozen, CSRGraph.from_digraph(graph))


def assert_same_arrays(actual: CSRGraph, expected: CSRGraph) -> None:
    """Ids, label table and every column equal, dtypes included."""
    assert list(actual.nodes()) == list(expected.nodes())
    assert actual._identity == expected._identity
    assert actual._label_table == expected._label_table
    for name in (
        "_label_ids",
        "_succ_indptr",
        "_succ_indices",
        "_pred_indptr",
        "_pred_indices",
        "_degrees",
    ):
        left, right = getattr(actual, name), getattr(expected, name)
        assert left.dtype == right.dtype and np.array_equal(left, right), name


class TestComponentChanges:
    def test_a_merge_and_a_split_name_their_components(self):
        # Two 2-cycles {0, 1} and {2, 3}, joined 1 -> 2, with a tail 3 -> 4.
        graph = DiGraph.from_edges([(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (3, 4)])
        old = compress(CSRGraph.from_digraph(graph))
        merged = graph.copy()
        merged.add_edge(3, 0)  # one cycle through 0..3; 4 stays alone, rank unmoved
        dirty, moved = component_changes(old, compress(CSRGraph.from_digraph(merged)), {3, 0})
        assert (dirty, moved) == ({0, 1, 2, 3}, False)
        split = graph.copy()
        split.remove_edge(1, 0)  # {0, 1} splits; 0 and 1 become their own components
        dirty, moved = component_changes(old, compress(CSRGraph.from_digraph(split)), {1, 0})
        assert (dirty, moved) == ({0, 1}, False)
        chained = graph.copy()
        chained.add_node(5)
        chained.add_edge(4, 5)  # 4 gains a child: it and every ancestor move rank
        dirty, moved = component_changes(old, compress(CSRGraph.from_digraph(chained)), {4, 5})
        assert (dirty, moved) == ({5}, True)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_component_changes_match_a_scan_of_every_component(self, seed):
        """The touched nodes' components are all that can change, and the rank
        check sees every surviving component."""
        rng = random.Random(seed)
        graph = preferential_attachment_graph(
            num_nodes=60, edges_per_node=2, seed=seed % 5, back_edge_probability=0.2
        )
        mutable = graph.copy()
        old = compress(CSRGraph.from_digraph(graph))
        for _ in range(3):
            delta = _random_delta(rng, mutable, ops=10)
            touched = delta.apply_to(mutable).touched_nodes()
            fresh = compress(CSRGraph.from_digraph(mutable))
            dirty, moved = component_changes(old, fresh, touched)

            def groups(compressed):
                members = compressed.condensation.members
                return {component: frozenset(nodes) for component, nodes in members.items()}

            before, after = groups(old), groups(fresh)
            expected_dirty = set()
            for node in mutable.nodes():
                now = after[fresh.component_of(node)]
                then = before[old.component_of(node)] if node in old.original else frozenset()
                if now != then:
                    expected_dirty |= now | then
            assert dirty == expected_dirty
            assert moved == any(
                old.ranks.rank(component) != fresh.ranks.rank(component)
                for component, members in before.items()
                if after.get(component) == members
            )
            old = fresh


@pytest.fixture(scope="module")
def served_graph():
    return preferential_attachment_graph(
        num_nodes=400, edges_per_node=2, seed=13, back_edge_probability=0.1
    )


@pytest.fixture(scope="module")
def reach_queries(served_graph):
    workload = generate_reachability_workload(served_graph, count=40, seed=4)
    return [ReachQuery(source, target) for source, target in workload.pairs]


class TestRebuildEquivalence:
    """The acceptance contract: updated answers == freshly prepared answers."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rounds=st.integers(min_value=1, max_value=3),
    )
    def test_patched_updates_match_fresh_prepare(self, served_graph, reach_queries, seed, rounds):
        rng = random.Random(seed)
        service = _serial(served_graph)
        pooled = GraphService(served_graph, executor="daemon", workers=3, cache_size=0)
        _answers(service, reach_queries)  # build the prepared state
        mutable = served_graph.copy()
        with pooled:
            for _ in range(rounds):
                delta = _random_delta(rng, mutable, ops=8)
                delta.apply_to(mutable)
                assert service.update(delta).mode in ("patched", "rebuilt")
                pooled.update(delta)
            updated = _answers(service, reach_queries)
            assert updated == _answers(pooled, reach_queries)
        assert updated == _answers(_serial(service.graph), reach_queries)
        assert updated == _answers(_serial(mutable), reach_queries)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_max_degree_reads_the_fresh_csr(self, served_graph, seed):
        """The pattern matchers' visit coefficient, after node removals too."""
        rng = random.Random(seed)
        prepared = PreparedGraph(served_graph.copy())
        hub = max(served_graph.nodes(), key=served_graph.degree)
        mutable = served_graph.copy()
        deltas = [GraphDelta().remove_node(next(iter(served_graph.neighbors(hub))))]
        assert prepared.max_degree() == served_graph.max_degree()
        for step in range(7):
            delta = deltas[0] if step == 0 else _random_delta(rng, mutable, ops=8, allow_removals=True)
            delta.apply_to(mutable)
            prepared.apply_delta(delta)
            assert prepared.max_degree() == mutable.max_degree()

    @staticmethod
    def _remove_a_node(served_graph, reach_queries, alphas):
        service = _serial(served_graph)
        for alpha in alphas:
            service.run_batch(reach_queries, alpha)
        mutable = served_graph.copy()
        delta = GraphDelta().remove_node(next(iter(served_graph.nodes())))
        delta.apply_to(mutable)
        assert service.update(delta).mode == "rebuilt"
        return service, mutable

    def test_node_removals_take_rebuild_path_and_stay_equivalent(self, served_graph, reach_queries):
        service, mutable = self._remove_a_node(served_graph, reach_queries, (ALPHA, 0.2))
        fresh = _serial(mutable)
        for alpha in (ALPHA, 0.2):  # the re-prepare answers as a fresh one does
            assert _answers(service, reach_queries, alpha) == _answers(fresh, reach_queries, alpha)

    def test_node_removal_rebuild_lands_on_the_array_tier(self, served_graph, reach_queries):
        from prepare_oracle import oracle_build_index, oracle_compress, oracle_from_digraph
        from test_prepare_differential import assert_same_compression, assert_same_index

        service, mutable = self._remove_a_node(served_graph, reach_queries, (ALPHA,))
        service.run_batch(reach_queries, ALPHA)
        prepared = service.prepared
        assert isinstance(prepared.graph, CSRGraph)
        compressed = prepared.compressed()
        assert compressed.condensation._mirror is compressed.dag_csr
        frozen_oracle = oracle_from_digraph(mutable)
        for alpha in (ALPHA, 0.2):
            assert_same_index(prepared.reachability_index(alpha), oracle_build_index(frozen_oracle, alpha))
        assert_same_compression(compressed, oracle_compress(frozen_oracle))

    def test_warm_daemons_see_updated_state(self, served_graph, reach_queries):
        mutable = served_graph.copy()
        delta = _random_delta(random.Random(11), mutable, ops=10)
        delta.apply_to(mutable)
        with GraphService(served_graph, executor="daemon", workers=2, cache_size=0) as service:
            service.run_batch(reach_queries, ALPHA)
            service.update(delta)
            via_daemon = _answers(service, reach_queries)
        assert via_daemon == _answers(_serial(mutable), reach_queries)

    def test_an_update_rebuilds_only_what_was_built(self, served_graph):
        pattern_only = PreparedGraph(served_graph)
        pattern_only.prepare("simulation", ALPHA)
        assert pattern_only.apply_delta(GraphDelta().add_node("w", "Z")).mode == "fresh"
        assert pattern_only.state_signature() == ((), (), (), False)  # matchers stay lazy
        reach = PreparedGraph(served_graph)
        reach.prepare("reach", ALPHA)
        reach.prepare("reach", 0.2)
        assert reach.apply_delta(GraphDelta().add_node("w", "Z")).mode == "patched"
        assert reach.state_signature() == ((ALPHA, 0.2), (), (), True)

    def test_a_noop_delta_keeps_the_prepared_state(self, served_graph):
        prepared = PreparedGraph(served_graph)
        prepared.prepare("reach", ALPHA)
        graph, index = prepared.graph, prepared.reachability_index(ALPHA)
        source, target = next(iter(served_graph.edges()))
        assert prepared.apply_delta(GraphDelta().add_edge(source, target)).mode == "noop"
        assert prepared.graph is graph and prepared.reachability_index(ALPHA) is index

    def test_empty_delta_is_noop(self, served_graph):
        assert GraphService(served_graph).update(GraphDelta()).mode == "noop"

    def test_failed_delta_leaves_service_consistent(self, served_graph, reach_queries):
        service = _serial(served_graph)
        service.run_batch(reach_queries, ALPHA)
        source = next(iter(served_graph.nodes()))
        bad = GraphDelta().add_node("orphan", "Z").remove_edge("orphan", source)
        with pytest.raises(EdgeNotFoundError):
            service.update(bad)
        # The applied prefix (the node insert) must be visible and served
        # consistently — equivalently to a fresh service on the same state.
        mutable = served_graph.copy()
        mutable.add_node("orphan", "Z")
        assert _answers(service, reach_queries) == _answers(_serial(mutable), reach_queries)

    def test_failed_delta_drops_stale_cached_answers(self):
        """A failing delta's applied prefix must not be masked by the cache."""
        graph = DiGraph.from_edges([("a", "b"), ("c", "d")])
        service = _serial(graph, cache_size=16)
        # At ALPHA this graph allows 2 visits, fewer than reading the seed
        # labels of (b, d) costs, so every answer would be an exhausted False.
        alpha = 0.5
        before = service.run_batch([ReachQuery("b", "d")], alpha).answers[0]
        assert not before.reachable
        bad = GraphDelta().add_edge("b", "d").remove_edge("a", "d")
        with pytest.raises(EdgeNotFoundError):
            service.update(bad)
        after = service.run_batch([ReachQuery("b", "d")], alpha).answers[0]
        assert after.reachable  # the applied b->d insert is served, not cached-over

    def test_failed_delta_does_not_leave_stale_summaries(self):
        """The applied prefix of a failing delta reaches the ``Sl`` summaries too."""
        graph = DiGraph.from_edges([(0, 1)], labels={0: "A", 1: "B", 2: "C"})
        prepared = PreparedGraph(graph)
        prepared.prepare("simulation", 0.5)
        assert not has_child_label(prepared.neighborhood_index(), 0, "C")
        with pytest.raises(EdgeNotFoundError):
            prepared.apply_delta(GraphDelta().add_edge(0, 2).remove_edge(2, 1))
        assert prepared.graph.has_edge(0, 2)
        assert has_child_label(prepared.neighborhood_index(), 0, "C")
        assert has_parent_label(prepared.neighborhood_index(), 2, "A")


def _chain_scc_graph() -> DiGraph:
    """A 12-cycle core with an acyclic fringe (stable, known SCC layout)."""
    graph = DiGraph()
    for index in range(12):
        graph.add_node(index, "C")
    for index in range(12):
        graph.add_edge(index, (index + 1) % 12)
    for index in range(12, 30):
        graph.add_node(index, "F")
        graph.add_edge(index, index % 12)
    for index in range(12, 29):
        graph.add_edge(index + 1, index)
    return graph


class TestCacheInvalidation:
    def test_intra_scc_insert_keeps_untouched_entries_hot(self):
        """The hit-rate contract: touched region evicted, the rest stay hot."""
        graph = _chain_scc_graph()
        service = _serial(graph, cache_size=256)
        queries = [ReachQuery(source, target) for source in (14, 20, 25) for target in (0, 5)]
        service.run_batch(queries, ALPHA)
        assert len(service._cache) == len(queries)

        # An edge inside the 12-cycle SCC: the condensation, ranks and the
        # whole landmark index are provably unchanged, so only entries
        # anchored on the edge's endpoints may be dropped.
        report = service.update(GraphDelta().add_edge(0, 6))
        assert report.mode == "patched"
        assert report.engine_report.summary.reach_alphas_preserved.get(ALPHA) is True
        touched = {0, 6}
        expected_evicted = sum(
            1 for query in queries if query.source in touched or query.target in touched
        )
        assert report.cache_evicted == expected_evicted
        assert report.cache_retained == len(queries) - expected_evicted

        warm = service.run_batch(queries, ALPHA)
        assert warm.cache_hits == len(queries) - expected_evicted
        assert warm.cache_misses == expected_evicted
        # And the refreshed answers equal a fresh service's (bit-identical).
        mutable = _chain_scc_graph()
        mutable.add_edge(0, 6)
        assert _reach_signature(warm.answers) == _answers(_serial(mutable), queries)

    @settings(
        max_examples=10,
        deadline=None,
    )
    @given(edge_index=st.integers(min_value=0, max_value=11))
    def test_eviction_property_over_intra_scc_edges(self, edge_index):
        graph = _chain_scc_graph()
        service = _serial(graph, cache_size=256)
        queries = [ReachQuery(source, 0) for source in range(12, 30)]
        service.run_batch(queries, ALPHA)
        target = (edge_index + 5) % 12
        if graph.has_edge(edge_index, target):
            target = (edge_index + 6) % 12
        report = service.update(GraphDelta().add_edge(edge_index, target))
        assert report.mode == "patched"
        if report.engine_report.summary.reach_alphas_preserved.get(ALPHA):
            touched = {edge_index, target}
            untouched = [
                query
                for query in queries
                if query.source not in touched and query.target not in touched
            ]
            assert report.cache_retained == len(untouched)
            warm = service.run_batch(queries, ALPHA)
            assert warm.cache_hits == len(untouched)

    def test_structural_change_flushes_alpha_partition(self):
        graph = _chain_scc_graph()
        service = _serial(graph, cache_size=256)
        queries = [ReachQuery(source, 0) for source in range(12, 20)]
        service.run_batch(queries, ALPHA)
        # New node + edge changes |G|, hence the size budget and the index:
        # every reachability entry for that α must go.
        report = service.update(GraphDelta().add_node("w", "Z").add_edge("w", 3))
        assert report.cache_retained == 0

    def test_rebuild_clears_cache(self):
        graph = _chain_scc_graph()
        service = _serial(graph, cache_size=256)
        queries = [ReachQuery(source, 0) for source in range(12, 20)]
        service.run_batch(queries, ALPHA)
        report = service.update(GraphDelta().remove_node(29))
        assert report.mode == "rebuilt"
        assert report.cache_retained == 0
        assert len(service._cache) == 0

    def test_removing_a_personalized_match_evicts_its_pattern_entries(self, served_graph):
        """With no reach state built, a node removal still flushes: a kept answer
        anchored at the removed node would outlive it."""
        from repro.workloads.queries import generate_pattern_workload

        workload = generate_pattern_workload(served_graph, shape=(3, 3), count=2, seed=4)
        queries = [PatternQuery(q.pattern, q.personalized_match) for q in workload]
        service = _serial(served_graph, cache_size=64)
        service.run_batch(queries, ALPHA)
        report = service.update(GraphDelta().remove_node(queries[0].personalized_match))
        assert report.mode == "rebuilt" and report.cache_retained == 0
        fresh = _serial(service.graph).run_batch(queries, ALPHA).answers
        assert [a.answer for a in service.run_batch(queries, ALPHA).answers] == [a.answer for a in fresh]

    def test_pattern_entries_evicted_on_size_change(self, served_graph):
        """Isolated nodes, far from every ball, move ``⌊α·|G|⌋``: the entry
        whose search the old caps bounded goes, and the saturated one, whose
        spend fits under the fresh caps too, stays."""
        from repro.workloads.queries import generate_pattern_workload

        alpha = 0.02
        workload = list(generate_pattern_workload(served_graph, shape=(4, 6), count=3, seed=4))
        queries = [PatternQuery(q.pattern, q.personalized_match) for q in (workload[0], workload[2])]
        service = _serial(served_graph.copy(), cache_size=64)
        cached = service.run_batch(queries, alpha).answers
        assert len(service._cache) == len(queries)
        # The premise: one saturated entry and one a cap bound.
        assert [answer.reduction.saturated for answer in cached] == [True, False]
        assert cached[1].reduction.stop == "storage"
        size_limit = cached[0].budget.size_limit
        delta = GraphDelta()
        for extra in range(8):
            delta.add_node(("far", extra), "Z")
        report = service.update(delta)
        assert report.mode != "rebuilt"
        assert service.prepared.pattern_caps(alpha)[0] > size_limit
        assert (report.cache_evicted, report.cache_retained) == (1, 1)
        warm = service.run_batch(queries, alpha)
        assert warm.cache_hits == 1 and warm.cache_misses == 1
        fresh = _serial(service.graph).run_batch(queries, alpha).answers
        assert [a.answer for a in warm.answers] == [a.answer for a in fresh]
        assert warm.answers[1].budget.size_limit > size_limit

    def test_pattern_entries_survive_distant_relabel(self):
        from repro.graph.traversal import bfs_levels
        from repro.workloads.queries import generate_pattern_workload

        # Sparse enough that pattern balls cannot cover the whole graph.
        graph = preferential_attachment_graph(
            num_nodes=2000, edges_per_node=1, seed=5, back_edge_probability=0.05
        )
        workload = generate_pattern_workload(graph, shape=(3, 3), count=2, seed=4, min_degree=1)
        queries = [PatternQuery(q.pattern, q.personalized_match) for q in workload]
        service = _serial(graph, cache_size=64)
        service.run_batch(queries, ALPHA)
        radius = max(q.pattern.shape()[0] for q in queries)
        near = set()
        for query in queries:
            near |= set(
                bfs_levels(graph, query.personalized_match, max_hops=radius + 1, direction="both")
            )
        far = next(node for node in graph.nodes() if node not in near)
        report = service.update(GraphDelta().add_node(far, "relabelled"))
        assert report.mode in ("patched", "fresh")
        assert report.cache_retained == len(queries)
        warm = service.run_batch(queries, ALPHA)
        assert warm.cache_hits == len(queries)


    def test_a_visit_cap_move_evicts_a_visit_bound_pattern_answer(self):
        """Two isolated nodes keep ``⌊α·|G|⌋`` but move ``⌊d_G·α·|G|⌋``: a
        pattern answer whose search stopped on its visits reads further on
        the fresh graph, so neither the cached answer nor the standing one
        may survive."""
        from repro.service import PatternRequest
        from repro.subscribe import answer_signature
        from repro.workloads.queries import generate_pattern_workload

        graph = preferential_attachment_graph(num_nodes=20, edges_per_node=2, seed=0, back_edge_probability=0.1)
        query = list(generate_pattern_workload(graph, shape=(3, 3), count=12, seed=0))[8]
        request = PatternRequest(query.pattern, query.personalized_match)
        service = _serial(graph.copy(), cache_size=64)
        cached = service.run_batch([request], ALPHA).answers[0]
        sub = service.subscribe(request, alpha=ALPHA)
        assert cached.reduction.stop == "visits"
        assert service.update(GraphDelta().add_node("x", "Z").add_node("y", "Z")).mode == "fresh"
        fresh = _serial(service.graph).run_batch([request], ALPHA).answers[0]
        assert fresh.budget.size_limit == cached.budget.size_limit
        assert fresh.budget.visit_limit > cached.budget.visit_limit
        assert answer_signature(request.kind, fresh) != answer_signature(request.kind, cached)
        served = service.run_batch([request], ALPHA).answers[0]
        assert answer_signature(request.kind, served) == answer_signature(request.kind, fresh)
        assert sub.signature() == answer_signature(request.kind, fresh)

    @pytest.mark.parametrize("split", [True, False])
    def test_a_split_or_merge_away_from_the_delta_evicts_its_reach_pairs(self, split):
        """Cutting (or closing) the cycle ``s → b → c → t → s`` at ``b → c``
        moves ``s ⇝ t`` although neither endpoint is touched and the α index,
        whose one landmark is a hub elsewhere, stays equivalent: only the
        component change names the pair."""
        graph = DiGraph()
        for node in "sbct":
            graph.add_node(node, "A")
        for edge in (("s", "b"), ("c", "t"), ("t", "s")) + ((("b", "c"),) if split else ()):
            graph.add_edge(*edge)
        for hub in range(8):
            graph.add_node(hub, "B")
            if hub:
                graph.add_edge(0, hub)
        delta = GraphDelta().remove_edge("b", "c") if split else GraphDelta().add_edge("b", "c")
        query = ReachQuery("s", "t")
        service = _serial(graph, cache_size=16)
        service.prepare(reach_alphas=(0.1,))
        before = service.run_batch([query], 0.1).answers
        summary = service.update(delta).engine_report.summary
        assert summary.reach_alphas_preserved == {0.1: True}
        assert not {"s", "t"} & summary.touched_nodes and {"s", "t"} <= summary.membership_dirty
        fresh = _answers(_serial(service.graph), [query], 0.1)
        assert fresh != _reach_signature(before)
        assert _answers(service, [query], 0.1) == fresh

    def test_one_ball_sweep_per_update(self, monkeypatch):
        """The cached answers and the standing queries share one decision, so
        an update sweeps the pattern balls once: none on a noop or a
        rebuild, which need no ball."""
        from repro.graph import kernels
        from repro.service import PatternRequest
        from repro.workloads.queries import generate_pattern_workload

        sweeps = []
        sweep = kernels.csr_hop_levels
        monkeypatch.setattr(kernels, "csr_hop_levels", lambda *args: sweeps.append(args) or sweep(*args))
        graph = preferential_attachment_graph(num_nodes=40, edges_per_node=2, seed=1)
        workload = list(generate_pattern_workload(graph, shape=(3, 3), count=4, seed=1))
        service = _serial(graph.copy(), cache_size=64)
        service.run_batch([PatternQuery(q.pattern, q.personalized_match) for q in workload[:2]], ALPHA)
        for query in workload[2:]:
            service.subscribe(PatternRequest(query.pattern, query.personalized_match), alpha=ALPHA)
        for delta, mode, count in (
            (GraphDelta().add_edge(3, 30), "fresh", 1),
            (GraphDelta().add_edge(3, 30), "noop", 1),
            (GraphDelta().add_edge(5, 31).add_edge(31, 7), "fresh", 2),
            (GraphDelta().remove_node(39), "rebuilt", 2),
        ):
            assert service.update(delta).mode == mode
            assert len(sweeps) == count


class TestDeltaStream:
    def test_same_seed_same_stream(self, served_graph):
        left = generate_delta_stream(served_graph, batches=4, ops_per_batch=20, seed=9)
        right = generate_delta_stream(served_graph, batches=4, ops_per_batch=20, seed=9)
        assert [delta.ops for delta in left] == [delta.ops for delta in right]

    @pytest.mark.parametrize("mix", ["growth", "uniform"])
    def test_streams_replay_cleanly(self, served_graph, mix):
        stream = generate_delta_stream(served_graph, batches=3, ops_per_batch=15, mix=mix, seed=2)
        mutable = served_graph.copy()
        for delta in stream:
            delta.apply_to(mutable)  # must not raise
        assert mutable == stream.final_graph

    @pytest.mark.parametrize("mix", ["growth", "uniform"])
    def test_stream_answers_match_fresh_prepare(self, served_graph, reach_queries, mix):
        """A whole generated stream, absorbed warm, answers like its final graph."""
        stream = generate_delta_stream(served_graph, batches=4, ops_per_batch=15, mix=mix, seed=5)
        service = _serial(served_graph).prepare(reach_alphas=[ALPHA])
        for delta in stream:
            service.update(delta)
        fresh = _serial(stream.final_graph)
        assert _answers(service, reach_queries) == _answers(fresh, reach_queries)

    def test_node_removals_opt_in(self, served_graph):
        stream = generate_delta_stream(
            served_graph, batches=2, ops_per_batch=30, seed=3, node_removal_rate=0.2
        )
        assert any(delta.has_node_removals() for delta in stream)

    @pytest.mark.parametrize("mix", ["growth", "uniform"])
    @pytest.mark.parametrize("seed", range(6))
    def test_removal_heavy_streams_replay_cleanly(self, mix, seed):
        """Removed nodes must leave every sampling pool (trending, newcomers)."""
        graph = preferential_attachment_graph(num_nodes=30, edges_per_node=2, seed=seed)
        stream = generate_delta_stream(
            graph, batches=3, ops_per_batch=25, mix=mix, seed=seed, node_removal_rate=0.3
        )
        mutable = graph.copy()
        for delta in stream:
            delta.apply_to(mutable)  # must not raise
        assert mutable == stream.final_graph

    def test_rejects_bad_parameters(self, served_graph):
        with pytest.raises(WorkloadError):
            generate_delta_stream(served_graph, mix="burst")
        with pytest.raises(WorkloadError):
            generate_delta_stream(served_graph, batches=0)
        with pytest.raises(WorkloadError):
            generate_delta_stream(served_graph, node_removal_rate=1.5)


class TestCliUpdate:
    @staticmethod
    def _update_with_verify(capsys, tmp_path, *extra):
        """Run ``repro-bench update --verify``; return its batch lines."""
        import json

        from repro.cli import main

        output = tmp_path / "update.json"
        argv = ["update", "--ops", "15", "--queries", "20", "--verify", "--output", str(output)]
        assert main(argv + list(extra)) == 0
        payload = json.loads(output.read_text(encoding="utf-8"))
        assert payload["verify_failures"] == 0 and payload["total_ops"] > 0
        return [line for line in capsys.readouterr().out.splitlines() if line.startswith("batch ")]

    def test_update_smoke_with_verify(self, capsys, tmp_path):
        batches = self._update_with_verify(capsys, tmp_path, "--dataset", "youtube-small", "--batches", "2")
        assert any("mode=patched" in line for line in batches)
        assert all(line.endswith("verify=ok") for line in batches)

    def test_update_verify_is_ok_for_every_batch_with_node_removals(
        self, capsys, tmp_path, monkeypatch
    ):
        import functools

        import repro.workloads.deltas

        monkeypatch.setattr(
            repro.workloads.deltas,
            "generate_delta_stream",
            functools.partial(generate_delta_stream, node_removal_rate=0.3),
        )
        batches = self._update_with_verify(capsys, tmp_path, "--batches", "3")
        assert len(batches) == 3 and any("mode=rebuilt" in line for line in batches)
        assert all(line.endswith("verify=ok") for line in batches)
