"""Tests for the incremental-update layer (``repro.updates`` + engine wiring).

The load-bearing property is **rebuild equivalence**: after any delta
sequence, the updated engine's answers are bit-identical — field by field,
``visited`` counters included — to an engine freshly prepared on the mutated
graph, for every executor and worker count, whether the update was patched
or rebuilt.  On top of that: the overlay must mirror ``DiGraph`` op
semantics exactly (including iteration order), the maintained condensation
must equal a fresh one, and cache invalidation must be surgical (touched
entries evicted, untouched entries provably still exact stay hot).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import PatternQuery, QueryEngine, ReachQuery
from repro.engine.prepared import PreparedGraph
from repro.exceptions import EdgeNotFoundError, NodeNotFoundError, WorkloadError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import preferential_attachment_graph
from repro.graph.protocol import GraphLike
from repro.graph.topology import verify_rank_invariant
from repro.reachability.compression import compress
from repro.updates import (
    CondensationMaintainer,
    GraphDelta,
    MutableOverlay,
    overlay_digraph_equal,
)
from repro.updates.delta import AppliedDelta
from repro.workloads.deltas import generate_delta_stream
from repro.workloads.queries import generate_reachability_workload

ALPHA = 0.05


def _reach_signature(answers):
    return [(a.reachable, a.visited, a.met_at, a.exhausted) for a in answers]


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

    def test_compaction_equals_frozen_mutated_graph(self):
        rng = random.Random(3)
        graph = preferential_attachment_graph(num_nodes=60, edges_per_node=2, seed=3)
        overlay = MutableOverlay(CSRGraph.from_digraph(graph))
        mutable = graph.copy()
        delta = _random_delta(rng, graph, ops=25, allow_removals=True)
        overlay.apply(delta)
        delta.apply_to(mutable)
        compacted = overlay.compact()
        frozen = CSRGraph.from_digraph(mutable)
        assert list(compacted.nodes()) == list(frozen.nodes())
        for node in mutable.nodes():
            assert list(compacted.successors(node)) == list(frozen.successors(node))
            assert list(compacted.predecessors(node)) == list(frozen.predecessors(node))
            assert compacted.label(node) == frozen.label(node)

    def test_fraction_grows_with_churn(self):
        graph = DiGraph.from_edges([(index, index + 1) for index in range(50)])
        overlay = MutableOverlay(CSRGraph.from_digraph(graph))
        assert overlay.fraction() == 0.0
        overlay.apply(GraphDelta().remove_edge(0, 1).add_node("new").add_edge("new", 5))
        assert overlay.overlay_size() == 3
        assert overlay.fraction() == pytest.approx(3 / graph.size())


def _maintainer_of(graph) -> CondensationMaintainer:
    compressed = compress(graph)
    return CondensationMaintainer.from_fresh(
        graph, compressed.condensation, compressed.ranks, compressed.dag_csr
    )


class TestIncrementalCondensation:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_patched_condensation_equals_fresh(self, seed):
        """Membership, DAG (orders included), ranks and multiplicities match."""
        rng = random.Random(seed)
        graph = preferential_attachment_graph(
            num_nodes=60, edges_per_node=2, seed=seed % 5, back_edge_probability=0.2
        )
        overlay = MutableOverlay(CSRGraph.from_digraph(graph))
        maintainer = _maintainer_of(overlay)
        pool = list(overlay.nodes())
        for round_number in range(3):
            record = AppliedDelta()
            for position in range(10):
                roll = rng.random()
                op = GraphDelta()
                if roll < 0.45:
                    op.add_edge(rng.choice(pool), rng.choice(pool))
                elif roll < 0.75:
                    edges = list(overlay.edges())
                    if not edges:
                        continue
                    op.remove_edge(*rng.choice(edges))
                elif roll < 0.9:
                    name = f"n{round_number}-{position}"
                    op.add_node(name, label=rng.choice("ABC"))
                    pool.append(name)
                else:
                    op.add_node(rng.choice(pool), label=rng.choice("ABC"))
                try:
                    overlay.apply(op, applied=record)
                except (NodeNotFoundError, EdgeNotFoundError):
                    pass
            result = maintainer.apply(overlay, record)
            assert result is not None
            fresh_compressed = compress(overlay)
            fresh, fresh_ranks = fresh_compressed.condensation, fresh_compressed.ranks
            patched = result.condensation
            assert dict(patched.membership) == dict(fresh.membership)
            assert set(patched.dag.nodes()) == set(fresh.dag.nodes())
            assert patched.dag.num_edges() == fresh.dag.num_edges()
            for component in fresh.dag.nodes():
                assert patched.dag.label(component) == fresh.dag.label(component)
                assert list(patched.dag.successors(component)) == list(
                    fresh.dag.successors(component)
                )
                assert list(patched.dag.predecessors(component)) == list(
                    fresh.dag.predecessors(component)
                )
            assert result.rank_index.ranks() == fresh_ranks.ranks()
            assert result.rank_index.max_rank == fresh_ranks.max_rank
            assert result.rank_index.max_degree == fresh_ranks.max_degree
            assert verify_rank_invariant(patched.dag, result.rank_index.ranks())
            # The greedy exclusion walk runs on the mirror: neighbours in DAG order.
            mirror = maintainer.dag_mirror()
            for component in fresh.dag.nodes():
                row = mirror.index_of(component)
                assert mirror.ids_of(mirror.neighbor_indices(row)) == list(fresh.dag.neighbors(component))
            # Maintained degrees feed the selection rerun; they must match.
            assert result.dag_degrees == {
                component: fresh.dag.degree(component) for component in fresh.dag.nodes()
            }
            # The maintained candidate order must equal a fresh full sort.
            from repro.reachability.landmarks import selection_sort_key

            fresh_order = sorted(
                fresh.dag.nodes(),
                key=lambda c: selection_sort_key(
                    c,
                    fresh.dag.degree(c),
                    fresh_ranks.rank(c),
                    float(len(fresh.members[c])),
                ),
            )
            assert result.selection_order == fresh_order

    def test_node_removal_refuses_to_patch(self):
        graph = preferential_attachment_graph(num_nodes=30, edges_per_node=2, seed=0)
        overlay = MutableOverlay(CSRGraph.from_digraph(graph))
        maintainer = _maintainer_of(overlay)
        record = overlay.apply(GraphDelta().remove_node(next(iter(graph.nodes()))))
        assert maintainer.apply(overlay, record) is None


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
        engine = QueryEngine(served_graph, cache_size=0)
        engine.answer_batch(reach_queries, ALPHA)  # build the prepared state
        mutable = served_graph.copy()
        for _ in range(rounds):
            delta = _random_delta(rng, mutable, ops=8)
            delta.apply_to(mutable)
            report = engine.update(delta)
            assert report.mode in ("patched", "rebuilt")
        updated = _reach_signature(engine.answer_batch(reach_queries, ALPHA))
        fresh_substrate = QueryEngine(engine.prepared.graph, cache_size=0)
        assert updated == _reach_signature(fresh_substrate.answer_batch(reach_queries, ALPHA))
        fresh_digraph = QueryEngine(mutable, cache_size=0)
        assert updated == _reach_signature(fresh_digraph.answer_batch(reach_queries, ALPHA))
        with engine:
            pooled = engine.answer_batch(reach_queries, ALPHA, executor="daemon", workers=3)
        assert updated == _reach_signature(pooled)

    @pytest.mark.parametrize("with_condensation", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_maintained_max_degree_equals_a_scan(self, served_graph, seed, with_condensation):
        """The pattern matchers' visit coefficient is read off this value."""
        rng = random.Random(seed)
        prepared = PreparedGraph(served_graph.copy())
        if with_condensation:
            prepared.compressed()  # "patched"/"rebuilt" modes; "fresh" otherwise
        hub = max(served_graph.nodes(), key=served_graph.degree)
        deltas = [GraphDelta().remove_node(next(iter(served_graph.neighbors(hub))))]
        mutable = served_graph.copy()
        deltas[0].apply_to(mutable)
        for _ in range(6):
            delta = _random_delta(rng, mutable, ops=8, allow_removals=True)
            delta.apply_to(mutable)
            deltas.append(delta)
        assert prepared.max_degree() == served_graph.max_degree()
        for delta in deltas:
            prepared.apply_delta(delta)
            assert prepared.max_degree() == prepared.graph.max_degree()

    @staticmethod
    def _remove_a_node(served_graph, reach_queries, alphas):
        engine = QueryEngine(served_graph, cache_size=0)
        for alpha in alphas:
            engine.answer_batch(reach_queries, alpha)
        mutable = served_graph.copy()
        delta = GraphDelta().remove_node(next(iter(served_graph.nodes())))
        delta.apply_to(mutable)
        assert engine.update(delta).mode == "rebuilt"
        return engine, mutable

    def test_node_removals_take_rebuild_path_and_stay_equivalent(self, served_graph, reach_queries):
        engine, mutable = self._remove_a_node(served_graph, reach_queries, (ALPHA, 0.2))
        fresh = QueryEngine(mutable, cache_size=0)
        for alpha in (ALPHA, 0.2):  # the lazy re-prepare answers as a fresh one does
            updated = _reach_signature(engine.answer_batch(reach_queries, alpha))
            assert updated == _reach_signature(fresh.answer_batch(reach_queries, alpha))

    def test_node_removal_rebuild_lands_on_the_array_tier(self, served_graph, reach_queries):
        from prepare_oracle import oracle_build_index, oracle_compress, oracle_from_digraph
        from test_prepare_differential import assert_same_compression, assert_same_index

        engine, mutable = self._remove_a_node(served_graph, reach_queries, (ALPHA,))
        engine.answer_batch(reach_queries, ALPHA)
        prepared = engine.prepared
        assert isinstance(prepared.graph, CSRGraph)
        compressed = prepared.compressed()
        assert compressed.condensation.array_backed
        frozen_oracle = oracle_from_digraph(mutable)
        for alpha in (ALPHA, 0.2):
            assert_same_index(prepared.reachability_index(alpha), oracle_build_index(frozen_oracle, alpha))
        assert_same_compression(compressed, oracle_compress(frozen_oracle))

    def test_oversized_delta_falls_back_to_rebuild(self, served_graph, reach_queries):
        engine = QueryEngine(served_graph, cache_size=0)
        engine.answer_batch(reach_queries, ALPHA)
        mutable = served_graph.copy()
        delta = _random_delta(random.Random(5), mutable, ops=6)
        delta.apply_to(mutable)
        report = engine.update(delta, patch_threshold=0.0)
        assert report.mode == "rebuilt"
        updated = _reach_signature(engine.answer_batch(reach_queries, ALPHA))
        assert updated == _reach_signature(
            QueryEngine(mutable, cache_size=0).answer_batch(reach_queries, ALPHA)
        )

    def test_warm_daemons_see_updated_state(self, served_graph, reach_queries):
        mutable = served_graph.copy()
        delta = _random_delta(random.Random(11), mutable, ops=10)
        delta.apply_to(mutable)
        with QueryEngine(served_graph, cache_size=0) as engine:
            engine.answer_batch(reach_queries, ALPHA, executor="daemon", workers=2)
            engine.update(delta)
            via_daemon = engine.answer_batch(reach_queries, ALPHA, executor="daemon", workers=2)
        fresh = QueryEngine(mutable, cache_size=0)
        assert _reach_signature(via_daemon) == _reach_signature(
            fresh.answer_batch(reach_queries, ALPHA)
        )

    def test_compaction_preserves_answers(self, served_graph, reach_queries):
        engine = QueryEngine(served_graph, cache_size=0)
        engine.answer_batch(reach_queries, ALPHA)
        mutable = served_graph.copy()
        rng = random.Random(21)
        compacted = False
        for _ in range(6):
            delta = _random_delta(rng, mutable, ops=12)
            delta.apply_to(mutable)
            report = engine.update(delta, compact_threshold=0.02)
            compacted = compacted or report.summary.compacted
        assert compacted, "compaction threshold never tripped"
        updated = _reach_signature(engine.answer_batch(reach_queries, ALPHA))
        assert updated == _reach_signature(
            QueryEngine(mutable, cache_size=0).answer_batch(reach_queries, ALPHA)
        )

    def test_empty_delta_is_noop(self, served_graph):
        engine = QueryEngine(served_graph)
        report = engine.update(GraphDelta())
        assert report.mode == "noop"

    def test_failed_delta_leaves_engine_consistent(self, served_graph, reach_queries):
        engine = QueryEngine(served_graph, cache_size=0)
        engine.answer_batch(reach_queries, ALPHA)
        source = next(iter(served_graph.nodes()))
        bad = GraphDelta().add_node("orphan", "Z").remove_edge("orphan", source)
        with pytest.raises(EdgeNotFoundError):
            engine.update(bad)
        # The applied prefix (the node insert) must be visible and served
        # consistently — equivalently to a fresh engine on the same state.
        mutable = served_graph.copy()
        mutable.add_node("orphan", "Z")
        updated = _reach_signature(engine.answer_batch(reach_queries, ALPHA))
        assert updated == _reach_signature(
            QueryEngine(mutable, cache_size=0).answer_batch(reach_queries, ALPHA)
        )

    def test_failed_delta_drops_stale_cached_answers(self):
        """A failing delta's applied prefix must not be masked by the cache."""
        graph = DiGraph.from_edges([("a", "b"), ("c", "d")])
        engine = QueryEngine(graph, cache_size=16)
        before = engine.answer_batch([ReachQuery("b", "d")], ALPHA)[0]
        assert not before.reachable
        bad = GraphDelta().add_edge("b", "d").remove_edge("a", "d")
        with pytest.raises(EdgeNotFoundError):
            engine.update(bad)
        after = engine.answer_batch([ReachQuery("b", "d")], ALPHA)[0]
        assert after.reachable  # the applied b->d insert is served, not cached-over

    def test_failed_delta_does_not_leave_stale_summaries(self):
        """The applied prefix of a failing delta reaches the ``Sl`` summaries too."""
        graph = DiGraph.from_edges([(0, 1)], labels={0: "A", 1: "B", 2: "C"})
        prepared = PreparedGraph(graph)
        prepared.prepare("simulation", 0.5)
        assert not prepared.neighborhood_index().has_child_label(0, "C")
        with pytest.raises(EdgeNotFoundError):
            prepared.apply_delta(GraphDelta().add_edge(0, 2).remove_edge(2, 1))
        assert prepared.graph.has_edge(0, 2)
        assert prepared.neighborhood_index().has_child_label(0, "C")
        assert prepared.neighborhood_index().has_parent_label(2, "A")


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
        engine = QueryEngine(graph, cache_size=256)
        queries = [ReachQuery(source, target) for source in (14, 20, 25) for target in (0, 5)]
        engine.answer_batch(queries, ALPHA)
        assert engine.cache_stats().entries == len(queries)

        # An edge inside the 12-cycle SCC: the condensation, ranks and the
        # whole landmark index are provably unchanged, so only entries
        # anchored on the edge's endpoints may be dropped.
        report = engine.update(GraphDelta().add_edge(0, 6))
        assert report.mode == "patched"
        assert report.summary.reach_alphas_preserved.get(ALPHA) is True
        touched = {0, 6}
        expected_evicted = sum(
            1 for query in queries if query.source in touched or query.target in touched
        )
        assert report.cache_evicted == expected_evicted
        assert report.cache_retained == len(queries) - expected_evicted

        warm = engine.run_batch(queries, ALPHA)
        assert warm.cache_hits == len(queries) - expected_evicted
        assert warm.cache_misses == expected_evicted
        # And the refreshed answers equal a fresh engine's (bit-identical).
        mutable = _chain_scc_graph()
        mutable.add_edge(0, 6)
        fresh = QueryEngine(mutable, cache_size=0)
        assert _reach_signature(warm.answers) == _reach_signature(
            fresh.answer_batch(queries, ALPHA)
        )

    @settings(
        max_examples=10,
        deadline=None,
    )
    @given(edge_index=st.integers(min_value=0, max_value=11))
    def test_eviction_property_over_intra_scc_edges(self, edge_index):
        graph = _chain_scc_graph()
        engine = QueryEngine(graph, cache_size=256)
        queries = [ReachQuery(source, 0) for source in range(12, 30)]
        engine.answer_batch(queries, ALPHA)
        target = (edge_index + 5) % 12
        if graph.has_edge(edge_index, target):
            target = (edge_index + 6) % 12
        report = engine.update(GraphDelta().add_edge(edge_index, target))
        assert report.mode == "patched"
        if report.summary.reach_alphas_preserved.get(ALPHA):
            touched = {edge_index, target}
            untouched = [
                query
                for query in queries
                if query.source not in touched and query.target not in touched
            ]
            assert report.cache_retained == len(untouched)
            warm = engine.run_batch(queries, ALPHA)
            assert warm.cache_hits == len(untouched)

    def test_structural_change_flushes_alpha_partition(self):
        graph = _chain_scc_graph()
        engine = QueryEngine(graph, cache_size=256)
        queries = [ReachQuery(source, 0) for source in range(12, 20)]
        engine.answer_batch(queries, ALPHA)
        # New node + edge changes |G|, hence the size budget and the index:
        # every reachability entry for that α must go.
        report = engine.update(GraphDelta().add_node("w", "Z").add_edge("w", 3))
        assert report.cache_retained == 0

    def test_rebuild_clears_cache(self):
        graph = _chain_scc_graph()
        engine = QueryEngine(graph, cache_size=256)
        queries = [ReachQuery(source, 0) for source in range(12, 20)]
        engine.answer_batch(queries, ALPHA)
        report = engine.update(GraphDelta().remove_node(29))
        assert report.mode == "rebuilt"
        assert report.cache_retained == 0
        assert engine.cache_stats().entries == 0

    def test_pattern_entries_evicted_on_size_change(self, served_graph):
        from repro.workloads.queries import generate_pattern_workload

        workload = generate_pattern_workload(served_graph, shape=(4, 6), count=2, seed=4)
        queries = [PatternQuery(q.pattern, q.personalized_match) for q in workload]
        engine = QueryEngine(served_graph, cache_size=64)
        engine.answer_batch(queries, ALPHA)
        assert engine.cache_stats().entries == len(queries)
        node = next(iter(served_graph.nodes()))
        report = engine.update(GraphDelta().add_node("fresh-node", "Z").add_edge("fresh-node", node))
        assert report.cache_retained == 0

    def test_pattern_entries_survive_distant_relabel(self):
        from repro.graph.traversal import bfs_levels
        from repro.workloads.queries import generate_pattern_workload

        # Sparse enough that pattern balls cannot cover the whole graph.
        graph = preferential_attachment_graph(
            num_nodes=2000, edges_per_node=1, seed=5, back_edge_probability=0.05
        )
        workload = generate_pattern_workload(graph, shape=(3, 3), count=2, seed=4, min_degree=1)
        queries = [PatternQuery(q.pattern, q.personalized_match) for q in workload]
        engine = QueryEngine(graph, cache_size=64)
        engine.answer_batch(queries, ALPHA)
        radius = max(q.pattern.shape()[0] for q in queries)
        near = set()
        for query in queries:
            near |= set(
                bfs_levels(graph, query.personalized_match, max_hops=radius + 1, direction="both")
            )
        far = next(node for node in graph.nodes() if node not in near)
        report = engine.update(GraphDelta().add_node(far, "relabelled"))
        assert report.mode in ("patched", "fresh")
        assert report.cache_retained == len(queries)
        warm = engine.run_batch(queries, ALPHA)
        assert warm.cache_hits == len(queries)


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

    def test_growth_stream_stays_patched(self, served_graph):
        stream = generate_delta_stream(served_graph, batches=3, ops_per_batch=15, mix="growth", seed=2)
        engine = QueryEngine(served_graph)
        engine.prepare(reach_alphas=[ALPHA])
        for delta in stream:
            assert engine.update(delta).mode == "patched"

    @pytest.mark.parametrize("mix", ["growth", "uniform"])
    def test_stream_answers_match_fresh_prepare(self, served_graph, reach_queries, mix):
        """A whole generated stream, absorbed warm, answers like its final graph."""
        stream = generate_delta_stream(served_graph, batches=4, ops_per_batch=15, mix=mix, seed=5)
        engine = QueryEngine(served_graph, cache_size=0)
        engine.prepare(reach_alphas=[ALPHA])
        for delta in stream:
            engine.update(delta)
        fresh = QueryEngine(stream.final_graph, cache_size=0)
        assert _reach_signature(engine.answer_batch(reach_queries, ALPHA)) == _reach_signature(
            fresh.answer_batch(reach_queries, ALPHA)
        )

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
