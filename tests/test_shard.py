"""Property tests for the sharded serving layer (``repro.shard``).

The contract under test:

* **never a false positive** — a sharded reachability answer of ``True``
  always certifies a real path in the full graph, for every ``k``, every
  partitioner and every executor;
* **bit-identical when shard-contained** — whenever a query's ball stays
  inside its home shard's core (always at ``k = 1``), the sharded answer is
  field-for-field identical to an unsharded ``GraphService``'s, for every
  executor and worker count;
* **reset is a fresh build** — after ``reset(mutated)`` the engine answers
  exactly like ``ShardedEngine(mutated)``, on a daemon pool that stays warm.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import PatternQuery, ReachQuery
from repro.exceptions import ShardError
from repro.graph.digraph import DiGraph
from repro.graph.generators import preferential_attachment_graph
from repro.graph.traversal import is_reachable
from repro.service import GraphService
from repro.shard import (
    Partition,
    ShardedEngine,
    build_shards,
    greedy_partition,
    hash_partition,
    hash_shard,
    partition_graph,
)
from repro.workloads.deltas import generate_delta_stream
from repro.workloads.queries import generate_pattern_workload, sample_mixed_pairs

ALPHA = 0.1
KS = (1, 2, 4)
EXECUTORS = ("serial", "daemon")


def clustered_graph(clusters=4, size=60, chords=2, bridges=3, seed=1) -> DiGraph:
    """Ring-of-chords clusters joined by a few bridges.

    Low conductance and large intra-cluster diameter: the greedy partitioner
    aligns shards with clusters, halos stay thin, and small pattern balls
    fit inside one core — the workload shape sharding is built for.
    """
    rng = random.Random(seed)
    graph = DiGraph()
    for cluster in range(clusters):
        for i in range(size):
            graph.add_node(cluster * size + i, rng.choice("ABCDE"))
    for cluster in range(clusters):
        base = cluster * size
        for i in range(size):
            graph.add_edge(base + i, base + (i + 1) % size)
            graph.add_edge(base + (i + 1) % size, base + i)
        for _ in range(chords * size // 4):
            left, right = rng.randrange(size), rng.randrange(size)
            if left != right:
                graph.add_edge(base + left, base + right)
    for cluster in range(clusters):
        other = (cluster + 1) % clusters
        for _ in range(bridges):
            graph.add_edge(
                cluster * size + rng.randrange(size), other * size + rng.randrange(size)
            )
    return graph


def reach_signature(answers):
    return [(a.reachable, a.visited, a.met_at, a.exhausted) for a in answers]


def signatures(answers):
    return [reach_signature([a])[0] if hasattr(a, "reachable") else pattern_signature(a) for a in answers]


def pattern_signature(answer):
    return (
        frozenset(answer.answer),
        tuple(answer.subgraph.nodes()) if answer.subgraph is not None else (),
        tuple(answer.subgraph.edges()) if answer.subgraph is not None else (),
        answer.subgraph_size,
    )


@pytest.fixture(scope="module")
def graph():
    return clustered_graph()


@pytest.fixture(scope="module")
def reach_queries(graph):
    return [ReachQuery(s, t) for s, t in sample_mixed_pairs(graph, 80, seed=3)]


@pytest.fixture(scope="module")
def pattern_queries(graph):
    workload = generate_pattern_workload(graph, shape=(3, 4), count=8, seed=11)
    simulation = [PatternQuery(q.pattern, q.personalized_match) for q in workload]
    subgraph = [
        PatternQuery(q.pattern, q.personalized_match, semantics="subgraph")
        for q in workload
    ]
    return simulation + subgraph


@pytest.fixture(scope="module")
def baseline(graph, reach_queries):
    return GraphService(graph, executor="serial", cache_size=0).prepare(reach_alphas=[ALPHA])


@pytest.fixture(scope="module")
def sharded_engines(graph):
    engines = {k: ShardedEngine(graph, num_shards=k, seed=7) for k in KS}
    yield engines
    for engine in engines.values():
        engine.close()  # daemon pools + their shared segments


# --------------------------------------------------------------------------- #
# Partitioners
# --------------------------------------------------------------------------- #
class TestPartition:
    def test_every_node_assigned_once(self, graph):
        for method in ("hash", "greedy"):
            partition = partition_graph(graph, 4, method=method, seed=5)
            assert set(partition.assignment) == set(graph.nodes())
            assert sum(partition.shard_sizes()) == graph.num_nodes()
            assert all(0 <= shard < 4 for shard in partition.assignment.values())

    def test_same_seed_identical(self, graph):
        first = greedy_partition(graph, 4, seed=11)
        second = greedy_partition(graph, 4, seed=11)
        assert first.assignment == second.assignment
        assert first.boundary == second.boundary
        assert first.cut_edges == second.cut_edges

    def test_hash_partition_matches_hash_rule(self, graph):
        partition = hash_partition(graph, 4)
        for node in graph.nodes():
            assert partition.assignment[node] == hash_shard(node, 4)

    def test_greedy_beats_hash_on_clustered_graph(self, graph):
        greedy = greedy_partition(graph, 4, seed=7)
        hashed = hash_partition(graph, 4)
        assert greedy.cut_fraction() < hashed.cut_fraction()

    def test_cut_statistics_consistent(self, graph):
        partition = greedy_partition(graph, 4, seed=7)
        cut = sum(
            1
            for source, target in graph.edges()
            if partition.assignment[source] != partition.assignment[target]
        )
        assert partition.cut_edges == cut
        assert partition.total_edges == graph.num_edges()
        for shard, members in partition.boundary.items():
            for node in members:
                assert partition.assignment[node] == shard
                assert any(
                    partition.assignment[neighbor] != shard
                    for neighbor in graph.neighbors(node)
                )

    def test_single_shard_has_no_boundary(self, graph):
        partition = partition_graph(graph, 1)
        assert partition.cut_edges == 0
        assert all(not members for members in partition.boundary.values())

    def test_round_trip_through_json(self, graph):
        partition = greedy_partition(graph, 3, seed=2)
        loaded = Partition.from_json(partition.to_json())
        assert loaded.assignment == partition.assignment
        assert loaded.boundary == partition.boundary
        assert (loaded.num_shards, loaded.method, loaded.seed) == (3, "greedy", 2)
        assert (loaded.cut_edges, loaded.total_edges) == (
            partition.cut_edges,
            partition.total_edges,
        )

    def test_invalid_configurations(self, graph):
        with pytest.raises(ShardError):
            partition_graph(graph, 0)
        with pytest.raises(ShardError):
            partition_graph(graph, graph.num_nodes() + 1, method="greedy")
        with pytest.raises(ShardError):
            partition_graph(graph, 2, method="metis")
        with pytest.raises(ShardError):
            Partition.from_json("{not json")


# --------------------------------------------------------------------------- #
# Shard graphs
# --------------------------------------------------------------------------- #
class TestShardGraphs:
    def test_k1_reproduces_the_csr_mirror(self, graph):
        from repro.graph.csr import CSRGraph

        shards = build_shards(graph, partition_graph(graph, 1))
        shard = shards[0]
        mirror = CSRGraph.from_digraph(graph)
        assert list(shard.graph.nodes()) == list(mirror.nodes())
        assert list(shard.graph.edges()) == list(mirror.edges())
        assert shard.graph.labels() == mirror.labels()
        assert [shard.graph.degree(n) for n in graph.nodes()] == [
            mirror.degree(n) for n in graph.nodes()
        ]
        assert not shard.halo
        assert shard.core_size == graph.size()

    def test_core_adjacency_is_complete_and_ordered(self, graph):
        partition = partition_graph(graph, 4, seed=7)
        shards = build_shards(graph, partition)
        for shard in shards.values():
            for node in shard.core_list[:20]:
                assert list(shard.graph.successors(node)) == list(graph.successors(node))
                assert list(shard.graph.predecessors(node)) == list(graph.predecessors(node))
                assert shard.graph.degree(node) == graph.degree(node)
                assert shard.graph.label(node) == graph.label(node)

    def test_core_sizes_split_the_global_budget(self, graph):
        partition = partition_graph(graph, 4, seed=7)
        shards = build_shards(graph, partition)
        assert sum(shard.core_size for shard in shards.values()) == graph.size()

    def test_halo_is_within_depth(self, graph):
        partition = partition_graph(graph, 4, seed=7)
        shards = build_shards(graph, partition, halo_depth=2)
        for shard in shards.values():
            for node in list(shard.halo)[:20]:
                # within 2 undirected hops of some core node
                frontier = {node}
                found = False
                for _ in range(2):
                    frontier = {
                        neighbor
                        for current in frontier
                        for neighbor in graph.neighbors(current)
                    }
                    if frontier & shard.core:
                        found = True
                        break
                assert found

    def test_halo_depth_zero_rejected(self, graph):
        with pytest.raises(ShardError):
            build_shards(graph, partition_graph(graph, 2), halo_depth=0)


# --------------------------------------------------------------------------- #
# The parity contract
# --------------------------------------------------------------------------- #
class TestReachParity:
    @pytest.mark.parametrize("k", KS)
    def test_never_false_positive(self, graph, reach_queries, sharded_engines, k):
        answers = sharded_engines[k].answer_batch(reach_queries, ALPHA)
        for query, answer in zip(reach_queries, answers):
            if answer.reachable:
                assert is_reachable(graph, query.source, query.target), (
                    f"k={k}: sharded engine invented {query.source}->{query.target}"
                )

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_k1_bit_identical_to_unsharded(
        self, baseline, reach_queries, sharded_engines, executor
    ):
        expected = reach_signature(baseline.run_batch(reach_queries, ALPHA).answers)
        answers = sharded_engines[1].answer_batch(
            reach_queries, ALPHA, executor=executor, workers=2
        )
        assert reach_signature(answers) == expected

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_executor_parity(self, reach_queries, sharded_engines, k, executor):
        serial = reach_signature(sharded_engines[k].answer_batch(reach_queries, ALPHA))
        for workers in (1, 2):
            answers = sharded_engines[k].answer_batch(
                reach_queries, ALPHA, executor=executor, workers=workers
            )
            assert reach_signature(answers) == serial, (
                f"{executor}[{workers}] diverged from serial at k={k}"
            )

    def test_report_and_chunks_follow_the_live_pool(self, graph, reach_queries):
        """A live pool ignores a later ``workers``; so do the report and the chunking."""
        with ShardedEngine(graph, num_shards=2, seed=7) as engine:
            first = engine.run_batch(reach_queries, ALPHA, executor="daemon", workers=2)
            second = engine.run_batch(reach_queries, ALPHA, executor="daemon", workers=3)
            assert len(engine.daemon_pool().worker_pids()) == 2
            assert (second.workers, second.chunks) == (2, first.chunks)

    def test_unknown_endpoints_answer_unreachable(self, graph, sharded_engines):
        queries = [ReachQuery("ghost", 0), ReachQuery(0, "ghost")]
        for k in KS:
            answers = sharded_engines[k].answer_batch(queries, ALPHA)
            assert [a.reachable for a in answers] == [False, False]

    def test_cross_shard_positive_is_found(self):
        # Two chains joined by one bridge; with full budgets the boundary
        # graph must compose the cross-shard path.
        graph = DiGraph()
        for i in range(8):
            graph.add_node(("a", i), "A")
            graph.add_node(("b", i), "B")
        for i in range(7):
            graph.add_edge(("a", i), ("a", i + 1))
            graph.add_edge(("b", i), ("b", i + 1))
        graph.add_edge(("a", 7), ("b", 0))
        assignment = {node: 0 if node[0] == "a" else 1 for node in graph.nodes()}
        partition = Partition(
            num_shards=2,
            method="manual",
            seed=0,
            assignment=assignment,
            boundary={0: {("a", 7)}, 1: {("b", 0)}},
            cut_edges=1,
            total_edges=graph.num_edges(),
        )
        engine = ShardedEngine(graph, partition=partition)
        answers = engine.answer_batch(
            [ReachQuery(("a", 0), ("b", 7)), ReachQuery(("b", 0), ("a", 0))], 1.0
        )
        assert answers[0].reachable and answers[0].met_at is not None
        assert not answers[1].reachable


class TestPatternParity:
    @pytest.fixture(scope="class")
    def expected(self, baseline, pattern_queries):
        return [
            pattern_signature(a) for a in baseline.run_batch(pattern_queries, ALPHA).answers
        ]

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_contained_balls_bit_identical(
        self, sharded_engines, pattern_queries, expected, k, executor
    ):
        engine = sharded_engines[k]
        report = engine.run_batch(pattern_queries, ALPHA, executor=executor, workers=2)
        contained = 0
        for query, answer, want in zip(pattern_queries, report.answers, expected):
            home = engine.partition.shard_of(query.personalized_match)
            if engine.shards[home].ball_in_core(
                query.personalized_match, query.pattern.diameter()
            ):
                contained += 1
                assert pattern_signature(answer) == want, (
                    f"k={k}/{executor}: contained ball diverged for "
                    f"vp={query.personalized_match!r}"
                )
        if k == 1:
            assert contained == len(pattern_queries)
        else:
            # The clustered fixture must actually exercise the contained
            # path, or the contract above is tested vacuously.
            assert contained > 0, "fixture produced no shard-contained balls"

    @pytest.mark.parametrize("workers", (1, 2, 4))
    @pytest.mark.parametrize("k", KS)
    def test_pool_size_never_changes_an_answer(self, reach_queries, pattern_queries, sharded_engines, k, workers):
        """The pool size moves the chunk boundaries, never an answer."""
        serial = sharded_engines[k].run_batch(reach_queries + pattern_queries, ALPHA).answers
        with ShardedEngine(clustered_graph(), num_shards=k, seed=7) as engine:
            report = engine.run_batch(reach_queries + pattern_queries, ALPHA, executor="daemon", workers=workers)
        split = len(reach_queries)
        assert report.workers == workers
        assert reach_signature(report.answers[:split]) == reach_signature(serial[:split])
        assert list(map(pattern_signature, report.answers[split:])) == list(map(pattern_signature, serial[split:]))

    @pytest.mark.parametrize("k", (2, 4))
    def test_spilled_balls_still_match_reference(
        self, sharded_engines, pattern_queries, expected, k
    ):
        # Not contractual (the contract covers contained balls), but the
        # region assembly preserves every read the matchers make, so spilled
        # answers should reproduce the single-graph reference too.
        report = sharded_engines[k].run_batch(pattern_queries, ALPHA)
        for answer, want in zip(report.answers, expected):
            assert pattern_signature(answer) == want

    def test_absent_personalized_match_answers_empty(self, sharded_engines):
        from repro.patterns.pattern import GraphPattern

        pattern = GraphPattern(
            labels={"u": "A", "v": "B"}, edges=(("u", "v"),), personalized="u", output="v"
        )
        for k in KS:
            answers = sharded_engines[k].answer_batch(
                [PatternQuery(pattern, "ghost")], ALPHA
            )
            assert answers[0].answer == set()
            assert answers[0].subgraph_size == 0


# --------------------------------------------------------------------------- #
# Telemetry
# --------------------------------------------------------------------------- #
class TestReports:
    def test_batch_report_telemetry(self, graph, reach_queries, sharded_engines):
        report = sharded_engines[4].run_batch(reach_queries, ALPHA)
        assert len(report.answers) == len(reach_queries)
        assert report.kinds == {"reach": len(reach_queries)}
        assert report.local_reach + report.cross_reach == len(reach_queries)
        assert report.throughput > 0
        assert 0.0 <= report.spillover_fraction <= 1.0
        assert sum(report.per_shard.values()) >= report.local_reach

    def test_describe_reports_partition_and_boundary(self, sharded_engines):
        profile = sharded_engines[4].describe()
        assert profile["num_shards"] == 4
        assert sum(profile["shard_nodes"]) == sum(
            len(shard.core) for shard in sharded_engines[4].shards.values()
        )
        assert profile["cut_edges"] >= 0
        assert profile["boundary_supernodes"] >= 0

    def test_alpha_validation(self, sharded_engines, reach_queries):
        from repro.exceptions import EngineError

        with pytest.raises(EngineError):
            sharded_engines[2].run_batch(reach_queries, 0.0)


class TestBoundaryPrepare:
    def test_two_shard_prepare_thaws_nothing_and_matches_the_oracle(
        self, graph, reach_queries, monkeypatch
    ):
        """The boundary reads each shard's DAG mirror: no ``DiGraph`` DAG,
        membership or members is built, and the intra edges and first-hit
        labels (as columns) are what the thawed DAG gave."""
        from prepare_oracle import oracle_out_of_index_labels_by_sweep
        from repro.graph.components import Condensation
        from repro.reachability.compression import compress
        from repro.reachability.hierarchy import sweep_landmarks
        from repro.reachability.landmarks import LabelTable
        from repro.shard.boundary import DEFAULT_LABEL_CAP

        asked = []  # containers read off any condensation's columns

        def counted(getter, name):
            return property(lambda self: asked.append(name) or getter(self))

        for name in ("dag", "membership", "members"):
            monkeypatch.setattr(Condensation, name, counted(getattr(Condensation, name).fget, name))
        with ShardedEngine(graph, num_shards=2, seed=7) as engine:
            engine.prepare(reach_alphas=[ALPHA])
            engine.run_batch(reach_queries, ALPHA)
            assert asked == []
            monkeypatch.undo()
            for shard_id, shard in engine.shards.items():
                contribution = engine.boundary.contribution(shard_id)
                assert contribution.boundary_comps
                reference = compress(shard.graph)  # a twin to thaw
                ordered = sorted(contribution.boundary_comps, key=repr)
                _, reached = sweep_landmarks(reference.dag_csr, ordered, forward=True)
                assert contribution.intra_edges == [
                    (comp, other) for comp in ordered for other in sorted(reached[comp], key=repr)
                ]
                expected = oracle_out_of_index_labels_by_sweep(
                    reference.dag,
                    reference.dag_csr,
                    set(contribution.comp_of.values()),  # the set, in build order
                    DEFAULT_LABEL_CAP,
                )
                actual = (contribution.forward_labels, contribution.backward_labels)
                for table, oracle in zip(actual, expected):
                    assert type(table) is LabelTable and table == oracle
                    for node in reference.dag.nodes():
                        assert list(table.get(node, ())) == list(oracle.get(node, ()))


# --------------------------------------------------------------------------- #
# Reset
# --------------------------------------------------------------------------- #
class TestReset:
    @pytest.mark.parametrize("k", KS)
    def test_reset_equals_a_fresh_engine(self, graph, reach_queries, pattern_queries, k):
        """Over uniform churn with node removals: same partition, same answers,
        serial and on the daemon pool, which re-forks its workers after every reset."""
        queries = reach_queries + pattern_queries
        mutated = graph.copy()
        stream = generate_delta_stream(
            graph, batches=3, ops_per_batch=12, mix="uniform", seed=17, node_removal_rate=0.2
        )
        with ShardedEngine(graph, num_shards=k, seed=7) as engine:
            engine.run_batch(queries, ALPHA, executor="daemon", workers=2)
            pool = engine.daemon_pool()
            pids = pool.worker_pids()
            for delta in stream:
                delta.apply_to(mutated)
                engine.reset(mutated)
                fresh = ShardedEngine(mutated, num_shards=k, seed=7)
                assert list(engine.partition.assignment.items()) == list(fresh.partition.assignment.items())
                expected = signatures(fresh.answer_batch(queries, ALPHA))
                assert signatures(engine.answer_batch(queries, ALPHA)) == expected
                daemon = engine.run_batch(queries, ALPHA, executor="daemon", workers=2)
                assert signatures(daemon.answers) == expected
                assert engine.daemon_pool() is pool and not set(pool.worker_pids()) & set(pids)
                pids = pool.worker_pids()
        assert any(delta.has_node_removals() for delta in stream)


# --------------------------------------------------------------------------- #
# Confined delta workloads (locality experiments)
# --------------------------------------------------------------------------- #
class TestConfinedDeltaWorkload:
    def test_ops_stay_inside_the_pool(self, graph):
        pool = set(list(graph.nodes())[:50])
        stream = generate_delta_stream(
            graph, batches=4, ops_per_batch=15, mix="uniform", seed=3, confine_nodes=pool
        )
        allowed = set(pool)
        for delta in stream:
            for op in delta.ops:
                assert op.node in allowed
                if op.target is not None:
                    assert op.target in allowed

    def test_growth_newcomers_join_the_pool(self, graph):
        pool = set(list(graph.nodes())[:50])
        stream = generate_delta_stream(
            graph, batches=3, ops_per_batch=10, mix="growth", seed=3, confine_nodes=pool
        )
        allowed = set(pool)
        for delta in stream:
            for op in delta.ops:
                if op.kind == "add_node":
                    allowed.add(op.node)
                else:
                    assert op.node in allowed
                    if op.target is not None:
                        assert op.target in allowed

    def test_confinement_is_deterministic(self, graph):
        pool = set(list(graph.nodes())[:40])

        def ops(stream):
            return [
                [(op.kind, op.node, op.target, op.label) for op in delta]
                for delta in stream
            ]

        first = generate_delta_stream(
            graph, batches=3, ops_per_batch=10, mix="uniform", seed=4, confine_nodes=pool
        )
        second = generate_delta_stream(
            graph, batches=3, ops_per_batch=10, mix="uniform", seed=4, confine_nodes=pool
        )
        assert ops(first) == ops(second)

    def test_confinement_validation(self, graph):
        from repro.exceptions import WorkloadError

        with pytest.raises(WorkloadError):
            generate_delta_stream(graph, confine_nodes={"nope"})
        with pytest.raises(WorkloadError):
            generate_delta_stream(graph, confine_nodes=set(list(graph.nodes())[:2]) | {"nope"})


# --------------------------------------------------------------------------- #
# Cross-partitioner sanity on a second topology
# --------------------------------------------------------------------------- #
class TestHashPartitionServing:
    def test_hash_partition_contract_holds(self):
        graph = preferential_attachment_graph(
            num_nodes=250, edges_per_node=2, seed=5, back_edge_probability=0.15
        )
        queries = [ReachQuery(s, t) for s, t in sample_mixed_pairs(graph, 50, seed=3)]
        engine = ShardedEngine(graph, num_shards=3, method="hash", seed=0)
        for query, answer in zip(queries, engine.answer_batch(queries, ALPHA)):
            if answer.reachable:
                assert is_reachable(graph, query.source, query.target)
