"""Property tests for the ``GraphService`` façade (``repro.service``).

The contracts under test:

* **planner parity** — for every routing decision (serial / parallel /
  sharded, every executor, forced or auto), ``GraphService`` answers are
  bit-identical to a cache-free serial service's, including across
  ``update(delta)`` calls;
* **pure planner** — routing decisions are a deterministic function of
  ``(batch size, graph size, cores, config)`` and carry a reason;
* **one config surface** — ``ServiceConfig`` validates every knob, the
  CLI's shared ``--alpha/--executor/--workers`` flags parse and fold into
  it, and the curated exports plus deprecation shims behave as
  documented.
"""

from __future__ import annotations

import random
import warnings
from itertools import combinations

import pytest

from repro.cli import _build_parser, config_from_args
from repro.engine import ReachQuery
from repro.exceptions import ReproError, ServiceError
from repro.graph.digraph import DiGraph
from repro.graph.generators import community_graph
from repro.service import (
    CONTAIN,
    GraphService,
    PARALLEL,
    PatternRequest,
    Planner,
    ReachRequest,
    SCATTER,
    SERIAL,
    SHARDED,
    ServiceConfig,
    as_request,
)
from repro.service.planner import PARALLEL_THRESHOLD, SMALL_GRAPH_SIZE
from repro.subscribe import answers_identical
from repro.updates.delta import GraphDelta
from repro.workloads.deltas import generate_delta_stream
from repro.workloads.queries import generate_pattern_workload, sample_mixed_pairs

ALPHA = 0.1
EXECUTORS = ("serial", "daemon")


def clustered_graph(clusters=3, size=50, chords=2, bridges=3, seed=1) -> DiGraph:
    """Ring-of-chords clusters joined by a few bridges (see tests/test_shard.py)."""
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


def signature(answer):
    """Field-for-field identity of one answer, either query class."""
    if hasattr(answer, "reachable"):
        return ("reach", answer.reachable, answer.visited, answer.met_at, answer.exhausted)
    return (
        "pattern",
        frozenset(answer.answer),
        tuple(answer.subgraph.nodes()) if answer.subgraph is not None else (),
        answer.subgraph_size,
    )


@pytest.fixture(scope="module")
def graph():
    return clustered_graph()


@pytest.fixture(scope="module")
def mixed_requests(graph):
    reach = [ReachRequest(s, t) for s, t in sample_mixed_pairs(graph, 40, seed=3)]
    workload = generate_pattern_workload(graph, shape=(3, 4), count=6, seed=11)
    patterns = [PatternRequest(q.pattern, q.personalized_match) for q in workload]
    subgraphs = [
        PatternRequest(q.pattern, q.personalized_match, semantics="subgraph")
        for q in workload
    ]
    return reach + patterns + subgraphs


def serial_answers(graph, requests, alpha=ALPHA):
    """The reference: a fresh cache-free serial service on ``graph``."""
    return GraphService(graph, executor="serial", cache_size=0).run_batch(requests, alpha).answers


@pytest.fixture(scope="module")
def serial_reference(graph, mixed_requests):
    return [signature(a) for a in serial_answers(graph, mixed_requests)]


# --------------------------------------------------------------------------- #
# Config
# --------------------------------------------------------------------------- #
class TestServiceConfig:
    def test_defaults_validate(self):
        config = ServiceConfig()
        assert config.executor == "auto"
        assert config.num_shards == 1
        assert config.shard_policy == CONTAIN

    @pytest.mark.parametrize(
        "overrides",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"executor": "gpu"},
            {"workers": 0},
            {"num_shards": 0},
            {"shard_method": "metis"},
            {"halo_depth": 0},
            {"shard_policy": "broadcast"},
            {"cache_size": -1},
            {"max_inflight": 0},
            {"client_alpha_budget": 0.0},
            {"stream_chunk_size": 0},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ServiceError):
            ServiceConfig(**overrides)

    @pytest.mark.parametrize("executor", ("thread", "process"))
    def test_removed_executors_name_the_choices(self, executor):
        with pytest.raises(ServiceError, match="use one of auto, daemon, serial$"):
            ServiceConfig(executor=executor)

    def test_with_overrides_revalidates(self):
        config = ServiceConfig()
        assert config.with_overrides(alpha=0.5).alpha == 0.5
        with pytest.raises(ServiceError):
            config.with_overrides(alpha=-1)

    def test_flag_parent_uniform_defaults(self):
        args = _build_parser().parse_args(["batch"])
        assert args.alpha is None  # "not given": ServiceConfig default applies
        assert args.executor == "auto"
        assert args.workers is None
        config = config_from_args(args)
        assert config.alpha == ServiceConfig.alpha
        assert config.executor == "auto"

    def test_flag_parent_validates(self, capsys):
        parser = _build_parser()
        for bad in (["--alpha", "0"], ["--alpha", "nope"], ["--workers", "0"],
                    ["--executor", "gpu"], ["--executor", "thread"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["batch", *bad])
        capsys.readouterr()

    def test_config_from_args_folds_flags(self):
        args = _build_parser().parse_args(
            ["batch", "--alpha", "0.3", "--executor", "daemon", "--workers", "2", "--seed", "5"]
        )
        config = config_from_args(args, num_shards=2)
        assert (config.alpha, config.executor, config.workers) == (0.3, "daemon", 2)
        assert config.num_shards == 2
        assert config.seed == 5  # --seed feeds the partitioner seed too


# --------------------------------------------------------------------------- #
# Planner (pure routing decisions across the size × cores × config matrix)
# --------------------------------------------------------------------------- #
class TestPlanner:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_forced_executor_always_wins(self, executor):
        planner = Planner(ServiceConfig(executor=executor, workers=3))
        for num_queries in (1, 10, 10_000):
            for cores in (1, 2, 16):
                plan = planner.plan_batch(num_queries, graph_size=10**6, cores=cores)
                assert plan.executor == executor
                assert "forced" in plan.reason
                expected = SERIAL if executor == "serial" else PARALLEL
                assert plan.backend == expected

    def test_auto_single_core_stays_serial(self):
        plan = Planner(ServiceConfig()).plan_batch(10_000, graph_size=10**6, cores=1)
        assert (plan.backend, plan.executor) == (SERIAL, "serial")

    def test_auto_small_graph_stays_serial(self):
        planner = Planner(ServiceConfig())
        plan = planner.plan_batch(10_000, graph_size=SMALL_GRAPH_SIZE - 1, cores=8)
        assert plan.backend == SERIAL
        assert "small_graph_size" in plan.reason

    def test_auto_small_batch_stays_serial(self):
        planner = Planner(ServiceConfig())
        plan = planner.plan_batch(PARALLEL_THRESHOLD - 1, graph_size=10**6, cores=8)
        assert plan.backend == SERIAL
        assert "parallel_threshold" in plan.reason

    def test_auto_large_batch_goes_parallel(self):
        planner = Planner(ServiceConfig())
        plan = planner.plan_batch(256, graph_size=10**6, cores=8)
        assert (plan.backend, plan.executor) == (PARALLEL, "daemon")
        assert plan.workers == 8
        assert plan.parallel

    def test_auto_respects_configured_worker_cap(self):
        planner = Planner(ServiceConfig(workers=2))
        plan = planner.plan_batch(10_000, graph_size=10**6, cores=8)
        assert plan.workers == 2

    def test_sharded_backend_when_shards_configured(self):
        planner = Planner(ServiceConfig(num_shards=4))
        for cores in (1, 8):
            plan = planner.plan_batch(10, graph_size=10**6, cores=cores)
            assert plan.backend == SHARDED

    def test_scatter_policy_forces_sharded_even_at_k1(self):
        planner = Planner(ServiceConfig(num_shards=1, shard_policy=SCATTER))
        assert planner.plan_batch(10, graph_size=10**6, cores=1).backend == SHARDED

    def test_decisions_are_deterministic(self):
        planner = Planner(ServiceConfig())
        matrix = [
            (queries, size, cores)
            for queries in (1, 255, 256, 5000)
            for size in (100, 511, 512, 10**6)
            for cores in (1, 2, 8)
        ]
        first = [planner.plan_batch(*cell) for cell in matrix]
        second = [planner.plan_batch(*cell) for cell in matrix]
        assert first == second


# --------------------------------------------------------------------------- #
# The parity contract: every routing decision is bit-identical to serial
# --------------------------------------------------------------------------- #
class TestPlannerParityContract:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_forced_executors_bit_identical(
        self, graph, mixed_requests, serial_reference, executor
    ):
        config = ServiceConfig(executor=executor, workers=2, cache_size=0)
        with GraphService(graph, config) as service:
            report = service.run_batch(mixed_requests, alpha=ALPHA)
        assert [signature(a) for a in report.answers] == serial_reference

    def test_auto_plan_bit_identical(self, graph, mixed_requests, serial_reference):
        service = GraphService(graph, ServiceConfig(cache_size=0))
        report = service.run_batch(mixed_requests, alpha=ALPHA)
        assert [signature(a) for a in report.answers] == serial_reference

    @pytest.mark.parametrize("k", (2, 3))
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_sharded_contain_policy_bit_identical(
        self, graph, mixed_requests, serial_reference, k, executor
    ):
        config = ServiceConfig(executor=executor, workers=2, cache_size=0, num_shards=k)
        with GraphService(graph, config) as service:
            report = service.run_batch(mixed_requests, alpha=ALPHA)
        assert report.plan.backend == SHARDED
        assert [signature(a) for a in report.answers] == serial_reference

    def test_contain_policy_actually_routes_to_shards(self, graph, mixed_requests):
        # The parity test above would hold vacuously if nothing ever reached
        # the shard engines; the clustered fixture must exercise them.
        service = GraphService(graph, ServiceConfig(cache_size=0, num_shards=2))
        report = service.run_batch(mixed_requests, alpha=ALPHA)
        assert report.shard_routed > 0
        assert report.shard_single > 0
        stats = service.stats()
        assert stats.shard_contained == report.shard_routed
        assert stats.shard_spilled == report.shard_single

    def test_cached_rerun_stays_bit_identical(self, graph, mixed_requests, serial_reference):
        service = GraphService(graph, ServiceConfig(cache_size=4096))
        cold = service.run_batch(mixed_requests, alpha=ALPHA)
        warm = service.run_batch(mixed_requests, alpha=ALPHA)
        assert warm.cache_hits == len(mixed_requests)
        for report in (cold, warm):
            assert [signature(a) for a in report.answers] == serial_reference

    def test_mixed_alpha_batch_matches_per_alpha_serial_runs(self, graph):
        pairs = sample_mixed_pairs(graph, 20, seed=5)
        requests = [
            ReachRequest(s, t, alpha=(0.05 if i % 2 else 0.2))
            for i, (s, t) in enumerate(pairs)
        ]
        service = GraphService(graph, ServiceConfig(cache_size=0))
        answers = service.run_batch(requests).answers
        for request, answer in zip(requests, answers):
            [expected] = serial_answers(graph, [request], request.alpha)
            assert signature(answer) == signature(expected)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_parity_across_updates(self, executor):
        base = clustered_graph(clusters=2, size=40, seed=5)
        requests = [ReachRequest(s, t) for s, t in sample_mixed_pairs(base, 30, seed=7)]
        config = ServiceConfig(executor=executor, workers=2, cache_size=64)
        stream = generate_delta_stream(base, batches=3, ops_per_batch=12, seed=9)
        with GraphService(base.copy(), config) as service:
            for delta in stream:
                report = service.update(delta)
                assert report.mode in ("fresh", "patched", "rebuilt")
                got = service.run_batch(requests, alpha=ALPHA).answers
                expected = serial_answers(service.graph, requests)
                assert answers_identical("reach", got, expected)

    def test_update_before_lazy_shard_build_partitions_updated_graph(self):
        # A delta absorbed before the first sharded batch must not strand
        # the sharded engine on the stale construction-time source.
        base = clustered_graph(clusters=2, size=40, seed=5)
        requests = [ReachRequest(s, t) for s, t in sample_mixed_pairs(base, 20, seed=7)]
        workload = generate_pattern_workload(base, shape=(3, 4), count=4, seed=11)
        requests += [PatternRequest(q.pattern, q.personalized_match) for q in workload]
        service = GraphService(base.copy(), ServiceConfig(num_shards=2, cache_size=0))
        delta = next(iter(generate_delta_stream(base, batches=1, ops_per_batch=10, seed=4)))
        service.update(delta)
        assert service._sharded is None  # nothing to re-prepare yet
        got = service.run_batch(requests, alpha=ALPHA)  # builds shards now
        expected = serial_answers(service.graph, requests)
        assert [signature(a) for a in got.answers] == [signature(a) for a in expected]
        assert got.shard_routed > 0

    def test_sharded_service_updates_stay_bit_identical(self):
        base = clustered_graph(clusters=2, size=40, seed=5)
        workload = generate_pattern_workload(base, shape=(3, 4), count=4, seed=11)
        requests = [ReachRequest(s, t) for s, t in sample_mixed_pairs(base, 20, seed=7)]
        requests += [PatternRequest(q.pattern, q.personalized_match) for q in workload]
        service = GraphService(base.copy(), ServiceConfig(num_shards=2, cache_size=0))
        service.run_batch(requests, alpha=ALPHA)  # builds the sharded engine
        delta = next(iter(generate_delta_stream(base, batches=1, ops_per_batch=10, seed=4)))
        service.update(delta)
        got = service.run_batch(requests, alpha=ALPHA).answers
        expected = serial_answers(service.graph, requests)
        assert [signature(a) for a in got] == [signature(a) for a in expected]


# --------------------------------------------------------------------------- #
# Scatter policy (the explicit opt-out: PR 4 semantics, not bit-parity)
# --------------------------------------------------------------------------- #
class TestScatterPolicy:
    def test_scatter_routes_everything_to_shards(self, graph, mixed_requests):
        service = GraphService(
            graph, ServiceConfig(num_shards=2, shard_policy=SCATTER, cache_size=0)
        )
        report = service.run_batch(mixed_requests, alpha=ALPHA)
        assert report.shard_routed == len(mixed_requests)
        assert report.shard_single == 0
        assert sum(report.per_shard.values()) > 0

    def test_scatter_never_false_positive(self, graph):
        from repro.graph.traversal import is_reachable

        pairs = sample_mixed_pairs(graph, 40, seed=13)
        service = GraphService(
            graph, ServiceConfig(num_shards=3, shard_policy=SCATTER, cache_size=0)
        )
        answers = service.run_batch(
            [ReachRequest(s, t) for s, t in pairs], alpha=ALPHA
        ).answers
        for (source, target), answer in zip(pairs, answers):
            if answer.reachable:
                assert is_reachable(graph, source, target)

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_scatter_prepare_builds_what_scatter_batches_read(self, graph, num_shards):
        """Every scatter batch runs on the shards, at any k: prepare builds
        them, and the single engine is the update substrate only."""
        config = ServiceConfig(num_shards=num_shards, shard_policy=SCATTER, cache_size=0)
        with GraphService(graph, config) as service:
            service.prepare(reach_alphas=[ALPHA], pattern_alphas=[ALPHA], subgraph_alphas=[ALPHA])
            assert service._sharded is not None
            for shard in service._sharded.shards.values():
                assert shard.prepared.state_signature() == ((ALPHA,), (ALPHA,), (ALPHA,), True)
            assert service.prepared.state_signature() == ((), (), (), False)

    def test_shard_profile_then_prepare_freezes_the_source_once(self, graph, monkeypatch):
        from repro.graph.csr import CSRGraph

        freezes = []
        from_digraph = CSRGraph.from_digraph.__func__
        monkeypatch.setattr(
            CSRGraph, "from_digraph", classmethod(lambda cls, g: freezes.append(g) or from_digraph(cls, g))
        )
        with GraphService(graph, ServiceConfig(num_shards=2, shard_policy=SCATTER)) as service:
            service.shard_profile()
            service.prepare()
            assert freezes == [graph]

    def test_contain_prepare_builds_both_engines(self, graph):
        with GraphService(graph, ServiceConfig(num_shards=2, cache_size=0)) as service:
            service.prepare(reach_alphas=[ALPHA])
            assert service.prepared.state_signature() == ((ALPHA,), (), (), True)
            for shard in service._sharded.shards.values():
                assert shard.prepared.state_signature() == ((ALPHA,), (), (), True)

    def test_scatter_k1_bit_identical(self, graph, mixed_requests, serial_reference):
        service = GraphService(
            graph, ServiceConfig(num_shards=1, shard_policy=SCATTER, cache_size=0)
        )
        report = service.run_batch(mixed_requests, alpha=ALPHA)
        assert report.plan.backend == SHARDED
        assert [signature(a) for a in report.answers] == serial_reference


# --------------------------------------------------------------------------- #
# Updates on a sharded service: the shards re-prepare from the served graph
# --------------------------------------------------------------------------- #
def chained_deltas(graph):
    """Growth, uniform and node-removal deltas, each on the graph the last left."""
    deltas = []
    for mix, removals in (("growth", 0.0), ("uniform", 0.0), ("uniform", 0.3)):
        stream = generate_delta_stream(
            graph, batches=1, ops_per_batch=12, mix=mix, seed=9, node_removal_rate=removals
        )
        deltas += list(stream)
        graph = stream.final_graph
    return deltas


class TestShardedUpdates:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize(
        "policy, k", [(SCATTER, 1), (SCATTER, 2), (SCATTER, 4), (CONTAIN, 2), (CONTAIN, 1)]
    )
    def test_equals_a_fresh_service_after_every_update(self, policy, k, executor):
        """Unsharded (contain, k=1) runs with the default cache and its pattern
        requests subscribed, so surgical invalidation, the pattern guard, the
        flush on a rebuild and subscription maintenance all face re-evaluation."""
        from repro.subscribe import answer_signature

        base = clustered_graph(clusters=2, size=40, seed=5)
        requests = [ReachRequest(s, t) for s, t in sample_mixed_pairs(base, 30, seed=7)]
        for query in generate_pattern_workload(base, shape=(3, 4), count=4, seed=11):
            requests += [
                PatternRequest(query.pattern, query.personalized_match, semantics=semantics)
                for semantics in ("simulation", "subgraph")
            ]
        unsharded = (policy, k) == (CONTAIN, 1)
        config = ServiceConfig(
            num_shards=k,
            shard_policy=policy,
            executor=executor,
            workers=2,
            cache_size=ServiceConfig.cache_size if unsharded else 0,
        )
        deltas = chained_deltas(base)
        assert any(delta.has_node_removals() for delta in deltas)
        with GraphService(base.copy(), config) as service:
            service.run_batch(requests, alpha=ALPHA)  # builds the sharded engine
            if unsharded:
                for request in requests:
                    if isinstance(request, PatternRequest):
                        service.subscribe(request, alpha=ALPHA)
            for delta in deltas:
                service.update(delta)
                got = service.run_batch(requests, alpha=ALPHA).answers
                with GraphService(service.graph, config) as fresh:
                    expected = fresh.run_batch(requests, alpha=ALPHA).answers
                    for sub in service.subscriptions():
                        again = fresh.run_batch([sub.request], sub.alpha).answers[0]
                        assert sub.signature() == answer_signature(sub.kind, again)
                assert [signature(a) for a in got] == [signature(a) for a in expected]

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(dict(num_shards=1, shard_policy=SCATTER, cache_size=0), id="1"),
            pytest.param(dict(num_shards=2, shard_policy=SCATTER, cache_size=0), id="2"),
            # Unsharded, cached, on warm daemons: the raise must flush the
            # cache and bump the epoch so the workers republish.
            pytest.param(dict(executor="daemon", workers=2), id="unsharded-cached-daemon"),
        ],
    )
    def test_a_failing_delta_reaches_the_shards(self, overrides):
        """The ops before an invalid one stay applied, on the shards too."""
        graph = community_graph([60] * 20, inter_edges=0, seed=7)
        heads = [community * 60 for community in range(20)]  # chained head to head
        delta = GraphDelta()
        for earlier, later in zip(heads, heads[1:]):
            delta.add_edge(later, earlier)
        delta.remove_edge(heads[0], heads[-1])  # no such edge: raises after 19 ops
        requests = [ReachRequest(later, earlier) for earlier, later in combinations(heads, 2)]
        config = ServiceConfig(alpha=0.02, **overrides)
        with GraphService(graph, config) as service:
            service.run_batch(requests)
            with pytest.raises(ReproError):
                service.update(delta)
            got = service.run_batch(requests).answers
            with GraphService(service.graph, config) as fresh:
                expected = fresh.run_batch(requests).answers
        assert [signature(a) for a in got] == [signature(a) for a in expected]


# --------------------------------------------------------------------------- #
# Lifecycle, stats, request coercion
# --------------------------------------------------------------------------- #
class TestServiceLifecycle:
    def test_open_prepare_query_close(self):
        with GraphService.open("youtube-small", ServiceConfig(alpha=0.05)) as service:
            service.prepare()
            answer = service.query((1, 2))
            assert answer.backend == SERIAL
            assert answer.alpha == 0.05
            assert answer.index == 0
        assert service.closed
        with pytest.raises(ServiceError):
            service.run_batch([ReachRequest(1, 2)])

    def test_close_is_idempotent(self, graph):
        service = GraphService(graph)
        service.close()
        service.close()

    def test_request_coercion(self, graph):
        service = GraphService(graph, ServiceConfig(cache_size=0))
        report = service.run_batch([(0, 1), ReachQuery(0, 2), ReachRequest(0, 3)], alpha=ALPHA)
        assert len(report.answers) == 3
        with pytest.raises(ServiceError):
            as_request("not a request")

    def test_detailed_envelopes_carry_provenance(self, graph):
        service = GraphService(graph, ServiceConfig(cache_size=0))
        report = service.run_batch([ReachRequest(0, 1), ReachRequest(0, 2)], alpha=ALPHA)
        detailed = report.detailed()
        assert [a.index for a in detailed] == [0, 1]
        assert all(a.backend == report.plan.backend for a in detailed)
        assert all(a.alpha == ALPHA for a in detailed)
        assert [a.value for a in detailed] == report.answers

    def test_stats_accumulate(self, graph):
        service = GraphService(graph, ServiceConfig(cache_size=0))
        service.run_batch([ReachRequest(0, 1)], alpha=ALPHA)
        service.run_batch([ReachRequest(0, 2)], alpha=ALPHA)
        stats = service.stats()
        assert stats.batches == 2
        assert stats.queries == 2
        assert stats.plans.get(SERIAL) == 2
        assert stats.kinds.get("reach") == 2
        # The snapshot is independent of later mutation.
        service.run_batch([ReachRequest(0, 3)], alpha=ALPHA)
        assert stats.batches == 2

    def test_update_requires_delta(self, graph):
        service = GraphService(graph)
        with pytest.raises(ServiceError):
            service.update("not a delta")

    def test_update_stats_and_modes(self):
        base = clustered_graph(clusters=2, size=30, seed=2)
        service = GraphService(base.copy())
        delta = GraphDelta()
        delta.add_edge(0, 2)
        service.prepare()
        service.update(delta)
        stats = service.stats()
        assert stats.updates == 1
        assert sum(stats.update_modes.values()) == 1

    def test_shard_profile(self, graph):
        service = GraphService(graph, ServiceConfig(num_shards=2))
        profile = service.shard_profile()
        assert profile["num_shards"] == 2
        assert sum(profile["shard_nodes"]) == graph.num_nodes()

    def test_graph_tracks_updates(self):
        base = clustered_graph(clusters=2, size=30, seed=2)
        nodes_before = base.num_nodes()
        service = GraphService(base.copy())
        service.prepare()
        delta = GraphDelta()
        delta.add_node("newcomer", "A")
        delta.add_edge(0, "newcomer")
        service.update(delta)
        assert service.graph.num_nodes() == nodes_before + 1
        service.close()
        assert service.graph.num_nodes() == nodes_before + 1  # the served graph, not the source


# --------------------------------------------------------------------------- #
# Deprecation shims
# --------------------------------------------------------------------------- #
class TestDeprecationShims:
    # The PR 5 lazy top-level aliases (ShardedEngine, Partition,
    # partition_graph) are gone after their one-release window; removal is
    # pinned in tests/test_public_api.py.  What stays pinned here: the
    # low-level imports they pointed at remain clean and warning-free.

    def test_low_level_imports_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.shard import ShardedEngine  # noqa: F401
            from repro.engine import PreparedGraph  # noqa: F401

    def test_unknown_attribute_still_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.no_such_name
