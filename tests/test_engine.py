"""Tests for batch answering: ``GraphService``'s batch loop over ``repro.engine``.

The load-bearing property is the parity contract: for any executor and
worker count, batch answers are bit-identical to the serial path — asserted
field-by-field on the answer objects, not just on the Boolean verdicts.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import AnswerCache, PatternQuery, PreparedGraph, ReachQuery
from repro.engine.executors import DEFAULT_CHUNKS_PER_WORKER, answer_chunk, chunked
from repro.engine.queries import REACH
from repro.exceptions import EngineError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.service import GraphService
from repro.updates.delta import GraphDelta
from repro.updates.overlay import MutableOverlay
from repro.workloads.queries import (
    generate_pattern_workload,
    generate_reachability_workload,
    pattern_fingerprint,
    reachability_fingerprint,
)

ALPHA = 0.05


def _reach_signature(answer):
    return (answer.reachable, answer.visited, answer.met_at, answer.exhausted)


def _pattern_signature(answer):
    return (frozenset(answer.answer), answer.subgraph_size)


@pytest.fixture(scope="module")
def served_graph():
    """A 600-node scale-free graph (module copy of the session fixture)."""
    from repro.graph.generators import preferential_attachment_graph

    return preferential_attachment_graph(
        num_nodes=600, edges_per_node=2, seed=13, back_edge_probability=0.08
    )


@pytest.fixture(scope="module")
def reach_queries(served_graph):
    workload = generate_reachability_workload(served_graph, count=60, seed=4)
    return [ReachQuery(source, target) for source, target in workload.pairs]


@pytest.fixture(scope="module")
def pattern_queries(served_graph):
    workload = generate_pattern_workload(served_graph, shape=(4, 6), count=3, seed=4)
    return [PatternQuery(query.pattern, query.personalized_match) for query in workload]


class TestConstruction:
    def test_digraph_is_mirrored_to_csr(self, served_graph):
        service = GraphService(served_graph)
        assert service.backend == "CSRGraph"
        assert service.prepared.original is served_graph

    def test_overlay_input_is_frozen_on_entry(self, served_graph):
        overlay = MutableOverlay(CSRGraph.from_digraph(served_graph))
        service = GraphService(overlay)
        assert service.backend == "CSRGraph"
        assert service.prepared.original is overlay

    def test_csr_input_is_served_directly(self, served_graph):
        frozen = CSRGraph.from_digraph(served_graph)
        service = GraphService(frozen)
        assert service.backend == "CSRGraph"
        assert service.graph is frozen

    def test_freeze_preserves_iteration_order(self, served_graph):
        served = GraphService(served_graph).graph
        assert list(served.nodes()) == list(served_graph.nodes())
        for node in served_graph.nodes():
            assert list(served.successors(node)) == list(served_graph.successors(node))
            assert list(served.predecessors(node)) == list(served_graph.predecessors(node))

    def test_compression_condenses_the_served_substrate_once(self, served_graph):
        prepared = GraphService(served_graph).prepared
        compressed = prepared.compressed()
        assert compressed.original is prepared.graph
        assert compressed.condensation._mirror is compressed.dag_csr
        assert prepared.compressed() is compressed
        assert prepared.reachability_index(ALPHA).compressed is compressed

    def test_statistics_built_once(self, served_graph):
        statistics = GraphService(served_graph).prepared.statistics
        assert statistics["nodes"] == served_graph.num_nodes()
        assert statistics["edges"] == served_graph.num_edges()
        assert statistics["max_degree"] == served_graph.max_degree()

    def test_both_backends_answer_identically(self, served_graph, reach_queries):
        mutable = GraphService(served_graph, executor="serial")
        frozen = GraphService(CSRGraph.from_digraph(served_graph), executor="serial")
        left = mutable.run_batch(reach_queries, ALPHA).answers
        right = frozen.run_batch(reach_queries, ALPHA).answers
        assert [_reach_signature(a) for a in left] == [_reach_signature(a) for a in right]


def _daemon_matches_serial(graph, batch, workers):
    """Answer ``batch`` on a daemon service and on a cache-free serial one."""
    serial = GraphService(graph, executor="serial", cache_size=0)
    with GraphService(graph, executor="daemon", workers=workers, cache_size=0) as service:
        pooled = service.run_batch(batch, ALPHA)
        assert service._daemon_pool.workers == workers
    expected = serial.run_batch(batch, ALPHA).answers
    assert len(pooled.answers) == len(batch)
    for query, left, right in zip(batch, expected, pooled.answers):
        if isinstance(query, ReachQuery):
            assert _reach_signature(left) == _reach_signature(right)
        else:
            assert _pattern_signature(left) == _pattern_signature(right)
    return pooled


class TestExecutorParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_reach_parity(self, served_graph, reach_queries, workers):
        _daemon_matches_serial(served_graph, reach_queries, workers)

    def test_pattern_parity(self, served_graph, pattern_queries):
        _daemon_matches_serial(served_graph, pattern_queries, 2)

    def test_mixed_kind_batch_parity(self, served_graph, reach_queries, pattern_queries):
        batch = list(reach_queries[:10]) + list(pattern_queries) + list(reach_queries[10:20])
        _daemon_matches_serial(served_graph, batch, 3)

    def test_unknown_executor_rejected(self, served_graph):
        for name in ("gpu", "thread", "process"):
            with pytest.raises(EngineError, match="unknown executor"):
                GraphService(served_graph, executor=name)

    def test_daemon_parity_across_update(self, served_graph, reach_queries):
        """Daemons re-fork after ``update``: answers stay bit-identical."""
        delta = GraphDelta()
        nodes = list(served_graph.nodes())[:8]
        for source, target in zip(nodes, nodes[1:]):
            delta.add_edge(source, target)
        serial = GraphService(served_graph, executor="serial", cache_size=0)
        with GraphService(served_graph, executor="daemon", workers=2, cache_size=0) as service:
            before = service.run_batch(reach_queries, ALPHA).answers
            assert [_reach_signature(a) for a in before] == [
                _reach_signature(a) for a in serial.run_batch(reach_queries, ALPHA).answers
            ]
            pids = service._daemon_pool.worker_pids()
            service.update(delta)
            serial.update(delta)
            after = service.run_batch(reach_queries, ALPHA).answers
            # Fresh forks of the updated state, serial-identical answers.
            assert not set(service._daemon_pool.worker_pids()) & set(pids)
            assert [_reach_signature(a) for a in after] == [
                _reach_signature(a) for a in serial.run_batch(reach_queries, ALPHA).answers
            ]

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        indices=st.lists(st.integers(min_value=0, max_value=599), min_size=2, max_size=24),
        workers=st.integers(min_value=1, max_value=5),
        alpha=st.sampled_from([0.01, 0.05, 0.2]),
    )
    def test_parity_property(self, served_graph, indices, workers, alpha):
        """Any worker count's chunking answers arbitrary batches like serial."""
        pairs = list(zip(indices, indices[1:]))
        queries = [ReachQuery(source, target) for source, target in pairs]
        service = GraphService(served_graph, executor="serial", cache_size=0)
        serial = service.run_batch(queries, alpha).answers
        [chunks] = chunked([queries], workers)
        pieced = [
            answer
            for chunk in chunks
            for answer in answer_chunk(service.prepared, (REACH, alpha, chunk))
        ]
        assert [_reach_signature(a) for a in serial] == [_reach_signature(a) for a in pieced]


class TestChunking:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("sizes", [(), (0,), (1,), (7,), (65,), (3, 50), (0, 9, 0)], ids=str)
    def test_chunks_keep_order_size_and_workers_busy(self, sizes, workers):
        """Groups reassemble in order from non-empty chunks of one size (a group's last may run short)."""
        groups = [list(range(size)) for size in sizes]
        cut = chunked(groups, workers)
        assert [[item for chunk in chunks for item in chunk] for chunks in cut] == groups
        flat = [chunk for chunks in cut for chunk in chunks]
        size = max(map(len, flat), default=1)
        assert all(flat) and all(len(chunk) == size for chunks in cut for chunk in chunks[:-1])
        assert min(sum(sizes), workers) <= len(flat) <= workers * DEFAULT_CHUNKS_PER_WORKER + len(sizes)


class TestCache:
    def test_second_batch_is_all_hits(self, served_graph, reach_queries):
        service = GraphService(served_graph, executor="serial")
        cold = service.run_batch(reach_queries, ALPHA)
        warm = service.run_batch(reach_queries, ALPHA)
        assert cold.cache_hits == 0 and cold.cache_misses == len(reach_queries)
        assert warm.cache_hits == len(reach_queries) and warm.cache_misses == 0
        assert [_reach_signature(a) for a in cold.answers] == [
            _reach_signature(a) for a in warm.answers
        ]

    def test_alpha_change_misses_and_recomputes(self, served_graph, reach_queries):
        """A cached answer for one α must never serve a query at another α."""
        service = GraphService(served_graph, executor="serial")
        service.run_batch(reach_queries, 0.01)
        other = service.run_batch(reach_queries, 0.2)
        assert other.cache_hits == 0 and other.cache_misses == len(reach_queries)
        # And the recomputed answers match a fresh service at that α exactly.
        fresh = GraphService(served_graph, executor="serial").run_batch(reach_queries, 0.2)
        assert [_reach_signature(a) for a in other.answers] == [
            _reach_signature(a) for a in fresh.answers
        ]

    def test_graph_change_means_new_service_and_cold_cache(self, served_graph):
        """Caches are service-scoped: a changed graph gets a fresh service/cache."""
        service = GraphService(served_graph, executor="serial")
        pair = next(iter(served_graph.edges()))
        service.run_batch([ReachQuery(*pair)], ALPHA)

        mutated = served_graph.copy() if hasattr(served_graph, "copy") else None
        if mutated is None:
            mutated = DiGraph()
            for node in served_graph.nodes():
                mutated.add_node(node, served_graph.label(node))
            for source, target in served_graph.edges():
                mutated.add_edge(source, target)
        mutated.add_node("fresh-node", "Z")
        mutated.add_edge(pair[0], "fresh-node")

        rebuilt = GraphService(mutated, executor="serial")
        report = rebuilt.run_batch([ReachQuery(*pair)], ALPHA)
        assert report.cache_hits == 0  # nothing leaked across services

    def test_cache_disabled_by_zero_capacity(self, served_graph, reach_queries):
        service = GraphService(served_graph, executor="serial", cache_size=0)
        service.run_batch(reach_queries, ALPHA)
        again = service.run_batch(reach_queries, ALPHA)
        assert again.cache_hits == 0

    def test_lru_eviction_order(self):
        cache = AnswerCache(capacity=2)
        cache.put("a", 0.1, 1)
        cache.put("b", 0.1, 2)
        assert cache.get("a", 0.1) == (True, 1)  # refresh "a"
        cache.put("c", 0.1, 3)  # evicts "b", the least recently used
        assert cache.get("b", 0.1) == (False, None)
        assert cache.get("a", 0.1) == (True, 1)
        assert cache.get("c", 0.1) == (True, 3)

    def test_stats_hit_rate(self):
        cache = AnswerCache(capacity=4)
        cache.put("x", 0.5, "answer")
        cache.get("x", 0.5)
        cache.get("y", 0.5)
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == 0.5


class TestSingleFlight:
    """``run_batch`` evaluates each distinct ``(fingerprint, α)`` miss once.

    Differential against a cache-free serial service; one batch can mix
    per-request α values (the service groups by α and single-flights each
    group).
    """

    ALPHAS = (None, 0.02, 0.2)  # None: the service default, ALPHA

    @pytest.fixture(scope="class")
    def pool(self, served_graph, reach_queries, pattern_queries):
        patterns = [
            PatternQuery(query.pattern, query.personalized_match, semantics=semantics)
            for query in pattern_queries
            for semantics in ("simulation", "subgraph")
        ]
        return list(reach_queries[:10]) + patterns

    @pytest.fixture(scope="class")
    def reference(self, served_graph, pool):
        service = GraphService(served_graph, executor="serial", cache_size=0)
        return {
            alpha: service.run_batch(pool, alpha if alpha is not None else ALPHA).answers
            for alpha in self.ALPHAS
        }

    @pytest.fixture(scope="class")
    def services(self, served_graph):
        from repro.service import ServiceConfig

        opened = {
            (cache_size, executor): GraphService(
                served_graph,
                ServiceConfig(alpha=ALPHA, cache_size=cache_size, executor=executor, workers=2),
            )
            for cache_size in (0, 2, 4096)
            for executor in ("serial", "daemon")
        }
        yield opened
        for service in opened.values():
            service.close()

    @pytest.fixture()
    def evaluations(self, monkeypatch):
        """One entry (the matcher's class name) per leaf evaluation the service runs."""
        from repro.core.rbsim import RBSim
        from repro.core.rbsub import RBSub
        from repro.reachability.rbreach import RBReach

        calls = []
        for matcher, method in ((RBSim, "answer"), (RBSub, "answer"), (RBReach, "query")):
            original = getattr(matcher, method)

            def counted(self, *args, _original=original, _name=matcher.__name__, **kwargs):
                calls.append(_name)  # parent-side evaluations only
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(matcher, method, counted)
        return calls

    @staticmethod
    def _signature(query, answer):
        if isinstance(query, ReachQuery):
            return _reach_signature(answer)
        return _pattern_signature(answer)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        picks=st.lists(
            st.tuples(st.integers(min_value=0, max_value=15), st.sampled_from(ALPHAS)),
            min_size=1,
            max_size=40,
        ),
        cache_size=st.sampled_from([0, 2, 4096]),
        executor=st.sampled_from(["serial", "daemon"]),
    )
    def test_batches_with_repeats_match_cache_free_serial(
        self, pool, reference, services, evaluations, picks, cache_size, executor
    ):
        from dataclasses import replace

        from repro.service import as_request

        service = services[cache_size, executor]
        service._flush_cache()
        batch = [replace(as_request(pool[index]), alpha=alpha) for index, alpha in picks]
        distinct = len(set(picks))
        del evaluations[:]
        counted = executor == "serial"  # daemon evaluations happen in the workers

        report = service.run_batch(batch)

        for (index, alpha), answer in zip(picks, report.answers):
            assert self._signature(pool[index], answer) == self._signature(
                pool[index], reference[alpha][index]
            )
        assert report.cache_hits + report.cache_misses == len(batch)
        if cache_size == 0:
            assert report.deduplicated == 0
            assert not counted or len(evaluations) == len(batch)
            return
        assert report.cache_hits == 0
        assert report.deduplicated == len(batch) - distinct
        assert not counted or len(evaluations) == distinct
        # Repeats hold the leader's answer object itself, like a cache hit.
        first = {}
        for pick, answer in zip(picks, report.answers):
            assert first.setdefault(pick, answer) is answer
        if cache_size >= distinct:
            again = service.run_batch(batch)
            assert again.cache_hits == len(batch) and again.cache_misses == 0
            assert again.deduplicated == 0
            assert not counted or len(evaluations) == distinct

    def test_deduplicated_is_counted_and_reported(self, served_graph, reach_queries):
        from repro import obs

        service = GraphService(served_graph, executor="serial")
        before = obs.snapshot()["counters"].get("engine.batch.deduplicated", 0)
        report = service.run_batch(list(reach_queries[:5]) * 3, ALPHA)
        assert (report.cache_hits, report.cache_misses, report.deduplicated) == (0, 15, 10)
        assert obs.snapshot()["counters"]["engine.batch.deduplicated"] - before == 10
        assert len(service._cache) == 5


class TestFingerprints:
    def test_reach_fingerprint_stable_and_distinct(self):
        assert reachability_fingerprint(1, 2) == reachability_fingerprint(1, 2)
        assert reachability_fingerprint(1, 2) != reachability_fingerprint(2, 1)
        assert ReachQuery(1, 2).fingerprint() == reachability_fingerprint(1, 2)

    def test_pattern_fingerprint_covers_match_and_semantics(self, served_graph):
        workload = generate_pattern_workload(served_graph, shape=(4, 5), count=1, seed=2)
        query = workload.queries[0]
        assert query.fingerprint() == pattern_fingerprint(
            query.pattern, query.personalized_match
        )
        sim = PatternQuery(query.pattern, query.personalized_match, semantics="simulation")
        sub = PatternQuery(query.pattern, query.personalized_match, semantics="subgraph")
        assert sim.fingerprint() != sub.fingerprint()
        other_match = PatternQuery(query.pattern, "someone-else")
        assert sim.fingerprint() != other_match.fingerprint()

    def test_pattern_query_rejects_unknown_semantics(self, served_graph):
        workload = generate_pattern_workload(served_graph, shape=(4, 5), count=1, seed=2)
        query = workload.queries[0]
        with pytest.raises(EngineError):
            PatternQuery(query.pattern, query.personalized_match, semantics="vf3")


class TestReport:
    def test_report_telemetry(self, served_graph, reach_queries):
        with GraphService(served_graph, executor="daemon", workers=2) as service:
            report = service.run_batch(reach_queries, ALPHA)
            assert report.plan.executor == "daemon" and report.plan.workers == 2
            assert report.wall_seconds > 0 and report.throughput > 0
            assert report.kinds == {"reach": len(reach_queries)}
            assert report.chunks >= 1
            # The composition describes the batch even when fully cache-served.
            warm = service.run_batch(reach_queries, ALPHA)
        assert warm.kinds == {"reach": len(reach_queries)}
        assert warm.chunks == 0

    @pytest.mark.parametrize("workers", [1, 4])
    def test_daemon_report_names_its_workers_and_answers_like_serial(
        self, served_graph, reach_queries, workers
    ):
        pooled = _daemon_matches_serial(served_graph, reach_queries, workers)
        assert pooled.plan.executor == "daemon" and pooled.plan.workers == workers

    def test_reach_batch_matches_query_many(self, served_graph):
        workload = generate_reachability_workload(served_graph, count=25, seed=11)
        service = GraphService(served_graph, executor="serial")
        answers = service.run_batch(workload.pairs, ALPHA).answers
        direct = service.prepared.rbreach(ALPHA).query_many(workload.pairs)
        assert {pair: a.reachable for pair, a in zip(workload.pairs, answers)} == direct

    def test_pattern_batch_matches_matcher(self, served_graph):
        workload = generate_pattern_workload(served_graph, shape=(4, 5), count=2, seed=3)
        service = GraphService(served_graph, executor="serial")
        answers = service.run_batch(
            [PatternQuery(query.pattern, query.personalized_match) for query in workload],
            ALPHA,
        ).answers
        matcher = service.prepared.rbsim(ALPHA)
        expected = [
            matcher.answer(query.pattern, query.personalized_match) for query in workload
        ]
        assert [a.answer for a in answers] == [e.answer for e in expected]

    def test_invalid_alpha_rejected(self, served_graph, reach_queries):
        service = GraphService(served_graph, executor="serial")
        with pytest.raises(EngineError):
            service.run_batch(reach_queries, 0.0)

    def test_empty_batch(self, served_graph):
        report = GraphService(served_graph, executor="serial").run_batch([], ALPHA)
        assert report.answers == [] and report.chunks == 0

    def test_prepare_returns_self_and_builds_index(self, served_graph):
        service = GraphService(served_graph)
        assert service.prepare(reach_alphas=[ALPHA]) is service
        assert service.prepared.index_build_seconds(ALPHA) > 0
        assert service.prepared.reachability_index(ALPHA).size() > 0

    def test_prepared_rejects_unknown_kind(self, served_graph):
        prepared = PreparedGraph(served_graph)
        with pytest.raises(EngineError):
            prepared.prepare("teleport", ALPHA)


class TestCliBatch:
    def test_batch_smoke(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "batch",
                    "--dataset",
                    "youtube-small",
                    "--count",
                    "20",
                    "--alpha",
                    "0.05",
                    "--repeat",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "cache hits=20" in out  # second run served from the LRU cache

    def test_batch_daemon_executor_with_compare(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "batch",
                    "--count",
                    "15",
                    "--executor",
                    "daemon",
                    "--workers",
                    "2",
                    "--compare-serial",
                ]
            )
            == 0
        )
        assert "identical answers" in capsys.readouterr().out

    def test_batch_pattern_kind(self, capsys):
        from repro.cli import main

        assert main(["batch", "--kind", "sim", "--count", "2", "--alpha", "0.02"]) == 0
        assert "kind=sim" in capsys.readouterr().out

    def test_batch_queries_file(self, tmp_path, capsys):
        from repro.cli import main

        queries = tmp_path / "queries.txt"
        queries.write_text("# reach pairs\n1 2\n5 9\n", encoding="utf-8")
        output = tmp_path / "report.json"
        assert (
            main(["batch", "--queries", str(queries), "--output", str(output)]) == 0
        )
        import json

        payload = json.loads(output.read_text(encoding="utf-8"))
        assert payload["num_queries"] == 2
        assert payload["runs"][0]["cache_misses"] == 2

    def test_batch_warns_on_unknown_node_ids(self, tmp_path, capsys):
        from repro.cli import main

        queries = tmp_path / "queries.txt"
        queries.write_text("1 2\nno-such-node 99999999\n", encoding="utf-8")
        assert main(["batch", "--queries", str(queries)]) == 0
        captured = capsys.readouterr()
        assert "not in dataset" in captured.err

    def test_batch_rejects_malformed_queries_file(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["batch", "--queries", str(bad)])

    def test_run_accepts_executor_flag(self):
        from repro.cli import main

        assert main(["run", "fig8m", "--executor", "daemon", "--workers", "2"]) == 0
