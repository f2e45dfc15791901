"""Persistent worker daemons (``repro.engine.daemons``) under fire.

Crash-injection contract:

* a daemon SIGKILLed **mid-chunk** is detected, restarted, and its chunk
  retried on a healthy worker — the batch completes with bit-identical
  answers;
* a chunk that kills every worker it touches raises a typed
  :class:`~repro.exceptions.DaemonError` (an ``EngineError``) after a
  bounded number of restarts, and the pool stays fully usable;
* worker deaths **between** batches are absorbed transparently;
* the async service front-end releases admission on a daemon failure and
  remains reusable.

Plus the non-fork attach path: under ``spawn`` the daemons must attach the
shared-memory publication, answer like serial, report their metrics and
leave no segment behind (``REPRO_MP_START_METHOD`` forces the start method
for the test).
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

import pytest

from repro.engine.daemons import MAX_TASK_RETRIES, DaemonPool, _process_context
from repro.engine.queries import ReachQuery
from repro.exceptions import DaemonError, EngineError
from repro.graph.generators import random_graph
from repro.service import GraphService, ReachRequest, ServiceConfig
from repro.updates.delta import GraphDelta

ALPHA = 0.1


def daemon_service(graph) -> GraphService:
    return GraphService(graph, executor="daemon", workers=2, cache_size=0)


def serial_answers(graph, batch):
    """The reference: a fresh cache-free serial service on ``graph``."""
    return GraphService(graph, executor="serial", cache_size=0).run_batch(batch, ALPHA).answers


# --------------------------------------------------------------------------- #
# Module-level chunk functions (pickled by reference into the daemons)
# --------------------------------------------------------------------------- #
def _echo_chunk(state, task):
    """The well-behaved baseline: scale each item by the shared factor."""
    return [state["factor"] * item for item in task]


def _suicide_chunk(state, task):
    """Every attempt dies mid-chunk: the pool must give up with DaemonError."""
    os.kill(os.getpid(), signal.SIGKILL)


def _flaky_chunk(state, task):
    """Dies mid-chunk on the first attempt only; retries must complete."""
    marker, items = task
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return [state["factor"] * item for item in items]


def _error_chunk(state, task):
    raise ValueError("chunk exploded")


def _probe_summaries_chunk(state, task):
    """Per ``(node, label)``: what the worker's attached summaries answer, and how."""
    index = state.neighborhood_index()
    child_bits, parent_bits = index._source.label_presence()
    zero_copy = not (
        child_bits.flags.owndata
        or parent_bits.flags.owndata
        or child_bits.flags.writeable
        or parent_bits.flags.writeable
    )
    return [
        (
            index.has_child_label(node, label),
            index.has_parent_label(node, label),
            index._row(node) is not None,
            zero_copy and index._child_words.readonly and index._parent_words.readonly,
        )
        for node, label in task
    ]


@pytest.fixture
def graph():
    return random_graph(num_nodes=250, num_edges=1000, seed=11)


@pytest.fixture
def queries(graph):
    nodes = list(graph.nodes())
    return [ReachQuery(nodes[i], nodes[-1 - i]) for i in range(24)]


class TestDaemonPool:
    def test_plain_state_round_trip(self):
        state = {"factor": 3}
        with DaemonPool(workers=2) as pool:
            results = pool.run(state, [[1, 2], [3], [4, 5, 6]], chunk_fn=_echo_chunk)
            assert results == [[3, 6], [9], [12, 15, 18]]
            assert len(pool.worker_pids()) == 2

    def test_empty_batch_never_starts_workers(self):
        with DaemonPool(workers=2) as pool:
            assert pool.run({"factor": 1}, [], chunk_fn=_echo_chunk) == []
            assert not pool.started

    def test_kill_between_batches_restarts_and_answers(self):
        from repro import obs

        state = {"factor": 2}
        restarts_before = obs.snapshot()["counters"].get("daemon.restarts", 0)
        with DaemonPool(workers=2) as pool:
            assert pool.run(state, [[1], [2]], chunk_fn=_echo_chunk) == [[2], [4]]
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert pool.run(state, [[5], [6]], chunk_fn=_echo_chunk) == [[10], [12]]
            assert pool.restarts >= 1
            assert victim not in pool.worker_pids()
        # The restart is also visible in the global metrics registry (the
        # service-level report a production snapshot would show).
        assert obs.snapshot()["counters"].get("daemon.restarts", 0) > restarts_before

    def test_sigkill_mid_chunk_retries_and_completes(self, tmp_path):
        """The first attempt dies mid-chunk; the retry finishes the batch."""
        state = {"factor": 10}
        marker = str(tmp_path / "first-attempt")
        with DaemonPool(workers=2) as pool:
            results = pool.run(
                state,
                [(marker, [1, 2]), (str(tmp_path / "other"), [3])],
                chunk_fn=_flaky_chunk,
            )
            assert results == [[10, 20], [30]]
            assert pool.restarts >= 1

    def test_poison_chunk_raises_typed_error_and_pool_survives(self):
        state = {"factor": 1}
        with DaemonPool(workers=2) as pool:
            with pytest.raises(DaemonError) as excinfo:
                pool.run(state, [[1]], chunk_fn=_suicide_chunk)
            assert isinstance(excinfo.value, EngineError)  # typed, catchable
            assert pool.restarts >= MAX_TASK_RETRIES + 1
            # The pool is immediately reusable for the next batch.
            assert pool.run(state, [[7]], chunk_fn=_echo_chunk) == [[7]]

    def test_worker_exception_raises_without_killing_pool(self):
        state = {"factor": 1}
        with DaemonPool(workers=2) as pool:
            pids = None
            pool.run(state, [[1]], chunk_fn=_echo_chunk)
            pids = pool.worker_pids()
            with pytest.raises(DaemonError, match="chunk exploded"):
                pool.run(state, [[1]], chunk_fn=_error_chunk)
            assert pool.worker_pids() == pids  # an exception is not a crash
            assert pool.run(state, [[2]], chunk_fn=_echo_chunk) == [[2]]

    def test_ping_detects_death_and_optionally_revives(self):
        with DaemonPool(workers=2) as pool:
            pool.run({"factor": 1}, [[1]], chunk_fn=_echo_chunk)
            assert pool.ping() == [True, True]
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            time.sleep(0.1)
            assert pool.ping(timeout=2.0) == [False, True]
            assert pool.ping(timeout=2.0, restart=True) == [False, True]  # revived after
            assert pool.ping(timeout=2.0) == [True, True]

    def test_closed_pool_raises_typed_error(self):
        pool = DaemonPool(workers=1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(DaemonError):
            pool.run({"factor": 1}, [[1]], chunk_fn=_echo_chunk)

    def test_republish_on_new_version_only(self):
        state = {"factor": 2}
        with DaemonPool(workers=1) as pool:
            pool.run(state, [[1]], chunk_fn=_echo_chunk, version=1)
            seq = pool._state_seq
            pool.run(state, [[1]], chunk_fn=_echo_chunk, version=1)
            assert pool._state_seq == seq  # warm: same version, no republish
            pool.run({"factor": 5}, [[1]], chunk_fn=_echo_chunk, version=2)
            assert pool._state_seq == seq + 1


class TestSharedSummaries:
    """Workers read the neighbourhood summaries out of the shared segment."""

    def test_workers_map_masks_and_republish_serves_patched_ones(self, graph):
        from repro import obs
        from repro.engine.prepared import PreparedGraph
        from repro.engine.queries import SIMULATION
        from repro.graph.neighborhood import summarize_node

        prepared = PreparedGraph(graph)
        prepared.prepare(SIMULATION, ALPHA)
        nodes = list(graph.nodes())
        hub, other = nodes[0], nodes[-1]
        labels = sorted(graph.distinct_labels())
        probes = [(node, label) for node in nodes[:30] + [other] for label in labels]

        def expected():
            rows = []
            for node, label in probes:
                summary = summarize_node(prepared.graph, node)
                rows.append((summary.child_count(label) > 0, summary.parent_count(label) > 0))
            return rows

        before = obs.snapshot()
        with DaemonPool(workers=2) as pool:
            first = pool.run(prepared, [probes, probes], chunk_fn=_probe_summaries_chunk, version=0)
            segments = pool.segment_names()
            for rows in first:
                assert [row[:2] for row in rows] == expected()
                assert all(array_backed and zero_copy for _, _, array_backed, zero_copy in rows)

            delta = GraphDelta().add_node("fresh", label="never-seen").add_edge(hub, "fresh")
            delta.add_edge("fresh", other)
            summary = prepared.apply_delta(delta)
            assert summary.summaries_evicted == 2  # hub and other; "fresh" was never known
            prepared.prepare(SIMULATION, ALPHA)
            probes += [(hub, "never-seen"), (other, "never-seen"), ("fresh", labels[0])]
            second = pool.run(prepared, [probes, probes], chunk_fn=_probe_summaries_chunk, version=1)
            assert pool.restarts == 0
            for rows in second:
                assert [row[:2] for row in rows] == expected()
                backed = {probe[0]: row[2] for probe, row in zip(probes, rows)}
                assert not backed[hub] and not backed[other] and not backed["fresh"]
                assert all(backed[node] for node in nodes[1:30])  # untouched: still the arrays
                assert all(row[3] for row in rows)
            assert rows[-3][0] and rows[-2][1]  # the patched masks see the new label
            segments += pool.segment_names()
        assert not any(os.path.exists(os.path.join("/dev/shm", name)) for name in segments)
        after = obs.snapshot()
        for name in ("daemon.publish.seconds", "daemon.attach.seconds"):
            grown = after["histograms"][name]["count"] - before["histograms"].get(name, {}).get("count", 0)
            assert grown == (2 if name == "daemon.publish.seconds" else 4)
        assert after["gauges"]["daemon.payload.bytes"] > 0

    def test_pattern_parity_across_update(self, graph):
        """Serial and daemon pattern answers agree before and after ``update``."""
        from repro.engine.queries import PatternQuery
        from repro.workloads.queries import generate_pattern_workload

        workload = generate_pattern_workload(graph, shape=(4, 6), count=6, seed=4)
        queries = [PatternQuery(query.pattern, query.personalized_match) for query in workload]
        nodes = list(graph.nodes())
        delta = GraphDelta()
        for query in queries:
            delta.add_edge(query.personalized_match, nodes[7])
            delta.add_node(nodes[9], label=graph.label(nodes[3]))

        def signatures(answers):
            return [(frozenset(a.answer), a.subgraph_size) for a in answers]

        with daemon_service(graph) as service:
            for _ in range(2):
                daemon = service.run_batch(queries, ALPHA).answers
                assert signatures(daemon) == signatures(serial_answers(service.graph, queries))
                service.update(delta)
            assert service._daemon_pool.restarts == 0


class TestSharedCompression:
    """Workers read the condensation and the ranks out of the DAG mirror's segment."""

    def test_reach_and_pattern_parity_across_the_thaw(self, graph, queries):
        """Columns before the first ``update``; thaw → patched containers → republish after."""
        from repro import obs
        from repro.engine.queries import PatternQuery
        from repro.workloads.queries import generate_pattern_workload

        workload = generate_pattern_workload(graph, shape=(4, 6), count=6, seed=4)
        patterns = [PatternQuery(query.pattern, query.personalized_match) for query in workload]
        nodes = list(graph.nodes())

        def signatures(answers):
            return [
                (a.reachable, a.visited, a.met_at, a.exhausted)
                if hasattr(a, "reachable")
                else (frozenset(a.answer), a.subgraph_size)
                for a in answers
            ]

        def assert_parity(service):
            batch = queries + patterns
            daemon = service.run_batch(batch, ALPHA).answers
            assert signatures(daemon) == signatures(serial_answers(service.graph, batch))

        def thaws(structure="condensation"):
            return obs.snapshot()["counters"].get("prepare.thaw." + structure, 0)

        thaws_before, label_thaws_before = thaws(), thaws("labels")
        with daemon_service(graph) as service:
            assert_parity(service)
            assert service.prepared.compressed().condensation.array_backed
            pool = service._daemon_pool
            segments = pool.segment_names()
            column_payload = obs.snapshot()["gauges"]["daemon.payload.bytes"]
            assert all(worker.rss_bytes > 2**20 for worker in pool._workers)  # sent with "ready"
            assert obs.snapshot()["histograms"]["daemon.worker.rss.bytes"]["count"] >= 2
            assert (thaws(), thaws("labels")) == (thaws_before, label_thaws_before)  # reads never thaw

            delta = GraphDelta()
            for source, target in zip(nodes[:6], nodes[1:7]):
                delta.add_edge(source, target)
            assert service.update(delta).mode == "patched"
            assert (thaws(), thaws("labels")) == (thaws_before + 1, label_thaws_before + 1)
            assert not service.prepared.compressed().condensation.array_backed
            assert_parity(service)  # republished: the patched containers travel pickled
            assert obs.snapshot()["gauges"]["daemon.payload.bytes"] > column_payload
            segments += pool.segment_names()

            assert service.update(GraphDelta().add_edge(nodes[8], nodes[2])).mode == "patched"
            assert thaws() == thaws_before + 1  # the maintainer owns the containers now
            assert_parity(service)
            segments += pool.segment_names()
            assert pool.restarts == 0
        assert not any(os.path.exists(os.path.join("/dev/shm", name)) for name in segments)


class TestEngineDaemonPool:
    def test_engine_kill_all_workers_mid_service(self, graph, queries):
        """Killing every daemon between batches never surfaces to callers."""
        serial = serial_answers(graph, queries)
        with daemon_service(graph) as service:
            daemon = service.run_batch(queries, ALPHA).answers
            assert [a.reachable for a in daemon] == [a.reachable for a in serial]
            for pid in service._daemon_pool.worker_pids():
                os.kill(pid, signal.SIGKILL)
            again = service.run_batch(queries, ALPHA).answers
            assert [a.reachable for a in again] == [a.reachable for a in serial]
            assert service._daemon_pool.restarts >= 2


class TestServiceAdmission:
    def test_daemon_failure_releases_admission_and_service_reusable(
        self, graph, queries, monkeypatch
    ):
        """A DaemonError mid-submit must not leak admission slots."""
        requests = [ReachRequest(q.source, q.target) for q in queries[:6]]
        service = GraphService(
            graph, ServiceConfig(executor="daemon", workers=2, cache_size=0, max_inflight=4)
        )
        with service:
            baseline = asyncio.run(service.submit(requests[0], alpha=ALPHA))
            assert baseline.value is not None

            def poisoned_run(self, state, tasks, chunk_fn=None, version=None):
                raise DaemonError("injected daemon failure")

            monkeypatch.setattr(DaemonPool, "run", poisoned_run)
            with pytest.raises(EngineError):
                asyncio.run(service.submit(requests[1], alpha=ALPHA))
            assert service._frontend.admission.inflight == 0  # slot released
            monkeypatch.undo()

            answers = [
                asyncio.run(service.submit(request, alpha=ALPHA)) for request in requests
            ]
            assert all(answer.value is not None for answer in answers)
            assert service._frontend.admission.inflight == 0


class TestSpawnShipping:
    def test_env_override_selects_start_method(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
        assert _process_context().get_start_method() == "spawn"
        monkeypatch.delenv("REPRO_MP_START_METHOD")
        assert _process_context().get_start_method() in ("fork", "spawn", "forkserver")

    def test_daemon_parity_under_spawn(self, graph, queries, monkeypatch):
        """Spawned daemons attach the shared state and report their metrics."""
        from repro import obs

        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
        # A spawned child re-imports ``repro.obs`` and would read this default;
        # the parent's registry stays enabled (the flag is read at import).
        monkeypatch.setenv("REPRO_METRICS", "0")
        before = obs.snapshot()["counters"].get("daemon.worker.chunks", 0)
        serial = serial_answers(graph, queries)
        with daemon_service(graph) as service:
            report = service.run_batch(queries, ALPHA)
            assert service._daemon_pool._context.get_start_method() == "spawn"
        assert [a.reachable for a in report.answers] == [a.reachable for a in serial]
        # Worker counters reach this registry only because the pool ships
        # ``metrics_enabled`` to the child explicitly.
        grown = obs.snapshot()["counters"].get("daemon.worker.chunks", 0) - before
        assert grown == report.chunks > 0

    def test_spawn_pool_leaves_no_segments(self, graph, queries, monkeypatch):
        from repro.graph.shm import active_segments

        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
        before = set(active_segments())
        with daemon_service(graph) as service:
            service.run_batch(queries, ALPHA)
            segments = service._daemon_pool.segment_names()
        assert segments and set(active_segments()) == before
        assert not any(os.path.exists(os.path.join("/dev/shm", name)) for name in segments)


@pytest.mark.slow_shm
class TestSoak:
    def test_daemon_soak_200_batches_no_leaks(self, graph):
        """Nightly: 200 daemon batches with periodic updates, zero leaks.

        Each update republishes (container-backed after the first thaw), so
        a worker that kept the state it detached from would grow by one
        state per republish: its ``ru_maxrss`` after the last attach must
        stay within 8 MB of the one after its first.
        """
        from repro.graph.shm import active_segments

        nodes = list(graph.nodes())
        before = set(active_segments())
        serial = GraphService(graph, executor="serial", cache_size=0)
        with daemon_service(graph) as service:
            pool = None
            for batch in range(200):
                offset = batch % 40
                queries = [
                    ReachQuery(nodes[(offset + i) % len(nodes)], nodes[-1 - i])
                    for i in range(12)
                ]
                expected = serial.run_batch(queries, ALPHA).answers
                daemon = service.run_batch(queries, ALPHA).answers
                assert [a.reachable for a in daemon] == [a.reachable for a in expected]
                if pool is None:
                    pool = service._daemon_pool
                    first_rss = [worker.rss_bytes for worker in pool._workers]
                if batch % 50 == 49:
                    delta = GraphDelta()
                    delta.add_edge(nodes[batch % len(nodes)], nodes[(batch * 7) % len(nodes)])
                    service.update(delta)
                    serial.update(delta)
            # Steady state: the warm pool held at most one publication's
            # segments at a time; crashes aside, the original workers served
            # every batch.
            assert pool is not None and pool.restarts == 0
            last_rss = [worker.rss_bytes for worker in pool._workers]
            assert all(0 < first for first in first_rss)
            assert all(last - first <= 8 * 2**20 for first, last in zip(first_rss, last_rss))
        assert set(active_segments()) == before
