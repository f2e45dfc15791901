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

Plus the fork contract: workers fork from the state they serve, so their
pids change exactly when the state version does, ``daemon.publishes``
counts one fork round per version, no ``/dev/shm`` segment is created, a
pool without the ``fork`` start method refuses to start, and ``close()``
leaves no daemon behind.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import obs
from repro.engine.daemons import MAX_TASK_RETRIES, DaemonPool
from repro.engine.queries import ReachQuery
from repro.exceptions import DaemonError, EngineError
from repro.graph.generators import random_graph
from repro.graph.shm import SEGMENT_PREFIX
from repro.service import GraphService, ReachRequest, ServiceConfig
from repro.service.planner import Planner
from repro.updates.delta import GraphDelta

ALPHA = 0.1


def daemon_service(graph) -> GraphService:
    return GraphService(graph, executor="daemon", workers=2, cache_size=0)


def shm_segments():
    """This package's segments currently in ``/dev/shm``, whoever created them."""
    return {name for name in os.listdir("/dev/shm") if name.startswith(SEGMENT_PREFIX)}


def publishes():
    return obs.snapshot()["counters"].get("daemon.publishes", 0)


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
    """Per ``(node, label)``: what the worker's summaries answer, and from which rows."""
    index = state.neighborhood_index()
    return [
        (
            index.has_child_label(node, label),
            index.has_parent_label(node, label),
            index._row(node) is not None,
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

    def test_refork_on_new_version_only(self):
        """Same version: the same warm workers; a new one: fresh forks of the new state."""
        before = publishes()
        with DaemonPool(workers=2) as pool:
            assert pool.run({"factor": 2}, [[1], [2]], chunk_fn=_echo_chunk, version=1) == [[2], [4]]
            pids = pool.worker_pids()
            for _ in range(3):
                pool.run({"factor": 2}, [[1], [2]], chunk_fn=_echo_chunk, version=1)
            assert pool.worker_pids() == pids  # warm: same version, no re-fork
            assert publishes() == before + 1
            assert pool.run({"factor": 5}, [[1], [2]], chunk_fn=_echo_chunk, version=2) == [[5], [10]]
            assert not set(pool.worker_pids()) & set(pids)
            assert publishes() == before + 2
            assert pool.restarts == 0


class TestSharedSummaries:
    """Workers read the neighbourhood summaries out of the shared segment."""

    def test_workers_read_masks_and_a_refork_serves_the_re_prepared_ones(self, graph):
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

        segments, before = shm_segments(), publishes()
        with DaemonPool(workers=2) as pool:
            first = pool.run(prepared, [probes, probes], chunk_fn=_probe_summaries_chunk, version=0)
            pids = pool.worker_pids()
            for rows in first:
                assert [row[:2] for row in rows] == expected()
                assert all(array_backed for _, _, array_backed in rows)

            delta = GraphDelta().add_node("fresh", label="never-seen").add_edge(hub, "fresh")
            delta.add_edge("fresh", other)
            prepared.apply_delta(delta)
            prepared.prepare(SIMULATION, ALPHA)
            probes += [(hub, "never-seen"), (other, "never-seen"), ("fresh", labels[0])]
            second = pool.run(prepared, [probes, probes], chunk_fn=_probe_summaries_chunk, version=1)
            assert pool.restarts == 0
            assert not set(pool.worker_pids()) & set(pids)  # forked from the re-prepared state
            for rows in second:
                assert [row[:2] for row in rows] == expected()
                assert all(array_backed for _, _, array_backed in rows)  # the new graph's arrays
            assert rows[-3][0] and rows[-2][1]  # the re-prepared masks see the new label
            assert shm_segments() == segments
        assert publishes() == before + 2

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


class TestForkContract:
    def test_pool_without_fork_raises_and_auto_stays_serial(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        with pytest.raises(DaemonError, match="fork"):
            DaemonPool(workers=2)
        executor, _, reason = Planner(ServiceConfig()).choose_executor(4096, 100_000, cores=16)
        assert executor == "serial" and "fork" in reason

    def test_one_fork_round_per_version_and_no_shm_segment(self, graph, queries):
        """The hand-off in counts: one ``daemon.publishes`` per state version, none per batch."""
        segments, before = shm_segments(), publishes()
        with daemon_service(graph) as service:
            for _ in range(3):
                service.run_batch(queries, ALPHA)
            assert publishes() == before + 1
            pids = service._daemon_pool.worker_pids()
            nodes = list(graph.nodes())
            service.update(GraphDelta().add_edge(nodes[3], nodes[5]))
            assert publishes() == before + 1  # an update alone forks nothing
            for _ in range(2):
                service.run_batch(queries, ALPHA)
            assert publishes() == before + 2
            assert not set(service._daemon_pool.worker_pids()) & set(pids)
            assert shm_segments() == segments
        assert shm_segments() == segments

    def test_close_leaves_no_daemon_behind(self, graph, queries):
        """After ``close()`` no worker survives: not after an update, not after a SIGKILL."""
        def daemons():
            return [child for child in multiprocessing.active_children() if child.name == "repro-daemon"]

        nodes = list(graph.nodes())
        with daemon_service(graph) as service:
            service.run_batch(queries, ALPHA)
            service.update(GraphDelta().add_edge(nodes[3], nodes[5]))
            service.run_batch(queries, ALPHA)
            os.kill(service._daemon_pool.worker_pids()[0], signal.SIGKILL)
            service.run_batch(queries, ALPHA)
            assert service._daemon_pool.restarts >= 1
            assert len(daemons()) == 2
        assert daemons() == []

    def test_fork_while_another_thread_holds_the_registry_lock(self):
        """A worker forked while a parent thread holds an obs lock still answers."""
        obs.counter("daemon.publishes")  # registered: the fork round needs no lock
        held, release = threading.Event(), threading.Event()

        def hold():
            with obs.REGISTRY._lock:
                held.set()
                release.wait(10)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        held.wait(10)
        results = []
        with DaemonPool(workers=1) as pool:
            runner = threading.Thread(
                target=lambda: results.append(pool.run({"factor": 3}, [[1]], chunk_fn=_echo_chunk)),
                daemon=True,
            )
            runner.start()
            deadline = time.monotonic() + 10
            while not pool.started and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)  # forked under the held lock; the worker resets its registry
            release.set()
            runner.join(20)
            if runner.is_alive():  # the worker deadlocked: unblock the runner, then fail
                for pid in pool.worker_pids():
                    os.kill(pid, signal.SIGKILL)
                runner.join(20)
                pytest.fail("a worker forked under a held registry lock never answered")
        holder.join(10)
        assert results == [[[3]]]


@pytest.mark.slow_shm
class TestSoak:
    def test_daemon_soak_200_batches_no_leaks(self, graph):
        """Nightly: 200 daemon batches with periodic updates, zero leaks.

        Each update re-forks the workers from the patched state, so a fork
        must not carry more than the state it serves: the ``ru_maxrss`` of
        the last version's workers must stay within 8 MB of the first's.
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
            # Crashes aside, every worker was a fork of its version: no
            # restart, and no segment.
            assert pool is not None and pool.restarts == 0
            last_rss = [worker.rss_bytes for worker in pool._workers]
            assert all(0 < first for first in first_rss)
            assert all(last - first <= 8 * 2**20 for first, last in zip(first_rss, last_rss))
        assert set(active_segments()) == before
