"""End-to-end distributed tracing (``repro.obs.context``/``flight``).

The contracts under test:

* **cross-process assembly** — a batch served through the daemon executor
  (and through ``ShardedEngine`` at k=2) yields exactly one assembled
  timeline containing worker-side spans from other pids, every
  ``parent_id`` resolving within the timeline, and derived queue-wait and
  pipe-transit segments;
* **fork hygiene** — daemon children never extend the
  parent's open span stack or write to its sink: worker records travel
  back by value and are re-emitted by the parent (single writer), parented
  under the dispatching span;
* **exemplar bridge** — a forced-slow batch's trace is retrievable from
  the flight recorder via the exemplar on the p99 latency bucket, and the
  ``shard.spillover`` counter's exemplar resolves to the batch that
  spilled;
* **export** — ``to_chrome_trace`` emits valid Chrome trace-event JSON
  (complete ``"X"`` events, µs timestamps, JSON-round-trippable).
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro import obs
from repro.engine.queries import ReachQuery
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_graph
from repro.obs import flight
from repro.obs.flight import FlightRecorder
from repro.service import GraphService
from repro.shard.engine import ShardedEngine

ALPHA = 0.1


@pytest.fixture(autouse=True)
def clean_tracing():
    """Every test starts with tracing off and an empty, enabled registry."""
    from repro.obs import context, trace

    was_enabled = obs.enabled()
    obs.set_enabled(True)
    obs.REGISTRY.reset()
    flight.disable()
    trace.set_sink(None)
    yield
    flight.disable()
    trace.set_sink(None)
    context.reset()
    obs.REGISTRY.reset()
    obs.set_enabled(was_enabled)


@pytest.fixture
def recorder():
    from repro.obs import trace

    recorder = FlightRecorder(capacity=16, slow_ms=None)
    trace.add_collector(recorder)
    yield recorder
    trace.remove_collector(recorder)


def clustered_graph(clusters=2, size=60, seed=1) -> DiGraph:
    """Two well-separated clusters with a few bridges (shard-friendly)."""
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
    for cluster in range(clusters):
        other = (cluster + 1) % clusters
        for _ in range(3):
            graph.add_edge(
                cluster * size + rng.randrange(size), other * size + rng.randrange(size)
            )
    return graph


def _assert_linked(timeline):
    """Every non-root record's parent_id resolves inside the timeline."""
    ids = {record["id"] for record in timeline.records}
    for record in timeline.records:
        if record.get("parent_id") is not None:
            assert record["parent_id"] in ids, (
                f"{record['span']} parent {record['parent_id']} not in timeline"
            )


# --------------------------------------------------------------------------- #
# Cross-process timeline assembly
# --------------------------------------------------------------------------- #
class TestDaemonTimeline:
    def test_daemon_batch_assembles_one_cross_process_timeline(self, recorder):
        graph = random_graph(num_nodes=200, num_edges=800, seed=5)
        nodes = list(graph.nodes())
        queries = [ReachQuery(nodes[i], nodes[-1 - i]) for i in range(24)]
        with GraphService(graph, executor="daemon", workers=2, cache_size=0) as service:
            service.run_batch(queries, ALPHA)

        timelines = recorder.recent()
        assert len(timelines) == 1, "one batch must assemble exactly one timeline"
        timeline = timelines[0]
        assert timeline.root["span"] == "service.query"
        names = set(timeline.span_names())
        # Worker-side spans made it back over the pipes...
        assert {"daemon.worker", "executor.chunk"} <= names
        # ...from a different process than the dispatching parent.
        worker_pids = {
            record["pid"]
            for record in timeline.records
            if record["span"] == "daemon.worker"
        }
        assert worker_pids and os.getpid() not in worker_pids
        # Derived segments exist only as cross-process timestamp differences.
        assert "worker.queue.wait" in names
        directions = {
            record["attrs"]["direction"]
            for record in timeline.records
            if record["span"] == "worker.pipe.transit"
        }
        assert directions == {"outbound", "inbound"}
        _assert_linked(timeline)
        # Worker spans hang under the dispatching engine.batch span.
        [dispatch] = [record for record in timeline.records if record["span"] == "engine.batch"]
        for record in timeline.records:
            if record["span"] == "daemon.worker":
                assert record["parent_id"] == dispatch["id"]
        assert all(record["wall_ms"] >= 0 for record in timeline.records)

    def test_sharded_engine_k2_assembles_one_timeline(self, recorder):
        graph = clustered_graph()
        pairs = [(i, 60 + i) for i in range(0, 24, 2)] + [(60 + i, i) for i in range(0, 12, 2)]
        queries = [ReachQuery(s, t) for s, t in pairs]
        with ShardedEngine(graph, num_shards=2, seed=7) as engine:
            engine.answer_batch(queries, ALPHA, executor="daemon", workers=2)

        timelines = recorder.recent()
        assert len(timelines) == 1
        timeline = timelines[0]
        assert timeline.root["span"] == "shard.batch"
        names = set(timeline.span_names())
        assert "daemon.worker" in names
        assert "worker.queue.wait" in names and "worker.pipe.transit" in names
        assert len(timeline.pids()) >= 2, "expected spans from parent and workers"
        _assert_linked(timeline)

    def test_critical_path_runs_root_to_leaf(self, recorder):
        graph = random_graph(num_nodes=150, num_edges=600, seed=9)
        nodes = list(graph.nodes())
        queries = [ReachQuery(nodes[i], nodes[-1 - i]) for i in range(12)]
        with GraphService(graph, executor="daemon", workers=2, cache_size=0) as service:
            service.run_batch(queries, ALPHA)
        timeline = recorder.recent()[0]
        path = timeline.critical_path()
        assert path[0] is timeline.root
        for parent, child in zip(path, path[1:]):
            assert child["parent_id"] == parent["id"]


# --------------------------------------------------------------------------- #
# Fork hygiene (the satellite bugfix)
# --------------------------------------------------------------------------- #
class TestForkHygiene:
    def test_children_never_extend_the_parents_open_span_stack(self, tmp_path):
        from repro.engine.daemons import DaemonPool
        from repro.obs import trace

        sink_path = tmp_path / "trace.jsonl"
        trace.set_sink(str(sink_path))
        try:
            with obs.span("outer") as outer_span:
                outer_ids = outer_span._ids
                with DaemonPool(workers=2) as pool:
                    pool.run(
                        {"factor": 3}, [[1], [2], [3]], chunk_fn=_echo_chunk
                    )
        finally:
            trace.set_sink(None)

        outer_trace, outer_id = outer_ids[0], outer_ids[1]
        records = [
            json.loads(line) for line in sink_path.read_text().splitlines()
        ]
        worker_records = [r for r in records if r["pid"] != os.getpid()]
        assert worker_records, "worker spans must be re-emitted into the sink"
        for record in worker_records:
            # Post-reset, a worker's first span parents under the *shipped*
            # context — never under a fork-inherited frame of the parent's
            # stack — and joins the dispatching trace.
            assert record["trace"] == outer_trace
            assert record["span"] == "daemon.worker"
            assert record["parent_id"] == outer_id
            assert record["depth"] == 0 and record["parent"] is None


def _echo_chunk(state, task):
    return [state["factor"] * item for item in task]


# --------------------------------------------------------------------------- #
# Exemplars: aggregate -> concrete trace
# --------------------------------------------------------------------------- #
class TestExemplarRetrieval:
    def test_forced_slow_batch_is_retrievable_via_p99_exemplar(self):
        from repro.service import GraphService, ReachRequest, ServiceConfig

        graph = random_graph(num_nodes=260, num_edges=1100, seed=17)
        nodes = list(graph.nodes())
        fast = [ReachRequest(nodes[0], nodes[1])]
        slow = [ReachRequest(nodes[i], nodes[-1 - i]) for i in range(120)]
        with GraphService(
            graph, ServiceConfig(executor="serial", cache_size=4096, alpha=ALPHA)
        ) as service:
            service.prepare(reach_alphas=[ALPHA])
            service.run_batch(fast)  # warm the tiny batch into the cache
            service.enable_tracing(slow_ms=None)
            try:
                for _ in range(6):
                    service.run_batch(fast)  # cache hits: microseconds
                slow_report = service.run_batch(slow)  # cold: the outlier
                assert slow_report.trace_id is not None

                trace_id, timeline = service.trace_for_percentile(
                    "service.batch.seconds", 0.99
                )
                assert trace_id == slow_report.trace_id
                assert timeline is not None
                assert timeline.root["span"] == "service.query"
                assert timeline is service.trace_timeline(slow_report.trace_id)
                # The p50, by contrast, is one of the fast cache-hit batches.
                p50_trace, _ = service.trace_for_percentile(
                    "service.batch.seconds", 0.50
                )
                assert p50_trace != slow_report.trace_id
            finally:
                service.disable_tracing()

    def test_slow_query_log_catches_batches_over_threshold(self):
        from repro.service import GraphService, ReachRequest, ServiceConfig

        graph = random_graph(num_nodes=200, num_edges=800, seed=19)
        nodes = list(graph.nodes())
        requests = [ReachRequest(nodes[i], nodes[-1 - i]) for i in range(40)]
        with GraphService(
            graph, ServiceConfig(executor="serial", cache_size=0, alpha=ALPHA)
        ) as service:
            service.prepare(reach_alphas=[ALPHA])
            service.enable_tracing(slow_ms=0.0)  # everything is "slow"
            try:
                report = service.run_batch(requests)
                slow = service.slow_traces()
                assert [tl.trace_id for tl in slow] == [report.trace_id]
            finally:
                service.disable_tracing()

    def test_shard_spillover_exemplar_resolves_to_the_spilling_batch(self, recorder):
        graph = clustered_graph()
        cross_pairs = [(i, 60 + i) for i in range(0, 20, 2)]
        queries = [ReachQuery(s, t) for s, t in cross_pairs]
        with ShardedEngine(graph, num_shards=2, seed=7) as engine:
            report = engine.run_batch(queries, ALPHA)
        spilled = report.cross_reach + report.miss_composed + report.pattern_spilled
        assert spilled > 0, "cross-cluster pairs must spill at k=2"
        exemplar = obs.REGISTRY.counter("shard.spillover").exemplar
        assert exemplar is not None
        timeline = recorder.timeline(exemplar)
        assert timeline is not None and timeline.root["span"] == "shard.batch"
        # The exemplar also survives the snapshot (the --metrics-json path).
        assert obs.snapshot()["exemplars"]["shard.spillover"] == exemplar


# --------------------------------------------------------------------------- #
# Rendering and Chrome export
# --------------------------------------------------------------------------- #
class TestExport:
    def _timeline(self, recorder):
        graph = random_graph(num_nodes=150, num_edges=600, seed=23)
        nodes = list(graph.nodes())
        queries = [ReachQuery(nodes[i], nodes[-1 - i]) for i in range(12)]
        with GraphService(graph, executor="daemon", workers=2, cache_size=0) as service:
            service.run_batch(queries, ALPHA)
        return recorder.recent()[0]

    def test_chrome_trace_export_is_valid(self, recorder, tmp_path):
        timeline = self._timeline(recorder)
        payload = flight.to_chrome_trace(timeline)
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert len(events) == len(timeline.records)
        for event in events:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["cat"] in ("span", "derived")
            assert event["args"]["trace"] == timeline.trace_id
        # Round-trips through JSON (what --export writes).
        path = tmp_path / "chrome.json"
        flight.write_chrome_trace(timeline, path)
        reloaded = json.loads(path.read_text(encoding="utf-8"))
        assert reloaded == json.loads(json.dumps(payload))

    def test_waterfall_marks_critical_path_and_lists_every_span(self, recorder):
        timeline = self._timeline(recorder)
        rendered = flight.format_waterfall(timeline)
        lines = rendered.splitlines()
        assert timeline.trace_id in lines[0]
        assert len(lines) == 1 + len(timeline.records)
        assert sum(1 for line in lines[1:] if line.startswith("*")) == len(
            timeline.critical_path()
        )


# --------------------------------------------------------------------------- #
# Recorder bounds
# --------------------------------------------------------------------------- #
class TestRecorderBounds:
    def test_recent_ring_is_bounded_and_evicts_oldest(self):
        from repro.obs import context, trace

        recorder = FlightRecorder(capacity=3, slow_ms=None)
        trace.add_collector(recorder)
        try:
            traces = []
            for _ in range(5):
                with obs.span("service.query"):
                    traces.append(context.trace_id())
        finally:
            trace.remove_collector(recorder)
        recent = [tl.trace_id for tl in recorder.recent()]
        assert recent == traces[-3:]
        assert recorder.timeline(traces[0]) is None  # evicted
