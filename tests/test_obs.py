"""The observability layer (``repro.obs``): exactness, mergeability, cost.

What is pinned down here:

* histogram percentiles track numpy's exact quantiles on well-populated
  seeded samples (to within one geometric bucket's width), and clamp to
  the observed min/max at the extremes;
* snapshot merging is associative and commutative (hypothesis, integer
  observations so float summation cannot blur the comparison) — the
  property that makes worker-delta folding order-independent;
* disabled mode (``REPRO_METRICS=0`` / ``set_enabled(False)``) hands out
  shared no-op singletons, registers nothing and allocates nothing on the
  hot path;
* instrumentation never changes answers: serial and daemon executors are
  bit-identical with metrics on and off;
* every name the live stack registers is in ``repro.obs.CATALOG``, and the
  tables in ``docs/OBSERVABILITY.md`` match the catalogue exactly — the
  docs cannot drift from the code;
* daemon workers drain their registries into the parent exactly once
  (chunk counts merge without double counting, even under ``fork``), and
  a crash-injected restart shows up in the global ``daemon.restarts``;
* the trace sink accepts a path, a file object or the ``REPRO_TRACE``
  environment variable, spans nest re-entrantly per thread, and every
  span name used anywhere in ``src/repro`` is registered in
  ``repro.obs.SPANS`` (grep-based lint).
"""

from __future__ import annotations

import io
import json
import os
import re
import signal
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.engine.daemons import DaemonPool
from repro.engine.queries import ReachQuery
from repro.graph.generators import random_graph
from repro.obs.metrics import SCHEMES, Histogram, MetricsRegistry, merge_snapshots
from repro.service import GraphService

ROOT = Path(__file__).resolve().parent.parent
ALPHA = 0.1


@pytest.fixture(autouse=True)
def clean_registry():
    """Each test sees an enabled, empty global registry and restores state."""
    was_enabled = obs.enabled()
    obs.set_enabled(True)
    obs.REGISTRY.reset()
    yield
    obs.REGISTRY.reset()
    obs.set_enabled(was_enabled)


def _echo_chunk(state, task):
    return [state["factor"] * item for item in task]


def _signatures(answers):
    return [(a.reachable, a.visited, a.met_at, a.exhausted) for a in answers]


# --------------------------------------------------------------------------- #
# Histogram percentiles vs numpy
# --------------------------------------------------------------------------- #
class TestHistogramPercentiles:
    # Geometric buckets at ratio r are exact to within one bucket, and the
    # interpolated rank can straddle an adjacent bucket: a factor of r^2
    # (1.25^2 ≈ 1.6 on the latency scheme) bounds the estimate both ways.
    TOLERANCE = 1.25**2

    @pytest.mark.parametrize(
        "samples",
        [
            np.random.default_rng(7).lognormal(mean=-6.0, sigma=1.2, size=20_000),  # ~ms latencies
            np.array([0.001, 0.010]),
            np.array([0.001] * 9 + [0.100]),
        ],
        ids=["lognormal", "two-points", "one-tail-outlier"],
    )
    def test_tracks_numpy_quantiles_on_seeded_lognormal(self, samples):
        histogram = Histogram("t")
        for value in samples:
            histogram.observe(float(value))
        estimates = []
        for q in (0.10, 0.50, 0.90, 0.95, 0.99, 0.999):
            exact = float(np.quantile(samples, q))
            estimate = histogram.percentile(q)
            assert exact / self.TOLERANCE <= estimate <= exact * self.TOLERANCE, (
                f"q={q}: histogram {estimate:.6f} vs numpy {exact:.6f}"
            )
            estimates.append(estimate)
        # A tail report reads p50 <= p99 <= p999 <= max.
        assert estimates == sorted(estimates) and estimates[-1] <= histogram.max

    def test_extremes_clamp_to_observed_min_max(self):
        rng = np.random.default_rng(11)
        samples = rng.lognormal(mean=-4.0, sigma=1.0, size=500)
        histogram = Histogram("t")
        for value in samples:
            histogram.observe(float(value))
        assert histogram.percentile(0.0) == pytest.approx(float(samples.min()))
        assert histogram.percentile(1.0) == pytest.approx(float(samples.max()))

    def test_overflow_and_count_scheme(self):
        histogram = Histogram("t", scheme="count")
        for value in (0.5, 3.0, 2_000_000.0):  # below first bound / mid / overflow
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.counts[-1] == 1  # the overflow bucket
        assert histogram.percentile(1.0) == pytest.approx(2_000_000.0)

    def test_rejects_unknown_scheme_and_bad_quantile(self):
        with pytest.raises(ValueError):
            Histogram("t", scheme="nope")
        with pytest.raises(ValueError):
            Histogram("t").percentile(1.5)


# --------------------------------------------------------------------------- #
# Snapshot merge algebra (hypothesis)
# --------------------------------------------------------------------------- #
def _build_snapshot(events):
    """A registry snapshot from ``(slot, value)`` integer events."""
    registry = MetricsRegistry()
    for slot, value in events:
        registry.counter(f"c.{slot}").inc(value)
        registry.gauge(f"g.{slot}").set_max(float(value))
        registry.histogram(f"h.{slot}", scheme="count").observe(float(value))
    return registry.snapshot()


_events = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 1_000_000)),
    max_size=15,
)


class TestSnapshotMerge:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(left=_events, right=_events)
    def test_commutative(self, left, right):
        a, b = _build_snapshot(left), _build_snapshot(right)
        assert merge_snapshots(a, b) == merge_snapshots(b, a)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(first=_events, second=_events, third=_events)
    def test_associative(self, first, second, third):
        a, b, c = map(_build_snapshot, (first, second, third))
        assert merge_snapshots(merge_snapshots(a, b), c) == merge_snapshots(
            a, merge_snapshots(b, c)
        )

    def test_merge_semantics(self):
        a = _build_snapshot([("a", 3), ("a", 4)])
        b = _build_snapshot([("a", 10)])
        merged = merge_snapshots(a, b)
        assert merged["counters"]["c.a"] == 17  # counters add
        assert merged["gauges"]["g.a"] == 10.0  # gauges keep the peak
        assert merged["histograms"]["h.a"]["count"] == 3  # histograms union
        assert merged["histograms"]["h.a"]["min"] == 3.0
        assert merged["histograms"]["h.a"]["max"] == 10.0


# --------------------------------------------------------------------------- #
# Disabled mode
# --------------------------------------------------------------------------- #
class TestDisabledMode:
    def test_accessors_share_noop_singletons_and_register_nothing(self):
        obs.set_enabled(False)
        assert obs.counter("one") is obs.counter("two")
        assert obs.gauge("one") is obs.gauge("two")
        assert obs.histogram("one") is obs.histogram("two")
        obs.counter("one").inc(5)
        obs.histogram("one").observe(1.0)
        assert obs.REGISTRY.names() == []
        assert obs.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_hot_path_allocates_nothing_when_disabled(self):
        import tracemalloc

        obs.set_enabled(False)
        counter = obs.counter("noop")
        histogram = obs.histogram("noop")

        def hot_loop():
            for _ in range(1_000):
                counter.inc()
                histogram.observe(0.001)
                with obs.span("noop", attr=1):
                    pass

        hot_loop()  # warm any lazy interpreter state before measuring
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            hot_loop()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 512, f"disabled-mode hot path allocated {grown} bytes"


# --------------------------------------------------------------------------- #
# Instrumentation parity
# --------------------------------------------------------------------------- #
class TestInstrumentationParity:
    def test_answers_identical_with_metrics_on_and_off(self):
        graph = random_graph(num_nodes=220, num_edges=900, seed=13)
        nodes = list(graph.nodes())
        queries = [ReachQuery(nodes[i], nodes[-1 - i]) for i in range(18)]
        serial = GraphService(graph, executor="serial", cache_size=0)
        with GraphService(graph, executor="daemon", workers=2, cache_size=0) as daemon:
            obs.set_enabled(True)
            on_serial = _signatures(serial.run_batch(queries, ALPHA).answers)
            on_daemon = _signatures(daemon.run_batch(queries, ALPHA).answers)
            obs.set_enabled(False)
            off_serial = _signatures(serial.run_batch(queries, ALPHA).answers)
            off_daemon = _signatures(daemon.run_batch(queries, ALPHA).answers)
        assert on_serial == off_serial == on_daemon == off_daemon


# --------------------------------------------------------------------------- #
# Catalogue <-> registry <-> docs
# --------------------------------------------------------------------------- #
_DOC_ROW = re.compile(r"^\|\s*`([a-z0-9._]+)`\s*\|\s*(counter|gauge|histogram|span)\b", re.M)


class TestCatalog:
    def test_live_registry_names_are_all_catalogued(self):
        """Exercise the stack end-to-end; every registered name must be known."""
        from repro.service import GraphService, ReachRequest, ServiceConfig
        from repro.updates.delta import GraphDelta

        graph = random_graph(num_nodes=200, num_edges=800, seed=3)
        nodes = list(graph.nodes())
        requests = [ReachRequest(nodes[i], nodes[-1 - i]) for i in range(12)]
        with GraphService(graph, ServiceConfig(executor="serial", alpha=ALPHA)) as service:
            service.run_batch(requests)
            service.run_batch(requests)  # cache-hit path
            delta = GraphDelta()
            delta.add_edge(nodes[0], nodes[1])
            service.update(delta)
        registered = set(obs.REGISTRY.names())
        unknown = registered - set(obs.CATALOG)
        assert not unknown, f"metrics registered but missing from CATALOG: {sorted(unknown)}"
        assert registered, "the exercised stack registered no metrics at all"

    def test_docs_table_matches_catalog_exactly(self):
        text = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
        rows = _DOC_ROW.findall(text)
        documented = {name: kind for name, kind in rows if kind != "span"}
        documented_spans = {name for name, kind in rows if kind == "span"}
        expected = {name: kind for name, (kind, _, _) in obs.CATALOG.items()}
        assert documented == expected, (
            "docs/OBSERVABILITY.md metric table drifted from repro.obs.CATALOG"
        )
        assert documented_spans == set(obs.SPANS), (
            "docs/OBSERVABILITY.md span table drifted from repro.obs.SPANS"
        )

    def test_catalog_histogram_schemes_are_valid(self):
        for name, (kind, unit, module) in obs.CATALOG.items():
            assert kind in ("counter", "gauge", "histogram"), name
            assert unit and module.startswith("repro."), name
        assert set(SCHEMES) == {"latency", "count"}


# --------------------------------------------------------------------------- #
# Trace sinks and span nesting
# --------------------------------------------------------------------------- #
@pytest.fixture
def clean_trace():
    """Each test starts and ends with tracing fully off."""
    from repro.obs import context, trace

    trace.set_sink(None)
    yield trace
    trace.set_sink(None)
    context.reset()


class TestTraceSinks:
    def test_set_sink_with_path_writes_json_lines(self, clean_trace, tmp_path):
        trace = clean_trace
        path = tmp_path / "trace.jsonl"
        trace.set_sink(str(path))
        assert trace.tracing()
        with obs.span("outer", stage=1):
            with obs.span("inner"):
                pass
        trace.set_sink(None)  # closes the owned file
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["span"] for record in records] == ["inner", "outer"]
        inner, outer = records
        assert inner["trace"] == outer["trace"]
        assert inner["parent_id"] == outer["id"]
        assert outer["parent_id"] is None
        assert inner["depth"] == 1 and outer["depth"] == 0
        assert outer["attrs"] == {"stage": 1}
        assert all(record["wall_ms"] >= 0 for record in records)

    def test_set_sink_with_file_object_is_not_closed(self, clean_trace):
        trace = clean_trace
        sink = io.StringIO()
        trace.set_sink(sink)
        with obs.span("one"):
            pass
        trace.set_sink(None)
        # An unowned sink must survive uninstalling (the caller owns it).
        assert not sink.closed
        assert json.loads(sink.getvalue())["span"] == "one"

    def test_repro_trace_env_installs_sink_at_import(self, clean_trace, tmp_path, monkeypatch):
        trace = clean_trace
        path = tmp_path / "env-trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        trace._init_from_env()
        try:
            with obs.span("from-env"):
                pass
        finally:
            trace.set_sink(None)
        assert json.loads(path.read_text().splitlines()[0])["span"] == "from-env"

    def test_span_returns_shared_noop_when_tracing_off(self, clean_trace):
        assert not clean_trace.tracing()
        assert obs.span("a") is obs.span("b")

    def test_reentrant_nesting_is_per_thread(self, clean_trace):
        """Two threads nest independently: no cross-thread parent linkage."""
        trace = clean_trace
        records = []
        trace.add_collector(records.append)
        barrier = threading.Barrier(2)

        def worker(tag):
            barrier.wait()
            with obs.span(f"{tag}.outer"):
                with obs.span(f"{tag}.mid"):
                    with obs.span(f"{tag}.leaf"):
                        pass

        threads = [threading.Thread(target=worker, args=(tag,)) for tag in ("t1", "t2")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        trace.remove_collector(records.append)

        by_tag = {}
        for record in records:
            by_tag.setdefault(record["span"].split(".")[0], []).append(record)
        assert set(by_tag) == {"t1", "t2"}
        for tag, group in by_tag.items():
            by_name = {record["span"]: record for record in group}
            outer, mid, leaf = (
                by_name[f"{tag}.outer"], by_name[f"{tag}.mid"], by_name[f"{tag}.leaf"]
            )
            # One trace per thread, linked leaf -> mid -> outer -> root.
            assert leaf["trace"] == mid["trace"] == outer["trace"]
            assert leaf["parent_id"] == mid["id"]
            assert mid["parent_id"] == outer["id"]
            assert outer["parent_id"] is None
            assert (outer["depth"], mid["depth"], leaf["depth"]) == (0, 1, 2)
        # The two threads must not share a trace.
        assert by_tag["t1"][0]["trace"] != by_tag["t2"][0]["trace"]


# --------------------------------------------------------------------------- #
# Prepare stages: histograms always, spans only as children of a trace
# --------------------------------------------------------------------------- #
class TestPrepareStages:
    def test_stage_histograms_and_child_only_spans(self, clean_trace):
        from repro.engine.prepared import PreparedGraph

        records = []
        clean_trace.add_collector(records.append)
        try:
            graph = random_graph(num_nodes=120, num_edges=400, seed=4)
            prepared = PreparedGraph(graph)  # freezes: DiGraph -> CSR
            prepared.prepare("reach", ALPHA)  # set-up: no trace open
            assert records == [], "a prepare stage must never root a trace of its own"
            for name in ("prepare.freeze.seconds", "prepare.compress.seconds", "prepare.index.seconds"):
                assert obs.histogram(name).count == 1, name
            prepared.invalidate()
            with obs.span("service.update"):  # a rebuild under an update joins its trace
                prepared.prepare("reach", ALPHA)
        finally:
            clean_trace.remove_collector(records.append)
        by_name = {record["span"]: record for record in records}
        assert set(by_name) == {"service.update", "prepare.compress", "prepare.index"}
        for stage in ("prepare.compress", "prepare.index"):
            assert by_name[stage]["parent_id"] == by_name["service.update"]["id"]
        assert by_name["prepare.index"]["attrs"] == {"alpha": ALPHA}
        assert obs.histogram("prepare.compress.seconds").count == 2
        assert obs.histogram("prepare.freeze.seconds").count == 1  # nothing re-froze

    def test_a_traced_rebuild_after_a_node_removal_shows_all_three_stages(self, clean_trace):
        from repro.engine.prepared import PreparedGraph
        from repro.updates.delta import GraphDelta

        records = []
        clean_trace.add_collector(records.append)
        try:
            prepared = PreparedGraph(random_graph(num_nodes=120, num_edges=400, seed=4))
            prepared.prepare("reach", ALPHA)
            assert prepared.apply_delta(GraphDelta().remove_node(0)).mode == "rebuilt"
            assert prepared.backend == "MutableOverlay"
            with obs.span("service.update"):  # the rebuild freezes the overlay first
                prepared.prepare("reach", ALPHA)
        finally:
            clean_trace.remove_collector(records.append)
        stages = [record for record in records if record["span"] != "service.update"]
        assert [record["span"] for record in stages] == [
            "prepare.freeze",
            "prepare.compress",
            "prepare.index",
        ]
        assert len({record["parent_id"] for record in stages}) == 1
        assert obs.histogram("prepare.freeze.seconds").count == 2


# --------------------------------------------------------------------------- #
# ``reduction.search``: budget spent versus budget allowed, only when traced
# --------------------------------------------------------------------------- #
class TestReductionSpanAttrs:
    @pytest.mark.parametrize("matcher_name", ["RBSim", "RBSub"])
    def test_span_carries_the_spend_of_the_result_in_hand(self, clean_trace, matcher_name):
        import repro
        from repro.patterns.generator import embedded_pattern

        graph = random_graph(num_nodes=120, num_edges=400, seed=4)
        pattern, vp = embedded_pattern(graph, 3, 3, seed=5)
        matcher = getattr(repro, matcher_name)(graph, 0.2)
        untraced = matcher.answer(pattern, vp)  # the no-op span has nothing to update
        assert obs.span("reduction.search").attrs is None

        records = []
        clean_trace.add_collector(records.append)
        try:
            answer = matcher.answer(pattern, vp)
        finally:
            clean_trace.remove_collector(records.append)
        assert answer.answer == untraced.answer
        by_name = {record["span"]: record for record in records}
        assert by_name["reduction.search"]["attrs"] == {
            "passes": answer.reduction.passes,
            "stop": answer.reduction.stop,
            "stored": answer.budget.stored,
            "size_limit": answer.budget.size_limit,
            "visited": answer.budget.visited,
            "visit_limit": answer.budget.visit_limit,
        }
        assert "attrs" not in by_name["match.exact"]


# --------------------------------------------------------------------------- #
# Span-name lint: every span used in src/repro is registered in SPANS
# --------------------------------------------------------------------------- #
_SPAN_CALL = re.compile(
    r"(?:obs\.span|trace\.span|obs\.trace\.span)\(\s*['\"]([a-z0-9._]+)['\"]"
)
_SEGMENT_CALL = re.compile(r"emit_segment\(\s*\n?\s*['\"]([a-z0-9._]+)['\"]")


class TestSpanLint:
    def test_every_span_name_in_source_is_registered(self):
        used = set()
        for path in (ROOT / "src" / "repro").rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            used.update(_SPAN_CALL.findall(text))
            used.update(_SEGMENT_CALL.findall(text))
        assert used, "the span lint found no obs.span(...) call sites at all"
        unregistered = used - set(obs.SPANS)
        assert not unregistered, (
            f"span names used in src/repro but missing from obs.SPANS: "
            f"{sorted(unregistered)}"
        )


# --------------------------------------------------------------------------- #
# Histogram exemplars
# --------------------------------------------------------------------------- #
class TestExemplars:
    def test_counter_and_histogram_exemplars_survive_snapshot_merge(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2, exemplar="t.1")
        h = registry.histogram("h")
        for _ in range(8):
            h.observe(0.001, exemplar="t.fast")
        h.observe(5.0, exemplar="t.slow")
        snap = registry.snapshot()
        assert snap["exemplars"] == {"c": "t.1"}
        assert "t.slow" in snap["histograms"]["h"]["exemplars"].values()

        other = MetricsRegistry()
        other.merge(snap)
        assert other.counter("c").exemplar == "t.1"
        assert other.histogram("h").exemplar_for(0.99) == "t.slow"
        assert other.histogram("h").exemplar_for(0.50) == "t.fast"

        merged = merge_snapshots(snap, other.snapshot())
        assert merged["exemplars"] == {"c": "t.1"}

    def test_exemplar_free_snapshots_keep_legacy_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(1)
        registry.histogram("h").observe(0.5)
        snap = registry.snapshot()
        assert "exemplars" not in snap
        assert "exemplars" not in snap["histograms"]["h"]

    def test_exemplar_for_falls_back_to_nearest_bucket_above(self):
        h = MetricsRegistry().histogram("h")
        for _ in range(20):
            h.observe(0.001)  # no exemplar on the p50/p99 bucket
        h.observe(9.0, exemplar="t.slow")
        assert h.exemplar_for(0.50) == "t.slow"  # nearest above wins
        assert h.exemplar_for(1.0) == "t.slow"
        assert MetricsRegistry().histogram("empty").exemplar_for(0.99) is None


# --------------------------------------------------------------------------- #
# Daemon worker snapshots
# --------------------------------------------------------------------------- #
class TestDaemonWorkerMetrics:
    def test_worker_deltas_merge_exactly_once(self):
        with DaemonPool(workers=2) as pool:
            pool.run({"factor": 2}, [[1], [2], [3]], chunk_fn=_echo_chunk, version=1)
            pool.ping()  # pongs also carry drained deltas
            # A new version re-forks the workers from a parent registry that
            # already holds the first three chunks; each fork must start empty.
            pool.run({"factor": 3}, [[4], [5]], chunk_fn=_echo_chunk, version=2)
            pool.ping()
        snap = obs.snapshot()
        # Five chunks ran in the workers; the drained deltas must add up to
        # exactly five in the parent — no double counting across the reset
        # boundary (fork-inherited registries are cleared at worker start).
        assert snap["counters"].get("daemon.worker.chunks") == 5
        assert snap["histograms"]["daemon.worker.chunk.seconds"]["count"] == 5
        assert snap["counters"].get("daemon.publishes") == 2  # one fork round per version
        assert snap["histograms"]["daemon.worker.rss.bytes"]["count"] == 4  # first reply of each

    def test_crash_injection_increments_global_restart_counter(self):
        with DaemonPool(workers=2) as pool:
            pool.run({"factor": 2}, [[1], [2]], chunk_fn=_echo_chunk)
            assert obs.snapshot()["counters"].get("daemon.restarts") is None
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            assert pool.run({"factor": 2}, [[5]], chunk_fn=_echo_chunk) == [[10]]
            assert pool.restarts >= 1
        assert obs.snapshot()["counters"].get("daemon.restarts", 0) >= 1
