"""The repo's end-to-end benchmark: ``GraphService`` through its front door.

One invocation runs one workload (``--workload``) — or, with no workload
named, every workload in a fresh subprocess each, untraced then traced::

    python3 benchmarks/e2e/run.py --seed 7                      # all six, both passes
    python3 benchmarks/e2e/run.py --workload reach_serial --seed 7 --seconds 10 --trace 0

A run generates its inputs from ``--seed`` (:mod:`workloads`), sets the
service up ``setup_repeats`` times (``setup_s`` is the median), drives whole
**rounds** of the workload until ``--seconds`` have passed, checks the
answers, prints every metric by name with its unit, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json`` (and prints the timing
outcomes it measured, which carry no bound); ``--trace 1`` turns the serving
stack's spans on for every other round and reports the per-layer metrics
(:mod:`layers`).  Every number is as measured.  See ``README.md`` beside
this file.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    # The benchmark measures this checkout's source, never an installed copy.
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: run from a checkout of the repository")
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro import obs  # noqa: E402
from repro.core.accuracy import pattern_accuracy  # noqa: E402
from repro.engine import default_workers  # noqa: E402
from repro.engine.queries import REACH, SIMULATION  # noqa: E402
from repro.graph.traversal import is_reachable  # noqa: E402
from repro.matching import match_opt, vf2_opt  # noqa: E402
from repro.service import GraphService, ServiceConfig, replay  # noqa: E402
from repro.subscribe import answer_signature  # noqa: E402

import layers  # noqa: E402
from layers import mean, percentile, ratio  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, Inputs, Scale, Workload, build_inputs  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
QUIET_SECONDS = 0.0060
"""What :func:`machine_speed`'s loop takes on this box in its fast state."""
TRACED_SHARE = 0.6
"""Share of ``--seconds`` the traced pass spends driving rounds (the rest
of its budget goes to the direct layer probes)."""


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #
def machine_speed() -> float:
    """How fast the machine is right now: 1.0 when quiet, ~0.6 when disturbed.

    Used for one thing: ``setup_s``, the one timing the benchmark contract
    bounds.  The sandbox's host has a fast and a slow state 1.5-1.8x apart,
    and how much of each it shows drifts over minutes: two ten-run medians of
    the *same* commit's set-up, twenty minutes apart, differed by 24-42% as
    measured (bound: 25%) and by 4-15% scaled.  No statistic of raw set-up
    times survives that drift, so each set-up's wall time is multiplied by
    the speed read right before and after it: ``setup_s`` is what set-up
    takes at quiet-host speed.  Every other number the benchmark
    reports is as measured, and the as-measured set-up time is printed and
    stored beside the scaled one.

    The yardstick is a fixed loop of dict writes that touches none of the
    repo's code (a faster ``prepare`` must not speed its own yardstick up).
    ``QUIET_SECONDS`` is what it takes on this box in the fast state; it only
    anchors the unit, and a parent-versus-change ratio does not depend on it.
    """
    started = time.perf_counter()
    table: Dict[int, int] = {}
    for index in range(100_000):
        table[index & 4095] = index
    return QUIET_SECONDS / (time.perf_counter() - started)


def open_service(
    workload: Workload, inputs: Inputs
) -> Tuple[GraphService, Dict[str, float], Dict[int, list]]:
    """Construct, prepare, subscribe and warm one service; time each part."""
    parts: Dict[str, float] = {}
    logs: Dict[int, list] = {}
    started = time.perf_counter()
    config = ServiceConfig(alpha=workload.alpha, **workload.config)
    service = GraphService(inputs.graph, config)
    try:
        if config.num_shards > 1:
            lap = time.perf_counter()
            parts["shard.cut_fraction"] = service.shard_profile()["cut_fraction"]
            parts["shard.prepare_s"] = time.perf_counter() - lap
        alphas = [workload.alpha]
        service.prepare(reach_alphas=alphas, pattern_alphas=alphas, subgraph_alphas=alphas)
        if inputs.subscriptions:
            lap = time.perf_counter()
            for request in inputs.subscriptions:
                log: list = []
                logs[service.subscribe(request, sink=log.append).id] = log
            parts["subscribe.register_ms"] = (
                (time.perf_counter() - lap) * 1e3 / len(inputs.subscriptions)
            )
        # Warm-up: one untimed front-door call of each kind the run makes.
        lap = time.perf_counter()
        if workload.driver == "open":
            service.run_batch(inputs.warmup)
            asyncio.run(service.submit(inputs.warmup[0]))
        else:
            service.run_batch(inputs.batches[0])
        if config.executor == "daemon":
            # Pool start + eager summaries + publish + attach ride the first batch.
            parts["daemon.start_s"] = time.perf_counter() - lap
    except BaseException:
        service.close()
        raise
    parts["setup_s"] = time.perf_counter() - started
    return service, parts, logs


# --------------------------------------------------------------------------- #
# Load drivers: one ``round()`` is a fixed unit of work
# --------------------------------------------------------------------------- #
@dataclass
class Round:
    """One fixed unit of work: how much, how long, and the wall (seconds) of
    each front-door call in it that defines ``call_*``."""

    queries: int
    wall: float
    traced: bool
    calls: List[float] = field(default_factory=list)


@dataclass
class Driver:
    """Shared bookkeeping of the three load shapes."""

    service: GraphService
    inputs: Inputs
    #: (wall seconds, traced) of every front-door call: the trace-coverage denominator.
    door: List[Tuple[float, bool]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: (request, answer) pairs and batch reports of the most recent round.
    answered: List[Tuple[Any, Any]] = field(default_factory=list)
    batch_reports: List[Any] = field(default_factory=list)
    traced: bool = False
    exhausted: bool = False
    #: churn only: every ``update`` report and the wall of every read batch.
    update_reports: List[Any] = field(default_factory=list)
    read_walls: List[float] = field(default_factory=list)
    #: open loop only: how late the generator itself sent each arrival (seconds).
    lateness: List[float] = field(default_factory=list)

    def front_door(self, call: Callable[[], Any], operations: int) -> Tuple[Any, float]:
        """Run one front-door call; a raise counts every operation in it as failed."""
        self.attempted += operations
        started = time.perf_counter()
        try:
            result = call()
        except Exception:  # the run must finish and report the failure count
            if not self.failed:
                traceback.print_exc()
            self.failed += operations
            result = None
        elapsed = time.perf_counter() - started
        self.door.append((elapsed, self.traced))
        return result, elapsed


class ClosedLoop(Driver):
    """One caller; a round is one ``run_batch`` per entry of ``inputs.batches``."""

    def round(self, traced: bool) -> Round:
        self.traced, self.answered, self.batch_reports = traced, [], []
        calls: List[float] = []
        for batch in self.inputs.batches:
            report, elapsed = self.front_door(lambda: self.service.run_batch(batch), len(batch))
            calls.append(elapsed)
            if report is not None:
                self.answered.extend(zip(batch, report.answers))
                self.batch_reports.append(report)
        return Round(sum(map(len, self.inputs.batches)), sum(calls), traced, calls)


@dataclass
class Churn(Driver):
    """A round is ``round_deltas`` × (``update(delta)`` then one read batch)."""

    next_round: int = 0

    def round(self, traced: bool) -> Round:
        self.traced = traced
        deltas = self.inputs.rounds[self.next_round]
        self.next_round += 1
        self.exhausted = self.next_round >= len(self.inputs.rounds)
        requests, wall, calls = self.inputs.batches[0], 0.0, []
        for delta in deltas:
            report, elapsed = self.front_door(lambda: self.service.update(delta), 1)
            calls.append(elapsed)
            if report is not None:
                self.update_reports.append(report)
            read, elapsed = self.front_door(
                lambda: self.service.run_batch(requests), len(requests)
            )
            wall += elapsed
            if read is not None:
                self.read_walls.append(elapsed)
                self.answered = list(zip(requests, read.answers))
        return Round(len(requests) * len(deltas), wall, traced, calls)


@dataclass
class OpenLoop(Driver):
    """A round is phase A then phase B.

    Phase A, open loop: one window of the Poisson schedule, each arrival an
    ``await submit`` at its scheduled instant whatever the earlier ones are
    doing; its latencies are the round's ``calls``.  Phase B, closed loop: two
    concurrent ``submit`` callers get through one block of requests — what
    the single worker thread sustains; its rate is the round's throughput.
    """

    next_round: int = 0

    def round(self, traced: bool) -> Round:
        self.traced = traced
        window = self.inputs.windows[self.next_round]
        block = self.inputs.blocks[self.next_round]
        self.next_round += 1
        self.exhausted = self.next_round >= len(self.inputs.windows)
        latencies = self.open_window(window)
        return Round(len(block), self.closed_block(block, callers=2), traced, latencies)

    def open_window(self, window: Sequence[Tuple[float, Any]]) -> List[float]:
        """Latency (seconds) of every answered arrival of one schedule window."""
        latencies: List[float] = []

        async def one(offset: float, request: Any, origin: float) -> None:
            loop = asyncio.get_running_loop()
            due = origin + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lateness.append(max(0.0, loop.time() - due))
            if await self.submit(request):
                # Completion minus *scheduled* arrival: backlog counts against us.
                latencies.append(loop.time() - due)

        async def drive() -> None:
            origin = asyncio.get_running_loop().time()
            await asyncio.gather(*(one(offset, request, origin) for offset, request in window))

        started = time.perf_counter()
        asyncio.run(drive())
        self.door.append((time.perf_counter() - started, self.traced))
        return latencies

    def closed_block(self, requests: Sequence[Any], callers: int) -> float:
        """Wall seconds for ``callers`` concurrent closed-loop ``submit`` callers
        to get through ``requests``."""

        async def caller(share: Sequence[Any]) -> None:
            for request in share:
                await self.submit(request)

        async def drive() -> None:
            await asyncio.gather(*(caller(requests[k::callers]) for k in range(callers)))

        started = time.perf_counter()
        asyncio.run(drive())
        elapsed = time.perf_counter() - started
        self.door.append((elapsed, self.traced))
        return elapsed

    async def submit(self, request: Any) -> bool:
        """One counted ``await service.submit``; ``False`` when it raised."""
        self.attempted += 1
        try:
            answer = await self.service.submit(request)
        except Exception:  # counted; the schedule keeps going
            if not self.failed:
                traceback.print_exc()
            self.failed += 1
            return False
        self.answered.append((request, answer.value))
        return True

    def submit_overhead_ms(self, tracer: "Tracer", requests: Sequence[Any]) -> float:
        """Per ``await submit``: one sequential caller's wall minus the time
        inside the facade's own ``service.query`` spans (loop hop, admission,
        thread hand-off and envelope building are what is left)."""
        mark = len(tracer.records)
        tracer.set(True)
        wall_ms = self.closed_block(requests, callers=1) * 1e3
        tracer.set(False)
        inside = sum(r["wall_ms"] for r in tracer.records[mark:] if r["span"] == "service.query")
        return (wall_ms - inside) / len(requests)


DRIVERS = {"closed": ClosedLoop, "churn": Churn, "open": OpenLoop}


class Tracer:
    """Switches the serving stack's spans on and off between rounds."""

    def __init__(self, service: GraphService):
        self.service = service
        self.records: List[Dict[str, Any]] = []
        self.on = False

    def set(self, on: bool) -> None:
        if on == self.on:
            return
        self.on = on
        if on:
            self.service.enable_tracing()
            obs.trace.add_collector(self.records.append)
        else:
            obs.trace.remove_collector(self.records.append)
            self.service.disable_tracing()


def drive(driver: Driver, seconds: float, tracer: Optional[Tracer]) -> List[Round]:
    """Whole rounds until ``seconds`` have passed (traced pass: in untraced/traced pairs)."""
    deadline = time.perf_counter() + seconds
    rounds: List[Round] = []
    try:
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if tracer is not None:
                tracer.set(traced)
            rounds.append(driver.round(traced))
            paired = tracer is None or len(rounds) % 2 == 0
            if driver.exhausted or (paired and time.perf_counter() >= deadline):
                return rounds
    finally:
        if tracer is not None:
            tracer.set(False)


# --------------------------------------------------------------------------- #
# Correctness
# --------------------------------------------------------------------------- #
def exact_answer(graph, request) -> Any:
    """The exact oracle: BFS, MatchOpt or VF2OPT on the full graph."""
    if request.kind == REACH:
        return is_reachable(graph, request.source, request.target)
    oracle = match_opt if request.kind == SIMULATION else vf2_opt
    return oracle(request.pattern, graph, request.personalized_match).answer


def score_accuracy(graph, requests, answers) -> Tuple[float, int]:
    """Mean per-query F-measure against the oracle, and RBReach false positives."""
    scores: List[float] = []
    false_positives = 0
    for request, answer in zip(requests, answers):
        exact = exact_answer(graph, request)
        if request.kind == REACH:
            scores.append(1.0 if answer.reachable == exact else 0.0)
            false_positives += int(answer.reachable and not exact)
        else:
            scores.append(pattern_accuracy(exact, answer.answer).f_measure)
    return mean(scores), false_positives


def canonical(kind: str, answer: Any) -> str:
    """``answer_signature`` with the match set sorted: a set's ``repr`` follows its
    insertion history, which a pickle round-trip through a daemon rewrites."""
    signature = answer_signature(kind, answer)
    if kind != REACH and answer is not None:
        signature = (kind, sorted(map(repr, signature[1])), signature[2])
    return repr(signature)


def answers_digest(answered: Sequence[Tuple[Any, Any]]) -> str:
    """sha1 over sorted ``(fingerprint, answer)`` lines: request order does not matter."""
    lines = sorted(
        f"{request.fingerprint()} {canonical(request.kind, answer)}"
        for request, answer in answered
    )
    return hashlib.sha1("\n".join(lines).encode("utf-8")).hexdigest()


def check(
    workload: Workload,
    inputs: Inputs,
    service: GraphService,
    driver: Driver,
    logs: Dict[int, list],
    sample_answers: Sequence[Any],
) -> Tuple[Dict[str, Any], List[str]]:
    """Run every correctness check; returns details and the list of failures.

    ``sample_answers`` are the answers to ``inputs.accuracy`` of a service
    with this workload's set-up, on the graph as generated.
    """
    problems: List[str] = []
    detail: Dict[str, Any] = {}
    if driver.failed:
        problems.append(f"{driver.failed} of {driver.attempted} operations failed")
    if any(answer is None for _, answer in driver.answered):
        problems.append("a request went unanswered")

    sample = inputs.accuracy
    detail["accuracy_f1"], false_positives = score_accuracy(inputs.graph, sample, sample_answers)
    detail["accuracy_samples"] = len(sample)
    if false_positives:
        problems.append(f"{false_positives} RBReach false positive(s) against BFS")

    detail["answers_digest"] = answers_digest(driver.answered)
    if workload.name == "pattern_daemon":
        reference = ServiceConfig(alpha=workload.alpha, executor="serial", cache_size=0)
        requests = [request for batch in inputs.batches for request in batch]
        with GraphService(inputs.graph, reference) as serial:
            expected = serial.run_batch(requests).answers
        if answers_digest(list(zip(requests, expected))) != detail["answers_digest"]:
            problems.append("daemon answers are not bit-identical to the serial executor")
    if isinstance(driver, OpenLoop) and len(driver.answered) != driver.attempted:
        problems.append(
            f"{driver.attempted - len(driver.answered)} open-loop arrivals unanswered"
        )
    if isinstance(driver, Churn):
        # Berkholz–Keppeler–Schweikardt: an answer maintained under updates
        # must equal re-evaluation on the updated graph.
        with GraphService(service.graph, ServiceConfig(alpha=workload.alpha)) as fresh:
            for sub in service.subscriptions():
                live = sub.signature()
                again = fresh.run_batch([sub.request], sub.alpha).answers[0]
                if live != answer_signature(sub.kind, again):
                    problems.append(f"subscription {sub.id} diverged from re-evaluation")
                if answer_signature(sub.kind, replay(logs[sub.id])) != live:
                    problems.append(f"subscription {sub.id} log does not replay to its answer")
    return detail, problems


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def round_throughput(rounds: Sequence[Round], traced: bool) -> float:
    """Median over rounds of queries per second of front-door wall."""
    rates = [ratio(r.queries, r.wall) for r in rounds if r.traced == traced]
    return statistics.median(rates) if rates else 0.0


def timing_outcomes(rounds: Sequence[Round]) -> Dict[str, float]:
    """What a caller sees of the untraced rounds: throughput and call wall."""
    walls = call_walls_ms(rounds)
    return {
        "throughput_qps": round_throughput(rounds, traced=False),
        "call_p50_ms": percentile(walls, 0.5),
        "call_p90_ms": percentile(walls, 0.9),
    }


def call_walls_ms(rounds: Sequence[Round]) -> List[float]:
    """Wall of every untraced ``call_*``-defining front-door call, in ms."""
    return [wall * 1e3 for r in rounds if not r.traced for wall in r.calls]


def max_rss_kib(who: int) -> int:
    return resource.getrusage(who).ru_maxrss  # KiB on Linux


def counter_delta(before: Dict[str, Any], after: Dict[str, Any], name: str) -> float:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def per_layer_metrics(
    workload: Workload,
    inputs: Inputs,
    service: GraphService,
    driver: Driver,
    rounds: Sequence[Round],
    tracer: Tracer,
    parts: Dict[str, float],
    snapshots: Tuple[Dict[str, Any], Dict[str, Any]],
    stats: Tuple[Any, Any],
    gen_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``; an idle layer reads 0."""
    spans = layers.fold_spans(tracer.records)

    def span(name: str) -> layers.SpanStats:
        return spans.get(name, layers.SpanStats())

    before, after = snapshots
    stats_before, stats_after = stats
    is_open = isinstance(driver, OpenLoop)
    kq = driver.attempted / 1000.0
    traced_wall_ms = sum(wall for wall, traced in driver.door if traced) * 1e3
    batches = span("engine.batch").count
    hits = stats_after.cache_hits - stats_before.cache_hits
    misses = stats_after.cache_misses - stats_before.cache_misses

    out = layers.probe_layers(
        inputs.graph, workload.alpha, inputs.probe_reach, inputs.probe_patterns
    )
    out.update(
        {
            "service.facade_self_ms_per_batch": ratio(
                span("service.query").self_ms, span("service.query").count
            ),
            "planner.plan_us": span("planner").per_call_ms() * 1e3,
            "planner.calls_per_kq": ratio(
                counter_delta(before, after, "service.batches"), kq
            ),
            "cache.hit_rate": ratio(hits, hits + misses),
            "cache.evictions_per_kq": ratio(
                counter_delta(before, after, "engine.cache.evictions"), kq
            ),
            "engine.dispatch_self_ms_per_batch": ratio(span("engine.batch").self_ms, batches),
            "engine.chunks_per_batch": ratio(span("executor.chunk").count, batches),
            "executor.chunk_ms.reach": span("executor.chunk.reach").per_call_ms(),
            "executor.chunk_ms.simulation": span("executor.chunk.simulation").per_call_ms(),
            "executor.chunk_ms.subgraph": span("executor.chunk.subgraph").per_call_ms(),
            "daemon.queue_wait_ms_per_batch": ratio(span("worker.queue.wait").total_ms, batches),
            "daemon.pipe_transit_ms_per_batch": ratio(
                span("worker.pipe.transit").total_ms, batches
            ),
            "daemon.worker_busy_fraction": ratio(
                span("daemon.worker").total_ms,
                (service.config.workers or 1) * span("engine.batch").total_ms,
            ),
            "daemon.restarts": after["counters"].get("daemon.restarts", 0),
            "daemon.publishes": after["counters"].get("daemon.publishes", 0),
            "daemon.start_s": parts.get("daemon.start_s", 0.0),
            "kernels.fallbacks": after["counters"].get("kernel.fallbacks", 0),
            "subscribe.register_ms": parts.get("subscribe.register_ms", 0.0),
            "shard.prepare_s": parts.get("shard.prepare_s", 0.0),
            "shard.cut_fraction": parts.get("shard.cut_fraction", 0.0),
            "shard.batch_ms": span("shard.batch").per_call_ms(),
            "trace.coverage": min(1.0, ratio(span("<root>").total_ms, traced_wall_ms)),
            # 1 - traced/untraced throughput of the rounds run beside each other.
            "trace.overhead_fraction": 1.0
            - ratio(round_throughput(rounds, True), round_throughput(rounds, False)),
            "workloads.gen_s": gen_s,
            "machine.speed": parts["machine.speed"],
            **timing_outcomes(rounds),
        }
    )

    # service.aio + the generator's own lateness (mixed_open only).
    lateness = [late * 1e3 for late in driver.lateness]
    waits = after["histograms"].get("service.admission.wait.seconds")
    submits = counter_delta(before, after, "service.submitted")
    out.update(
        {
            "aio.submit_overhead_ms": driver.submit_overhead_ms(tracer, inputs.probe_reach)
            if is_open
            else 0.0,
            "aio.admission_waits_per_kq": ratio(
                counter_delta(before, after, "service.admission.waits"), submits / 1000.0
            ),
            "aio.admission_wait_ms_p90": obs.percentile_from_snapshot(waits, 0.9) * 1e3
            if waits
            else 0.0,
            "aio.max_inflight": stats_after.max_inflight,
            "aio.latency_p99_ms": percentile(call_walls_ms(rounds), 0.99) if is_open else 0.0,
            "harness.late_mean_ms": mean(lateness),
            "harness.late_p99_ms": percentile(lateness, 0.99),
        }
    )

    # updates / engine.invalidation / subscribe (churn_subscribed only).
    updates = driver.update_reports
    rebuilt = [u for u in updates if u.mode == "rebuilt"]
    patched = [u for u in updates if u.mode == "patched"]
    maintained = [u.maintenance for u in updates if u.maintenance is not None]
    evicted = sum(u.cache_evicted for u in patched)
    retained = sum(u.cache_retained for u in patched)
    out.update(
        {
            "updates.apply_ms_p50": percentile(
                [u.engine_report.summary.seconds * 1e3 for u in updates], 0.5
            ),
            "updates.ops_per_s": ratio(
                sum(u.engine_report.summary.delta_ops for u in updates),
                sum(u.wall_seconds for u in updates),
            ),
            "updates.rebuilt_fraction": ratio(len(rebuilt), len(updates)),
            "updates.rebuild_ms_mean": mean([u.wall_seconds * 1e3 for u in rebuilt]),
            "updates.dirty_landmarks_per_update": mean(
                [u.engine_report.summary.dirty_landmarks for u in patched]
            ),
            "updates.read_batch_ms_p50": percentile(
                [wall * 1e3 for wall in driver.read_walls], 0.5
            ),
            "cache.invalidated_per_update": ratio(evicted, len(patched)),
            "cache.retained_per_update": ratio(retained, len(patched)),
            "invalidation.stale_fraction": ratio(evicted, evicted + retained),
            "subscribe.maintain_ms_p50": percentile(
                [m.wall_seconds * 1e3 for m in maintained], 0.5
            ),
            "subscribe.affected_fraction": ratio(
                sum(m.affected for m in maintained), sum(m.subscriptions for m in maintained)
            ),
            "subscribe.changed_per_update": mean([m.changed for m in maintained]),
        }
    )

    # shard (community_sharded only).
    shard_reports = [s for report in driver.batch_reports for s in report.shard_reports]
    sharded = sum(len(s.answers) for s in shard_reports) / 1000.0
    out.update(
        {
            "shard.spillover_fraction": mean(
                [r.spillover_fraction for r in driver.batch_reports if r.shard_reports]
            ),
            "shard.cross_reach_per_kq": ratio(sum(s.cross_reach for s in shard_reports), sharded),
            "shard.miss_composed_per_kq": ratio(
                sum(s.miss_composed for s in shard_reports), sharded
            ),
            "shard.pattern_spilled_per_kq": ratio(
                sum(s.pattern_spilled for s in shard_reports), sharded
            ),
            "shard.boundary_probes_per_kq": ratio(
                counter_delta(before, after, "shard.boundary.probes"), kq
            ),
            "shard.vs_single_ratio": single_shard_ratio(workload, inputs, rounds)
            if service.config.num_shards > 1
            else 0.0,
        }
    )
    return out


def single_shard_ratio(workload: Workload, inputs: Inputs, rounds: Sequence[Round]) -> float:
    """Sharded throughput over a k=1 service's on one round of the same batches."""
    config = ServiceConfig(
        alpha=workload.alpha, **{**workload.config, "num_shards": 1, "shard_policy": "contain"}
    )
    with GraphService(inputs.graph, config) as single:
        single.prepare()
        baseline = ClosedLoop(single, inputs)
        baseline.round(False)  # warm
        return ratio(round_throughput(rounds, False), round_throughput([baseline.round(False)], False))


# --------------------------------------------------------------------------- #
# One workload
# --------------------------------------------------------------------------- #
def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL
) -> Dict[str, Any]:
    """Run one workload; returns ``{"correct", "attempted", "failed", "metrics", "detail"}``
    with ``metrics`` unit-less (the caller attaches units from ``BENCHMARK.json``)."""
    workload = WORKLOADS[name]
    if trace:
        seconds *= TRACED_SHARE
    started = time.perf_counter()
    inputs = build_inputs(workload, scale, seed, seconds)
    gen_s = time.perf_counter() - started

    # The accuracy sample is asked of a service of its own, on the graph as
    # generated: its cache entries stay out of the service under test, and the
    # score does not depend on how many ``update`` rounds the run gets through.
    service, parts, logs = open_service(workload, inputs)
    try:
        sample_answers = service.run_batch(inputs.accuracy).answers
    finally:
        service.close()

    setups: List[Tuple[float, float]] = []  # (wall seconds, machine speed around it)
    for _ in range(1 if trace else scale.setup_repeats):
        service.close()  # the one before (idempotent)
        before = machine_speed()
        service, parts, logs = open_service(workload, inputs)
        setups.append((parts["setup_s"], (before + machine_speed()) / 2))
    parts["machine.speed"] = statistics.median(speed for _, speed in setups)
    try:
        driver = DRIVERS[workload.driver](service, inputs)
        tracer = Tracer(service) if trace else None
        snapshot_before, stats_before = obs.snapshot(), service.stats()
        rounds = drive(driver, seconds, tracer)
        snapshot_after, stats_after = obs.snapshot(), service.stats()
        # The high-water mark of the serving process before the checks' own
        # oracles and reference services inflate it.
        rss_kib = max_rss_kib(resource.RUSAGE_SELF)
        detail, problems = check(workload, inputs, service, driver, logs, sample_answers)
        if trace:
            metrics = per_layer_metrics(
                workload, inputs, service, driver, rounds, tracer, parts,
                (snapshot_before, snapshot_after), (stats_before, stats_after), gen_s,
            )
            split_error = metrics["layers.split_error"]
            if name == "pattern_serial" and split_error > scale.split_error_limit:
                problems.append(
                    f"layers.split_error {split_error:.3f} > {scale.split_error_limit}: "
                    "answer is not reduce + exact match"
                )
    finally:
        service.close()  # also reaps daemon workers, so RUSAGE_CHILDREN sees them
    if not trace:
        rss_kib += max_rss_kib(resource.RUSAGE_CHILDREN)  # the largest daemon worker
        metrics = {
            "setup_s": statistics.median(wall * speed for wall, speed in setups),
            "accuracy_f1": detail["accuracy_f1"],
            "peak_rss_mb": rss_kib / 1024.0,
        }
        detail["unbounded"] = timing_outcomes(rounds)
    detail.update(
        setup_as_measured_s=statistics.median(wall for wall, _ in setups),
        machine_speed=parts["machine.speed"],
        rounds=len(rounds),
        calls=sum(len(r.calls) for r in rounds),
        gen_s=gen_s,
        problems=problems,
    )
    return {
        "correct": not problems,
        "attempted": max(1, driver.attempted),
        "failed": driver.failed,
        "metrics": metrics,
        "detail": detail,
    }


def with_units(metrics: Dict[str, float], declared: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Attach the units ``BENCHMARK.json`` declares; the name sets must agree."""
    names = [entry["name"] for entry in declared]
    if set(names) != set(metrics):
        raise SystemExit(
            "metric names disagree with BENCHMARK.json: "
            f"missing {sorted(set(names) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(names))}"
        )
    return {
        entry["name"]: {"value": float(metrics[entry["name"]]), "unit": entry["unit"]}
        for entry in declared
    }


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": default_workers(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": os.environ.get("REPRO_MP_START_METHOD", "fork"),
        "platform": platform.platform(),
    }


def print_metrics(title: str, metrics: Dict[str, Any]) -> None:
    print(title)
    width = max(len(name) for name in metrics)
    for name, entry in metrics.items():
        print(f"  {name:<{width}}  {entry['value']:.6g} {entry['unit']}")


def run_one(args: argparse.Namespace) -> int:
    spec = load_spec()
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), SMOKE if args.smoke else FULL
    )
    detail = result.pop("detail")
    result["metrics"] = with_units(
        result["metrics"], spec["per_layer" if args.trace else "end_to_end"]
    )
    print_metrics(
        f"{args.workload} seed={args.seed} seconds={args.seconds} "
        f"{'traced' if args.trace else 'untraced'}: {detail['rounds']} rounds, "
        f"{detail['calls']} timed calls, accuracy on {detail['accuracy_samples']} queries, "
        f"answers_digest {detail['answers_digest']}",
        result["metrics"],
    )
    if "unbounded" in detail:
        # This pass's timing outcomes: per-layer names in BENCHMARK.json, so no bound.
        units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
        detail["unbounded"] = {
            name: {"value": value, "unit": units[name]}
            for name, value in detail["unbounded"].items()
        }
        print_metrics("  timing outcomes, no bound:", detail["unbounded"])
        print(
            f"  set-up as measured {detail['setup_as_measured_s']:.6g} s "
            f"at machine speed {detail['machine_speed']:.3f}"
        )
    for problem in detail["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if args.out:
        Path(args.out).write_text(json.dumps({**result, "detail": detail}), encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# --------------------------------------------------------------------------- #
# All workloads: a fresh subprocess each, untraced then traced
# --------------------------------------------------------------------------- #
def run_all(args: argparse.Namespace) -> int:
    spec = load_spec()
    results: Dict[str, Any] = {}
    status = 0
    with tempfile.TemporaryDirectory(dir=HERE, prefix="_run") as scratch:
        for entry in spec["workloads"]:
            name = entry["name"]
            results[name] = {}
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                out = Path(scratch) / f"{name}.{trace}.json"
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", str(out),
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
                if done.returncode != 0 or not out.exists():
                    print(f"{name} --trace {trace}: exit {done.returncode}")
                    status = 1
                    continue
                payload = json.loads(out.read_text(encoding="utf-8"))
                results[name][key] = payload["metrics"]
                if "unbounded" in payload["detail"]:
                    results[name]["unbounded"] = payload["detail"].pop("unbounded")
                results[name].setdefault("detail", {})[key] = payload["detail"]
                results[name]["correct"] = results[name].get("correct", True) and payload["correct"]

    derived: Dict[str, Any] = {}
    serial = results.get("pattern_serial", {})
    daemon = results.get("pattern_daemon", {})
    if "end_to_end" in serial and "end_to_end" in daemon:
        derived["daemon.speedup"] = {
            "value": daemon["unbounded"]["throughput_qps"]["value"]
            / serial["unbounded"]["throughput_qps"]["value"],
            "unit": "ratio",
        }
        same = (
            serial["detail"]["end_to_end"]["answers_digest"]
            == daemon["detail"]["end_to_end"]["answers_digest"]
        )
        derived["daemon.answers_identical"] = {"value": float(same), "unit": "bool"}
        if not same:
            print("CHECK FAILED: pattern_daemon answers_digest differs from pattern_serial")
            status = 1
    if derived:
        print_metrics("derived", derived)
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "workloads": results,
        "derived": derived,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1), encoding="utf-8")
        print(f"wrote {args.out}")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny counts on youtube-small")
    parser.add_argument("--out", default=None, help="also write the result as JSON here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else float(load_spec()["run_seconds"])
    return run_one(args) if args.workload else run_all(args)


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``service.close()`` joins the daemon workers; what is left is
    multiprocessing's resource tracker, which a ``graph.shm`` publish starts
    and which otherwise outlives this process by a moment.  It exits once the
    last holder of its pipe is gone, so workers go first.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()  # closes the pipe, then waits for the tracker


def exit_on_sigterm(signum: int, frame: Any) -> None:
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    try:
        status = main()
    finally:
        stop_children()
    sys.exit(status)
