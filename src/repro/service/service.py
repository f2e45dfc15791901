"""``GraphService`` — the one serving engine of the repo.

The paper's serving story ("queries arrive by the thousands", Section 1)
separates one-time preparation from cheap per-query answering.
``GraphService`` owns that whole lifecycle behind one typed API::

    with GraphService.open("youtube-small", ServiceConfig(alpha=0.02)) as service:
        report = service.run_batch([ReachRequest(4, 17), ReachRequest(3, 99)])
        service.update(delta)          # re-prepare; live shards re-prepare
        answer = await service.submit(ReachRequest(5, 23))   # async front-end

The service freezes its graph once, on construction, into the shared
prepared state (:class:`~repro.engine.prepared.PreparedGraph`: CSR
substrate, SCC condensation, per-α landmark index, neighbourhood
summaries).  A batch is cut into ``(kind, alpha, chunk)`` tasks answered
inline (``serial``) or on the service's warm daemon pool (``daemon``); an
LRU cache keyed on ``(query fingerprint, α)`` short-circuits repeats, and a
repeat *inside* one batch — which the LRU cannot serve, nothing is stored
before the batch ran — shares the first copy's evaluation.

Routing is the :class:`~repro.service.planner.Planner`'s job: each batch
goes to the serial path, the daemon pool, or the lazily-built sharded
engine, and every decision keeps the **parity contract** — answers
bit-identical to the serial path with the cache off (under the default
``contain`` shard policy; the explicit ``scatter`` policy opts into full
scatter–gather semantics instead: never a false positive, parity only when
contained).  Caching only ever returns an answer the same service computed,
earlier or in this very batch, for the same ``(fingerprint, α)`` key.

Thread-safety: one internal lock serialises all engine work, so the sync
API and the async front-end (which funnels work through a single worker
thread) can be used against the same service without corrupting the
prepared state or the answer cache.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine.cache import AnswerCache, CacheKey
from repro.engine.daemons import DaemonPool
from repro.engine.executors import Task, answer_chunk, chunked
from repro.engine.invalidation import anchor_of, partition_entries
from repro.engine.prepared import PreparedGraph, UpdateSummary
from repro.engine.queries import REACH, SIMULATION, SUBGRAPH
from repro.exceptions import ServiceError
from repro.graph.protocol import GraphLike
from repro.service.config import SCATTER, ServiceConfig
from repro.service.planner import Plan, Planner, SHARDED
from repro.service.requests import (
    PatternRequest,
    ReachRequest,
    ServiceAnswer,
    ServiceRequest,
    ServiceStats,
    as_request,
)
from repro.shard.engine import ShardBatchReport, ShardedEngine
from repro.subscribe import DeltaSink, MaintenanceReport, Subscription, SubscriptionManager
from repro.updates.delta import GraphDelta

MAINTENANCE_BATCH_SIZE = 512
"""Standing queries re-evaluate in batches of at most this many per α: it
bounds how long one ``update`` monopolises the service per batch, not how
many subscriptions get maintained."""


@dataclass
class ServiceBatchReport:
    """Answers plus routing telemetry of one batch.

    ``answers`` are the raw answer objects in request order
    (``ReachabilityAnswer`` for reachability, ``PatternAnswer`` for
    patterns; bit-identical to a cache-free serial service's under the
    parity contract); :meth:`detailed` wraps them into
    :class:`ServiceAnswer` envelopes when the caller wants provenance.
    Treat them as **read-only**: cache hits, and repeats of a query within
    the batch, hand back the stored object itself.
    """

    answers: List[Any]
    requests: List[ServiceRequest]
    #: the batch-level α; per-request overrides (when any) are in ``alphas``.
    alpha: float
    plan: Plan
    wall_seconds: float
    #: per-position α values — ``None`` when the whole batch ran at ``alpha``
    #: (the fast path skips building it; use :meth:`effective_alphas`).
    alphas: Optional[List[float]] = None
    cache_hits: int = 0
    cache_misses: int = 0
    #: cache misses that repeated an earlier miss of the same α group and
    #: took its answer instead of an evaluation of their own (counted in
    #: ``cache_misses`` too; always 0 without a cache).
    deduplicated: int = 0
    chunks: int = 0
    kinds: Dict[str, int] = field(default_factory=dict)
    #: queries routed to the shard engines vs the single-graph engine
    #: (contain policy) — under scatter policy everything routes to shards.
    shard_routed: int = 0
    shard_single: int = 0
    #: underlying sharded reports (one per α group that touched the shards).
    shard_reports: List[ShardBatchReport] = field(default_factory=list)
    #: trace ID of this batch when tracing was on (``None`` otherwise) —
    #: the key into the flight recorder and the REPRO_TRACE sink.
    trace_id: Optional[str] = None

    @property
    def throughput(self) -> float:
        """Queries answered per second of wall time."""
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.answers) / self.wall_seconds

    @property
    def per_shard(self) -> Dict[int, int]:
        """Merged per-shard routing counts over every sharded sub-batch."""
        merged: Dict[int, int] = {}
        for report in self.shard_reports:
            for shard, count in report.per_shard.items():
                merged[shard] = merged.get(shard, 0) + count
        return merged

    def _shard_total(self, name: str) -> int:
        return sum(getattr(report, name) for report in self.shard_reports)

    @property
    def cross_reach(self) -> int:
        """Cross-shard reachability pairs (scatter policy only)."""
        return self._shard_total("cross_reach")

    @property
    def miss_composed(self) -> int:
        """Local reach misses composed through the boundary graph."""
        return self._shard_total("miss_composed")

    @property
    def pattern_contained(self) -> int:
        """Pattern balls answered entirely inside their home shard."""
        return self._shard_total("pattern_contained")

    @property
    def pattern_spilled(self) -> int:
        """Pattern balls assembled from owner-shard fragments."""
        return self._shard_total("pattern_spilled")

    @property
    def spillover_fraction(self) -> float:
        """Share of the batch that needed more than one shard."""
        total = len(self.answers)
        if total == 0:
            return 0.0
        return (self.cross_reach + self.miss_composed + self.pattern_spilled) / total

    def effective_alphas(self) -> List[float]:
        """The α each answer was computed under, per position."""
        if self.alphas is not None:
            return self.alphas
        return [self.alpha] * len(self.answers)

    def detailed(self) -> List[ServiceAnswer]:
        """Per-request :class:`ServiceAnswer` envelopes, in request order."""
        return [
            ServiceAnswer(
                index=index,
                request=request,
                value=value,
                alpha=alpha,
                backend=self.plan.backend,
            )
            for index, (request, value, alpha) in enumerate(
                zip(self.requests, self.answers, self.effective_alphas())
            )
        ]


@dataclass
class UpdateReport:
    """What one delta did to the prepared state and the answer cache."""

    summary: UpdateSummary
    cache_evicted: int = 0
    cache_retained: int = 0

    @property
    def mode(self) -> str:
        """``noop`` / ``fresh`` / ``patched`` / ``rebuilt`` (see ``UpdateSummary``)."""
        return self.summary.mode


@dataclass
class ServiceUpdateReport:
    """Telemetry of one ``update`` call."""

    engine_report: UpdateReport
    wall_seconds: float
    #: what the standing-query maintenance pass did (``None`` when the
    #: service holds no subscriptions).
    maintenance: Optional[MaintenanceReport] = None

    @property
    def mode(self) -> str:
        """What the prepared state did (``patched`` / ``rebuilt`` / ...)."""
        return self.engine_report.mode

    @property
    def ops_per_second(self) -> float:
        """Delta operations absorbed per second of ``update`` wall time."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.engine_report.summary.delta_ops / self.wall_seconds

    @property
    def cache_evicted(self) -> int:
        return self.engine_report.cache_evicted

    @property
    def cache_retained(self) -> int:
        return self.engine_report.cache_retained


class GraphService:
    """One session object owning prepare → query/stream → update → close.

    Parameters
    ----------
    graph:
        The data graph to serve (``DiGraph``, ``CSRGraph`` or
        ``MutableOverlay``); anything but a ``CSRGraph`` is frozen into one
        here, order preserved.
    config:
        A :class:`ServiceConfig`; keyword ``overrides`` are applied on top
        (``GraphService(graph, workers=4)`` works without building a config
        by hand).
    """

    def __init__(
        self,
        graph: GraphLike,
        config: Optional[ServiceConfig] = None,
        **overrides,
    ):
        if graph is None:
            raise ServiceError("GraphService needs a graph; use GraphService.open(dataset)")
        config = config or ServiceConfig()
        if overrides:
            config = config.with_overrides(**overrides)
        self._config = config
        self._planner = Planner(config)
        self._prepared = PreparedGraph(graph)
        self._cache = AnswerCache(config.cache_size)
        # Invalidation anchors: cache key → what part of the graph the query
        # touches, so updates can evict surgically (see :meth:`_apply`).
        self._anchors: Dict[CacheKey, Tuple[Any, ...]] = {}
        # Warm daemon pool (created by the first daemon batch) and the update
        # epoch that, with the prepared-state signature, versions the state
        # the daemons were forked from, so they are re-forked exactly when needed.
        self._daemon_pool: Optional[DaemonPool] = None
        self._state_epoch = 0
        self._sharded: Optional[ShardedEngine] = None
        self._stats = ServiceStats()
        self._subscriptions = SubscriptionManager()
        self._lock = threading.RLock()
        self._frontend = None  # lazily-built async front-end (repro.service.aio)
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls,
        dataset: str,
        config: Optional[ServiceConfig] = None,
        **overrides,
    ) -> "GraphService":
        """Open a service over a named dataset surrogate.

        The config seed selects the surrogate instance, mirroring the CLI
        commands, so service numbers are comparable with experiment runs at
        the same seed.
        """
        from repro.workloads.datasets import load_dataset

        config = config or ServiceConfig()
        if overrides:
            config = config.with_overrides(**overrides)
        graph = load_dataset(dataset, seed=config.seed)
        return cls(graph, config)

    def prepare(
        self,
        reach_alphas: Sequence[float] = (),
        pattern_alphas: Sequence[float] = (),
        subgraph_alphas: Sequence[float] = (),
    ) -> "GraphService":
        """Eagerly build prepared state (first-batch latency moves here).

        With no arguments, prepares the reachability index for the config's
        default α.  Prepares what the planner routes batches to: the
        sharded engine when ``num_shards > 1`` or under the ``scatter``
        policy (which sends every batch there, at any ``k``), the service's
        own prepared state unless ``scatter`` — there it is the update
        substrate only.  Optional — everything also prepares lazily on first
        use.
        """
        with self._lock:
            self._check_open()
            if not (reach_alphas or pattern_alphas or subgraph_alphas):
                reach_alphas = [self._config.alpha]
            scatter = self._config.shard_policy == SCATTER
            if not scatter:
                for kind, alphas in (
                    (REACH, reach_alphas),
                    (SIMULATION, pattern_alphas),
                    (SUBGRAPH, subgraph_alphas),
                ):
                    for alpha in alphas:
                        self._prepared.prepare(kind, alpha)
            if scatter or self._config.num_shards > 1:
                self._ensure_sharded().prepare(
                    reach_alphas=reach_alphas,
                    pattern_alphas=pattern_alphas,
                    subgraph_alphas=subgraph_alphas,
                )
        return self

    def close(self) -> None:
        """End the session: stop the async front-end, the daemons and the shards.

        Idempotent; any call after ``close`` raises :class:`ServiceError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._frontend is not None:
                self._frontend.close()
                self._frontend = None
            if self._daemon_pool is not None:
                self._daemon_pool.close()  # warm daemons + their shared segments
                self._daemon_pool = None
            if self._sharded is not None:
                self._sharded.close()
                self._sharded = None
            # Keep only the served graph, which ``graph`` still returns.
            self._flush_cache()
            self._prepared.invalidate()

    def __enter__(self) -> "GraphService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("GraphService is closed")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> ServiceConfig:
        return self._config

    @property
    def planner(self) -> Planner:
        return self._planner

    @property
    def prepared(self) -> PreparedGraph:
        """The prepared state batches answer on (read-only by convention)."""
        return self._prepared

    @property
    def graph(self) -> GraphLike:
        """The graph the service serves (the post-update substrate), also after ``close``."""
        return self._prepared.graph

    @property
    def backend(self) -> str:
        """Serving substrate class name (always ``CSRGraph``)."""
        return self._prepared.backend

    def stats(self) -> ServiceStats:
        """An immutable snapshot of the cumulative serving counters."""
        with self._lock:
            snapshot = self._stats.snapshot()
            if self._frontend is not None:
                snapshot.max_inflight = max(
                    snapshot.max_inflight, self._frontend.admission.max_seen
                )
                snapshot.admission_waits = self._frontend.admission.waits
            return snapshot

    # ------------------------------------------------------------------ #
    # Distributed tracing / flight recorder
    # ------------------------------------------------------------------ #
    def enable_tracing(
        self,
        capacity: int = obs.flight.DEFAULT_CAPACITY,
        slow_ms: Optional[float] = obs.flight.DEFAULT_SLOW_MS,
        slow_capacity: int = obs.flight.DEFAULT_SLOW_CAPACITY,
    ) -> "obs.flight.FlightRecorder":
        """Start recording per-batch timelines into a bounded flight recorder.

        Every subsequent batch gets a ``trace_id`` on its report; completed
        timelines (including worker-side spans shipped back over the daemon
        pipes) are retrievable via :meth:`trace_timeline`,
        :meth:`recent_traces`, :meth:`slow_traces` and
        :meth:`trace_for_percentile` until evicted.
        """
        return obs.flight.enable(
            capacity=capacity, slow_ms=slow_ms, slow_capacity=slow_capacity
        )

    def disable_tracing(self) -> None:
        """Stop recording and drop the flight recorder."""
        obs.flight.disable()

    def trace_timeline(self, trace_id: Optional[str]) -> Optional["obs.flight.Timeline"]:
        """The assembled timeline for one batch's ``trace_id`` (or ``None``)."""
        recorder = obs.flight.recorder()
        return recorder.timeline(trace_id) if recorder is not None else None

    def recent_traces(self, limit: Optional[int] = None) -> List["obs.flight.Timeline"]:
        """Recently completed timelines, oldest first (empty when off)."""
        recorder = obs.flight.recorder()
        return recorder.recent(limit) if recorder is not None else []

    def slow_traces(self) -> List["obs.flight.Timeline"]:
        """The slow-query log: timelines at or above the recorder's threshold."""
        recorder = obs.flight.recorder()
        return recorder.slow() if recorder is not None else []

    def trace_for_percentile(
        self, name: str = "service.batch.seconds", q: float = 0.99
    ) -> Tuple[Optional[str], Optional["obs.flight.Timeline"]]:
        """Resolve a latency quantile to a concrete trace via its exemplar."""
        return obs.flight.trace_for_percentile(name, q)

    def shard_profile(self) -> Dict[str, Any]:
        """Partition/boundary statistics (builds the sharded engine)."""
        with self._lock:
            self._check_open()
            return self._ensure_sharded().describe()

    # ------------------------------------------------------------------ #
    # Sharded engine (the one place it is assembled)
    # ------------------------------------------------------------------ #
    def _ensure_sharded(self) -> ShardedEngine:
        if self._sharded is None:
            # Built from the *currently served* graph, so a service that
            # absorbed deltas before its first sharded batch partitions the
            # updated graph, not the stale construction-time source; and
            # from the service's own freeze, so the source is frozen once.
            self._sharded = ShardedEngine(
                self.graph,
                num_shards=self._config.num_shards,
                method=self._config.shard_method,
                seed=self._config.seed,
                halo_depth=self._config.halo_depth,
            )
        return self._sharded

    # ------------------------------------------------------------------ #
    # Synchronous answering
    # ------------------------------------------------------------------ #
    def query(self, request: Any, alpha: Optional[float] = None) -> ServiceAnswer:
        """Answer one request (a batch of one, through the same planner)."""
        return self.run_batch([request], alpha=alpha).detailed()[0]

    def run_batch(
        self, requests: Sequence[Any], alpha: Optional[float] = None
    ) -> ServiceBatchReport:
        """Answer a batch of requests and report routing telemetry.

        ``alpha`` overrides the config default for this batch; a request's
        own ``alpha`` field overrides both.  Mixed-α batches are grouped and
        answered per α (order of the returned answers is request order
        regardless).  Accepts :class:`ReachRequest`/:class:`PatternRequest`
        objects, engine-level queries, or bare ``(source, target)`` pairs.
        Mixed-kind batches are allowed; each kind is dispatched to its own
        matcher.
        """
        with self._lock:
            self._check_open()
            with obs.span("service.query", requests=len(requests)):
                return self._run_batch_locked(requests, alpha)

    def _run_batch_locked(
        self, requests: Sequence[Any], alpha: Optional[float]
    ) -> ServiceBatchReport:
        items: List[ServiceRequest] = [
            item if isinstance(item, (ReachRequest, PatternRequest)) else as_request(item)
            for item in requests
        ]
        batch_alpha = alpha if alpha is not None else self._config.alpha
        batch_trace = obs.context.trace_id()
        with obs.span("planner", requests=len(items)):
            plan = self._planner.plan_batch(len(items), self.graph.size())

        started = time.perf_counter()
        # Batch composition over *all* requests (cache hits included), so the
        # telemetry describes the batch even when it was fully warm.
        kinds: Dict[str, int] = {}
        for item in items:
            kinds[item.kind] = kinds.get(item.kind, 0) + 1
        report = ServiceBatchReport(
            answers=[], requests=items, alpha=batch_alpha, plan=plan, wall_seconds=0.0, kinds=kinds
        )
        if plan.backend != SHARDED and not any(item.alpha is not None for item in items):
            # Fast path (the overwhelmingly common shape: one α, no shards):
            # requests *are* engine queries, so the batch goes straight
            # through the batch loop with no per-request work on top.
            report.answers = self._answer(items, batch_alpha, plan, report)
        else:
            self._run_batch_grouped(items, batch_alpha, plan, report)
        report.wall_seconds = time.perf_counter() - started

        self._stats.record_plan(plan.backend, len(items))
        for kind, count in kinds.items():
            self._stats.kinds[kind] = self._stats.kinds.get(kind, 0) + count
        self._stats.cache_hits += report.cache_hits
        self._stats.cache_misses += report.cache_misses
        self._stats.deduplicated += report.deduplicated
        self._stats.shard_contained += report.shard_routed
        self._stats.shard_spilled += report.shard_single
        obs.counter("service.batches").inc()
        obs.counter("service.queries").inc(len(items))
        obs.histogram("service.batch.seconds").observe(
            report.wall_seconds, exemplar=batch_trace
        )
        report.trace_id = batch_trace
        return report

    def _run_batch_grouped(
        self,
        items: List[ServiceRequest],
        batch_alpha: float,
        plan: Plan,
        report: ServiceBatchReport,
    ) -> None:
        """The general path: per-request α overrides and/or shard routing."""
        effective = [
            item.alpha if item.alpha is not None else batch_alpha for item in items
        ]
        report.alphas = effective
        report.answers = [None] * len(items)
        groups: Dict[float, List[int]] = {}
        for position, value in enumerate(effective):
            groups.setdefault(value, []).append(position)
        for group_alpha in sorted(groups):
            positions = groups[group_alpha]
            queries = [items[position] for position in positions]
            if plan.backend == SHARDED:
                self._route_sharded(queries, positions, group_alpha, plan, report)
            else:
                answers = self._answer(queries, group_alpha, plan, report)
                for position, answer in zip(positions, answers):
                    report.answers[position] = answer

    def _route_sharded(
        self,
        queries: List[Any],
        positions: List[int],
        alpha: float,
        plan: Plan,
        report: ServiceBatchReport,
    ) -> None:
        """Split one α group between the shard engines and the service's own graph.

        Under the default ``contain`` policy only queries the sharded engine
        answers bit-identically go to the shards: pattern queries whose ``d_Q``-ball
        is contained in the home shard's core.  Reachability always answers
        on the single graph there (per-shard budget shares change the
        answer telemetry, which would break bit-parity).  The ``scatter``
        policy routes everything through the sharded engine instead.
        """
        scatter = self._config.shard_policy == SCATTER
        if scatter:
            to_shard = list(range(len(queries)))
            to_single: List[int] = []
        else:
            needs_shard = any(query.kind != REACH for query in queries)
            if not needs_shard:
                to_shard, to_single = [], list(range(len(queries)))
            else:
                sharded = self._ensure_sharded()
                to_shard, to_single = [], []
                for index, query in enumerate(queries):
                    if query.kind == REACH:
                        to_single.append(index)
                        continue
                    home = sharded.partition.shard_of(query.personalized_match)
                    if home is not None and sharded.shards[home].ball_in_core(
                        query.personalized_match, query.pattern.diameter()
                    ):
                        to_shard.append(index)
                    else:
                        to_single.append(index)
        if to_shard:
            shard_report = self._ensure_sharded().run_batch(
                [queries[index] for index in to_shard],
                alpha,
                executor=plan.executor,
                workers=plan.workers,
            )
            report.shard_reports.append(shard_report)
            report.chunks += shard_report.chunks
            for index, answer in zip(to_shard, shard_report.answers):
                report.answers[positions[index]] = answer
            report.shard_routed += len(to_shard)
        if to_single:
            answers = self._answer([queries[index] for index in to_single], alpha, plan, report)
            for index, answer in zip(to_single, answers):
                report.answers[positions[index]] = answer
            report.shard_single += len(to_single)

    def _answer(
        self, queries: Sequence[Any], alpha: float, plan: Plan, report: ServiceBatchReport
    ) -> List[Any]:
        """The batch loop: answer one α group in input order.

        Probes the cache, lets a repeated miss follow its first copy (single
        flight), cuts the remaining misses into ``(kind, alpha, chunk)``
        tasks, runs them inline or on the daemon pool, and caches each answer
        with its invalidation anchor.  Adds its hits, misses, followers and
        chunks to ``report``.
        """
        if not 0 < alpha <= 1:
            raise ServiceError(f"alpha must be in (0, 1], got {alpha}")
        # plan.executor is always concrete: the planner resolves AUTO.
        executor = plan.executor
        # The pool fixes the worker count that sizes the chunks (a live pool
        # keeps the count of its first batch); its processes only start when
        # a batch actually dispatches.
        pool = None
        if executor == "daemon":
            if self._daemon_pool is None or self._daemon_pool.closed:
                self._daemon_pool = DaemonPool(plan.workers)
            pool = self._daemon_pool
        run_workers = pool.workers if pool is not None else 1
        caching = self._cache.capacity > 0

        started = time.perf_counter()

        answers: List[Any] = [None] * len(queries)
        # (position, query, fingerprint) — the fingerprint is hashed at most
        # once per query and not at all when caching is off: on cheap query
        # mixes the sha1 is a measurable share of per-query cost, and the
        # experiment drivers run cache-free so figure timings stay raw.
        pending: List[Tuple[int, Any, Optional[str]]] = []
        # Single flight: the first miss of a fingerprint leads, a repeat later
        # in the same batch follows it — (follower, leader) positions — and
        # takes the leader's answer object once its chunk is back.  The LRU
        # cannot serve such a repeat: nothing is put before the batch ran.
        leaders: Dict[str, int] = {}
        followers: List[Tuple[int, int]] = []
        hits = 0
        if caching:
            for position, query in enumerate(queries):
                fingerprint = query.fingerprint()
                hit, answer = self._cache.get(fingerprint, alpha)
                if hit:
                    answers[position] = answer
                    hits += 1
                elif fingerprint in leaders:
                    followers.append((position, leaders[fingerprint]))
                else:
                    leaders[fingerprint] = position
                    pending.append((position, query, fingerprint))
        else:
            pending = [(position, query, None) for position, query in enumerate(queries)]
        probe_seconds = time.perf_counter() - started

        # One-time preparation happens *outside* the timed window — the
        # ``engine.batch.seconds`` wall measures answering (probe + dispatch),
        # so it does not depend on whether this batch happened to be the one
        # that built an index — and only for kinds that actually dispatch.
        for kind in sorted({query.kind for _, query, _ in pending}):
            self._prepared.prepare(kind, alpha)

        started = time.perf_counter()
        tasks: List[Task] = []
        task_positions: List[Sequence[int]] = []
        task_fingerprints: List[Sequence[Optional[str]]] = []
        by_kind: Dict[str, List[Tuple[int, Any, Optional[str]]]] = {}
        for item in pending:
            by_kind.setdefault(item[1].kind, []).append(item)
        kind_order = sorted(by_kind)
        groups = chunked([by_kind[kind] for kind in kind_order], run_workers)
        for kind, chunks in zip(kind_order, groups):
            for chunk in chunks:
                tasks.append((kind, alpha, [query for _, query, _ in chunk]))
                task_positions.append([position for position, _, _ in chunk])
                task_fingerprints.append([fingerprint for _, _, fingerprint in chunk])

        with obs.span("engine.batch", executor=executor, chunks=len(tasks)):
            batch_trace = obs.context.trace_id()
            if pool is None:
                chunk_results = [answer_chunk(self._prepared, task) for task in tasks]
            else:
                # The version is taken *after* the prepare loop, so a new α
                # index (or an absorbed update, via the epoch) re-forks the
                # daemons, which otherwise keep serving the state they were
                # forked from.
                chunk_results = pool.run(
                    self._prepared,
                    tasks,
                    version=(self._state_epoch, self._prepared.state_signature()),
                )

        evictions = 0
        for positions, fingerprints, results in zip(
            task_positions, task_fingerprints, chunk_results
        ):
            if len(results) != len(positions):  # pragma: no cover - defensive
                raise ServiceError("executor returned a malformed chunk result")
            for position, fingerprint, answer in zip(positions, fingerprints, results):
                answers[position] = answer
                if caching:
                    for stale in self._cache.put(fingerprint, alpha, answer):
                        self._anchors.pop(stale, None)
                        evictions += 1
                    self._anchors[(fingerprint, alpha)] = anchor_of(queries[position], answer)
        for position, leader in followers:
            answers[position] = answers[leader]

        wall = probe_seconds + (time.perf_counter() - started)
        misses = len(pending) + len(followers)
        report.cache_hits += hits
        report.cache_misses += misses
        report.deduplicated += len(followers)
        report.chunks += len(tasks)
        # Batch-granular telemetry (one counter bump per batch, never per
        # query) — cheap enough to stay inside the façade's overhead budget.
        obs.counter("engine.batches").inc()
        obs.counter("engine.executor." + executor).inc()
        obs.counter("engine.cache.hits").inc(hits)
        obs.counter("engine.cache.misses").inc(misses)
        if followers:
            obs.counter("engine.batch.deduplicated").inc(len(followers))
        if evictions:
            obs.counter("engine.cache.evictions").inc(evictions)
        obs.histogram("engine.batch.size", scheme="count").observe(float(len(queries)))
        obs.histogram("engine.batch.seconds").observe(wall, exemplar=batch_trace)
        return answers

    def _flush_cache(self) -> None:
        """Drop every cached answer and its anchor."""
        self._cache.clear()
        self._anchors.clear()

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def update(self, delta: GraphDelta) -> ServiceUpdateReport:
        """Absorb a :class:`GraphDelta`; answers then equal a fresh service's.

        The service holds the one mutable graph: ``PreparedGraph.apply_delta``
        re-prepares its state on the updated graph and reports what survived,
        which the cache invalidation then reads.  A live sharded engine then
        re-prepares from the served graph
        (:meth:`ShardedEngine.reset`), and the standing queries are
        maintained — also when an invalid op stops the delta after a prefix
        landed (every standing query then re-evaluates).  Subsequent answers are bit-identical to
        ``GraphService(service.graph, config)``, for either executor and any
        worker count.
        """
        with self._lock:
            self._check_open()
            if not isinstance(delta, GraphDelta):
                raise ServiceError(f"update needs a GraphDelta, got {type(delta).__name__}")
            started = time.perf_counter()
            with obs.span("service.update", ops=delta.size()):
                # The applied prefix of a delta that raises is served, and
                # nothing vouches for any standing answer: every one
                # re-evaluates.
                engine_report = UpdateReport(summary=UpdateSummary(mode="rebuilt"))
                standing = [sub.id for sub in self._subscriptions.subscriptions()]
                try:
                    engine_report, standing = self._apply(delta)
                finally:
                    # An unbuilt sharded engine needs nothing: it partitions
                    # the served graph on first use.
                    if self._sharded is not None:
                        self._sharded.reset(self.graph)
                    maintenance = self._maintain_subscriptions(engine_report.mode, standing)
            wall = time.perf_counter() - started
            self._stats.updates += 1
            obs.counter("service.updates").inc()
            obs.histogram("service.update.seconds").observe(wall)
            self._stats.update_modes[engine_report.mode] = (
                self._stats.update_modes.get(engine_report.mode, 0) + 1
            )
            return ServiceUpdateReport(
                engine_report=engine_report,
                wall_seconds=wall,
                maintenance=maintenance,
            )

    def _apply(self, delta: GraphDelta) -> Tuple[UpdateReport, List[int]]:
        """Re-prepare the state on the updated graph, then decide retention.

        Every effective update bumps the state epoch, so the next daemon
        batch re-forks the workers from the updated state before dispatch.  One
        :func:`~repro.engine.invalidation.partition_entries` call decides
        for the cached answers and the standing queries together: entries
        whose query touches the mutated region (delta endpoints, changed
        components, pattern balls overlapping the delta) go; the rest stay
        only when the re-prepared state is provably answer-identical for
        them (identical α index and ranks for reachability; the same caps,
        or a saturated search that fits the fresh ones, for patterns).  A
        node removal flushes the cache.  Returns the report and the IDs of
        the standing queries to re-evaluate.
        """
        try:
            summary = self._prepared.apply_delta(delta)
        except Exception:
            # The failing op's prefix is already on the substrate; the
            # prepared state was re-prepared on it, and the cached
            # answers must go with it or they would keep serving the
            # pre-delta graph.  The epoch moves too: warm daemons must not
            # keep serving the pre-delta state either.
            self._state_epoch += 1
            self._flush_cache()
            raise
        cached, standing = partition_entries(
            [
                [(key, key[1], self._anchors.get(key)) for key in self._cache.keys()],
                self._subscriptions.entries(),
            ],
            summary,
            self._prepared,
        )
        self._subscriptions.skip(standing.retained)
        report = UpdateReport(summary=summary)
        if summary.mode == "rebuilt":
            report.cache_evicted = len(self._cache)
            self._flush_cache()
        else:
            report.cache_evicted = self._cache.invalidate(cached.stale)
            for key in cached.stale:
                self._anchors.pop(key, None)
        if summary.mode != "noop":
            self._state_epoch += 1
        report.cache_retained = len(self._cache)
        if report.cache_retained:
            obs.counter("cache.retained").inc(report.cache_retained)
        return report, standing.stale

    # ------------------------------------------------------------------ #
    # Standing queries (repro.subscribe)
    # ------------------------------------------------------------------ #
    def subscribe(
        self,
        request: Any,
        alpha: Optional[float] = None,
        sink: Optional[DeltaSink] = None,
    ) -> Subscription:
        """Register a standing query; its answer stays current across updates.

        The answer is materialised immediately through the normal batch path
        (planner, cache, executors) and pushed as the epoch-0
        :class:`~repro.subscribe.AnswerDelta` through ``sink`` (when given).
        Every subsequent :meth:`update` runs a maintenance pass: the shared
        invalidation oracle decides which subscriptions the delta may have
        affected, only those re-evaluate, and answer changes are pushed as
        further deltas.  Accepts the same request shapes as :meth:`query`.
        """
        with self._lock:
            self._check_open()
            if len(self._subscriptions) >= self._config.max_subscriptions:
                raise ServiceError(
                    f"subscription limit reached ({self._config.max_subscriptions}); "
                    "unsubscribe or raise ServiceConfig.max_subscriptions"
                )
            resolved = as_request(request)
            sub_alpha = (
                resolved.alpha
                if resolved.alpha is not None
                else (alpha if alpha is not None else self._config.alpha)
            )
            value = self._run_batch_locked([resolved], sub_alpha).answers[0]
            subscription = self._subscriptions.register(
                resolved,
                sub_alpha,
                value,
                client=resolved.client,
                sink=sink,
            )
            self._stats.subscribed += 1
            self._stats.answer_deltas += 1  # the epoch-0 snapshot
            obs.counter("sub.registered").inc()
            obs.gauge("sub.active").set(len(self._subscriptions))
            return subscription

    def unsubscribe(self, subscription: Any) -> Subscription:
        """Remove a standing query (accepts the object or its ID)."""
        with self._lock:
            self._check_open()
            sub_id = (
                subscription.id
                if isinstance(subscription, Subscription)
                else subscription
            )
            removed = self._subscriptions.deregister(sub_id)
            self._stats.unsubscribed += 1
            obs.counter("sub.deregistered").inc()
            obs.gauge("sub.active").set(len(self._subscriptions))
            return removed

    def subscriptions(self) -> List[Subscription]:
        """A snapshot of the standing-query table, registration order."""
        with self._lock:
            return self._subscriptions.subscriptions()

    def _maintain_subscriptions(self, mode: str, stale: List[int]) -> Optional[MaintenanceReport]:
        """Re-evaluate exactly the standing queries the delta may have changed.

        Called under the service lock inside ``update`` with the ``stale``
        IDs the update's invalidation decision named, so a subscription
        skips work precisely when its cached answer would have survived;
        affected ones re-run through :meth:`_run_batch_locked` — planner,
        cache, daemons and shards included — in chunks of
        :data:`MAINTENANCE_BATCH_SIZE` per α.
        """
        manager = self._subscriptions
        total = len(manager)
        if total == 0:
            return None
        started = time.perf_counter()
        changed = 0
        with obs.span("subscription.maintain", subscriptions=total):
            groups: Dict[float, List[Subscription]] = {}
            for sub_id in stale:
                sub = manager.get(sub_id)
                groups.setdefault(sub.alpha, []).append(sub)
            for group_alpha in sorted(groups):
                group = groups[group_alpha]
                for start in range(0, len(group), MAINTENANCE_BATCH_SIZE):
                    chunk = group[start : start + MAINTENANCE_BATCH_SIZE]
                    batch = self._run_batch_locked([sub.request for sub in chunk], group_alpha)
                    for sub, value in zip(chunk, batch.answers):
                        if manager.commit(sub.id, value) is not None:
                            changed += 1
        wall = time.perf_counter() - started
        skipped = total - len(stale)
        obs.counter("sub.affected").inc(len(stale))
        obs.counter("sub.skipped").inc(skipped)
        obs.histogram("sub.maintain.seconds").observe(wall)
        self._stats.sub_affected += len(stale)
        self._stats.sub_skipped += skipped
        self._stats.answer_deltas += changed
        return MaintenanceReport(
            mode=mode,
            subscriptions=total,
            affected=len(stale),
            skipped=skipped,
            changed=changed,
            wall_seconds=wall,
        )

    # ------------------------------------------------------------------ #
    # Async front-end
    # ------------------------------------------------------------------ #
    def _ensure_frontend(self):
        with self._lock:
            self._check_open()
            if self._frontend is None:
                from repro.service.aio import AsyncFrontEnd

                self._frontend = AsyncFrontEnd(self)
            return self._frontend

    async def submit(self, request: Any, alpha: Optional[float] = None) -> ServiceAnswer:
        """Answer one request asynchronously, under admission control.

        Awaits until the request is admitted (total in-flight queries below
        ``max_inflight`` and the client's α-weighted in-flight cost within
        ``client_alpha_budget``), answers on the service's worker thread —
        as one batch with every other ``submit``/``stream`` chunk that was
        admitted while the thread was busy — and returns the
        :class:`ServiceAnswer`.
        """
        return await self._ensure_frontend().submit(request, alpha=alpha)

    def stream(self, requests: Sequence[Any], alpha: Optional[float] = None):
        """``async for`` interface: answers yielded as chunks complete.

        The batch is split into ``stream_chunk_size`` chunks, each admitted
        independently (backpressure past the configured depth) and answered
        on the worker thread; answers stream back as each chunk finishes,
        tagged with their request ``index`` so callers can reassemble batch
        order.  Closing the generator mid-stream cancels unfinished chunks
        and releases their admission — the service stays reusable.
        """
        return self._ensure_frontend().stream(requests, alpha=alpha)

    def subscription_stream(self, requests: Sequence[Any], alpha: Optional[float] = None):
        """``async for`` over the answer deltas of a set of standing queries.

        Registers every request as a subscription (under admission control —
        each standing query holds one admission charge for the stream's
        lifetime, so a client's standing and ad-hoc queries share one α
        budget) and yields :class:`~repro.subscribe.AnswerDelta` envelopes:
        first each subscription's epoch-0 snapshot, then every answer change
        maintenance pushes.  Closing the generator (or cancelling its
        consumer) deregisters the subscriptions and releases the admission —
        the service stays reusable.
        """
        return self._ensure_frontend().subscription_stream(requests, alpha=alpha)


__all__ = [
    "GraphService",
    "ServiceBatchReport",
    "ServiceUpdateReport",
    "UpdateReport",
]
