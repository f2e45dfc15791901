"""``QueryEngine`` — answer *batches* of resource-bounded queries.

The paper's serving story ("queries arrive by the thousands", Section 1)
separates one-time preparation from cheap per-query answering.  The engine
owns the prepared state (:class:`~repro.engine.prepared.PreparedGraph`) and
answers every batch in chunks:

* preparation — CSR mirror, SCC condensation, per-α landmark index,
  neighbourhood summaries — happens once, in the parent process;
* answering cuts the batch into ``(kind, alpha, chunk)`` tasks and runs
  them inline (``serial``) or on the engine's warm daemon pool (``daemon``);
* an LRU cache keyed on ``(query fingerprint, α)`` short-circuits repeats,
  and a repeat *inside* one batch — which the LRU cannot serve, nothing is
  stored before the batch ran — shares the first copy's evaluation.

**Parity contract**: for either executor and any worker count, the answers
are bit-identical to the serial path.  Both executors run the same pure chunk
function over the same chunking; caching only ever returns an answer that
the same engine computed, earlier or in this very batch, for the same
``(fingerprint, α)`` key.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.engine.cache import AnswerCache, CacheKey, CacheStats
from repro.engine.daemons import DaemonPool
from repro.engine.executors import (
    Task,
    answer_chunk,
    check_executor,
    chunked,
    default_workers,
)
from repro.engine.invalidation import anchor_of, partition_entries
from repro.engine.prepared import (
    DEFAULT_COMPACT_THRESHOLD,
    DEFAULT_PATCH_THRESHOLD,
    PreparedGraph,
    UpdateSummary,
)
from repro.engine.queries import PatternQuery, ReachQuery, REACH, SIMULATION, SUBGRAPH
from repro.exceptions import EngineError
from repro.graph.digraph import NodeId
from repro.graph.protocol import GraphLike
from repro.patterns.pattern import GraphPattern
from repro.updates.delta import GraphDelta

EngineQuery = Union[ReachQuery, PatternQuery]


@dataclass
class BatchReport:
    """Answers plus the telemetry of one batch run."""

    answers: List[Any]
    alpha: float
    executor: str
    workers: int
    wall_seconds: float
    cache_hits: int
    cache_misses: int
    chunks: int = 0
    kinds: Dict[str, int] = field(default_factory=dict)
    #: cache misses that repeated an earlier miss of the same batch and took
    #: its answer instead of an evaluation of their own (counted in
    #: ``cache_misses`` too; always 0 without a cache).
    deduplicated: int = 0

    @property
    def throughput(self) -> float:
        """Queries answered per second of wall time."""
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.answers) / self.wall_seconds


@dataclass
class UpdateReport:
    """Telemetry of one ``QueryEngine.update`` call."""

    summary: UpdateSummary
    cache_evicted: int = 0
    cache_retained: int = 0
    wall_seconds: float = 0.0

    @property
    def mode(self) -> str:
        """``noop`` / ``fresh`` / ``patched`` / ``rebuilt`` (see ``UpdateSummary``)."""
        return self.summary.mode

    @property
    def ops_per_second(self) -> float:
        """Delta operations absorbed per second of wall time."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.summary.delta_ops / self.wall_seconds


class QueryEngine:
    """Batched query answering over one prepared graph.

    Parameters
    ----------
    graph:
        The data graph (``DiGraph`` or ``CSRGraph``); anything but a
        ``CSRGraph`` is frozen into one, order preserved.
    cache_size:
        Capacity of the LRU answer cache (0 disables caching).
    """

    def __init__(self, graph: GraphLike, cache_size: int = 4096):
        self._prepared = PreparedGraph(graph)
        self._cache = AnswerCache(cache_size)
        # Invalidation anchors: cache key → what part of the graph the query
        # touches, so updates can evict surgically (see :meth:`update`).
        self._anchors: Dict[CacheKey, Tuple[Any, ...]] = {}
        self._pattern_guard_max_degree: Optional[int] = None
        # Warm daemon pool (created on first ``executor="daemon"`` batch) and
        # the update epoch that, with the prepared-state signature, versions
        # the state the daemons hold so republish happens exactly when needed.
        self._daemon_pool: Optional[DaemonPool] = None
        self._state_epoch = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def prepared(self) -> PreparedGraph:
        """The shared prepared state (read-only by convention)."""
        return self._prepared

    @property
    def backend(self) -> str:
        """Serving substrate class name (``CSRGraph`` or ``DiGraph``)."""
        return self._prepared.backend

    @property
    def statistics(self):
        """Label/degree statistics of the prepared graph (built once)."""
        return self._prepared.statistics

    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of the answer cache."""
        return self._cache.stats()

    def clear_cache(self) -> None:
        """Drop every cached answer (counters reset too)."""
        self._cache.clear()
        self._anchors.clear()

    # ------------------------------------------------------------------ #
    # Daemon pool lifecycle
    # ------------------------------------------------------------------ #
    def daemon_pool(self, workers: Optional[int] = None) -> DaemonPool:
        """The engine's warm worker pool, created on first use.

        The first call fixes the worker count (later ``workers`` arguments
        are ignored while the pool lives).  ``run_batch(executor="daemon")``
        calls this implicitly; call it eagerly to pay daemon startup before
        the first batch.  Pair with :meth:`close` — or use the engine as a
        context manager — so the daemons and their shared segments are torn
        down deterministically.
        """
        if self._daemon_pool is None or self._daemon_pool.closed:
            self._daemon_pool = DaemonPool(workers)
        return self._daemon_pool

    def close(self) -> None:
        """Shut down the daemon pool (if any) and unlink its shared state.

        Idempotent; the engine remains usable afterwards — the next daemon
        batch simply starts a fresh pool.
        """
        if self._daemon_pool is not None:
            self._daemon_pool.close()
            self._daemon_pool = None

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _anchor_of(query: EngineQuery) -> Tuple[Any, ...]:
        """What part of the graph a cached answer depends on.

        Delegates to :func:`repro.engine.invalidation.anchor_of` — the
        anchor vocabulary belongs to the shared invalidation oracle.
        """
        return anchor_of(query)

    # ------------------------------------------------------------------ #
    # Preparation
    # ------------------------------------------------------------------ #
    def prepare(
        self,
        reach_alphas: Sequence[float] = (),
        pattern_alphas: Sequence[float] = (),
        subgraph_alphas: Sequence[float] = (),
    ) -> "QueryEngine":
        """Eagerly build the prepared state for the given resource ratios.

        Optional — the engine prepares lazily on first use — but calling it
        up front moves every index build out of the first batch's latency.
        Returns ``self`` for chaining.
        """
        for alpha in reach_alphas:
            self._prepared.prepare("reach", alpha)
        for alpha in pattern_alphas:
            self._prepared.prepare(SIMULATION, alpha)
        for alpha in subgraph_alphas:
            self._prepared.prepare(SUBGRAPH, alpha)
        return self

    def index_build_seconds(self, alpha: float) -> float:
        """Wall-clock cost of the α landmark index build (0.0 if unbuilt)."""
        return self._prepared.index_build_seconds(alpha)

    # ------------------------------------------------------------------ #
    # Incremental updates
    # ------------------------------------------------------------------ #
    def update(
        self,
        delta: GraphDelta,
        patch_threshold: float = DEFAULT_PATCH_THRESHOLD,
        compact_threshold: float = DEFAULT_COMPACT_THRESHOLD,
    ) -> UpdateReport:
        """Absorb a :class:`GraphDelta` into the serving state.

        The prepared state is patched incrementally (or rebuilt lazily when
        the delta is too large to patch profitably — above
        ``patch_threshold·|G|`` ops — or removes nodes); either way,
        subsequent answers are bit-identical to a fresh engine prepared on
        the updated graph, for either executor and any worker count.  The
        warm daemon pool is versioned: every effective update bumps the
        engine's state epoch, so the next daemon batch republishes before
        dispatch.

        The answer cache is invalidated surgically: entries whose query
        touches the mutated region (delta endpoints, changed components,
        pattern balls overlapping the delta) are evicted; the rest are kept
        only when the repaired state is provably answer-identical for them
        (identical α index and ranks for reachability; unchanged size, max
        degree and ball for patterns) and flushed otherwise.

        Do not call concurrently with ``run_batch`` on another thread —
        the engine serialises preparation and answering per instance.
        """
        started = time.perf_counter()
        try:
            summary = self._prepared.apply_delta(
                delta, patch_threshold=patch_threshold, compact_threshold=compact_threshold
            )
        except Exception:
            # The failing op's prefix is already on the substrate; the
            # prepared state was dropped for lazy rebuild, and the cached
            # answers must go with it or they would keep serving the
            # pre-delta graph.  The epoch moves too: warm daemons must not
            # keep serving the pre-delta state either.
            self._state_epoch += 1
            self.clear_cache()
            self._pattern_guard_max_degree = None
            raise
        if summary.mode != "noop":
            self._state_epoch += 1
        report = UpdateReport(summary=summary)
        if summary.mode == "noop":
            report.cache_retained = len(self._cache)
            if report.cache_retained:
                obs.counter("cache.retained").inc(report.cache_retained)
            report.wall_seconds = time.perf_counter() - started
            return report
        if summary.mode == "rebuilt":
            report.cache_evicted = len(self._cache)
            self.clear_cache()
            self._pattern_guard_max_degree = None
            report.wall_seconds = time.perf_counter() - started
            return report

        decision = partition_entries(
            [(key, key[1], self._anchors.get(key)) for key in self._cache.keys()],
            summary,
            pattern_guard=self._pattern_guard_max_degree,
            graph=self._prepared.graph,
            max_degree=self._prepared.max_degree,
        )
        self._pattern_guard_max_degree = decision.pattern_guard
        report.cache_evicted = self._cache.invalidate(decision.stale)
        for key in decision.stale:
            self._anchors.pop(key, None)
        report.cache_retained = len(self._cache)
        if report.cache_retained:
            obs.counter("cache.retained").inc(report.cache_retained)
        report.wall_seconds = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------ #
    # Batch answering
    # ------------------------------------------------------------------ #
    def run_batch(
        self,
        queries: Sequence[EngineQuery],
        alpha: float,
        executor: str = "serial",
        workers: Optional[int] = None,
    ) -> BatchReport:
        """Answer a batch and report telemetry.

        Answers come back in input order: ``ReachabilityAnswer`` objects for
        :class:`ReachQuery`, ``PatternAnswer`` objects for
        :class:`PatternQuery`.  Mixed-kind batches are allowed; each kind is
        dispatched to its own matcher.  Fan-out is batch-aware end to end:
        each executor chunk hands its whole sub-batch to one batched kernel
        entry (``RBReach.query_batch``) instead of crossing the dispatch
        seam once per query, and the sub-batch sizes land on the
        ``kernel.batch_size`` histogram.

        Treat returned answers as **read-only**: cache hits, and repeats of
        a query within the batch, hand back the stored object itself
        (copying every answer would tax the hot path), so mutating one would
        corrupt future hits for the same ``(fingerprint, α)`` key and void
        the parity contract.
        """
        if not 0 < alpha <= 1:
            raise EngineError(f"alpha must be in (0, 1], got {alpha}")
        check_executor(executor)
        # The pool this batch would run on fixes the worker count that sizes
        # its chunks (a live pool ignores a later ``workers``); its processes
        # only start when a batch actually dispatches.
        pool = self.daemon_pool(workers) if executor == "daemon" else None
        run_workers = pool.workers if pool is not None else 1
        caching = self._cache.capacity > 0

        started = time.perf_counter()

        answers: List[Any] = [None] * len(queries)
        # (position, query, fingerprint) — the fingerprint is hashed at most
        # once per query and not at all when caching is off: on cheap query
        # mixes the sha1 is a measurable share of per-query cost, and the
        # experiment drivers run cache-free so figure timings stay raw.
        pending: List[Tuple[int, EngineQuery, Optional[str]]] = []
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

        # One-time preparation happens *outside* the timed window — wall
        # measures answering (probe + dispatch), so figure timings do not
        # depend on whether this batch happened to be the one that built an
        # index — and only for kinds that actually dispatch.
        for kind in sorted({query.kind for _, query, _ in pending}):
            self._prepared.prepare(kind, alpha)

        # Batch composition over *all* queries (cache hits included), so the
        # telemetry describes the batch even when it was fully warm.
        kinds: Dict[str, int] = {}
        for query in queries:
            kinds[query.kind] = kinds.get(query.kind, 0) + 1

        started = time.perf_counter()
        tasks: List[Task] = []
        task_positions: List[Sequence[int]] = []
        task_fingerprints: List[Sequence[Optional[str]]] = []
        by_kind: Dict[str, List[Tuple[int, EngineQuery, Optional[str]]]] = {}
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
                # index (or an absorbed update, via the epoch) triggers a
                # republish to the daemons, which otherwise keep serving
                # their attached state.
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
                raise EngineError("executor returned a malformed chunk result")
            for position, fingerprint, answer in zip(positions, fingerprints, results):
                answers[position] = answer
                if caching:
                    for stale in self._cache.put(fingerprint, alpha, answer):
                        self._anchors.pop(stale, None)
                        evictions += 1
                    anchor = self._anchor_of(queries[position])
                    self._anchors[(fingerprint, alpha)] = anchor
                    if anchor[0] != REACH and self._pattern_guard_max_degree is None:
                        # Pattern retention across updates needs the visit
                        # coefficient (max degree) the answer was computed
                        # under; snapshot it with the first cached pattern.
                        self._pattern_guard_max_degree = self._prepared.max_degree()
        for position, leader in followers:
            answers[position] = answers[leader]

        wall = probe_seconds + (time.perf_counter() - started)
        # Batch-granular telemetry (one counter bump per batch, never per
        # query) — cheap enough to stay inside the façade's 2% overhead gate.
        obs.counter("engine.batches").inc()
        obs.counter("engine.executor." + executor).inc()
        obs.counter("engine.cache.hits").inc(hits)
        obs.counter("engine.cache.misses").inc(len(pending) + len(followers))
        if followers:
            obs.counter("engine.batch.deduplicated").inc(len(followers))
        if evictions:
            obs.counter("engine.cache.evictions").inc(evictions)
        obs.histogram("engine.batch.size", scheme="count").observe(float(len(queries)))
        obs.histogram("engine.batch.seconds").observe(wall, exemplar=batch_trace)
        return BatchReport(
            answers=answers,
            alpha=alpha,
            executor=executor,
            workers=run_workers,
            wall_seconds=wall,
            cache_hits=hits,
            cache_misses=len(pending) + len(followers),
            chunks=len(tasks),
            kinds=kinds,
            deduplicated=len(followers),
        )

    def answer_batch(
        self,
        queries: Sequence[EngineQuery],
        alpha: float,
        executor: str = "serial",
        workers: Optional[int] = None,
    ) -> List[Any]:
        """Like :meth:`run_batch` but returns just the answers."""
        return self.run_batch(queries, alpha, executor=executor, workers=workers).answers

    # ------------------------------------------------------------------ #
    # Convenience entry points for the two query classes
    # ------------------------------------------------------------------ #
    def answer_reachability(
        self,
        pairs: Sequence[Tuple[NodeId, NodeId]],
        alpha: float,
        executor: str = "serial",
        workers: Optional[int] = None,
    ) -> Dict[Tuple[NodeId, NodeId], bool]:
        """Answer ``(source, target)`` pairs; drop-in for ``RBReach.query_many``."""
        queries = [ReachQuery(source, target) for source, target in pairs]
        answers = self.answer_batch(queries, alpha, executor=executor, workers=workers)
        return {pair: answer.reachable for pair, answer in zip(pairs, answers)}

    def answer_patterns(
        self,
        queries: Sequence[Tuple[GraphPattern, NodeId]],
        alpha: float,
        semantics: str = SIMULATION,
        executor: str = "serial",
        workers: Optional[int] = None,
    ) -> List[Any]:
        """Answer ``(pattern, personalized_match)`` pairs under one semantics."""
        batch = [
            PatternQuery(pattern, personalized_match, semantics=semantics)
            for pattern, personalized_match in queries
        ]
        return self.answer_batch(batch, alpha, executor=executor, workers=workers)


__all__ = ["BatchReport", "QueryEngine", "UpdateReport", "default_workers"]
