"""``ShardedEngine`` — scatter–gather query serving over partitioned shards.

Routing follows the locality of the paper's semantics:

* a :class:`PatternQuery` goes to the *home shard* of its personalized match
  ``v_p``.  When the ``d_Q``-ball around ``v_p`` is contained in the home
  shard's core the query is answered entirely shard-locally — and, because
  the shard evaluates under the *global* budget parameters on an
  order-exact subgraph, the answer is bit-identical to single-graph
  evaluation.  When the ball escapes, the engine falls back to the
  neighbouring shards: it assembles the evaluation region from owner-shard
  fragments (never the full graph) and answers on that.
* a :class:`ReachQuery` with both endpoints in one shard is answered by the
  shard's local ``RBReach``; a positive local answer is final (shard paths
  are real paths).  A local miss — and every cross-shard pair — scatters
  budgeted *boundary probes* to the participating shards (which boundary
  components does the source reach / does the target get reached from?) and
  gathers them through the :class:`~repro.shard.boundary.BoundaryGraph`,
  whose landmark labels compose the shard-local answers.  The global
  ``α·|G|`` visit budget is split into thirds across the forward probe, the
  backward probe and the boundary composition.

**Contract** (property-tested in ``tests/test_shard.py``): answers are never
false positives, for any ``k``; and whenever a query is shard-contained —
always at ``k = 1`` — answers are bit-identical to an unsharded
:class:`~repro.service.GraphService`, for either executor and any worker count.

Shard chunks run through the same two executors the engine offers: inline
(``serial``) or on the engine's warm daemon pool (``daemon``), whose workers
keep every shard's prepared state attached across batches.

The engine holds no mutable graph of its own.  :meth:`ShardedEngine.reset`
re-prepares it on an updated graph — partition, shards and boundary built
from scratch, exactly as the constructor builds them — so a reset engine
answers like a fresh one; ``GraphService.update`` calls it with the graph
its single engine serves.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.rbsim import PatternAnswer, RBSim, RBSimConfig
from repro.core.rbsub import RBSub, RBSubConfig
from repro.engine.daemons import DaemonPool
from repro.engine.executors import check_executor, chunked
from repro.engine.prepared import PreparedGraph
from repro.engine.queries import REACH, SIMULATION, SUBGRAPH, EngineQuery
from repro.exceptions import EngineError
from repro.graph.csr import CSRGraph, freeze
from repro.graph.digraph import DiGraph, NodeId
from repro.graph.protocol import GraphLike
from repro.reachability.rbreach import ReachabilityAnswer
from repro.shard.boundary import DEFAULT_BOUNDARY_ALPHA, BoundaryGraph
from repro.shard.partition import GREEDY, Partition, partition_graph
from repro.shard.shards import (
    DEFAULT_HALO_DEPTH,
    GraphShard,
    assemble_region,
    build_shards,
)

PROBE = "probe"
"""Internal task kind: budgeted boundary-component probe on one shard."""

PATTERN_FALLBACK_MARGIN = 3
"""Extra hops assembled past the ``d_Q``-ball for spilled pattern queries —
the same read margin the halo depth guarantees (see ``repro.shard.shards``)."""


@dataclass(frozen=True)
class ShardState:
    """The per-shard state shipped to executor workers (read-only)."""

    prepared: PreparedGraph
    boundary_comps: FrozenSet[NodeId]
    #: first-hit boundary labels per local component (see repro.shard.boundary).
    forward_labels: Dict[NodeId, Any] = field(default_factory=dict)
    backward_labels: Dict[NodeId, Any] = field(default_factory=dict)


def boundary_probe(
    state: ShardState,
    node: NodeId,
    forward: bool,
) -> Tuple[FrozenSet[NodeId], int]:
    """Boundary components reachable from ``node`` (or reaching it).

    An O(1) lookup in the shard's precomputed first-hit boundary labels: a
    boundary component resolves to itself, anything else to its label set
    (capped offline — truncation only loses recall, never soundness).  The
    quotient's intra-shard edges recover every boundary component behind a
    first hit, so first-hit sets compose exactly like full reach sets.
    Returns ``(hit components, items charged)``.
    """
    compressed = state.prepared.compressed()
    if node not in compressed.original:
        return frozenset(), 0
    comp = compressed.component_of(node)
    if comp in state.boundary_comps:
        return frozenset((comp,)), 1
    table = state.forward_labels if forward else state.backward_labels
    hits = frozenset(table.get(comp, ()))
    return hits, 1 + len(hits)


def answer_shard_chunk(states: Dict[int, ShardState], task: Any) -> List[Tuple[int, Any]]:
    """The one chunk function both executors run for the sharded engine.

    ``task`` is ``(kind, shard_id, alpha, items, budgets)``; results come
    back as ``(batch position, payload)`` pairs.  Like the single-graph
    chunk function it is pure per item against read-only state, which is
    what makes answers independent of the executor and the chunking.
    """
    kind, shard_id, alpha, items, _budgets = task
    state = states[shard_id]
    if kind == REACH:
        matcher = state.prepared.rbreach(alpha)
        # The whole chunk crosses the kernel seam as one batched entry;
        # boundary probing stays per unresolved item afterwards.
        answers = matcher.query_batch([(source, target) for _, source, target in items])
        results: List[Tuple[int, Any]] = []
        for (index, source, target), answer in zip(items, answers):
            if answer.reachable or not state.boundary_comps:
                results.append((index, (answer, None, None)))
            else:
                exits = boundary_probe(state, source, True)
                entries = boundary_probe(state, target, False)
                results.append((index, (answer, exits, entries)))
        return results
    if kind == PROBE:
        return [
            (index, (forward,) + boundary_probe(state, node, forward))
            for index, node, forward in items
        ]
    if kind == SIMULATION:
        matcher = state.prepared.rbsim(alpha)
    else:
        matcher = state.prepared.rbsub(alpha)
    return [
        (index, matcher.answer(query.pattern, query.personalized_match))
        for index, query in items
    ]


@dataclass
class ShardBatchReport:
    """Answers plus scatter–gather telemetry of one sharded batch."""

    answers: List[Any]
    alpha: float
    executor: str
    workers: int
    wall_seconds: float
    chunks: int = 0
    kinds: Dict[str, int] = field(default_factory=dict)
    #: queries routed per shard (home-shard tasks plus probe tasks).
    per_shard: Dict[int, int] = field(default_factory=dict)
    local_reach: int = 0
    cross_reach: int = 0
    miss_composed: int = 0
    pattern_contained: int = 0
    pattern_spilled: int = 0
    spill_shards_touched: int = 0

    @property
    def throughput(self) -> float:
        """Queries answered per second of wall time."""
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.answers) / self.wall_seconds

    @property
    def spillover_fraction(self) -> float:
        """Share of the batch that needed more than its home shard."""
        total = len(self.answers)
        if total == 0:
            return 0.0
        return (self.cross_reach + self.miss_composed + self.pattern_spilled) / total


class ShardedEngine:
    """Partitioned serving: per-shard prepared state behind scatter–gather routing.

    Parameters
    ----------
    graph:
        The data graph to partition and serve.
    num_shards / method / seed:
        Partitioning configuration (see :mod:`repro.shard.partition`);
        alternatively pass a prebuilt ``partition`` (used for this first
        build only: :meth:`reset` partitions with ``k``, ``method`` and
        ``seed``).
    halo_depth:
        Ghost-region depth of each shard graph (≥ 1; the default of 3 is
        the pattern-parity margin, see :mod:`repro.shard.shards`).
    boundary_alpha:
        Resource ratio of the boundary landmark index.
    """

    def __init__(
        self,
        graph: GraphLike,
        num_shards: int = 4,
        method: str = GREEDY,
        seed: int = 0,
        halo_depth: int = DEFAULT_HALO_DEPTH,
        boundary_alpha: float = DEFAULT_BOUNDARY_ALPHA,
        partition: Optional[Partition] = None,
    ):
        self._method = method
        self._seed = seed
        self._halo_depth = halo_depth
        self._boundary_alpha = boundary_alpha
        # Warm daemon pool (created on first ``executor="daemon"`` batch);
        # the epoch versions the shard states the daemons hold, alongside
        # each shard's prepared-state signature.
        self._daemon_pool: Optional[DaemonPool] = None
        self._states_epoch = 0
        frozen = freeze(graph)
        self._build(
            frozen,
            partition
            if partition is not None
            else partition_graph(frozen, num_shards, method=method, seed=seed),
        )

    def reset(self, graph: GraphLike) -> "ShardedEngine":
        """Re-prepare on ``graph``: partition, shards and boundary from scratch.

        Runs the construction path with the same ``k``, method, seed, halo
        depth and boundary α, so the engine afterwards answers exactly like
        ``ShardedEngine(graph, ...)``.  The daemon pool stays warm; the
        bumped state epoch makes its workers republish before the next
        batch.  Returns ``self``.
        """
        frozen = freeze(graph)
        self._build(
            frozen,
            partition_graph(frozen, self.num_shards, method=self._method, seed=self._seed),
        )
        return self

    def _build(self, frozen: CSRGraph, partition: Partition) -> None:
        """Shards over ``partition`` of the freeze; the boundary waits for first use."""
        self.partition = partition
        # The freeze's columns give |G| and d_G, the global pattern budget.
        self._global_size = frozen.size()
        self._visit_coefficient = float(max(1, frozen.max_degree()))
        self.shards: Dict[int, GraphShard] = build_shards(
            frozen, partition, halo_depth=self._halo_depth
        )
        self._boundary: Optional[BoundaryGraph] = None
        self._states_epoch += 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        """``k``."""
        return self.partition.num_shards

    @property
    def boundary(self) -> BoundaryGraph:
        """The boundary graph, built on first use (empty at ``k = 1``)."""
        if self._boundary is None:
            self._boundary = BoundaryGraph.build(
                self.shards, self.partition, boundary_alpha=self._boundary_alpha
            )
        return self._boundary

    def daemon_pool(self, workers: Optional[int] = None) -> DaemonPool:
        """The engine's warm worker pool, created on first use.

        Daemons hold the full shard-state table attached (every shard's CSR
        arrays live in shared memory), so steady-state scatter batches ship
        only query chunks.  The first call fixes the worker count (later
        ``workers`` arguments are ignored while the pool lives).  Pair with :meth:`close` — or use the engine as a
        context manager — to tear the daemons and their segments down.
        """
        if self._daemon_pool is None or self._daemon_pool.closed:
            self._daemon_pool = DaemonPool(workers)
        return self._daemon_pool

    def close(self) -> None:
        """Shut down the daemon pool (if any); idempotent, engine stays usable."""
        if self._daemon_pool is not None:
            self._daemon_pool.close()
            self._daemon_pool = None

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _states_version(self) -> Tuple[Any, ...]:
        """Version token for the daemon-held shard states.

        Changes exactly when the daemons' attached state must change: a
        :meth:`reset` (epoch), the boundary graph coming into existence,
        or any shard lazily building new prepared state (signatures).
        """
        return (
            self._states_epoch,
            self._boundary is not None,
            tuple(
                (shard_id, self.shards[shard_id].prepared.state_signature())
                for shard_id in sorted(self.shards)
            ),
        )

    def describe(self) -> Dict[str, Any]:
        """Partition/boundary statistics for reporting."""
        sizes = self.partition.shard_sizes()
        return {
            "num_shards": self.num_shards,
            "method": self.partition.method,
            "seed": self.partition.seed,
            "shard_nodes": sizes,
            "shard_core_sizes": {sid: shard.core_size for sid, shard in self.shards.items()},
            "halo_nodes": {sid: len(shard.halo) for sid, shard in self.shards.items()},
            "cut_edges": self.partition.cut_edges,
            "cut_fraction": self.partition.cut_fraction(),
            "boundary_fraction": self.partition.boundary_fraction(),
            "boundary_supernodes": self.boundary.num_supernodes(),
            "boundary_edges": self.boundary.num_edges(),
            "cross_shard_routes": {
                f"{source}->{target}": count
                for (source, target), count in sorted(self.boundary.cross_counts.items())
            },
        }

    def prepare(
        self,
        reach_alphas: Sequence[float] = (),
        pattern_alphas: Sequence[float] = (),
        subgraph_alphas: Sequence[float] = (),
    ) -> "ShardedEngine":
        """Eagerly build every shard's state (and the boundary graph)."""
        kinds = ((REACH, reach_alphas), (SIMULATION, pattern_alphas), (SUBGRAPH, subgraph_alphas))
        for shard in self.shards.values():
            for kind, alphas in kinds:
                for alpha in alphas:
                    shard.prepared.prepare(kind, alpha)
        if reach_alphas and self.num_shards > 1:
            self.boundary
        return self

    # ------------------------------------------------------------------ #
    # Batch answering
    # ------------------------------------------------------------------ #
    def run_batch(
        self,
        queries: Sequence[EngineQuery],
        alpha: float,
        executor: str = "serial",
        workers: Optional[int] = None,
    ) -> ShardBatchReport:
        """Scatter the batch across shards, gather and compose the answers.

        Answers come back in input order and with the same value types as
        :meth:`GraphService.run_batch`.  Never a false positive; bit-identical
        to the unsharded service for shard-contained queries.
        """
        if not 0 < alpha <= 1:
            raise EngineError(f"alpha must be in (0, 1], got {alpha}")
        check_executor(executor)
        # Chunk sizing and the report take the worker count of the pool the
        # batch runs on: a live pool ignores a later ``workers``.
        pool = self.daemon_pool(workers) if executor == "daemon" else None
        started = time.perf_counter()

        answers: List[Any] = [None] * len(queries)
        report = ShardBatchReport(
            answers=answers,
            alpha=alpha,
            executor=executor,
            workers=pool.workers if pool is not None else 1,
            wall_seconds=0.0,
        )
        # The α·|G| budget splits across the participants: each home shard's
        # local RBReach is bounded by its own α-share of the index, the
        # exit/entry labels are precomputed offline, and the boundary
        # composition spends at most half the global allowance.
        budget_total = max(1, math.floor(alpha * self._global_size))
        share = max(1, budget_total // 2)

        reach_items: Dict[int, List[Tuple[int, NodeId, NodeId]]] = {}
        probe_items: Dict[int, List[Tuple[int, NodeId, bool]]] = {}
        pattern_items: Dict[Tuple[int, str], List[Tuple[int, Any]]] = {}
        cross_pending: Dict[int, Dict[str, Any]] = {}
        fallbacks: List[Tuple[int, Any]] = []

        for position, query in enumerate(queries):
            report.kinds[query.kind] = report.kinds.get(query.kind, 0) + 1
            if query.kind == REACH:
                source_shard = self.partition.shard_of(query.source)
                target_shard = self.partition.shard_of(query.target)
                if source_shard is None or target_shard is None:
                    # Same answer the single-graph matcher gives for unknown
                    # endpoints, produced without touching any shard.
                    answers[position] = ReachabilityAnswer(reachable=False)
                    continue
                if source_shard == target_shard:
                    reach_items.setdefault(source_shard, []).append(
                        (position, query.source, query.target)
                    )
                    report.local_reach += 1
                else:
                    probe_items.setdefault(source_shard, []).append(
                        (position, query.source, True)
                    )
                    probe_items.setdefault(target_shard, []).append(
                        (position, query.target, False)
                    )
                    cross_pending[position] = {
                        "exit_shard": source_shard,
                        "entry_shard": target_shard,
                    }
                    report.cross_reach += 1
            else:
                match = query.personalized_match
                home = self.partition.shard_of(match)
                if home is None:
                    # Matchers answer empty for an absent personalized match.
                    answers[position] = PatternAnswer(answer=set(), subgraph=DiGraph())
                    continue
                if self.shards[home].ball_in_core(match, query.pattern.diameter()):
                    pattern_items.setdefault((home, query.kind), []).append((position, query))
                    report.pattern_contained += 1
                else:
                    fallbacks.append((position, query))
                    report.pattern_spilled += 1

        multi = self.num_shards > 1
        if multi and (reach_items or probe_items):
            self.boundary  # built before states are assembled and shipped
        for shard_id in set(reach_items) | set(probe_items):
            self.shards[shard_id].prepared.prepare(REACH, alpha)
        for shard_id, kind in pattern_items:
            self.shards[shard_id].prepared.prepare(kind, alpha)

        states = {}
        for shard_id, shard in self.shards.items():
            # Read the boundary only when the guard above already built it:
            # pattern-only batches never consult boundary state and must not
            # pay the quotient construction.
            contribution = (
                self._boundary.contribution(shard_id)
                if multi and self._boundary is not None
                else None
            )
            states[shard_id] = ShardState(
                prepared=shard.prepared,
                boundary_comps=contribution.boundary_comps if contribution else frozenset(),
                forward_labels=contribution.forward_labels if contribution else {},
                backward_labels=contribution.backward_labels if contribution else {},
            )

        # (kind, shard, items) groups in dispatch order: local reach, probes,
        # then pattern queries per (shard, semantics).
        groups: List[Tuple[str, int, Sequence[Any]]] = [
            (REACH, shard_id, reach_items[shard_id]) for shard_id in sorted(reach_items)
        ]
        groups += [(PROBE, shard_id, probe_items[shard_id]) for shard_id in sorted(probe_items)]
        groups += [
            (kind, shard_id, pattern_items[(shard_id, kind)])
            for shard_id, kind in sorted(pattern_items)
        ]
        tasks: List[Any] = []
        chunk_groups = chunked([items for _, _, items in groups], report.workers)
        for (kind, shard_id, items), chunks in zip(groups, chunk_groups):
            report.per_shard[shard_id] = report.per_shard.get(shard_id, 0) + len(items)
            tasks.extend((kind, shard_id, alpha, chunk, None) for chunk in chunks)
        report.chunks = len(tasks)

        with obs.span("shard.batch", executor=executor, chunks=len(tasks)):
            batch_trace = obs.context.trace_id()
            if pool is None:
                chunk_results = [answer_shard_chunk(states, task) for task in tasks]
            else:
                # Versioned after shard preparation, so the token reflects what
                # this batch needs; the fresh per-batch ``states`` dict is only
                # republished when the token moves.
                chunk_results = pool.run(
                    states,
                    tasks,
                    chunk_fn=answer_shard_chunk,
                    version=self._states_version(),
                )

        probe_results: Dict[int, Dict[bool, Tuple[FrozenSet[NodeId], int]]] = {}
        for task, results in zip(tasks, chunk_results):
            kind, shard_id = task[0], task[1]
            if kind == REACH:
                for position, (local, exits, entries) in results:
                    if exits is None:
                        answers[position] = local
                        continue
                    report.miss_composed += 1
                    answers[position] = self._compose_answer(
                        local, exits, entries, shard_id, shard_id, share
                    )
            elif kind == PROBE:
                for position, (forward, hits, charged) in results:
                    probe_results.setdefault(position, {})[forward] = (hits, charged)
            else:
                for position, answer in results:
                    answers[position] = answer

        for position, pending_record in cross_pending.items():
            exits = probe_results.get(position, {}).get(True, (frozenset(), 0))
            entries = probe_results.get(position, {}).get(False, (frozenset(), 0))
            answers[position] = self._compose_answer(
                None,
                exits,
                entries,
                pending_record["exit_shard"],
                pending_record["entry_shard"],
                share,
            )

        for position, query in fallbacks:
            answer, touched = self._answer_fallback(query, alpha)
            answers[position] = answer
            report.spill_shards_touched += touched

        report.wall_seconds = time.perf_counter() - started
        obs.counter("shard.batches").inc()
        obs.histogram("shard.scatter.fanout", scheme="count").observe(
            float(len(report.per_shard))
        )
        obs.counter("shard.reach.local").inc(report.local_reach)
        obs.counter("shard.reach.cross").inc(report.cross_reach)
        # Queries that escaped their home shard: cross-shard reach, local
        # probes that missed into boundary composition, spilled patterns.
        # The exemplar pins the spillover to this batch's trace, so the
        # known spillover soft spot is attributable to concrete queries.
        spilled = report.cross_reach + report.miss_composed + report.pattern_spilled
        obs.counter("shard.spillover").inc(
            spilled, exemplar=batch_trace if spilled else None
        )
        obs.counter("shard.boundary.probes").inc(
            sum(len(items) for items in probe_items.values())
        )
        return report

    def answer_batch(
        self,
        queries: Sequence[EngineQuery],
        alpha: float,
        executor: str = "serial",
        workers: Optional[int] = None,
    ) -> List[Any]:
        """Like :meth:`run_batch` but returns just the answers."""
        return self.run_batch(queries, alpha, executor=executor, workers=workers).answers

    def _compose_answer(
        self,
        local: Optional[ReachabilityAnswer],
        exits: Tuple[FrozenSet[NodeId], int],
        entries: Tuple[FrozenSet[NodeId], int],
        exit_shard: int,
        entry_shard: int,
        share: int,
    ) -> ReachabilityAnswer:
        """Gather one reach query: local miss (or cross pair) + boundary."""
        exit_comps, exit_charged = exits
        entry_comps, entry_charged = entries
        reachable, composed_visited, met, exhausted = self.boundary.compose(
            exit_comps, entry_comps, exit_shard, entry_shard, share
        )
        visited = exit_charged + entry_charged + composed_visited
        if local is not None:
            visited += local.visited
            exhausted = exhausted or local.exhausted
        return ReachabilityAnswer(
            reachable=reachable,
            visited=visited,
            met_at=met,
            exhausted=exhausted,
        )

    def _answer_fallback(self, query, alpha: float) -> Tuple[PatternAnswer, int]:
        """A spilled pattern query: assemble the region, answer on it.

        The region (ball plus the matchers' read margin) is stitched from
        owner-shard fragments with both adjacency orders preserved, and the
        matcher runs under the global budget parameters — so even the
        fallback usually reproduces the single-graph answer; only the
        containment case is *contractually* bit-identical.
        """
        radius = query.pattern.diameter() + PATTERN_FALLBACK_MARGIN
        region, touched = assemble_region(
            self.shards, self.partition, query.personalized_match, radius
        )
        if query.kind == SIMULATION:
            matcher = RBSim(
                region,
                alpha,
                config=RBSimConfig(visit_coefficient=self._visit_coefficient),
                reference_size=self._global_size,
            )
        else:
            matcher = RBSub(
                region,
                alpha,
                config=RBSubConfig(visit_coefficient=self._visit_coefficient),
                reference_size=self._global_size,
            )
        return matcher.answer(query.pattern, query.personalized_match), touched


__all__ = [
    "PATTERN_FALLBACK_MARGIN",
    "ShardBatchReport",
    "ShardState",
    "ShardedEngine",
    "answer_shard_chunk",
    "boundary_probe",
]
