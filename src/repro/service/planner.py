"""The auto-planner: route each batch to the right backend.

:class:`~repro.service.GraphService` serves three execution paths:

* the **serial** single-graph path (the reference semantics);
* the **parallel** single-graph path over the service's warm daemon pool
  (bit-identical to serial by the executor-parity contract);
* the **sharded** :class:`~repro.shard.ShardedEngine` (PR 4), used under
  the containment rule that keeps bit-parity.

The planner is deliberately *pure*: :meth:`Planner.plan_batch` maps
``(batch size, graph size, core count, config)`` to a :class:`Plan` with no
hidden state, so routing is deterministic, unit-testable without building
engines, and every decision carries a human-readable ``reason``.

**Contract** (property-tested in ``tests/test_service.py``): whatever the
plan, answers are bit-identical to the serial path.  Serial/parallel
inherit the executor-parity contract; the sharded route is only taken
for shard-contained queries (the containment parity rule) — spillover answers on
the single graph instead of scatter–gather, unless the config
explicitly opts into :data:`~repro.service.config.SCATTER`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine.daemons import fork_available
from repro.engine.executors import default_workers
from repro.service.config import AUTO, SCATTER, ServiceConfig

SERIAL = "serial"
"""Routing decision: answer inline on the single-graph engine."""

PARALLEL = "parallel"
"""Routing decision: single-graph engine over a worker pool."""

SHARDED = "sharded"
"""Routing decision: shard-contained queries scatter to the shard engines."""

BACKENDS = (SERIAL, PARALLEL, SHARDED)

MIN_PARALLEL_CORES = 4
"""Auto mode only reaches for the daemon pool with this many schedulable
cores: below it, pipe transit and pickling eat the win (the engine
benchmark measures the daemon pool *losing* to serial on 1–2 core runners),
and the planner's contract is to never be slower than the naive serial
default."""

SMALL_GRAPH_SIZE = 512
"""Auto mode answers graphs below this many nodes serially: per-query work
is too cheap to ship to a worker."""

PARALLEL_THRESHOLD = 256
"""Auto mode answers batches below this many queries serially: pool
startup would dominate."""

@dataclass(frozen=True)
class Plan:
    """One routing decision for one batch."""

    backend: str
    executor: str
    workers: Optional[int]
    reason: str

    @property
    def parallel(self) -> bool:
        """Whether a worker pool is involved at all."""
        return self.executor != SERIAL


class Planner:
    """Pure routing policy over a :class:`ServiceConfig`."""

    def __init__(self, config: ServiceConfig):
        self.config = config

    # ------------------------------------------------------------------ #
    # Batches
    # ------------------------------------------------------------------ #
    def choose_executor(
        self, num_queries: int, graph_size: int, cores: Optional[int] = None
    ) -> "tuple[str, Optional[int], str]":
        """``(executor, workers, reason)`` for one batch.

        A configured executor always wins.  Under ``auto`` the pool is worth
        its startup only when the batch is big enough to amortise it and the
        graph is big enough that per-query work dominates dispatch
        (:data:`PARALLEL_THRESHOLD`, :data:`SMALL_GRAPH_SIZE`), and only with
        at least :data:`MIN_PARALLEL_CORES` schedulable cores on a platform
        that can ``fork`` the daemons.
        """
        config = self.config
        if config.executor != AUTO:
            return (
                config.executor,
                config.workers,
                f"executor {config.executor!r} forced by config",
            )
        cores = cores if cores is not None else default_workers()
        if cores < MIN_PARALLEL_CORES:
            return (
                SERIAL,
                None,
                f"auto: {cores} schedulable core(s) < {MIN_PARALLEL_CORES}, "
                "pool startup would not pay for itself",
            )
        if not fork_available():
            return (SERIAL, None, "auto: no 'fork' start method, the daemon pool cannot start")
        if graph_size < SMALL_GRAPH_SIZE:
            return (
                SERIAL,
                None,
                f"auto: graph size {graph_size} < small_graph_size "
                f"{SMALL_GRAPH_SIZE}, per-query work too cheap to ship",
            )
        if num_queries < PARALLEL_THRESHOLD:
            return (
                SERIAL,
                None,
                f"auto: batch of {num_queries} < parallel_threshold "
                f"{PARALLEL_THRESHOLD}, pool startup would dominate",
            )
        workers = config.workers or cores
        return (
            "daemon",
            workers,
            f"auto: batch of {num_queries} on a size-{graph_size} graph, "
            f"{workers} daemon workers",
        )

    def plan_batch(
        self, num_queries: int, graph_size: int, cores: Optional[int] = None
    ) -> Plan:
        """Route one batch: serial, parallel, or sharded.

        The sharded backend is chosen whenever the service is configured
        with ``num_shards > 1`` — which queries actually scatter to shards
        is then the containment split (or everything, under the explicit
        ``scatter`` policy); the executor choice applies to whichever
        engines run.
        """
        executor, workers, reason = self.choose_executor(num_queries, graph_size, cores)
        # An explicit scatter policy asks for the sharded engine even at
        # k = 1 (where it is bit-identical to the single-graph engine).
        if self.config.num_shards > 1 or self.config.shard_policy == SCATTER:
            return Plan(
                backend=SHARDED,
                executor=executor,
                workers=workers,
                reason=f"k={self.config.num_shards} shards configured; {reason}",
            )
        backend = SERIAL if executor == SERIAL else PARALLEL
        return Plan(backend=backend, executor=executor, workers=workers, reason=reason)


__all__ = [
    "BACKENDS",
    "PARALLEL",
    "Plan",
    "Planner",
    "SERIAL",
    "SHARDED",
]
