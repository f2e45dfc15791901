"""Batch execution: one pure chunk function, run inline or on warm daemons.

``GraphService`` and the sharded engine cut a batch into order-preserving
chunks (:func:`chunked`) and answer each chunk with a pure chunk function
(:func:`answer_chunk` here, ``answer_shard_chunk`` for the sharded engine).  The parity contract rests on
that purity: every query is answered independently by a deterministic matcher
against shared read-only prepared state, so neither the executor nor the
chunk boundaries (which *do* vary with the worker count) can influence an
answer.  Keep chunk handling stateless — any per-chunk state (memos,
budgets) would silently break the bit-identical guarantee the engine
promises and tests.  The executor only chooses where chunks run:

* ``serial`` — inline, in order, in the calling thread (the reference path);
* ``daemon`` — on the owner's warm :class:`~repro.engine.daemons.DaemonPool`,
  whose workers are forks of the prepared state, warm across batches.
"""

from __future__ import annotations

import os
from typing import Any, List, Sequence, Tuple

from repro.exceptions import EngineError
from repro.engine.prepared import PreparedGraph
from repro.engine.queries import REACH, SIMULATION, SUBGRAPH
from repro.obs import trace

EXECUTOR_NAMES = ("serial", "daemon")
"""The executors ``run_batch`` accepts."""

DEFAULT_CHUNKS_PER_WORKER = 4
"""Chunks handed to each worker on average; >1 smooths uneven chunk costs."""

Task = Tuple[str, float, Sequence[Any]]
"""One unit of work: ``(kind, alpha, queries)``."""


def default_workers() -> int:
    """Worker count used when the caller does not pick one.

    Prefers the *schedulable* core count (cgroup/affinity aware) over the
    raw ``os.cpu_count()`` so containers get a sensible default.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def check_executor(name: str) -> None:
    """Raise :class:`EngineError` unless ``name`` is one of :data:`EXECUTOR_NAMES`."""
    if name not in EXECUTOR_NAMES:
        raise EngineError(
            f"unknown executor {name!r}; use one of {', '.join(EXECUTOR_NAMES)}"
        )


def chunked(groups: Sequence[Sequence[Any]], workers: int) -> List[List[Sequence[Any]]]:
    """Split each group into order-preserving chunks of one shared size.

    The size gives the whole batch about :data:`DEFAULT_CHUNKS_PER_WORKER`
    chunks per worker; a chunk never mixes groups.
    """
    pending = sum(len(group) for group in groups)
    size = max(1, -(-pending // (max(1, workers) * DEFAULT_CHUNKS_PER_WORKER)))
    return [
        [group[start : start + size] for start in range(0, len(group), size)] for group in groups
    ]


def answer_chunk(prepared: PreparedGraph, task: Task) -> List[Any]:
    """Answer one chunk of same-kind queries against the prepared state.

    This is the single function both executors run; it is deliberately free
    of executor-specific state so that the serial path *is* the parallel
    path run inline.
    """
    kind, alpha, queries = task
    with trace.span("executor.chunk", kind=kind, queries=len(queries)):
        if kind == REACH:
            # One batched kernel entry per chunk: the whole sub-batch crosses
            # the dispatch seam together instead of one query at a time.
            matcher = prepared.rbreach(alpha)
            return matcher.query_batch([(query.source, query.target) for query in queries])
        if kind == SIMULATION:
            matcher = prepared.rbsim(alpha)
            return [
                matcher.answer(query.pattern, query.personalized_match) for query in queries
            ]
        if kind == SUBGRAPH:
            matcher = prepared.rbsub(alpha)
            return [
                matcher.answer(query.pattern, query.personalized_match) for query in queries
            ]
    raise EngineError(f"unknown query kind {kind!r}")
