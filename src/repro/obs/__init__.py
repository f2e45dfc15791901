"""repro.obs — dependency-free observability for the serving stack.

Four small pieces:

* :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket histograms
  in a process-local registry with a mergeable snapshot format (daemon
  workers drain theirs and ship the delta back over the task pipes);
  latency buckets carry **exemplars**: the last trace ID per bucket;
* :mod:`repro.obs.trace` — per-stage wall/CPU span contexts emitted as
  JSON lines, off by default;
* :mod:`repro.obs.context` — propagable trace/span identity
  (:class:`~repro.obs.context.TraceContext` rides pipe messages and chunk
  payloads so worker spans parent correctly across processes);
* :mod:`repro.obs.flight` — a bounded flight recorder of recently
  assembled per-query timelines plus a slow-query log.

``CATALOG`` below is the single source of truth for every metric the
stack may register: name → (kind, unit, emitting module).  The table in
``docs/OBSERVABILITY.md`` is generated from the same names, and
``tests/test_obs.py`` fails if either the docs or the live registry
drift from it.  ``SPANS`` plays the same role for trace span names.
"""

from __future__ import annotations

import os
import threading

from repro.obs import context, trace
from repro.obs.context import TraceContext
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    enabled,
    format_snapshot,
    gauge,
    histogram,
    merge_snapshots,
    percentile_from_snapshot,
    set_enabled,
    snapshot,
    write_snapshot,
)
from repro.obs.trace import span
from repro.obs import flight  # noqa: E402  (needs metrics + trace initialised)


def _fresh_locks_in_child() -> None:
    """Re-create the registry, trace and flight-recorder locks in a forked child.

    A fork copies each lock in whatever state a parent thread left it: one
    held by a parent thread at the fork stays held forever in the child,
    and a daemon worker's first ``REGISTRY.reset()`` would deadlock.
    """
    REGISTRY._lock = threading.Lock()
    trace._lock = threading.Lock()
    recorder = flight.recorder()
    if recorder is not None:
        recorder._lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX; elsewhere nothing forks
    os.register_at_fork(after_in_child=_fresh_locks_in_child)


#: Every metric the stack may register: name -> (kind, unit, emitting module).
CATALOG = {
    # service façade (repro/service/service.py)
    "service.batches": ("counter", "batches", "repro.service.service"),
    "service.queries": ("counter", "queries", "repro.service.service"),
    "service.batch.seconds": ("histogram", "seconds", "repro.service.service"),
    "service.updates": ("counter", "updates", "repro.service.service"),
    "service.update.seconds": ("histogram", "seconds", "repro.service.service"),
    # async front-end + admission control (repro/service/aio.py)
    "service.submitted": ("counter", "requests", "repro.service.aio"),
    "service.streamed": ("counter", "requests", "repro.service.aio"),
    "service.admission.waits": ("counter", "waits", "repro.service.aio"),
    "service.admission.wait.seconds": ("histogram", "seconds", "repro.service.aio"),
    "service.inflight": ("gauge", "requests", "repro.service.aio"),
    "service.flush.size": ("histogram", "requests", "repro.service.aio"),
    # batch loop (repro/service/service.py)
    "engine.batches": ("counter", "batches", "repro.service.service"),
    "engine.batch.size": ("histogram", "queries", "repro.service.service"),
    "engine.batch.seconds": ("histogram", "seconds", "repro.service.service"),
    "engine.cache.hits": ("counter", "queries", "repro.service.service"),
    "engine.cache.misses": ("counter", "queries", "repro.service.service"),
    "engine.cache.evictions": ("counter", "entries", "repro.service.service"),
    "engine.batch.deduplicated": ("counter", "queries", "repro.service.service"),
    # shared invalidation oracle (repro/engine/cache.py + service/service.py)
    "cache.invalidated": ("counter", "entries", "repro.engine.cache"),
    "cache.retained": ("counter", "entries", "repro.service.service"),
    "engine.executor.serial": ("counter", "batches", "repro.service.service"),
    "engine.executor.daemon": ("counter", "batches", "repro.service.service"),
    # daemon pool, parent side (repro/engine/daemons.py)
    "daemon.restarts": ("counter", "workers", "repro.engine.daemons"),
    "daemon.retries": ("counter", "chunks", "repro.engine.daemons"),
    "daemon.publishes": ("counter", "fork rounds", "repro.engine.daemons"),
    "daemon.ping.seconds": ("histogram", "seconds", "repro.engine.daemons"),
    "daemon.worker.rss.bytes": ("histogram", "bytes", "repro.engine.daemons"),
    # daemon workers (merged into the parent registry via drained snapshots)
    "daemon.worker.chunks": ("counter", "chunks", "repro.engine.daemons"),
    "daemon.worker.chunk.seconds": ("histogram", "seconds", "repro.engine.daemons"),
    # sharded scatter–gather (repro/shard/engine.py)
    "shard.batches": ("counter", "batches", "repro.shard.engine"),
    "shard.scatter.fanout": ("histogram", "shards", "repro.shard.engine"),
    "shard.reach.local": ("counter", "queries", "repro.shard.engine"),
    "shard.reach.cross": ("counter", "queries", "repro.shard.engine"),
    "shard.spillover": ("counter", "queries", "repro.shard.engine"),
    "shard.boundary.probes": ("counter", "probes", "repro.shard.engine"),
    # once-per-graph prepare stages (repro/engine/prepared.py)
    "prepare.freeze.seconds": ("histogram", "seconds", "repro.engine.prepared"),
    "prepare.compress.seconds": ("histogram", "seconds", "repro.engine.prepared"),
    "prepare.index.seconds": ("histogram", "seconds", "repro.engine.prepared"),
    "prepare.thaw.seconds": ("histogram", "seconds", "repro.engine.prepared"),
    # one per structure an update materialised from its columns (first patch)
    "prepare.thaw.condensation": ("counter", "structures", "repro.engine.prepared"),
    "prepare.thaw.labels": ("counter", "structures", "repro.engine.prepared"),
    # incremental updates (repro/engine/prepared.py)
    "update.noop": ("counter", "updates", "repro.engine.prepared"),
    "update.fresh": ("counter", "updates", "repro.engine.prepared"),
    "update.patched": ("counter", "updates", "repro.engine.prepared"),
    "update.rebuilt": ("counter", "updates", "repro.engine.prepared"),
    "update.dirty.landmarks": ("counter", "landmarks", "repro.engine.prepared"),
    # traversal kernel dispatch (repro/graph/kernels.py)
    "kernel.batch_size": ("histogram", "sources", "repro.graph.kernels"),
    "kernel.fallbacks": ("counter", "dispatches", "repro.graph.kernels"),
    "kernel.sweep.words": ("counter", "frontier entries", "repro.graph.kernels"),
    # standing queries (repro/subscribe + repro/service)
    "sub.active": ("gauge", "subscriptions", "repro.service.service"),
    "sub.registered": ("counter", "subscriptions", "repro.service.service"),
    "sub.deregistered": ("counter", "subscriptions", "repro.service.service"),
    "sub.affected": ("counter", "subscriptions", "repro.service.service"),
    "sub.skipped": ("counter", "subscriptions", "repro.service.service"),
    "sub.deltas": ("counter", "deltas", "repro.subscribe.manager"),
    "sub.pushed": ("counter", "deltas", "repro.service.aio"),
    "sub.maintain.seconds": ("histogram", "seconds", "repro.service.service"),
}

#: Trace spans (name -> emitting module); see repro.obs.trace.
SPANS = {
    # one hand-over of queued submit/stream chunks to the worker thread;
    # roots the trace of the service.query it wraps
    "aio.flush": "repro.service.aio",
    "service.query": "repro.service.service",
    "service.update": "repro.service.service",
    "planner": "repro.service.service",
    "subscription.maintain": "repro.service.service",
    "engine.batch": "repro.service.service",
    "executor.chunk": "repro.engine.executors",
    "daemon.worker": "repro.engine.daemons",
    "shard.batch": "repro.shard.engine",
    # RBIndex stages, as children only: a rebuild under service.update, a
    # lazy build under service.query (set-up is on the prepare.* histograms)
    "prepare.freeze": "repro.engine.prepared",
    "prepare.compress": "repro.engine.prepared",
    "prepare.index": "repro.engine.prepared",
    # leaves of a pattern query, one pair per query under executor.chunk
    "reduction.search": "repro.core.rbsim",
    "match.exact": "repro.core.rbsim",
    # derived segments: synthesised from cross-process timestamps, not spans
    "worker.queue.wait": "repro.engine.daemons",
    "worker.pipe.transit": "repro.engine.daemons",
}

__all__ = [
    "CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "SPANS",
    "TraceContext",
    "context",
    "counter",
    "enabled",
    "flight",
    "format_snapshot",
    "gauge",
    "histogram",
    "merge_snapshots",
    "percentile_from_snapshot",
    "set_enabled",
    "snapshot",
    "span",
    "trace",
    "write_snapshot",
]
