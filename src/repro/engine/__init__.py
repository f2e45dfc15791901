"""Serving machinery: prepare once, answer query streams cheaply.

This package holds the parts the serving engine,
:class:`~repro.service.GraphService`, is built from — the paper's
"queries arrive by the thousands" story (Fan, Wang & Wu, SIGMOD 2014,
Section 1).  It separates the two phases the paper keeps distinct:

* **prepare** (:mod:`repro.engine.prepared`) — CSR mirror, SCC
  condensation, hierarchical landmark index per α, neighbourhood summaries
  and label/degree statistics, all built once per graph;
* **answer** — batches of :class:`~repro.engine.queries.ReachQuery` /
  :class:`~repro.engine.queries.PatternQuery` objects are answered in chunks
  by one pure chunk function (:mod:`repro.engine.executors`), inline
  (``serial``) or on a warm daemon pool (``daemon``), behind an LRU answer
  cache (:mod:`repro.engine.cache`) keyed on ``(query fingerprint, α)``.

Parallel state is never shipped: the persistent daemons of
:mod:`repro.engine.daemons` are forked from the prepared state once per
state version and read it as copy-on-write pages.  The shared-memory tier
(:mod:`repro.graph.shm` +
:class:`~repro.engine.prepared.SharedPreparedGraph`) serves no path any
more; the end-to-end benchmark's ``shm.*`` probe keeps it.

The parity contract — identical answers for either executor and any worker
count — is property-tested in ``tests/test_engine.py`` and
``tests/test_service.py``; what the warm
pool is worth is measured by the end-to-end benchmark
(``benchmarks/e2e/``: ``pattern_daemon`` against ``pattern_serial``).

Graphs mutate under traffic: ``GraphService.update`` absorbs a
:class:`~repro.updates.GraphDelta` by patching the prepared state
incrementally (``PreparedGraph.apply_delta``: overlay substrate,
condensation and index repair; :mod:`repro.engine.invalidation`: surgical
cache invalidation), with answers bit-identical to a fresh service on the
mutated graph — see :mod:`repro.updates` and ``tests/test_updates.py``.
"""

from repro.engine.cache import AnswerCache, CacheStats
from repro.engine.daemons import DaemonPool
from repro.engine.invalidation import (
    InvalidationDecision,
    anchor_of,
    partition_entries,
    pattern_budget_changed,
)
from repro.engine.executors import EXECUTOR_NAMES, default_workers
from repro.engine.prepared import PreparedGraph, SharedPreparedGraph, UpdateSummary, publish_state
from repro.engine.queries import PatternQuery, ReachQuery

__all__ = [
    "AnswerCache",
    "CacheStats",
    "DaemonPool",
    "EXECUTOR_NAMES",
    "InvalidationDecision",
    "PatternQuery",
    "PreparedGraph",
    "ReachQuery",
    "SharedPreparedGraph",
    "UpdateSummary",
    "anchor_of",
    "default_workers",
    "partition_entries",
    "pattern_budget_changed",
    "publish_state",
]
