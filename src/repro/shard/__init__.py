"""Sharded serving: graph partitioning plus scatter–gather query routing.

FanWW14's resource-bounded queries are local — a pattern query touches only
the ``d_Q``-ball around ``v_p``, ``RBReach`` touches only ``α·|G|`` of a
per-graph index — so the workload partitions naturally:

* :mod:`repro.shard.partition` — deterministic partitioners (hash baseline
  and a seeded BFS-grown greedy edge-cut minimiser) producing a
  :class:`Partition` with boundary sets and cut statistics;
* :mod:`repro.shard.shards` — per-shard induced CSR subgraphs with halo
  (ghost) regions, each with its own
  :class:`~repro.engine.PreparedGraph`;
* :mod:`repro.shard.boundary` — the condensed boundary quotient with
  direction-tagged cross-shard edges and landmark labels, composing
  shard-local reachability without the full graph in one place;
* :mod:`repro.shard.engine` — :class:`ShardedEngine`: home-shard routing for
  pattern queries, scatter–gather for reachability batches, ``α·|G|``
  budget splitting and executor-parallel shard evaluation; after an update
  ``ShardedEngine.reset(graph)`` re-prepares it on the updated graph.

Contract: never a false positive, and bit-identical answers to the
single-graph engine whenever a query is shard-contained (always at
``k = 1``) — property-tested in ``tests/test_shard.py``.
"""

from repro.shard.boundary import DEFAULT_BOUNDARY_ALPHA, BoundaryGraph
from repro.shard.engine import ShardBatchReport, ShardedEngine
from repro.shard.partition import (
    GREEDY,
    HASH,
    METHODS,
    Partition,
    greedy_partition,
    hash_partition,
    hash_shard,
    partition_graph,
)
from repro.shard.shards import DEFAULT_HALO_DEPTH, GraphShard, build_shards

__all__ = [
    "DEFAULT_BOUNDARY_ALPHA",
    "DEFAULT_HALO_DEPTH",
    "BoundaryGraph",
    "GREEDY",
    "GraphShard",
    "HASH",
    "METHODS",
    "Partition",
    "ShardBatchReport",
    "ShardedEngine",
    "build_shards",
    "greedy_partition",
    "hash_partition",
    "hash_shard",
    "partition_graph",
]
