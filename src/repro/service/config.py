"""``ServiceConfig`` — the one knob surface of the serving façade.

Every tunable the four previous layers exposed separately (engine executor
and worker count, shard count ``k``, cache capacity, the α resource ratio,
the async admission limits) lives in
this single frozen dataclass.  :class:`~repro.service.GraphService` takes
one of these at ``open`` time; the planner reads it when routing batches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.engine.executors import EXECUTOR_NAMES
from repro.exceptions import ServiceError
from repro.shard.partition import GREEDY, METHODS
from repro.shard.shards import DEFAULT_HALO_DEPTH

AUTO = "auto"
"""Executor sentinel: let the planner pick serial vs parallel per batch."""

EXECUTOR_CHOICES = (AUTO,) + tuple(sorted(EXECUTOR_NAMES))
"""Legal ``ServiceConfig.executor`` values (``auto`` + the engines' executors)."""

CONTAIN = "contain"
"""Shard policy: route only shard-contained queries to the shards (the
PR 4 bit-parity rule); everything else answers on the single-graph engine,
so the whole batch stays bit-identical to serial evaluation."""

SCATTER = "scatter"
"""Shard policy: route *every* query through the sharded scatter–gather
engine (the ``repro-bench shard`` semantics: never a false positive, and
bit-identical only for shard-contained queries)."""

SHARD_POLICIES = (CONTAIN, SCATTER)


@dataclass(frozen=True)
class ServiceConfig:
    """Every tunable of a :class:`~repro.service.GraphService`, in one place.

    Attributes
    ----------
    alpha:
        Default resource ratio α ∈ (0, 1] for requests that do not carry
        their own override.
    executor / workers:
        ``auto`` lets the planner choose the executor per batch from the
        batch size, the graph size and the schedulable core count; naming
        an executor (``serial`` / ``daemon``) forces it for every batch.
        ``workers`` sizes the daemon pool (default: every schedulable core).
    num_shards / shard_method / halo_depth / shard_policy:
        ``num_shards > 1`` serves through a lazily-built
        :class:`~repro.shard.ShardedEngine` under ``shard_policy``
        (:data:`CONTAIN` keeps bit-parity, :data:`SCATTER` is the full
        scatter–gather routing of PR 4).
    cache_size / seed:
        LRU answer-cache capacity (0 disables caching) and partitioner seed.
    max_inflight / client_alpha_budget / stream_chunk_size:
        Async admission control: at most ``max_inflight`` queries admitted
        at once (further ``submit``/``stream`` calls await — backpressure,
        not rejection); per client, the α-weighted cost of its in-flight
        queries stays within ``client_alpha_budget``; ``stream`` dispatches
        in chunks of ``stream_chunk_size`` so answers flow back as chunks
        complete.
    max_subscriptions:
        Standing queries (:mod:`repro.subscribe`): ``subscribe`` rejects
        registrations beyond ``max_subscriptions``.
    """

    alpha: float = 0.02
    executor: str = AUTO
    workers: Optional[int] = None
    num_shards: int = 1
    shard_method: str = GREEDY
    halo_depth: int = DEFAULT_HALO_DEPTH
    shard_policy: str = CONTAIN
    cache_size: int = 4096
    seed: int = 0
    max_inflight: int = 32
    client_alpha_budget: float = 1.0
    stream_chunk_size: int = 16
    max_subscriptions: int = 1024

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ServiceError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.executor not in EXECUTOR_CHOICES:
            raise ServiceError(
                f"unknown executor {self.executor!r}; use one of {', '.join(EXECUTOR_CHOICES)}"
            )
        if self.workers is not None and self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")
        if self.num_shards < 1:
            raise ServiceError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.shard_method not in METHODS:
            raise ServiceError(
                f"unknown shard method {self.shard_method!r}; use one of {', '.join(METHODS)}"
            )
        if self.halo_depth < 1:
            raise ServiceError(f"halo_depth must be >= 1, got {self.halo_depth}")
        if self.shard_policy not in SHARD_POLICIES:
            raise ServiceError(
                f"unknown shard policy {self.shard_policy!r}; use one of {', '.join(SHARD_POLICIES)}"
            )
        if self.cache_size < 0:
            raise ServiceError(f"cache_size must be >= 0, got {self.cache_size}")
        if self.max_inflight < 1:
            raise ServiceError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.client_alpha_budget <= 0:
            raise ServiceError(
                f"client_alpha_budget must be > 0, got {self.client_alpha_budget}"
            )
        if self.stream_chunk_size < 1:
            raise ServiceError(f"stream_chunk_size must be >= 1, got {self.stream_chunk_size}")
        if self.max_subscriptions < 0:
            raise ServiceError(
                f"max_subscriptions must be >= 0, got {self.max_subscriptions}"
            )

    def with_overrides(self, **overrides) -> "ServiceConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **overrides)


__all__ = [
    "AUTO",
    "CONTAIN",
    "EXECUTOR_CHOICES",
    "SCATTER",
    "SHARD_POLICIES",
    "ServiceConfig",
]
