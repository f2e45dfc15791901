"""Typed request/response objects of the serving façade.

One request class per query class the paper serves — :class:`ReachRequest`
(Section 5 reachability) and :class:`PatternRequest` (Sections 3–4
personalized patterns) — plus the answer envelope (:class:`ServiceAnswer`)
the async front-end streams back and the cumulative :class:`ServiceStats`
counters a :class:`~repro.service.GraphService` keeps over its lifetime.

Requests are plain frozen dataclasses: hashable, picklable, and cheap to
build at call sites that previously assembled ``ReachQuery``/``PatternQuery``
objects plus matcher configuration by hand.  Each request may carry its own
α override and a ``client`` tag (the unit of async admission accounting).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Union

from repro.engine.queries import PatternQuery, ReachQuery
from repro.exceptions import ServiceError

DEFAULT_CLIENT = "default"
"""Client tag used when a request does not name one."""


@dataclass(frozen=True)
class ReachRequest(ReachQuery):
    """"Does ``source`` reach ``target``?" under a resource bound.

    A :class:`~repro.engine.ReachQuery` plus service metadata, so the
    service hands batches straight to its batch loop with **zero per-query
    copying** on the hot path.  ``alpha=None`` means "use the service
    default"; ``client`` is the async admission-accounting unit (per-client
    α budget).  Neither field enters the query fingerprint: two clients
    asking the same question share one cached answer.
    """

    alpha: Optional[float] = None
    client: str = DEFAULT_CLIENT

    def __post_init__(self) -> None:
        if self.alpha is not None and not 0 < self.alpha <= 1:
            raise ServiceError(f"alpha must be in (0, 1], got {self.alpha}")

    def to_query(self) -> ReachQuery:
        """The engine-level query this request resolves to (itself)."""
        return self


@dataclass(frozen=True)
class PatternRequest(PatternQuery):
    """A personalized pattern query under one of the two paper semantics.

    A :class:`~repro.engine.PatternQuery` plus service metadata (see
    :class:`ReachRequest` for the rationale).
    """

    alpha: Optional[float] = None
    client: str = DEFAULT_CLIENT

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.alpha is not None and not 0 < self.alpha <= 1:
            raise ServiceError(f"alpha must be in (0, 1], got {self.alpha}")

    def to_query(self) -> PatternQuery:
        """The engine-level query this request resolves to (itself)."""
        return self


ServiceRequest = Union[ReachRequest, PatternRequest]
"""Anything :meth:`GraphService.run_batch` accepts."""


def as_request(item: Any) -> ServiceRequest:
    """Coerce convenience inputs into a request object.

    Accepts a ready request, an engine-level query, or a bare
    ``(source, target)`` pair for reachability — the shapes the old entry
    points took — so migrated call sites keep their input style.
    """
    if isinstance(item, (ReachRequest, PatternRequest)):
        return item
    if isinstance(item, ReachQuery):
        return ReachRequest(item.source, item.target)
    if isinstance(item, PatternQuery):
        return PatternRequest(item.pattern, item.personalized_match, semantics=item.semantics)
    if isinstance(item, tuple) and len(item) == 2:
        return ReachRequest(item[0], item[1])
    raise ServiceError(
        f"cannot interpret {item!r} as a service request; "
        "pass a ReachRequest, PatternRequest, engine query or (source, target) pair"
    )


@dataclass(frozen=True)
class ServiceAnswer:
    """One answered request: the envelope the async front-end yields.

    ``index`` is the request's position in its batch (streams deliver
    answers as they complete, so positions let callers reassemble batch
    order); ``value`` is the engine-level answer object
    (``ReachabilityAnswer`` or ``PatternAnswer``), shared with the cache —
    treat it as read-only; ``backend`` names the planner's routing decision
    that produced it (``serial`` / ``parallel`` / ``sharded``).
    """

    index: int
    request: ServiceRequest
    value: Any
    alpha: float
    backend: str


@dataclass
class ServiceStats:
    """Cumulative serving counters over one service lifetime.

    Mutated in place by the service; grab an immutable copy with
    :meth:`snapshot` before comparing before/after numbers.
    """

    batches: int = 0
    queries: int = 0
    #: batches per planner routing decision (serial / parallel / sharded).
    plans: Dict[str, int] = field(default_factory=dict)
    #: per-kind query counts (reach / simulation / subgraph).
    kinds: Dict[str, int] = field(default_factory=dict)
    #: queries answered shard-locally vs spilled to the service's own graph
    #: (contain policy) or scatter–gathered (scatter policy).
    shard_contained: int = 0
    shard_spilled: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: misses that took the answer of an identical miss in the same batch.
    deduplicated: int = 0
    updates: int = 0
    #: update modes seen (patched / rebuilt / fresh / noop / local).
    update_modes: Dict[str, int] = field(default_factory=dict)
    #: async front-end counters.
    submitted: int = 0
    streamed: int = 0
    #: peak concurrently-admitted queries (the admission-control witness).
    max_inflight: int = 0
    #: times an async submission had to wait for admission (backpressure).
    admission_waits: int = 0
    #: standing-query counters (repro.subscribe).
    subscribed: int = 0
    unsubscribed: int = 0
    #: per-update maintenance outcomes, summed over every update: standing
    #: queries re-evaluated vs proven answer-unchanged by the oracle.
    sub_affected: int = 0
    sub_skipped: int = 0
    #: answer deltas emitted (answer actually changed) / pushed to async
    #: subscription streams.
    answer_deltas: int = 0
    deltas_pushed: int = 0

    def record_plan(self, backend: str, num_queries: int) -> None:
        """Count one planned batch."""
        self.batches += 1
        self.queries += num_queries
        self.plans[backend] = self.plans.get(backend, 0) + 1

    def snapshot(self) -> "ServiceStats":
        """An independent copy (nested dicts included)."""
        return replace(
            self,
            plans=dict(self.plans),
            kinds=dict(self.kinds),
            update_modes=dict(self.update_modes),
        )


__all__ = [
    "DEFAULT_CLIENT",
    "PatternRequest",
    "ReachRequest",
    "ServiceAnswer",
    "ServiceRequest",
    "ServiceStats",
    "as_request",
]
