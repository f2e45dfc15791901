"""Subscription registry + the maintenance bookkeeping around one update.

The :class:`SubscriptionManager` owns the standing-query table of one
:class:`~repro.service.GraphService`.  It is deliberately engine-agnostic:
the service materialises and re-evaluates answers through its normal batch
path and decides *which* subscriptions an absorbed delta may have affected
— in the same :func:`repro.engine.invalidation.partition_entries` call that
decides its LRU cache's retention, over the anchors this table keeps
(:meth:`SubscriptionManager.entries`); the manager turns answer changes into
pushed :class:`~repro.subscribe.subscription.AnswerDelta` envelopes.

All mutation happens under the owning service's lock; the manager itself
holds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro import obs
from repro.engine.invalidation import Entry, anchor_of
from repro.exceptions import ServiceError
from repro.subscribe.subscription import (
    INITIAL,
    UPDATE,
    AnswerDelta,
    Subscription,
    answer_signature,
)

#: A delta consumer: called synchronously with each emitted envelope.
DeltaSink = Callable[[AnswerDelta], None]


@dataclass(frozen=True)
class MaintenanceReport:
    """What one maintenance pass did to the standing-query table.

    ``affected`` subscriptions were re-evaluated as a normal engine batch;
    ``skipped`` ones the invalidation oracle proved answer-preserved (no
    work at all); ``changed`` counts re-evaluations whose answer actually
    moved — each of those emitted exactly one delta envelope.
    """

    mode: str
    subscriptions: int = 0
    affected: int = 0
    skipped: int = 0
    changed: int = 0
    wall_seconds: float = 0.0

    @property
    def affected_fraction(self) -> float:
        """Share of standing queries the update forced us to re-evaluate."""
        return self.affected / self.subscriptions if self.subscriptions else 0.0


class SubscriptionManager:
    """The standing-query table: registration, anchors, delta emission."""

    def __init__(self) -> None:
        self._subscriptions: Dict[int, Subscription] = {}
        self._sinks: Dict[int, DeltaSink] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: int) -> bool:
        return sub_id in self._subscriptions

    def get(self, sub_id: int) -> Subscription:
        try:
            return self._subscriptions[sub_id]
        except KeyError:
            raise ServiceError(f"unknown subscription id {sub_id}") from None

    def subscriptions(self) -> List[Subscription]:
        """A snapshot of the table, registration order."""
        return list(self._subscriptions.values())

    def register(
        self,
        request: Any,
        alpha: float,
        value: Any,
        *,
        client: str,
        sink: Optional[DeltaSink] = None,
    ) -> Subscription:
        """Admit a standing query with its freshly materialised answer.

        Emits the epoch-0 registration snapshot through ``sink`` so a delta
        log replays from nothing to the current answer.
        """
        sub = Subscription(
            id=self._next_id,
            request=request,
            alpha=alpha,
            client=client,
            anchor=anchor_of(request, value),
            value=value,
        )
        self._next_id += 1
        self._subscriptions[sub.id] = sub
        if sink is not None:
            self._sinks[sub.id] = sink
        self._emit(sub, old_value=None, reason=INITIAL)
        return sub

    def deregister(self, sub_id: int) -> Subscription:
        """Remove a subscription (and its sink); raises on unknown IDs."""
        sub = self.get(sub_id)
        del self._subscriptions[sub_id]
        self._sinks.pop(sub_id, None)
        return sub

    def entries(self) -> List[Entry]:
        """``(id, alpha, anchor)`` per subscription, for the invalidation oracle."""
        return [(sub.id, sub.alpha, sub.anchor) for sub in self._subscriptions.values()]

    def skip(self, sub_ids: Iterable[int]) -> None:
        """Count a maintenance pass the oracle let each of ``sub_ids`` skip."""
        for sub_id in sub_ids:
            self._subscriptions[sub_id].skipped += 1

    def commit(self, sub_id: int, new_value: Any) -> Optional[AnswerDelta]:
        """Install a re-evaluated answer; emit a delta iff it changed.

        The anchor moves to the new answer either way: it was computed under
        the fresh caps.
        """
        sub = self.get(sub_id)
        sub.reevaluated += 1
        sub.anchor = anchor_of(sub.request, new_value)
        old_value = sub.value
        if answer_signature(sub.kind, new_value) == sub.signature():
            return None
        sub.value = new_value
        sub.epoch += 1
        return self._emit(sub, old_value=old_value, reason=UPDATE)

    def _emit(self, sub: Subscription, *, old_value: Any, reason: str) -> AnswerDelta:
        delta = AnswerDelta(
            subscription_id=sub.id,
            epoch=sub.epoch,
            kind=sub.kind,
            old_value=old_value,
            new_value=sub.value,
            reason=reason,
        )
        sub.deltas_emitted += 1
        obs.counter("sub.deltas").inc()
        sink = self._sinks.get(sub.id)
        if sink is not None:
            sink(delta)
        return delta


__all__ = [
    "DeltaSink",
    "MaintenanceReport",
    "SubscriptionManager",
]
