"""Standing-query primitives: subscriptions, answer deltas, delta replay.

A :class:`Subscription` is a registered request plus its *materialised*
answer; every change to that answer is published as an :class:`AnswerDelta`
— an old→new envelope carrying a monotone per-subscription epoch.  The
envelope chain is a complete history: :func:`replay` folds a delta log back
into the final answer and verifies the chain's integrity, which is exactly
the correctness contract ``tests/test_subscriptions.py`` property-tests
(replayed log ≡ maintained answer ≡ fresh re-evaluation).

Answer identity is decided by :func:`answer_signature` (reachability: the
full answer envelope including the ``visited`` counter; patterns: match set
plus extracted-subgraph size), and :func:`answers_identical` compares whole
answer lists by it, so "unchanged" here means exactly what the repo's parity
harnesses mean by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, List, Optional, Sequence, Tuple

from repro.engine.queries import REACH
from repro.exceptions import ServiceError

INITIAL = "initial"
"""Delta reason: the epoch-0 snapshot emitted at registration."""

UPDATE = "update"
"""Delta reason: a maintenance pass changed the materialised answer."""


def answer_signature(kind: str, value: Any) -> Tuple[Any, ...]:
    """The identity of an answer — equal signatures ⇔ identical answers."""
    if value is None:
        return (kind, None)
    if kind == REACH:
        return (kind, value.reachable, value.visited, value.met_at, value.exhausted)
    return (kind, frozenset(value.answer), value.subgraph_size)


def answers_identical(kind: str, left: Sequence[Any], right: Sequence[Any]) -> bool:
    """Whether two answer lists match answer for answer (the parity contract)."""
    return [answer_signature(kind, answer) for answer in left] == [
        answer_signature(kind, answer) for answer in right
    ]


@dataclass(frozen=True)
class AnswerDelta:
    """One old→new transition of a subscription's materialised answer.

    ``epoch`` is monotone per subscription: the registration snapshot is
    epoch 0 with ``old_value is None`` and ``reason == INITIAL``; every
    subsequent answer change increments it with ``reason == UPDATE``.
    Maintenance passes that re-evaluate a subscription without changing its
    answer emit nothing — the chain records *changes*, not work.
    """

    subscription_id: int
    epoch: int
    kind: str
    old_value: Any
    new_value: Any
    reason: str = UPDATE

    @property
    def old_signature(self) -> Tuple[Any, ...]:
        return answer_signature(self.kind, self.old_value)

    @property
    def new_signature(self) -> Tuple[Any, ...]:
        return answer_signature(self.kind, self.new_value)


@dataclass
class Subscription:
    """One standing query: a request plus its materialised answer.

    Mutated only by the owning service (under its lock); consumers should
    treat ``value`` as read-only — it is the same object the engine cache
    may hold.  ``epoch`` counts answer *changes*, ``reevaluated`` counts
    maintenance re-evaluations (an unchanged re-evaluation bumps the latter
    but not the former), ``skipped`` counts updates the invalidation oracle
    proved answer-preserving for this subscription.
    """

    id: int
    request: Any
    alpha: float
    client: str
    anchor: Tuple[Any, ...]
    value: Any = None
    epoch: int = 0
    reevaluated: int = 0
    skipped: int = 0
    deltas_emitted: int = 0

    @property
    def kind(self) -> str:
        """Query class of the standing request (reach / simulation / subgraph)."""
        return self.request.kind

    def signature(self) -> Tuple[Any, ...]:
        """Identity of the current materialised answer."""
        return answer_signature(self.kind, self.value)


def replay(deltas: Sequence[AnswerDelta]) -> Any:
    """Fold a subscription's delta log back into its final answer.

    Verifies the chain: one subscription only, epochs contiguous from 0,
    and every delta's ``old_value`` signature-identical to its
    predecessor's ``new_value``.  Raises :class:`ServiceError` on any break
    — a broken chain means a lost or reordered delta, which is exactly what
    the push path must never produce.
    """
    if not deltas:
        raise ServiceError("cannot replay an empty delta log")
    owners = {delta.subscription_id for delta in deltas}
    if len(owners) != 1:
        raise ServiceError(f"delta log mixes subscriptions: {sorted(owners)}")
    first = deltas[0]
    if first.epoch != 0 or first.reason != INITIAL or first.old_value is not None:
        raise ServiceError("delta log does not start with the registration snapshot")
    previous = first
    for delta in deltas[1:]:
        if delta.epoch != previous.epoch + 1:
            raise ServiceError(
                f"epoch gap in delta log: {previous.epoch} -> {delta.epoch}"
            )
        if delta.old_signature != previous.new_signature:
            raise ServiceError(f"delta chain broken at epoch {delta.epoch}")
        previous = delta
    return previous.new_value


__all__ = [
    "INITIAL",
    "UPDATE",
    "AnswerDelta",
    "Subscription",
    "answer_signature",
    "answers_identical",
    "replay",
]
