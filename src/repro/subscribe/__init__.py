"""Standing queries: subscriptions with incremental answer maintenance.

Clients register a :class:`~repro.service.ReachRequest` /
:class:`~repro.service.PatternRequest` once
(``GraphService.subscribe``) and the service keeps the answer current
across every absorbed :class:`~repro.updates.GraphDelta`: a maintenance
pass consults the same answer-unchanged oracle the engine's LRU cache uses
(:mod:`repro.engine.invalidation`) to split the standing-query table into
*unaffected* subscriptions — provably answer-identical, zero work — and
*affected* ones, which are re-evaluated as a normal engine batch.  Answer
changes are pushed as :class:`AnswerDelta` envelopes (old→new, monotone
per-subscription epochs); async consumers receive them through
``AsyncFrontEnd.subscription_stream`` under the usual per-client admission
control.

The correctness contract (property-tested in ``tests/test_subscriptions.py``):
after any churn stream, every subscription's materialised answer is
bit-identical to a fresh query on a freshly prepared engine, and
:func:`replay` over its pushed delta log reconstructs exactly that answer.
"""

from repro.subscribe.manager import DeltaSink, MaintenanceReport, SubscriptionManager
from repro.subscribe.subscription import (
    INITIAL,
    UPDATE,
    AnswerDelta,
    Subscription,
    answer_signature,
    answers_identical,
    replay,
)

__all__ = [
    "INITIAL",
    "UPDATE",
    "AnswerDelta",
    "DeltaSink",
    "MaintenanceReport",
    "Subscription",
    "SubscriptionManager",
    "answer_signature",
    "answers_identical",
    "replay",
]
