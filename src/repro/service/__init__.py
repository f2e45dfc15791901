"""The serving engine: one typed ``GraphService`` in front of every backend.

This package is the single public entry point to the serving stack, built
from the parts in :mod:`repro.engine`, :mod:`repro.shard` and
:mod:`repro.updates`:

* :mod:`repro.service.config` — :class:`ServiceConfig`, every tunable in
  one frozen dataclass;
* :mod:`repro.service.requests` — the typed request/response surface
  (:class:`ReachRequest`, :class:`PatternRequest`, :class:`ServiceAnswer`,
  :class:`ServiceStats`);
* :mod:`repro.service.planner` — the pure auto-planner routing each batch
  to the serial path, the daemon pool, or the lazily-built sharded
  engine, every decision bit-identical to serial evaluation under the
  default policy;
* :mod:`repro.service.service` — :class:`GraphService` itself
  (``open → prepare → query/stream → update → close``): prepared state,
  answer cache, daemon pool and the batch and update loops;
* :mod:`repro.service.aio` — the asyncio front-end (``await submit``,
  ``async for`` streaming, ``subscription_stream`` delta push) with bounded
  in-flight admission control.

Quickstart::

    from repro.service import GraphService, ReachRequest, ServiceConfig

    with GraphService.open("youtube-small", ServiceConfig(alpha=0.02)) as service:
        report = service.run_batch([ReachRequest(4, 17), ReachRequest(3, 99)])
        print(report.plan.backend, [a.reachable for a in report.answers])

See ``docs/MIGRATION.md`` for the old-entry-point → service mapping.
"""

from repro.service.config import (
    AUTO,
    CONTAIN,
    EXECUTOR_CHOICES,
    SCATTER,
    SHARD_POLICIES,
    ServiceConfig,
)
from repro.service.planner import (
    BACKENDS,
    PARALLEL,
    Plan,
    Planner,
    SERIAL,
    SHARDED,
)
from repro.service.requests import (
    DEFAULT_CLIENT,
    PatternRequest,
    ReachRequest,
    ServiceAnswer,
    ServiceRequest,
    ServiceStats,
    as_request,
)
from repro.service.service import (
    GraphService,
    ServiceBatchReport,
    ServiceUpdateReport,
    UpdateReport,
)
from repro.subscribe import AnswerDelta, MaintenanceReport, Subscription, replay

__all__ = [
    "AUTO",
    "AnswerDelta",
    "BACKENDS",
    "CONTAIN",
    "DEFAULT_CLIENT",
    "EXECUTOR_CHOICES",
    "GraphService",
    "MaintenanceReport",
    "PARALLEL",
    "PatternRequest",
    "Plan",
    "Planner",
    "ReachRequest",
    "SCATTER",
    "SERIAL",
    "SHARDED",
    "SHARD_POLICIES",
    "ServiceAnswer",
    "ServiceBatchReport",
    "ServiceConfig",
    "ServiceRequest",
    "ServiceStats",
    "ServiceUpdateReport",
    "Subscription",
    "UpdateReport",
    "as_request",
    "replay",
]
