"""Asyncio front-end: ``await service.submit(...)`` / ``async for`` streaming.

The engines are synchronous and deliberately single-writer (prepared state,
LRU cache).  The front-end bridges them into asyncio without giving up that
discipline:

* all engine work funnels through **one worker thread** (so async traffic
  and the sync API share the service lock without contention storms);
* admitted chunks queue on the event loop and a short-lived *drain* task
  hands the worker everything that queued while it was busy as **one**
  ``service.run_batch`` — natural batching: a flush is planned once, crosses
  the thread boundary once and, through the engine's single-flight batch,
  evaluates each distinct request in it once.  An idle service flushes one
  chunk at a time, exactly as if there were no queue;
* an :class:`AdmissionController` bounds what is *admitted*: at most
  ``max_inflight`` queries in flight at once, and per client the α-weighted
  cost of its in-flight queries stays within ``client_alpha_budget``.
  Past either bound, ``submit``/``stream`` **await** — backpressure, not
  rejection — until earlier work releases its admission;
* :meth:`AsyncFrontEnd.stream` dispatches a batch as independent chunks and
  yields :class:`~repro.service.requests.ServiceAnswer` envelopes as each
  chunk completes (the ``index`` field carries batch order).  Closing the
  generator cancels unfinished chunks and releases their admission, leaving
  the service reusable — property-tested in ``tests/test_service_async.py``.

Admission state binds lazily to the running event loop and rebinds when the
loop changes (each ``asyncio.run`` gets fresh primitives), so one service
can serve several consecutive loops — the common test and script pattern.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from operator import attrgetter
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import obs
from repro.exceptions import ServiceError
from repro.service.requests import ServiceAnswer, ServiceRequest, as_request


class AdmissionController:
    """Bounded in-flight admission with per-client α accounting.

    ``acquire``/``release`` charge a ``(count, cost)`` pair per client:
    ``count`` queries against the global ``max_inflight`` bound and ``cost``
    α units against the client's budget.  A charge larger than a whole
    bound is admitted once nothing else it competes with is in flight
    (oversized chunks run alone instead of deadlocking).
    """

    def __init__(self, max_inflight: int, client_budget: float):
        self.max_inflight = max_inflight
        self.client_budget = client_budget
        self.inflight = 0
        self.max_seen = 0
        self.waits = 0
        self._client_count: Dict[str, int] = {}
        self._client_cost: Dict[str, float] = {}
        self._condition: Optional[asyncio.Condition] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def _cond(self) -> asyncio.Condition:
        loop = asyncio.get_running_loop()
        if self._condition is None or self._loop is not loop:
            # Fresh loop (or first use): asyncio primitives are loop-bound,
            # and anything previously in flight died with the old loop.
            self._condition = asyncio.Condition()
            self._loop = loop
            self.inflight = 0
            self._client_count.clear()
            self._client_cost.clear()
        return self._condition

    def _admissible(self, charges: Dict[str, Tuple[int, float]]) -> bool:
        total = sum(count for count, _ in charges.values())
        if self.inflight and self.inflight + total > self.max_inflight:
            return False
        for client, (_, cost) in charges.items():
            held = self._client_cost.get(client, 0.0)
            if self._client_count.get(client, 0) and held + cost > self.client_budget:
                return False
        return True

    async def acquire(self, charges: Dict[str, Tuple[int, float]]) -> None:
        """Await admission for the given per-client ``(count, cost)`` charges."""
        condition = self._cond()
        async with condition:
            if not self._admissible(charges):
                self.waits += 1
                obs.counter("service.admission.waits").inc()
                wait_started = time.perf_counter()
                await condition.wait_for(lambda: self._admissible(charges))
                obs.histogram("service.admission.wait.seconds").observe(
                    time.perf_counter() - wait_started
                )
            for client, (count, cost) in charges.items():
                self.inflight += count
                self._client_count[client] = self._client_count.get(client, 0) + count
                self._client_cost[client] = self._client_cost.get(client, 0.0) + cost
            self.max_seen = max(self.max_seen, self.inflight)
            obs.gauge("service.inflight").set_max(self.inflight)

    async def release(self, charges: Dict[str, Tuple[int, float]]) -> None:
        """Return a previous acquisition and wake waiters."""
        condition = self._cond()
        async with condition:
            for client, (count, cost) in charges.items():
                self.inflight -= count
                remaining = self._client_count.get(client, 0) - count
                if remaining > 0:
                    self._client_count[client] = remaining
                    self._client_cost[client] = max(
                        0.0, self._client_cost.get(client, 0.0) - cost
                    )
                else:
                    self._client_count.pop(client, None)
                    self._client_cost.pop(client, None)
            condition.notify_all()


def _charges(
    requests: Sequence[ServiceRequest], alphas: Sequence[float]
) -> Dict[str, Tuple[int, float]]:
    """Per-client ``(count, α cost)`` charges for one chunk."""
    charges: Dict[str, Tuple[int, float]] = {}
    for request, alpha in zip(requests, alphas):
        count, cost = charges.get(request.client, (0, 0.0))
        charges[request.client] = (count + 1, cost + alpha)
    return charges


class _Entry(NamedTuple):
    """One admitted chunk waiting for the worker thread."""

    start: int
    requests: List[ServiceRequest]
    #: the caller's ``alpha`` *argument* (``None``: the config default), which
    #: entries must share to be answered as one ``service.run_batch``.
    alpha: Optional[float]
    future: "asyncio.Future[List[ServiceAnswer]]"


class AsyncFrontEnd:
    """The async face of one :class:`~repro.service.GraphService`."""

    def __init__(self, service):
        self._service = service
        config = service.config
        self.admission = AdmissionController(config.max_inflight, config.client_alpha_budget)
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service"
        )
        self._closed = False
        # Admitted chunks not yet handed to the worker thread, and the task
        # that hands them over.  Both belong to the event loop the callers run
        # on — only its coroutines touch them — and are rebound when the loop
        # changes, like the admission state.
        self._pending: List[_Entry] = []
        self._drain_task: Optional["asyncio.Task[None]"] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def close(self) -> None:
        """Stop the worker thread.

        A flush already handed to it still runs; chunks still queued behind
        it fail with :class:`ServiceError` (see :meth:`_drain`).
        """
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=False)

    # -- tracing passthroughs (the recorder lives on the service) -------- #
    def enable_tracing(self, **kwargs):
        """Start the service's flight recorder (see ``GraphService.enable_tracing``)."""
        return self._service.enable_tracing(**kwargs)

    def disable_tracing(self) -> None:
        """Stop the service's flight recorder."""
        self._service.disable_tracing()

    def trace_timeline(self, trace_id):
        """Assembled timeline for one trace ID (``None`` when unknown/off)."""
        return self._service.trace_timeline(trace_id)

    def recent_traces(self, limit: Optional[int] = None):
        """Recently completed batch timelines, oldest first."""
        return self._service.recent_traces(limit)

    def slow_traces(self):
        """The slow-query log of the service's flight recorder."""
        return self._service.slow_traces()

    def _effective_alpha(self, request: ServiceRequest, alpha: Optional[float]) -> float:
        if request.alpha is not None:
            return request.alpha
        if alpha is not None:
            return alpha
        return self._service.config.alpha

    async def _run_chunk(
        self,
        start: int,
        requests: List[ServiceRequest],
        alpha: Optional[float],
    ) -> List[ServiceAnswer]:
        """Admit one chunk, queue it for the next flush, await its answers."""
        alphas = [self._effective_alpha(request, alpha) for request in requests]
        charges = _charges(requests, alphas)
        await self.admission.acquire(charges)
        try:
            loop = asyncio.get_running_loop()
            if self._loop is not loop:
                # Whatever the previous loop left queued died with it.
                self._loop, self._pending, self._drain_task = loop, [], None
            future: "asyncio.Future[List[ServiceAnswer]]" = loop.create_future()
            self._pending.append(_Entry(start, requests, alpha, future))
            if self._drain_task is None or self._drain_task.done():
                self._drain_task = loop.create_task(self._drain(self._pending))
            # A cancelled caller cancels ``future``; the drain skips it.
            return await future
        finally:
            # Shielded: a cancellation mid-release must not strand the
            # admission charge, or the service would leak capacity.
            await asyncio.shield(self.admission.release(charges))

    async def _drain(self, pending: List[_Entry]) -> None:
        """Hand everything queued to the worker thread, flush after flush.

        Each round takes the whole list — every chunk admitted while the
        previous flush ran — drops the chunks whose caller has gone, and
        answers each run of consecutive chunks with the same ``alpha``
        argument as one ``service.run_batch``: one plan, one thread hop, and
        each distinct request in it evaluated once.  The task ends when the
        list is empty; the next ``_run_chunk`` starts another.
        """
        loop = asyncio.get_running_loop()
        taken: List[_Entry] = []
        try:
            while pending:
                taken = [entry for entry in pending if not entry.future.done()]
                del pending[:]
                for alpha, run in itertools.groupby(taken, key=attrgetter("alpha")):
                    entries = list(run)
                    try:
                        outcomes = await loop.run_in_executor(
                            self._pool, self._flush, entries, alpha
                        )
                    except RuntimeError:
                        if not self._closed:
                            raise
                        # ``close()`` shut the pool down before this flush
                        # reached it.
                        outcomes = [ServiceError("the async front-end is closed")] * len(entries)
                    for entry, outcome in zip(entries, outcomes):
                        if entry.future.done():
                            continue  # its caller was cancelled meanwhile
                        if isinstance(outcome, Exception):
                            entry.future.set_exception(outcome)
                        else:
                            entry.future.set_result(outcome)
        finally:
            # Only a drain that is itself cancelled (its loop is shutting
            # down) or failed gets here with callers left: never leave one
            # awaiting a future nobody will resolve (on a resolved future
            # ``cancel`` does nothing).
            for entry in taken + pending:
                entry.future.cancel()

    def _flush(self, entries: List[_Entry], alpha: Optional[float]) -> List[Any]:
        """On the worker thread: answer ``entries`` as one batch.

        Returns one outcome per entry — its :class:`ServiceAnswer` list, or
        the exception its requests raise.  When the merged batch raises, the
        entries are re-run one by one, so only the caller whose request is at
        fault sees the exception.
        """
        try:
            return self._answer(entries, alpha)
        except Exception as error:  # handed to its caller, not swallowed
            if len(entries) == 1:
                return [error]
        return [self._flush([entry], alpha)[0] for entry in entries]

    def _answer(self, entries: List[_Entry], alpha: Optional[float]) -> List[List[ServiceAnswer]]:
        requests = [request for entry in entries for request in entry.requests]
        obs.histogram("service.flush.size", scheme="count").observe(float(len(requests)))
        with obs.span("aio.flush", requests=len(requests), entries=len(entries)):
            report = self._service.run_batch(requests, alpha=alpha)
        answers, alphas, backend = report.answers, report.effective_alphas(), report.plan.backend
        outcomes: List[List[ServiceAnswer]] = []
        base = 0
        for entry in entries:
            outcomes.append(
                [
                    ServiceAnswer(
                        index=entry.start + offset,
                        request=request,
                        value=answers[base + offset],
                        alpha=alphas[base + offset],
                        backend=backend,
                    )
                    for offset, request in enumerate(entry.requests)
                ]
            )
            base += len(entry.requests)
        return outcomes

    async def submit(self, request: Any, alpha: Optional[float] = None) -> ServiceAnswer:
        """Answer one request under admission control."""
        resolved = as_request(request)
        answers = await self._run_chunk(0, [resolved], alpha)
        service_stats = self._service._stats
        service_stats.submitted += 1
        obs.counter("service.submitted").inc()
        return answers[0]

    async def stream(self, requests: Sequence[Any], alpha: Optional[float] = None):
        """Yield answers as chunks complete (an async generator)."""
        resolved = [as_request(item) for item in requests]
        chunk_size = self._service.config.stream_chunk_size
        tasks = [
            asyncio.ensure_future(
                self._run_chunk(start, resolved[start : start + chunk_size], alpha)
            )
            for start in range(0, len(resolved), chunk_size)
        ]
        try:
            for done in asyncio.as_completed(tasks):
                for answer in await done:
                    self._service._stats.streamed += 1
                    obs.counter("service.streamed").inc()
                    yield answer
        finally:
            # Generator closed early (or a chunk failed): cancel what has
            # not run, drain cancellations, keep the service reusable.
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    async def subscription_stream(
        self, requests: Sequence[Any], alpha: Optional[float] = None
    ):
        """Register standing queries and yield their answer deltas forever.

        Each subscription holds one admission charge (count 1, cost α) for
        the stream's lifetime — a client with standing queries has that much
        less budget for ad-hoc ``submit``/``stream`` traffic, which is the
        backpressure story: a slow consumer cannot pile up unbounded standing
        work.  Deltas cross from the service's maintenance pass (any thread)
        into the consumer's loop via ``call_soon_threadsafe``; closing the
        generator deregisters every subscription and releases the admission.
        """
        resolved = [as_request(item) for item in requests]
        alphas = [self._effective_alpha(request, alpha) for request in resolved]
        charges = _charges(resolved, alphas)
        loop = asyncio.get_running_loop()
        queue: "asyncio.Queue" = asyncio.Queue()

        def sink(delta):
            try:
                loop.call_soon_threadsafe(queue.put_nowait, delta)
            except RuntimeError:
                pass  # consumer's loop is gone; the envelope has no reader

        # Acquire before the try so a cancellation during the wait cannot
        # reach the finally and release charges that were never held.
        await self.admission.acquire(charges)
        subscriptions: List[Any] = []
        try:

            def register() -> None:
                # Appends as it goes so the cleanup below sees every
                # subscription that actually registered, even when a later
                # registration (or a cancellation) interrupts the loop.
                for request, request_alpha in zip(resolved, alphas):
                    subscriptions.append(
                        self._service.subscribe(request, alpha=request_alpha, sink=sink)
                    )

            await loop.run_in_executor(self._pool, register)
            while True:
                delta = await queue.get()
                self._service._stats.deltas_pushed += 1
                obs.counter("sub.pushed").inc()
                yield delta
        finally:

            def cleanup() -> None:
                for subscription in subscriptions:
                    try:
                        self._service.unsubscribe(subscription.id)
                    except ServiceError:
                        pass  # already removed, or the service closed first

            try:
                # On the worker thread: the pool is single-threaded, so this
                # runs strictly after any still-in-flight register() call and
                # cannot race its appends.
                await asyncio.shield(loop.run_in_executor(self._pool, cleanup))
            except RuntimeError:
                cleanup()  # pool already shut down (service closed)
            await asyncio.shield(self.admission.release(charges))


__all__ = ["AdmissionController", "AsyncFrontEnd", "_charges"]
