"""The asyncio front-end: streaming parity, cancellation, admission control.

Covers the contract of ``GraphService.submit`` / ``GraphService.stream``:

* a stream yields **exactly the batch answer set** — same indices, same
  bit-identical values as the synchronous batch — regardless of completion
  order;
* cancelling a stream mid-flight releases its admission and leaves the
  service fully reusable;
* admission control actually bounds in-flight work (global ``max_inflight``
  and the per-client α budget), applying backpressure instead of rejecting;
* chunks admitted while the worker thread is busy reach it as **one**
  ``service.run_batch`` per flush; a request that raises fails only its own
  caller; a caller cancelled while queued, a loop that ends with a flush
  half-built and ``close()`` with work queued all leave nothing hanging and
  no admission charge behind.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import obs
from repro.exceptions import ServiceError
from repro.service import GraphService, ReachRequest, ServiceConfig
from repro.service.aio import AdmissionController
from repro.subscribe import answers_identical
from repro.workloads.queries import sample_mixed_pairs

from tests.test_service import clustered_graph

ALPHA = 0.1


@pytest.fixture(scope="module")
def graph():
    return clustered_graph(clusters=2, size=50, seed=21)


@pytest.fixture(scope="module")
def requests(graph):
    return [ReachRequest(s, t) for s, t in sample_mixed_pairs(graph, 40, seed=5)]


@pytest.fixture(scope="module")
def reference(graph, requests):
    return GraphService(graph, executor="serial", cache_size=0).run_batch(requests, ALPHA).answers


def hold_worker(service) -> threading.Event:
    """Park the front-end's one worker thread until the returned gate is set."""
    gate = threading.Event()
    service._ensure_frontend()._pool.submit(gate.wait, 10.0)
    return gate


async def queued(service, batch):
    """Start one ``submit`` per request and let each get as far as the queue."""
    tasks = [asyncio.ensure_future(service.submit(request, alpha=ALPHA)) for request in batch]
    await asyncio.sleep(0.01)
    return tasks


class TestSubmit:
    def test_submit_matches_sync_answer(self, graph, requests, reference):
        service = GraphService(graph, ServiceConfig(cache_size=0))

        async def main():
            return await service.submit(requests[0], alpha=ALPHA)

        answer = asyncio.run(main())
        assert answers_identical("reach", [answer.value], [reference[0]])
        assert answer.index == 0
        assert answer.alpha == ALPHA
        assert service.stats().submitted == 1

    def test_concurrent_submits_all_answer(self, graph, requests, reference):
        service = GraphService(graph, ServiceConfig(cache_size=0, max_inflight=4))

        async def main():
            return await asyncio.gather(
                *(service.submit(request, alpha=ALPHA) for request in requests)
            )

        answers = asyncio.run(main())
        assert answers_identical("reach", [a.value for a in answers], reference)
        stats = service.stats()
        assert stats.submitted == len(requests)
        assert stats.max_inflight <= 4

    @pytest.mark.parametrize("schedule", ["poisson", "burst"])
    def test_open_loop_schedule_answers_every_arrival(self, graph, requests, reference, schedule):
        """Timed arrivals (Poisson gaps, or periodic fronts at the same mean
        rate) are each answered exactly; their latency tail reads monotone."""
        import random

        from repro.obs.metrics import Histogram

        rate, duration, front = 200.0, 0.3, 0.1
        if schedule == "poisson":
            rng, offsets, clock = random.Random(7), [], 0.0
            while (clock := clock + rng.expovariate(rate)) < duration:
                offsets.append(clock)
        else:
            per_front = round(rate * front)
            offsets = [i * front for i in range(round(duration / front)) for _ in range(per_front)]
        service = GraphService(graph, ServiceConfig(executor="serial", cache_size=0))

        async def main():
            loop = asyncio.get_running_loop()
            origin = loop.time()

            async def one(index, offset):
                await asyncio.sleep(max(0.0, origin + offset - loop.time()))
                answer = await service.submit(requests[index % len(requests)], alpha=ALPHA)
                return answer, max(0.0, loop.time() - origin - offset)

            return await asyncio.gather(*(one(i, off) for i, off in enumerate(offsets)))

        with service:
            results = asyncio.run(main())
        assert len(results) == len(offsets) > rate * duration / 2
        expected = [reference[i % len(requests)] for i in range(len(offsets))]
        assert answers_identical("reach", [answer.value for answer, _ in results], expected)
        histogram = Histogram(schedule)
        for _, latency in results:
            histogram.observe(latency)
        tail = [histogram.percentile(q) for q in (0.50, 0.99, 0.999)]
        assert tail == sorted(tail) and tail[-1] <= histogram.max

    def test_service_usable_across_event_loops(self, graph, requests):
        service = GraphService(graph, ServiceConfig(cache_size=0))
        for _ in range(2):  # each asyncio.run is a fresh loop
            answer = asyncio.run(service.submit(requests[0], alpha=ALPHA))
            assert answer.value is not None


    def test_submits_queued_behind_a_busy_worker_share_one_batch_per_flush(
        self, graph, requests, reference
    ):
        service = GraphService(graph, ServiceConfig(cache_size=0, max_inflight=8))

        async def main():
            gate = hold_worker(service)
            first = await queued(service, requests[:3])  # flush 1: handed over, parked
            second = await queued(service, requests[3:8])  # queued behind it: flush 2
            before = obs.snapshot()
            gate.set()
            answers = await asyncio.wait_for(asyncio.gather(*first, *second), timeout=10)
            return before, answers

        before, answers = asyncio.run(main())
        after = obs.snapshot()
        assert [a.index for a in answers] == [0] * 8
        assert answers_identical("reach", [a.value for a in answers], reference[:8])
        assert after["counters"]["service.batches"] - before["counters"].get("service.batches", 0) == 2
        assert service.stats().batches == 2
        assert service.stats().submitted == 8
        sizes = after["histograms"]["service.flush.size"]
        assert sizes["count"] - before["histograms"].get("service.flush.size", {"count": 0})["count"] == 2
        assert service._frontend.admission.inflight == 0

    def test_poisoned_request_in_a_flush_fails_only_its_own_caller(
        self, graph, requests, reference
    ):
        service = GraphService(graph, ServiceConfig(cache_size=0))
        poisoned = ReachRequest(["unhashable"], requests[0].target)

        async def main():
            gate = hold_worker(service)
            parked = await queued(service, requests[:1])
            tasks = await queued(service, [requests[1], poisoned, requests[2]])
            gate.set()
            return await asyncio.wait_for(
                asyncio.gather(*parked, *tasks, return_exceptions=True), timeout=10
            )

        first, good, bad, also_good = asyncio.run(main())
        assert isinstance(bad, TypeError)
        assert answers_identical(
            "reach", [first.value, good.value, also_good.value], reference[:3]
        )
        assert service._frontend.admission.inflight == 0
        # The parked flush and the two good one-by-one retries; the merged
        # attempt and the poisoned retry raised before they were counted.
        assert service.stats().batches == 3

    def test_loop_ending_with_a_flush_half_built_leaves_service_usable(
        self, graph, requests, reference
    ):
        service = GraphService(graph, ServiceConfig(cache_size=0, max_inflight=4))
        gate = hold_worker(service)

        async def abandoned():
            tasks = await queued(service, requests[:2])  # handed over, parked
            tasks += await queued(service, requests[2:4])  # still in the pending list
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            assert service._frontend.admission.inflight == 0

        asyncio.run(abandoned())  # the drain dies with this loop, mid-flush
        gate.set()
        for position in (4, 5):  # a fresh loop each
            answer = asyncio.run(
                asyncio.wait_for(service.submit(requests[position], alpha=ALPHA), timeout=10)
            )
            assert answers_identical("reach", [answer.value], [reference[position]])
        assert service._frontend.admission.inflight == 0


class TestClose:
    @pytest.mark.parametrize("close", ["service", "frontend"])
    def test_close_with_work_queued_fails_it_with_service_error(self, graph, requests, close):
        service = GraphService(graph, ServiceConfig(cache_size=0, max_inflight=8))

        async def main():
            gate = hold_worker(service)
            frontend = service._frontend
            tasks = await queued(service, requests[:2])  # on the pool, behind the gate
            tasks += await queued(service, requests[2:4])  # in the pending list
            stream = asyncio.ensure_future(_drain_stream(service, requests[4:6]))
            await asyncio.sleep(0.01)
            (service if close == "service" else frontend).close()
            gate.set()
            results = await asyncio.wait_for(
                asyncio.gather(*tasks, stream, return_exceptions=True), timeout=10
            )
            return frontend, results

        frontend, results = asyncio.run(main())
        handed_over, pending = results[:2], results[2:]
        if close == "service":
            assert all(isinstance(r, ServiceError) for r in handed_over)
        else:  # the flush the worker already held still runs
            assert all(r.value is not None for r in handed_over)
        assert all(isinstance(r, ServiceError) for r in pending), pending
        assert frontend.admission.inflight == 0


async def _drain_stream(service, batch):
    return [answer async for answer in service.stream(batch, alpha=ALPHA)]


class TestStream:
    def test_stream_yields_exactly_the_batch_answer_set(self, graph, requests, reference):
        service = GraphService(graph, ServiceConfig(cache_size=0, stream_chunk_size=7))

        async def main():
            collected = []
            async for answer in service.stream(requests, alpha=ALPHA):
                collected.append(answer)
            return collected

        collected = asyncio.run(main())
        assert sorted(a.index for a in collected) == list(range(len(requests)))
        by_index = sorted(collected, key=lambda a: a.index)
        assert answers_identical("reach", [a.value for a in by_index], reference)
        assert service.stats().streamed == len(requests)

    @staticmethod
    async def _collect(service, requests):
        return [a async for a in service.stream(requests, alpha=ALPHA)]

    def test_stream_parity_for_every_chunk_size(self, graph, requests, reference):
        for chunk_size in (1, 3, len(requests), len(requests) * 2):
            service = GraphService(
                graph, ServiceConfig(cache_size=0, stream_chunk_size=chunk_size)
            )
            collected = sorted(
                asyncio.run(self._collect(service, requests)), key=lambda a: a.index
            )
            assert answers_identical("reach", [a.value for a in collected], reference), (
                f"stream diverged at chunk_size={chunk_size}"
            )

    def test_cancellation_mid_stream_leaves_service_reusable(
        self, graph, requests, reference
    ):
        service = GraphService(graph, ServiceConfig(cache_size=0, stream_chunk_size=4))

        async def interrupted():
            stream = service.stream(requests, alpha=ALPHA)
            collected = []
            async for answer in stream:
                collected.append(answer)
                if len(collected) >= 3:
                    break
            await stream.aclose()
            return collected

        partial = asyncio.run(interrupted())
        assert len(partial) == 3

        # The service must be fully reusable: admission released, worker
        # thread healthy, answers still bit-identical — sync and async.
        sync = service.run_batch(requests, alpha=ALPHA)
        assert answers_identical("reach", sync.answers, reference)

        async def full():
            return [a async for a in service.stream(requests, alpha=ALPHA)]

        collected = sorted(asyncio.run(full()), key=lambda a: a.index)
        assert answers_identical("reach", [a.value for a in collected], reference)
        assert service._frontend.admission.inflight == 0

    def test_cancelled_task_mid_gather_releases_admission(self, graph, requests):
        service = GraphService(graph, ServiceConfig(cache_size=0, max_inflight=2))

        async def main():
            tasks = [
                asyncio.ensure_future(service.submit(request, alpha=ALPHA))
                for request in requests[:6]
            ]
            await asyncio.sleep(0)
            for task in tasks[3:]:
                task.cancel()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            return results

        results = asyncio.run(main())
        assert any(isinstance(r, asyncio.CancelledError) for r in results)
        assert service._frontend.admission.inflight == 0
        # And the service still answers.
        answer = asyncio.run(service.submit(requests[0], alpha=ALPHA))
        assert answer.value is not None


class TestAdmissionControl:
    def test_backpressure_bounds_inflight(self, graph, requests):
        service = GraphService(
            graph, ServiceConfig(cache_size=0, max_inflight=4, stream_chunk_size=4)
        )

        async def main():
            return [a async for a in service.stream(requests, alpha=ALPHA)]

        collected = asyncio.run(main())
        assert len(collected) == len(requests)
        stats = service.stats()
        assert 0 < stats.max_inflight <= 4
        assert stats.admission_waits > 0  # later chunks actually waited

    def test_caller_cancelled_while_queued_releases_admission(self, graph, requests, reference):
        service = GraphService(graph, ServiceConfig(cache_size=0, max_inflight=3))

        async def main():
            gate = hold_worker(service)
            parked = await queued(service, requests[:1])
            waiting = await queued(service, requests[1:5])  # 2 admitted and queued, 2 waiting
            admission = service._frontend.admission
            assert admission.inflight == 3
            waiting[0].cancel()  # a queued caller: its charge must come back ...
            await asyncio.sleep(0.01)
            assert admission.inflight == 3  # ... and admit one that was waiting
            assert not waiting[3].done()
            gate.set()
            return await asyncio.wait_for(
                asyncio.gather(*parked, *waiting, return_exceptions=True), timeout=10
            )

        results = asyncio.run(main())
        assert isinstance(results[1], asyncio.CancelledError)
        kept = [results[0]] + results[2:]
        assert answers_identical(
            "reach", [a.value for a in kept], [reference[0]] + reference[2:5]
        )
        # The cancelled request never reached the engine.
        assert service.stats().queries == 4
        assert service._frontend.admission.inflight == 0

    def test_controller_blocks_past_max_inflight(self):
        async def main():
            controller = AdmissionController(max_inflight=2, client_budget=10.0)
            await controller.acquire({"a": (2, 0.2)})
            waiter = asyncio.ensure_future(controller.acquire({"b": (1, 0.1)}))
            await asyncio.sleep(0.01)
            assert not waiter.done()  # blocked: 2 + 1 > 2
            assert controller.waits == 1
            await controller.release({"a": (2, 0.2)})
            await asyncio.wait_for(waiter, timeout=1)
            assert controller.inflight == 1
            await controller.release({"b": (1, 0.1)})
            assert controller.inflight == 0
            assert controller.max_seen == 2

        asyncio.run(main())

    def test_controller_enforces_per_client_alpha_budget(self):
        async def main():
            controller = AdmissionController(max_inflight=100, client_budget=0.05)
            await controller.acquire({"alice": (1, 0.04)})
            blocked = asyncio.ensure_future(controller.acquire({"alice": (1, 0.04)}))
            other = asyncio.ensure_future(controller.acquire({"bob": (1, 0.04)}))
            await asyncio.sleep(0.01)
            assert other.done()  # bob is under his own budget
            assert not blocked.done()  # alice is over hers
            await controller.release({"alice": (1, 0.04)})
            await asyncio.wait_for(blocked, timeout=1)
            await controller.release({"alice": (1, 0.04)})
            await controller.release({"bob": (1, 0.04)})
            assert controller.inflight == 0

        asyncio.run(main())

    def test_oversized_charge_admitted_alone(self):
        async def main():
            controller = AdmissionController(max_inflight=4, client_budget=0.1)
            # A chunk larger than the whole bound must not deadlock: it is
            # admitted once nothing else is in flight.
            await asyncio.wait_for(controller.acquire({"a": (10, 1.0)}), timeout=1)
            assert controller.inflight == 10
            follower = asyncio.ensure_future(controller.acquire({"b": (1, 0.01)}))
            await asyncio.sleep(0.01)
            assert not follower.done()
            await controller.release({"a": (10, 1.0)})
            await asyncio.wait_for(follower, timeout=1)
            await controller.release({"b": (1, 0.01)})

        asyncio.run(main())

    def test_per_client_budget_serialises_expensive_queries(self, graph, requests):
        # Two clients, each holding at most one 0.08-α query at a time.
        service = GraphService(
            graph, ServiceConfig(cache_size=0, max_inflight=100, client_alpha_budget=0.1)
        )
        tagged = [
            ReachRequest(r.source, r.target, alpha=0.08, client=f"c{i % 2}")
            for i, r in enumerate(requests[:8])
        ]

        async def main():
            return await asyncio.gather(*(service.submit(t) for t in tagged))

        answers = asyncio.run(main())
        assert len(answers) == 8
        stats = service.stats()
        assert stats.admission_waits > 0
        # At most one in-flight query per client at any instant.
        assert stats.max_inflight <= 2


class TestSubscriptionStream:
    def _toy_service(self):
        """0→1 and 2→3: adding 1→2 flips reach(0, 3) from False to True."""
        from repro.graph.digraph import DiGraph

        toy = DiGraph()
        for node in range(4):
            toy.add_node(node, "A")
        toy.add_edge(0, 1)
        toy.add_edge(2, 3)
        # At ALPHA the 7-item toy allows 2 visits, fewer than reading the seed
        # labels of (0, 3) costs, so every answer would be an exhausted False.
        return GraphService(toy, ServiceConfig(alpha=0.5))

    def test_stream_pushes_snapshot_then_maintenance_delta(self):
        from repro.subscribe import INITIAL, UPDATE
        from repro.updates.delta import GraphDelta

        service = self._toy_service()

        async def main():
            stream = service.subscription_stream([ReachRequest(0, 3)])
            snapshot = await asyncio.wait_for(stream.__anext__(), timeout=5)
            assert snapshot.reason == INITIAL and snapshot.epoch == 0
            assert snapshot.new_value.reachable is False
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, service.update, GraphDelta().add_edge(1, 2)
            )
            change = await asyncio.wait_for(stream.__anext__(), timeout=5)
            assert change.reason == UPDATE and change.epoch == 1
            assert change.old_value.reachable is False
            assert change.new_value.reachable is True
            await stream.aclose()

        asyncio.run(main())
        assert service.subscriptions() == []
        assert service._frontend.admission.inflight == 0
        service.close()

    def test_cancellation_mid_update_releases_admission_and_deregisters(
        self, graph, requests, reference
    ):
        from repro.workloads.deltas import generate_delta_stream

        service = GraphService(graph, ServiceConfig(cache_size=0))
        deltas = list(
            generate_delta_stream(graph, batches=2, ops_per_batch=10, mix="uniform", seed=9)
        )

        async def main():
            received = []

            async def consume():
                async for delta in service.subscription_stream(
                    requests[:4], alpha=ALPHA
                ):
                    received.append(delta)

            task = asyncio.create_task(consume())
            # Wait for the epoch-0 snapshots: registration is complete and
            # the stream holds its admission charges.
            while len(received) < 4:
                await asyncio.sleep(0.01)
            assert service._frontend.admission.inflight == 4
            assert len(service.subscriptions()) == 4
            # Cancel while an update (and its maintenance pass) is running.
            loop = asyncio.get_running_loop()
            update = loop.run_in_executor(None, service.update, deltas[0])
            task.cancel()
            await asyncio.gather(task, update, return_exceptions=True)

        asyncio.run(main())
        # Admission charges released, table empty, service fully reusable.
        assert service._frontend.admission.inflight == 0
        assert service.subscriptions() == []
        service.update(deltas[1])
        sub = service.subscribe(requests[0], alpha=ALPHA)
        assert sub.value is not None
        answer = asyncio.run(service.submit(requests[1], alpha=ALPHA))
        assert answer.value is not None
        service.close()

    def test_standing_charges_count_against_the_client_budget(self, graph, requests):
        service = GraphService(graph, ServiceConfig(cache_size=0, max_inflight=3))

        async def main():
            stream = service.subscription_stream(requests[:3], alpha=ALPHA)
            for _ in range(3):
                await asyncio.wait_for(stream.__anext__(), timeout=5)
            # All three admission slots are held by standing queries: an
            # ad-hoc submit must wait until the stream closes.
            submit = asyncio.ensure_future(service.submit(requests[3], alpha=ALPHA))
            await asyncio.sleep(0.05)
            assert not submit.done()
            await stream.aclose()
            return await asyncio.wait_for(submit, timeout=5)

        answer = asyncio.run(main())
        assert answer.value is not None
        assert service._frontend.admission.inflight == 0
        service.close()
