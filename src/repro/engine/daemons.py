"""Persistent worker daemons: a warm process pool forked from the state it serves.

A pool that forked per batch would pay worker startup on *every* batch and
lose to serial.  A :class:`DaemonPool` forks its workers once per state
version and keeps them warm: each daemon inherits the state handed to
:meth:`DaemonPool.run` as its ``Process`` argument — copy-on-write pages,
nothing exported, nothing pickled — and then answers an arbitrary number of
batches over plain pipes carrying only ``(kind, alpha, queries)`` chunks and
their answers.

Lifecycle guarantees (crash-tested in ``tests/test_daemons.py``):

* **one version** — when the owner's state version moves (an update, a new
  α index) the pool stops its workers and forks fresh ones from the current
  state, so every worker serves the version it was forked from; the
  hand-off costs a fork (page tables), not a copy of the state;
* **restart-on-death** — a daemon that dies (e.g. SIGKILL) mid-batch is
  detected via its process sentinel, re-forked from the current state, and
  its in-flight chunk is retried on a healthy worker; a chunk that keeps
  killing workers raises a typed
  :class:`~repro.exceptions.DaemonError` (an ``EngineError``) instead of
  looping, and the pool stays usable for the next batch;
* **health-check ping** — :meth:`DaemonPool.ping` round-trips every worker
  (optionally reviving dead ones) without touching state;
* **graceful shutdown** — :meth:`DaemonPool.close` stops the workers and
  joins them (escalating to ``terminate`` on a timeout); an ``atexit``
  sweep closes leaked pools so daemons never outlive the interpreter.

The pool needs the ``fork`` start method: constructing one where it is
missing raises :class:`~repro.exceptions.DaemonError`, and the ``auto``
planner stays serial there (:func:`fork_available`).

Answers are bit-identical to serial: daemons run the same pure chunk
functions over the same chunking as the serial executor, against a
copy-on-write image of the very state the parent serves from.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import threading
import time
import traceback
import weakref
from collections import deque
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine.executors import answer_chunk, default_workers
from repro.exceptions import DaemonError


def fork_available() -> bool:
    """Whether this platform offers the ``fork`` start method the pool needs."""
    return "fork" in multiprocessing.get_all_start_methods()


DEFAULT_JOIN_TIMEOUT = 5.0
"""Seconds a graceful shutdown waits per worker before terminating it."""

MAX_TASK_RETRIES = 2
"""A chunk may survive this many worker deaths before the batch errors."""

_POOLS: "weakref.WeakSet[DaemonPool]" = weakref.WeakSet()


def _close_leaked_pools() -> None:  # pragma: no cover - interpreter exit
    for pool in list(_POOLS):
        try:
            pool.close()
        except Exception:
            pass


atexit.register(_close_leaked_pools)


def _daemon_main(conn: Any, state: Any) -> None:  # pragma: no cover - runs in worker processes
    """Daemon loop: answer chunks against the inherited ``state`` until told to stop.

    The worker keeps its own process-local metrics registry and drains it
    (snapshot + reset) into every ``ok``/``pong`` reply, so the parent can
    merge each delta exactly once.  Its first reply also carries its
    ``ru_maxrss``.
    """
    import gc
    import resource
    import signal

    # Every object inherited from the parent is long-lived here: keep the
    # collector off them, or its first full pass writes to each one's header
    # and copies nearly every page of the state out of the shared image.
    gc.freeze()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent coordinates shutdown
    # The child starts with a *copy* of the parent's registry; without this
    # reset its first drain would ship the parent's own counts back to the
    # parent, which would merge them a second time.
    obs.REGISTRY.reset()
    # Same hazard for tracing: a forked child inherits the parent's open span
    # stack (its spans would claim the parent's span IDs as parents) and the
    # parent's sink file descriptor (interleaved writes).  Worker spans travel
    # back as buffered records instead; the parent is the only writer.
    obs.trace.reset_for_child()
    unreported = True

    def footer() -> Tuple[Optional[Dict[str, Any]], Optional[int]]:
        """The drained metrics delta, and ``ru_maxrss`` in bytes on the first reply."""
        nonlocal unreported
        rss_bytes = None
        if unreported:
            unreported = False
            rss_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux
        if not obs.enabled():
            return None, rss_bytes
        delta = obs.REGISTRY.drain()
        return (delta if any(delta.values()) else None), rss_bytes

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "task":
            _, batch, index, chunk_fn, task, ctx, _send_ts = message
            recv_ts = time.perf_counter()
            try:
                chunk_started = time.perf_counter()
                if ctx is None:
                    spans = None
                    with obs.span("daemon.worker", chunk=index):
                        result = chunk_fn(state, task)
                else:
                    # Buffer this chunk's spans and ship them back with the
                    # result; activating the dispatched context parents them
                    # under the parent's engine.batch span.
                    with obs.trace.buffered_spans() as spans:
                        with obs.context.activate(ctx):
                            with obs.span("daemon.worker", chunk=index):
                                result = chunk_fn(state, task)
            except BaseException:
                conn.send(("err", batch, index, traceback.format_exc()))
            else:
                obs.counter("daemon.worker.chunks").inc()
                obs.histogram("daemon.worker.chunk.seconds").observe(
                    time.perf_counter() - chunk_started
                )
                stats, rss_bytes = footer()
                conn.send(
                    ("ok", batch, index, result, stats, spans, recv_ts, time.perf_counter(), rss_bytes)
                )
        elif kind == "ping":
            conn.send(("pong", message[1], os.getpid(), *footer()))
        elif kind == "stop":
            break
    try:
        conn.close()
    except Exception:
        pass


def _emit_worker_trace(
    ctx: "obs.TraceContext",
    index: int,
    spans: List[Dict[str, Any]],
    dispatch_start: float,
    send_ts: float,
    recv_ts: float,
    done_ts: float,
) -> None:
    """Fold one chunk's worker-side trace back into the parent's timeline.

    Re-emits the buffered worker spans into the parent's sink/collectors,
    then synthesises the segments that exist only as timestamp differences
    across the pipe (``perf_counter`` is system-wide monotonic here, so
    parent and worker clocks are directly comparable): queue wait before
    dispatch, and pipe transit in each direction.
    """
    parent_recv = time.perf_counter()
    for record in spans:
        obs.trace.emit(record)
    obs.trace.emit_segment(
        "worker.queue.wait",
        ts=dispatch_start,
        wall_ms=(send_ts - dispatch_start) * 1e3,
        ctx=ctx,
        chunk=index,
    )
    obs.trace.emit_segment(
        "worker.pipe.transit",
        ts=send_ts,
        wall_ms=(recv_ts - send_ts) * 1e3,
        ctx=ctx,
        chunk=index,
        direction="outbound",
    )
    obs.trace.emit_segment(
        "worker.pipe.transit",
        ts=done_ts,
        wall_ms=(parent_recv - done_ts) * 1e3,
        ctx=ctx,
        chunk=index,
        direction="inbound",
    )


class _Daemon:
    """Parent-side record of one worker process."""

    __slots__ = ("process", "conn", "rss_bytes")

    def __init__(self, process: Any, conn: Any):
        self.process = process
        self.conn = conn
        self.rss_bytes = 0  # the worker's ru_maxrss, from its first reply

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def note_rss(self, rss_bytes: Optional[int]) -> None:
        """Record the ``ru_maxrss`` a worker's first reply carries."""
        if rss_bytes is not None:
            self.rss_bytes = rss_bytes
            obs.histogram("daemon.worker.rss.bytes").observe(rss_bytes)

    def discard(self) -> None:
        """Drop a dead (or dying) worker without ceremony."""
        try:
            self.conn.close()
        except Exception:
            pass
        if self.process.is_alive():  # pragma: no cover - caller saw it dead
            self.process.terminate()
        self.process.join(timeout=DEFAULT_JOIN_TIMEOUT)


def _stop(workers: List[_Daemon], timeout: float) -> int:
    """Ask every worker to stop, then join each (terminating a stuck one).

    Returns how many of them had died instead of stopping cleanly.
    """
    for worker in workers:
        if worker.alive:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):  # pragma: no cover - racing death
                pass
    for worker in workers:
        worker.process.join(timeout=timeout)
        if worker.process.is_alive():  # pragma: no cover - stuck worker
            worker.process.terminate()
            worker.process.join(timeout=timeout)
        try:
            worker.conn.close()
        except Exception:  # pragma: no cover - already closed
            pass
    return sum(worker.process.exitcode != 0 for worker in workers)


class DaemonPool:
    """A warm pool of persistent worker processes forked from the served state.

    Workers fork lazily on the first :meth:`run` and persist across batches
    until the state version changes or :meth:`close`.  The engines'
    ``daemon`` executor calls :meth:`run` on the pool they own.

    ``version`` is the owner's state token (the engine's update epoch plus
    its prepared-state signature); the pool re-forks its workers exactly
    when it changes.  Without an explicit version, object identity of
    ``state`` is the trigger.
    """

    def __init__(self, workers: Optional[int] = None):
        if not fork_available():
            raise DaemonError(
                "the daemon executor forks its workers from the served state and this "
                "platform has no 'fork' start method; use executor='serial'"
            )
        self.workers = max(1, workers or default_workers())
        self._context = multiprocessing.get_context("fork")
        self._workers: List[_Daemon] = []
        # The state every worker is a fork of, and its version key; a
        # restarted worker forks from the same one.
        self._state: Any = None
        self._version: Any = None
        self._batch_seq = 0
        self._restarts = 0
        self._closed = False
        self._lock = threading.Lock()
        _POOLS.add(self)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def started(self) -> bool:
        """Whether worker processes exist (they start on first use)."""
        return bool(self._workers)

    @property
    def restarts(self) -> int:
        """Workers restarted after dying (telemetry for tests/benchmarks)."""
        return self._restarts

    def worker_pids(self) -> List[int]:
        """Pids of the current worker processes."""
        return [worker.process.pid for worker in self._workers]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _fork_worker(self) -> _Daemon:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_daemon_main,
            args=(child_conn, self._state),
            daemon=True,
            name="repro-daemon",
        )
        process.start()
        child_conn.close()
        return _Daemon(process, parent_conn)

    def _ensure_started(self) -> None:
        if self._closed:
            raise DaemonError("daemon pool is closed")
        while len(self._workers) < self.workers:
            self._workers.append(self._fork_worker())

    def _serve_locked(self, state: Any, version: Any) -> None:
        """Make every worker a fork of ``state``; re-fork only on a new version."""
        if self._closed:
            raise DaemonError("daemon pool is closed")
        key = ("id", id(state)) if version is None else ("v", version)
        if key != self._version:
            workers, self._workers = self._workers, []
            died = _stop(workers, DEFAULT_JOIN_TIMEOUT)
            if died:  # died since their last batch: replaced like any restart
                self._restarts += died
                obs.counter("daemon.restarts").inc(died)
            self._state, self._version = state, key
            obs.counter("daemon.publishes").inc()
        self._ensure_started()

    def _restart(self, worker: _Daemon) -> _Daemon:
        """Replace a dead worker in place; counts toward the restart budget."""
        worker.discard()
        self._restarts += 1
        obs.counter("daemon.restarts").inc()
        replacement = self._fork_worker()
        self._workers[self._workers.index(worker)] = replacement
        return replacement

    def close(self, timeout: float = DEFAULT_JOIN_TIMEOUT) -> None:
        """Graceful shutdown: stop the workers and join them."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
            _stop(workers, timeout)
            self._state = self._version = None

    def __enter__(self) -> "DaemonPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        state: Any,
        tasks: Sequence[Any],
        chunk_fn: Callable[[Any, Any], List[Any]] = answer_chunk,
        version: Any = None,
    ) -> List[List[Any]]:
        """Chunk results in task order, computed by the warm workers.

        The ``daemon`` executor's entry point.  Worker deaths are absorbed up
        to :data:`MAX_TASK_RETRIES` per chunk; anything beyond raises
        :class:`DaemonError` with the pool left healthy.
        """
        with self._lock:
            if not tasks:
                return []
            self._serve_locked(state, version)
            self._batch_seq += 1
            return self._dispatch_locked(list(tasks), chunk_fn)

    def _dispatch_locked(self, tasks: List[Any], chunk_fn: Callable) -> List[List[Any]]:
        batch = self._batch_seq
        dispatch_start = time.perf_counter()
        # The dispatching thread's innermost span (engine.batch) becomes the
        # parent of every worker-side span; None when tracing is off, which
        # keeps the pipe messages and the worker fast path unchanged.
        ctx = obs.context.current() if obs.trace.tracing() else None
        results: List[Optional[List[Any]]] = [None] * len(tasks)
        attempts = [0] * len(tasks)
        pending = deque(range(len(tasks)))
        inflight: Dict[_Daemon, Tuple[int, float]] = {}
        idle = deque(worker for worker in self._workers)

        def requeue(worker: _Daemon, reason: str) -> None:
            """A worker died: salvage its chunk, restart it, keep going."""
            entry = inflight.pop(worker, None)
            replacement = self._restart(worker)
            idle.append(replacement)
            if entry is None:
                return
            index = entry[0]
            attempts[index] += 1
            obs.counter("daemon.retries").inc()
            if attempts[index] > MAX_TASK_RETRIES:
                raise DaemonError(
                    f"daemon chunk {index} killed {attempts[index]} workers in a row ({reason}); "
                    "giving up on this batch"
                )
            pending.appendleft(index)

        while pending or inflight:
            while pending and idle:
                worker = idle.popleft()
                if not worker.alive:
                    requeue(worker, "died while idle")
                    continue
                index = pending.popleft()
                send_ts = time.perf_counter()
                try:
                    worker.conn.send(("task", batch, index, chunk_fn, tasks[index], ctx, send_ts))
                except (BrokenPipeError, OSError):
                    pending.appendleft(index)
                    requeue(worker, "pipe closed on dispatch")
                    continue
                inflight[worker] = (index, send_ts)
            if not inflight:
                continue
            waitables: List[Any] = []
            by_waitable: Dict[Any, Tuple[_Daemon, bool]] = {}
            for worker in inflight:
                waitables.append(worker.conn)
                by_waitable[worker.conn] = (worker, False)
                waitables.append(worker.process.sentinel)
                by_waitable[worker.process.sentinel] = (worker, True)
            for ready in connection.wait(waitables):
                worker, is_sentinel = by_waitable[ready]
                if worker not in inflight:
                    continue  # already handled via its other waitable
                if is_sentinel and not worker.conn.poll():
                    requeue(worker, "process died")
                    continue
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    requeue(worker, "pipe closed mid-chunk")
                    continue
                kind = message[0]
                if kind in ("ok", "err") and message[1] != batch:
                    continue  # fenced reply from an abandoned batch
                if kind == "ok":
                    _, _, index, result, worker_stats, spans, recv_ts, done_ts, rss_bytes = message
                    obs.REGISTRY.merge(worker_stats)
                    worker.note_rss(rss_bytes)
                    results[index] = result
                    _, send_ts = inflight.pop(worker)
                    idle.append(worker)
                    if ctx is not None and spans is not None:
                        _emit_worker_trace(ctx, index, spans, dispatch_start, send_ts, recv_ts, done_ts)
                elif kind == "err":
                    _, _, index, text = message
                    inflight.pop(worker)
                    idle.append(worker)
                    raise DaemonError(f"daemon chunk {index} failed in worker:\n{text}")
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Health checks
    # ------------------------------------------------------------------ #
    def ping(self, timeout: float = DEFAULT_JOIN_TIMEOUT, restart: bool = False) -> List[bool]:
        """Round-trip every worker; ``restart=True`` also revives dead ones.

        Returns one boolean per worker slot (``True`` = answered in time).
        Call between batches — pings share the task pipes.
        """
        with self._lock:
            self._ensure_started()
            nonce = next(_PING_NONCE)
            alive: List[bool] = []
            for worker in list(self._workers):
                ok = False
                if worker.alive:
                    try:
                        ping_started = time.perf_counter()
                        worker.conn.send(("ping", nonce))
                        while connection.wait([worker.conn, worker.process.sentinel], timeout=timeout):
                            if not worker.conn.poll():
                                break  # sentinel fired: death
                            message = worker.conn.recv()
                            if message[0] == "pong" and message[1] == nonce:
                                obs.histogram("daemon.ping.seconds").observe(
                                    time.perf_counter() - ping_started
                                )
                                obs.REGISTRY.merge(message[3])
                                worker.note_rss(message[4])
                                ok = True
                                break
                    except (BrokenPipeError, EOFError, OSError):
                        ok = False
                if not ok and restart:
                    self._restart(worker)
                alive.append(ok)
            return alive


_PING_NONCE = itertools.count(1)


__all__ = [
    "DEFAULT_JOIN_TIMEOUT",
    "DaemonPool",
    "MAX_TASK_RETRIES",
    "fork_available",
]
