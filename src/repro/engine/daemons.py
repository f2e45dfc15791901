"""Persistent worker daemons: a warm process pool that owns attached state.

A pool that forked per batch would pay worker startup plus state shipping
on *every* batch and lose to serial.  A :class:`DaemonPool` starts its
workers once and keeps them warm: each
daemon attaches the engine's published
:class:`~repro.engine.prepared.SharedPreparedGraph` — CSR arrays as
zero-copy shared-memory views, derived indexes unpickled once per publish —
and then answers an arbitrary number of batches over plain pipes carrying
only ``(kind, alpha, queries)`` chunks and their answers.

Lifecycle guarantees (crash-tested in ``tests/test_daemons.py``):

* **versioned state** — every publish carries a sequence number; a daemon
  acknowledges attachment before tasks flow, and the pool republishes when
  the owning engine's state epoch moves (an update, a new α index), so
  long-lived workers never serve stale state;
* **restart-on-death** — a daemon that dies (e.g. SIGKILL) mid-batch is
  detected via its process sentinel, restarted, re-attached, and its
  in-flight chunk is retried on a healthy worker; a chunk that keeps
  killing workers raises a typed
  :class:`~repro.exceptions.DaemonError` (an ``EngineError``) instead of
  looping, and the pool stays usable for the next batch;
* **health-check ping** — :meth:`DaemonPool.ping` round-trips every worker
  (optionally reviving dead ones) without touching state;
* **graceful shutdown** — :meth:`DaemonPool.close` stops the workers,
  joins them (escalating to ``terminate`` on a timeout) and unlinks every
  shared segment; an ``atexit`` sweep closes leaked pools so daemons never
  outlive the interpreter.

Answers are bit-identical to serial: daemons run the same pure chunk
functions over the same chunking as the serial executor, against state
that attaches to the same arrays the parent serves from.
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
from repro.engine.prepared import SharedPreparedGraph, publish_state
from repro.exceptions import DaemonError


def _process_context():
    """Prefer ``fork`` (cheap worker start, inherited hash seed).

    ``REPRO_MP_START_METHOD`` overrides the choice (``fork``/``spawn``/
    ``forkserver``) — used by tests to exercise the non-fork attach path
    on Linux, and available as an escape hatch on platforms where forking a
    threaded parent misbehaves.
    """
    override = os.environ.get("REPRO_MP_START_METHOD")
    if override:
        return multiprocessing.get_context(override)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


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


def _daemon_main(conn: Any, metrics_enabled: bool = True) -> None:  # pragma: no cover - runs in worker processes
    """Daemon loop: attach published state, answer chunks until told to stop.

    The worker keeps its own process-local metrics registry and drains it
    (snapshot + reset) into every ``ok``/``pong`` reply, so the parent can
    merge each delta exactly once.  ``metrics_enabled`` is passed explicitly
    because under ``spawn`` the child does not inherit the parent's
    module-level enabled flag.
    """
    import resource
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent coordinates shutdown
    obs.set_enabled(metrics_enabled)
    # Under ``fork`` the child starts with a *copy* of the parent's registry;
    # without this reset its first drain would ship the parent's own counts
    # back to the parent, which would merge them a second time.
    obs.REGISTRY.reset()
    # Same hazard for tracing: a forked child inherits the parent's open span
    # stack (its spans would claim the parent's span IDs as parents) and the
    # parent's sink file descriptor (interleaved writes).  Worker spans travel
    # back as buffered records instead; the parent is the only writer.
    obs.trace.reset_for_child()

    def drained_stats() -> Optional[Dict[str, Any]]:
        if not obs.enabled():
            return None
        delta = obs.REGISTRY.drain()
        return delta if any(delta.values()) else None

    state: Any = None
    handle: Optional[SharedPreparedGraph] = None
    state_seq = -1
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "state":
            _, seq, new_handle = message
            try:
                new_state = new_handle.attach()
            except BaseException as exc:
                conn.send(("attach-error", seq, repr(exc)))
                continue
            state = new_state
            state_seq = seq
            if handle is not None:
                handle.close()  # detach old segments (owner unlinks)
            handle = new_handle
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
            conn.send(("ready", seq, rss_kib * 1024))
        elif kind == "task":
            _, seq, batch, index, chunk_fn, task, ctx, _send_ts = message
            recv_ts = time.perf_counter()
            if seq != state_seq or state is None:
                conn.send(("stale", batch, index))
                continue
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
                conn.send(
                    (
                        "ok",
                        batch,
                        index,
                        result,
                        drained_stats(),
                        spans,
                        recv_ts,
                        time.perf_counter(),
                    )
                )
        elif kind == "ping":
            conn.send(("pong", message[1], state_seq, os.getpid(), drained_stats()))
        elif kind == "stop":
            break
    if handle is not None:
        try:
            handle.close()
        except Exception:
            pass
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

    __slots__ = ("process", "conn", "state_seq", "rss_bytes")

    def __init__(self, process: Any, conn: Any):
        self.process = process
        self.conn = conn
        self.state_seq = -1
        self.rss_bytes = 0  # the worker's ru_maxrss at its latest attach

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def discard(self) -> None:
        """Drop a dead (or dying) worker without ceremony."""
        try:
            self.conn.close()
        except Exception:
            pass
        if self.process.is_alive():  # pragma: no cover - caller saw it dead
            self.process.terminate()
        self.process.join(timeout=DEFAULT_JOIN_TIMEOUT)


class DaemonPool:
    """A warm pool of persistent worker processes with attached state.

    Workers start lazily on the first :meth:`run` and persist across
    batches (and across :meth:`publish` cycles) until :meth:`close`.  The
    engines' ``daemon`` executor calls :meth:`run` on the pool they own.

    ``version`` is the owner's state token (the engine's update epoch plus
    its prepared-state signature); the pool republishes exactly when it
    changes.  Without an explicit version, object identity of ``state`` is
    the trigger.
    """

    def __init__(self, workers: Optional[int] = None, context: Any = None):
        self.workers = max(1, workers or default_workers())
        self._context = context if context is not None else _process_context()
        self._workers: List[_Daemon] = []
        self._handle: Optional[SharedPreparedGraph] = None
        self._published_version: Any = None
        self._state_seq = 0
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

    def segment_names(self) -> List[str]:
        """Shared segments backing the currently-published state."""
        return self._handle.segment_names() if self._handle is not None else []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _spawn_worker(self) -> _Daemon:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_daemon_main,
            # The enabled flag ships as a spawn argument: under ``spawn`` the
            # child re-imports modules and would otherwise default to the env.
            args=(child_conn, obs.enabled()),
            daemon=True,
            name="repro-daemon",
        )
        process.start()
        child_conn.close()
        worker = _Daemon(process, parent_conn)
        if self._handle is not None:
            self._attach_worker(worker)
        return worker

    def _send_state(self, worker: _Daemon) -> float:
        """Ship the current state handle to one worker; returns the send time."""
        try:
            worker.conn.send(("state", self._state_seq, self._handle))
        except (BrokenPipeError, OSError):
            raise DaemonError("daemon worker died while attaching shared state") from None
        return time.perf_counter()

    def _await_ready(self, worker: _Daemon, sent_at: float) -> None:
        """Wait for one worker's ack of the state sent at ``sent_at``."""
        while True:
            ready = connection.wait([worker.conn, worker.process.sentinel])
            if worker.conn in ready:
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    raise DaemonError("daemon worker died while attaching shared state")
                if message[0] == "ready":
                    worker.state_seq, worker.rss_bytes = message[1], message[2]
                    obs.histogram("daemon.attach.seconds").observe(time.perf_counter() - sent_at)
                    obs.histogram("daemon.worker.rss.bytes").observe(worker.rss_bytes)
                    return
                if message[0] == "attach-error":
                    raise DaemonError(f"daemon worker failed to attach shared state: {message[2]}")
                # Drop fenced replies from an earlier batch and keep waiting.
                continue
            raise DaemonError("daemon worker died while attaching shared state")

    def _attach_worker(self, worker: _Daemon) -> None:
        """Ship the current state handle to one worker and await its ack."""
        self._await_ready(worker, self._send_state(worker))

    def _ensure_started(self) -> None:
        if self._closed:
            raise DaemonError("daemon pool is closed")
        while len(self._workers) < self.workers:
            self._workers.append(self._spawn_worker())

    def _restart(self, worker: _Daemon) -> _Daemon:
        """Replace a dead worker in place; counts toward the restart budget."""
        worker.discard()
        self._restarts += 1
        obs.counter("daemon.restarts").inc()
        replacement = self._spawn_worker()
        self._workers[self._workers.index(worker)] = replacement
        return replacement

    def close(self, timeout: float = DEFAULT_JOIN_TIMEOUT) -> None:
        """Graceful shutdown: stop workers, join, unlink shared segments."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
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
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            self._published_version = None

    def __enter__(self) -> "DaemonPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # State publication
    # ------------------------------------------------------------------ #
    def publish(self, state: Any, version: Any = None) -> None:
        """Export ``state`` and attach every worker to it.

        Called implicitly by :meth:`run`; idempotent while ``version`` (or
        the state's identity) is unchanged.  Workers attach concurrently;
        the previous publication's segments are unlinked only after every
        worker acknowledged the new one, so attach windows never race
        cleanup.
        """
        with self._lock:
            self._ensure_started()
            self._publish_locked(state, version)

    def _publish_locked(self, state: Any, version: Any) -> None:
        key = ("id", id(state)) if version is None else ("v", version)
        if self._handle is not None and self._published_version == key:
            return
        publish_started = time.perf_counter()
        handle = publish_state(state)
        obs.counter("daemon.publishes").inc()
        obs.histogram("daemon.publish.seconds").observe(time.perf_counter() - publish_started)
        obs.gauge("daemon.payload.bytes").set(handle.payload_bytes)
        old_handle = self._handle
        self._handle = handle
        self._state_seq += 1
        self._published_version = key
        try:
            # Every live worker gets the handle before any ack is awaited, so
            # the workers unpickle and map the new state side by side.
            sent: List[Tuple[_Daemon, float]] = []
            for index, worker in enumerate(self._workers):
                if worker.alive:
                    sent.append((worker, self._send_state(worker)))
                else:
                    self._workers[index] = self._spawn_worker()  # attaches
            for worker, sent_at in sent:
                self._await_ready(worker, sent_at)
        except DaemonError:
            # A worker died mid-attach: restart it against the new handle;
            # give up (leaving the pool consistent) only if that fails too.
            for index, worker in enumerate(self._workers):
                if not worker.alive or worker.state_seq != self._state_seq:
                    self._restarts += 1
                    obs.counter("daemon.restarts").inc()
                    worker.discard()
                    self._workers[index] = self._spawn_worker()
        finally:
            if old_handle is not None:
                old_handle.close()

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
            self._ensure_started()
            self._publish_locked(state, version)
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
                    worker.conn.send(
                        ("task", self._state_seq, batch, index, chunk_fn, tasks[index], ctx, send_ts)
                    )
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
                if kind in ("ok", "err", "stale") and message[1] != batch:
                    continue  # fenced reply from an abandoned batch
                if kind == "ok":
                    index, result, worker_stats = message[2], message[3], message[4]
                    obs.REGISTRY.merge(worker_stats)
                    results[index] = result
                    _, send_ts = inflight.pop(worker)
                    idle.append(worker)
                    if ctx is not None and len(message) > 5 and message[5] is not None:
                        _emit_worker_trace(
                            ctx, index, message[5], dispatch_start, send_ts, message[6], message[7]
                        )
                elif kind == "err":
                    _, _, index, text = message
                    inflight.pop(worker)
                    idle.append(worker)
                    raise DaemonError(f"daemon chunk {index} failed in worker:\n{text}")
                elif kind == "stale":
                    # The worker missed a publish (it was restarting); ship
                    # the current state and retry the chunk elsewhere.
                    _, _, index = message
                    inflight.pop(worker)
                    self._attach_worker(worker)
                    idle.append(worker)
                    pending.appendleft(index)
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
            for index, worker in enumerate(self._workers):
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
                                obs.REGISTRY.merge(message[4] if len(message) > 4 else None)
                                ok = True
                                break
                    except (BrokenPipeError, EOFError, OSError):
                        ok = False
                if not ok and restart:
                    self._restarts += 1
                    obs.counter("daemon.restarts").inc()
                    worker.discard()
                    self._workers[index] = self._spawn_worker()
                alive.append(ok)
            return alive


_PING_NONCE = itertools.count(1)


__all__ = [
    "DEFAULT_JOIN_TIMEOUT",
    "DaemonPool",
    "MAX_TASK_RETRIES",
]
