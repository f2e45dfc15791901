"""Span tracing: per-stage wall/CPU time with cross-process trace identity.

Where :mod:`repro.obs.metrics` aggregates, tracing *itemises*: each
instrumented stage (``service.query`` → ``planner`` → ``engine.batch`` →
``executor.chunk`` → ``daemon.worker``) opens a :func:`span`, and on exit
one record describes that stage —

``{"span": "engine.batch", "parent": "service.query", "depth": 1,
"trace": "a1f3.2", "id": "a1f3.7", "parent_id": "a1f3.5",
"ts": 10424.113, "pid": 41203, "wall_ms": 12.3, "cpu_ms": 11.9,
"attrs": {...}}``

``trace``/``id``/``parent_id`` come from :mod:`repro.obs.context`: spans in
*other processes* parent correctly because executors ship a
:class:`~repro.obs.context.TraceContext` with each chunk and workers
activate it.  ``ts`` is ``perf_counter`` at span entry — on the platforms
this repo targets that clock is system-wide monotonic, so parent and worker
timestamps are directly comparable and the daemon pool can derive queue
wait and pipe transit as explicit :func:`emit_segment` records.  Wall time
comes from ``perf_counter``, CPU time from ``process_time`` — a large
wall/CPU gap inside a span is the signature of waiting (lock contention,
pipe I/O, admission) rather than compute.

Records go to two kinds of destinations:

* the **sink** — a file (JSON lines, one ``write`` per span under a lock),
  installed via :func:`set_sink` or the ``REPRO_TRACE`` environment
  variable (a path; ``-`` means stderr);
* **collectors** — in-process callables receiving the record dict (no JSON
  cost); the flight recorder (:mod:`repro.obs.flight`) is one, and daemon
  workers buffer their spans through :func:`buffered_spans` to ship them
  back over the task pipes.

Tracing is **off by default** and costs one truthiness check per span while
off: :func:`span` returns a shared no-op context manager unless a sink or a
collector is installed.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, IO, Iterator, List, Optional, Union

from repro.obs import context

_ENV_FLAG = "REPRO_TRACE"

_lock = threading.Lock()
_sink: Optional[IO[str]] = None
_owns_sink = False
_collectors: List[Callable[[Dict[str, Any]], None]] = []


class _NoopSpan:
    __slots__ = ()
    # ``None`` only here: ``if span.attrs is not None`` is the one branch a
    # stage pays, untraced, to attach what it learned while it ran.
    attrs = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _Span:
    __slots__ = ("name", "attrs", "_wall", "_cpu", "_ids")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self._wall = 0.0
        self._cpu = 0.0
        self._ids: Any = None

    def __enter__(self) -> "_Span":
        self._ids = context.enter_frame(self.name)
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc: Any) -> None:
        wall_ms = (time.perf_counter() - self._wall) * 1e3
        cpu_ms = (time.process_time() - self._cpu) * 1e3
        context.exit_frame()
        trace_id, span_id, parent_id, parent_name, depth = self._ids
        record = {
            "span": self.name,
            "parent": parent_name,
            "depth": depth,
            "trace": trace_id,
            "id": span_id,
            "parent_id": parent_id,
            "ts": self._wall,
            "pid": os.getpid(),
            "wall_ms": round(wall_ms, 4),
            "cpu_ms": round(cpu_ms, 4),
        }
        if self.attrs:
            record["attrs"] = self.attrs
        _emit(record)


def _emit(record: Dict[str, Any]) -> None:
    """Deliver one span record to the sink and every collector."""
    for collector in _collectors:
        collector(record)
    sink = _sink
    if sink is None:
        return
    line = json.dumps(record, sort_keys=True, default=str) + "\n"
    with _lock:
        try:
            sink.write(line)
            sink.flush()
        except ValueError:  # sink closed underneath us (interpreter shutdown)
            pass


def emit(record: Dict[str, Any]) -> None:
    """Re-emit an already-built record (worker spans shipped back by value)."""
    _emit(record)


def emit_segment(
    name: str,
    ts: float,
    wall_ms: float,
    ctx: context.TraceContext,
    **attrs: Any,
) -> None:
    """Emit a *derived* segment: a timed interval nobody wrapped in a span.

    Queue wait and pipe transit exist only as differences between
    timestamps taken on both sides of a process boundary; this synthesises
    the record the reassembled timeline needs, parented under ``ctx``.
    """
    record = {
        "span": name,
        "parent": None,
        "depth": 1,
        "trace": ctx.trace_id,
        "id": context.new_id(),
        "parent_id": ctx.span_id,
        "ts": ts,
        "pid": os.getpid(),
        "wall_ms": round(max(0.0, wall_ms), 4),
        "cpu_ms": 0.0,
        "derived": True,
    }
    if attrs:
        record["attrs"] = attrs
    _emit(record)


def span(name: str, **attrs: Any) -> Union[_Span, _NoopSpan]:
    """Context manager timing one stage; no-op (shared instance) when tracing is off."""
    if _sink is None and not _collectors:
        return _NOOP_SPAN
    return _Span(name, attrs)


def tracing() -> bool:
    """Whether spans are being recorded (a sink or a collector is installed)."""
    return _sink is not None or bool(_collectors)


def add_collector(collector: Callable[[Dict[str, Any]], None]) -> None:
    """Install an in-process record consumer (e.g. the flight recorder)."""
    with _lock:
        if collector not in _collectors:
            _collectors.append(collector)


def remove_collector(collector: Callable[[Dict[str, Any]], None]) -> None:
    """Uninstall a collector previously added (missing ones are ignored)."""
    with _lock:
        try:
            _collectors.remove(collector)
        except ValueError:
            pass


@contextmanager
def buffered_spans() -> Iterator[List[Dict[str, Any]]]:
    """Capture every record emitted inside the block into the yielded list.

    The worker-side half of cross-process tracing: a daemon worker buffers
    its chunk's spans here and ships the list back with the result, where
    the parent re-emits them into its own sink/collectors.
    """
    buffer: List[Dict[str, Any]] = []
    add_collector(buffer.append)
    try:
        yield buffer
    finally:
        remove_collector(buffer.append)


def set_sink(target: Union[str, IO[str], None]) -> None:
    """Install the trace sink: a path (``-`` = stderr), an open file, or None (off)."""
    global _sink, _owns_sink
    with _lock:
        if _owns_sink and _sink is not None:
            try:
                _sink.close()
            except OSError:
                pass
        _owns_sink = False
        if target is None:
            _sink = None
        elif isinstance(target, str):
            if target == "-":
                _sink = sys.stderr
            else:
                _sink = open(target, "a", encoding="utf-8")
                _owns_sink = True
        else:
            _sink = target


def reset_for_child() -> None:
    """Clear fork-inherited tracing state in a child process.

    A forked worker starts with the parent's open span stack, sink and
    collectors; left in place, its spans would claim the parent's parent
    IDs and interleave writes on the parent's file descriptor.  The sink
    reference is dropped *without* closing (the parent owns the file);
    worker spans instead travel back as buffered records and are re-emitted
    by the parent — a single writer.  The mirror of the ``obs.REGISTRY``
    reset in ``engine/daemons.py``.
    """
    global _sink, _owns_sink, _collectors
    _sink = None
    _owns_sink = False
    _collectors = []
    context.reset()


def _init_from_env() -> None:
    path = os.environ.get(_ENV_FLAG, "").strip()
    if path:
        set_sink(path)


_init_from_env()

__all__ = [
    "add_collector",
    "buffered_spans",
    "emit",
    "emit_segment",
    "remove_collector",
    "reset_for_child",
    "set_sink",
    "span",
    "tracing",
]
