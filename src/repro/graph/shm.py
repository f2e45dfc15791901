"""Shared-memory segments for :class:`~repro.graph.csr.CSRGraph` arrays.

The daemon pool ships multi-hundred-megabyte prepared state to worker
processes; pickling it per worker (or re-materialising it per batch) would
make a process pool *lose* to serial.
This module puts the flat CSR arrays — ``succ_indptr``/``succ_indices``,
``pred_indptr``/``pred_indices``, ``label_ids``, ``degrees`` — and, when the
graph has computed them, the two neighbour-label presence arrays of
:meth:`CSRGraph.label_presence` (the ``Sl`` summaries the pattern guard
reads) into one ``multiprocessing.shared_memory`` segment so any number of
worker processes can attach the same physical pages zero-copy, by name.
A segment can also carry *columns*: named arrays that describe the graph but
are not part of it.  The condensation DAG's mirror takes the condensation's
``compact``/``member_order``/``member_offsets``, the rank index's ``ranks``
and each landmark index's label columns (``<alpha>:forward_offsets`` ...)
along this way, so the compression and the labels reach a worker as views
and none of it is pickled.

Segment layout (one segment per graph, header ``format`` 3)::

    [8-byte little-endian header length][pickled header][64-aligned arrays]

The header carries everything needed to rebuild the graph on attach: node
ids (just ``n`` when ids are ``0..n-1``; ``None`` for a DAG mirror's
ascending id column, stored as the ``node_ids`` array beside the candidate
rows the header's ``node_rows`` names, ``column:compact`` for a fresh
mirror), the label table, and the name, dtype and shape of each array
present, graph arrays first, then columns under ``column:<name>`` (format 2
pickled a mirror's ids as a list; format 1 stored a flat length and had no
presence arrays); array offsets are derived deterministically from that, so
:meth:`SharedCSRGraph.attach` needs only the segment *name*.

**Naming and cleanup contract** (tested in ``tests/test_shared_memory.py``):

* every segment name starts with :data:`SEGMENT_PREFIX` followed by the
  creating pid — leak checks can scan ``/dev/shm`` for the prefix, and a
  stray segment names the process that failed to clean it;
* the *creating* handle owns the segment: its :meth:`SharedCSRGraph.close`
  both detaches and **unlinks** (removes the name).  Handles that attached
  by name — including every handle rebuilt by unpickling in a worker —
  only detach; the kernel frees the pages when the last mapping closes;
* close is idempotent, attachments are refcounted per process (see
  :func:`attachment_count`), and an ``atexit`` sweep unlinks any owned
  segment whose handle was leaked, so a crashed test run cannot strand
  segments in ``/dev/shm``.
"""

from __future__ import annotations

import atexit
import io
import math
import os
import pickle
import secrets
import threading
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.graph.csr import CSRGraph

SEGMENT_PREFIX = "repro_shm_"
"""Every segment this module creates is named ``repro_shm_<pid>_<nonce>``."""

_ALIGN = 64
"""Array alignment inside the segment (cache line)."""

_ARRAY_FIELDS = (
    "label_ids",
    "succ_indptr",
    "succ_indices",
    "pred_indptr",
    "pred_indices",
    "degrees",
)
"""The CSR arrays stored in every segment, in layout order."""

_LABEL_BITS_FIELDS = ("child_label_bits", "parent_label_bits")
"""``CSRGraph.label_presence()``, appended when the graph has computed it."""

_COLUMN_PREFIX = "column:"
"""Header name prefix of a caller-supplied column (never a graph array)."""

#: Owner handles still open in this process, for the atexit sweep.
_OWNED: Dict[str, "SharedCSRGraph"] = {}

#: Per-process attach refcount by segment name (owners count too).
_ATTACHED: Dict[str, int] = {}


def _new_segment_name() -> str:
    return f"{SEGMENT_PREFIX}{os.getpid()}_{secrets.token_hex(4)}"


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


_TRACKER_LOCK = threading.Lock()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting cleanup responsibility.

    Python < 3.13 registers *attached* segments with the resource tracker as
    if this process had created them.  The tracker's cache is a plain set
    shared by every forked process, so ``unregister``-after-attach would
    erase the *owner's* registration (and later unregisters would spam
    ``KeyError`` tracebacks from the tracker).  Prefer the 3.13
    ``track=False`` flag; on older versions suppress the registration
    itself by patching the tracker hook for the duration of the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        with _TRACKER_LOCK:
            original = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original  # type: ignore[assignment]


def _sweep_owned() -> None:  # pragma: no cover - runs at interpreter exit
    for handle in list(_OWNED.values()):
        try:
            handle.close()
        except Exception:
            pass


atexit.register(_sweep_owned)


def active_segments() -> List[str]:
    """Names of segments this process created and has not closed yet."""
    return sorted(_OWNED)


def attachment_count(name: str) -> int:
    """How many handles in *this process* currently map ``name``."""
    return _ATTACHED.get(name, 0)


class SharedCSRGraph:
    """A named shared-memory segment holding one CSR graph.

    Obtain one from :meth:`CSRGraph.to_shared` (creates and owns the
    segment) or :meth:`CSRGraph.from_shared` / :meth:`SharedCSRGraph.attach`
    (attaches by name).  ``.graph`` materialises a :class:`CSRGraph` whose
    numpy arrays are read-only views of the shared pages — no copy — and
    ``.columns`` the named columns published beside it, the same way.

    Handles pickle as ``(name,)``: the unpickled copy is a non-owning
    attachment, which is exactly what worker processes need.
    """

    def __init__(self, name: str, owner: bool, segment: Optional[shared_memory.SharedMemory]):
        self.name = name
        self._owner = owner
        # Ownership is pid-scoped: a fork child inherits the handle object
        # (and the atexit sweep) but must never unlink a segment its parent
        # is still serving, so close() re-checks the pid before unlinking.
        self._owner_pid = os.getpid() if owner else -1
        self._segment = segment
        self._graph: Optional["CSRGraph"] = None
        self._columns: Dict[str, np.ndarray] = {}
        self._closed = False
        if segment is not None:
            _ATTACHED[name] = _ATTACHED.get(name, 0) + 1

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        graph: "CSRGraph",
        name: Optional[str] = None,
        columns: Optional[Mapping[str, np.ndarray]] = None,
    ) -> "SharedCSRGraph":
        """Export ``graph``'s arrays, and ``columns`` beside them, into a fresh owned segment."""
        arrays = {field: np.ascontiguousarray(getattr(graph, "_" + field)) for field in _ARRAY_FIELDS}
        if graph._label_bits is not None:
            arrays.update(zip(_LABEL_BITS_FIELDS, map(np.ascontiguousarray, graph._label_bits)))
        from repro.graph.csr import _SortedIndex

        # Identity ids (0..n-1) compress to a count; an id column travels as
        # arrays, its candidate rows by reference when they are a published
        # column (``compact``); other ids ship as the literal list.
        index, rows_field = graph._index, None
        if isinstance(index, _SortedIndex):
            arrays["node_ids"] = index.ids
            rows_field = next(
                (_COLUMN_PREFIX + name for name, array in (columns or {}).items() if array is index.rows),
                "node_rows",
            )
            arrays.setdefault(rows_field, index.rows)
        for column, array in (columns or {}).items():
            arrays[_COLUMN_PREFIX + column] = np.ascontiguousarray(array)
        header = {
            "format": 3,
            "ids": len(graph._ids) if graph._identity else None if rows_field else list(graph._ids),
            "node_rows": rows_field,
            "label_table": list(graph._label_table),
            "arrays": [(field, array.dtype.str, array.shape) for field, array in arrays.items()],
        }
        header_bytes = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
        offsets, total = cls._layout(header["arrays"], len(header_bytes))
        name = name or _new_segment_name()
        segment = shared_memory.SharedMemory(create=True, size=max(1, total), name=name)
        try:
            segment.buf[:8] = len(header_bytes).to_bytes(8, "little")
            segment.buf[8 : 8 + len(header_bytes)] = header_bytes
            for field, offset in offsets.items():
                source = arrays[field]
                if source.size == 0:
                    continue
                view = np.frombuffer(segment.buf, dtype=source.dtype, count=source.size, offset=offset)
                view[:] = source.reshape(-1)
        except BaseException:  # pragma: no cover - defensive: never strand a segment
            segment.close()
            segment.unlink()
            raise
        handle = cls(name, owner=True, segment=segment)
        _OWNED[name] = handle
        return handle

    @classmethod
    def attach(cls, name: str) -> "SharedCSRGraph":
        """Attach an existing segment by name (non-owning)."""
        return cls(name, owner=False, segment=_attach_segment(name))

    @staticmethod
    def _layout(
        array_specs: List[Tuple[str, str, Tuple[int, ...]]], header_len: int
    ) -> Tuple[Dict[str, int], int]:
        """Deterministic array offsets from the header alone."""
        offsets: Dict[str, int] = {}
        offset = _align(8 + header_len)
        for field, dtype_str, shape in array_specs:
            offsets[field] = offset
            offset = _align(offset + np.dtype(dtype_str).itemsize * math.prod(shape))
        return offsets, offset

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #
    @property
    def owner(self) -> bool:
        """Whether closing this handle unlinks the segment."""
        return self._owner

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def graph(self) -> "CSRGraph":
        """The shared graph; arrays are read-only views of the segment."""
        self._ensure_materialized()
        return self._graph

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        """The columns published beside the graph, as read-only views by name."""
        self._ensure_materialized()
        return self._columns

    def _ensure_materialized(self) -> None:
        if self._graph is None:
            self._ensure_attached()
            self._graph = self._materialize()

    def _materialize(self) -> "CSRGraph":
        from repro.graph.csr import CSRGraph

        if self._closed or self._segment is None:
            raise ValueError(f"shared segment {self.name!r} is closed")
        buf = self._segment.buf
        header_len = int.from_bytes(bytes(buf[:8]), "little")
        header = pickle.loads(bytes(buf[8 : 8 + header_len]))
        offsets, _ = self._layout(header["arrays"], header_len)
        arrays: Dict[str, np.ndarray] = {}
        for field, dtype_str, shape in header["arrays"]:
            view = np.frombuffer(
                buf, dtype=np.dtype(dtype_str), count=math.prod(shape), offset=offsets[field]
            ).reshape(shape)
            view.flags.writeable = False
            arrays[field] = view
        self._columns = {
            field[len(_COLUMN_PREFIX) :]: view
            for field, view in arrays.items()
            if field.startswith(_COLUMN_PREFIX)
        }
        ids, rows = header["ids"], None
        if isinstance(ids, int):
            ids = range(ids)
        elif ids is None:
            ids, rows = arrays["node_ids"], arrays[header["node_rows"]]
        return CSRGraph(
            ids,
            header["label_table"],
            arrays["label_ids"],
            arrays["succ_indptr"],
            arrays["succ_indices"],
            arrays["pred_indptr"],
            arrays["pred_indices"],
            arrays["degrees"],
            label_bits=(
                tuple(arrays[field] for field in _LABEL_BITS_FIELDS)
                if _LABEL_BITS_FIELDS[0] in arrays
                else None
            ),
            _index=rows,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Detach; the owning handle also unlinks the name.  Idempotent.

        The graph reference this handle cached is dropped first; if the
        caller still holds the materialised :class:`CSRGraph`, its array
        views keep the *mapping* alive (the detach is deferred to garbage
        collection) but the name is unlinked regardless, so no segment
        outlives its owner in ``/dev/shm``.
        """
        if self._closed:
            return
        self._closed = True
        self._graph = None
        self._columns = {}
        segment, self._segment = self._segment, None
        if segment is None:
            return
        remaining = _ATTACHED.get(self.name, 1) - 1
        if remaining > 0:
            _ATTACHED[self.name] = remaining
        else:
            _ATTACHED.pop(self.name, None)
        try:
            segment.close()
        except BufferError:
            # Live numpy views still export the mmap's buffer.  Drop our
            # references (the views keep the mmap object alive, so the pages
            # unmap when the last view is collected) and close the fd by
            # hand — otherwise SharedMemory.__del__ retries the close and
            # spams "Exception ignored" tracebacks at GC time.
            segment._mmap = None
            fd = getattr(segment, "_fd", -1)
            if fd >= 0:
                os.close(fd)
                segment._fd = -1
        if self._owner:
            _OWNED.pop(self.name, None)
            if os.getpid() == self._owner_pid:
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover - already unlinked
                    pass

    def __enter__(self) -> "SharedCSRGraph":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            if self._owner and not self._closed:
                self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Pickling: workers receive the name, attach lazily, never own.
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, str]:
        return {"name": self.name}

    def __setstate__(self, state: Dict[str, str]) -> None:
        self.name = state["name"]
        self._owner = False
        self._owner_pid = -1
        self._segment = None
        self._graph = None
        self._columns = {}
        self._closed = False

    def _ensure_attached(self) -> None:
        if self._segment is None and not self._closed:
            self._segment = _attach_segment(self.name)
            _ATTACHED[self.name] = _ATTACHED.get(self.name, 0) + 1

    def __repr__(self) -> str:
        role = "owner" if self._owner else "attached"
        state = "closed" if self._closed else "open"
        return f"SharedCSRGraph({self.name!r}, {role}, {state})"


__all__ = [
    "SEGMENT_PREFIX",
    "SharedCSRGraph",
    "active_segments",
    "attachment_count",
]
