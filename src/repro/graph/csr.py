"""``CSRGraph`` — an immutable compressed-sparse-row graph backend.

The paper (Fan, Wang & Wu, *"Querying Big Graphs within Bounded Resources"*,
SIGMOD 2014) is about answering queries on *big* graphs under a resource
ratio ``alpha``; a dict-of-sets adjacency representation caps every
experiment at toy scale.  :class:`CSRGraph` stores the same node-labeled
directed graph as flat ``numpy`` arrays with offset indexing:

* ``succ_indptr``/``succ_indices`` — the out-neighbours of node ``i`` are
  ``succ_indices[succ_indptr[i]:succ_indptr[i + 1]]`` (and symmetrically for
  predecessors), the classic CSR layout;
* ``label_ids`` — one small integer per node indexing a shared label table.

This costs a handful of bytes per edge instead of a Python set entry, and —
more importantly — makes frontier expansion a vectorised gather, so the
BFS-heavy paths (traversal, the ``RBReach`` index build) run an order of
magnitude faster than the pointer-chasing equivalent.

Two properties keep the backend drop-in compatible with
:class:`~repro.graph.digraph.DiGraph`:

* the public API speaks *original node identifiers* (any hashable), not
  internal indices, and implements the full
  :class:`~repro.graph.protocol.GraphLike` protocol; and
* :meth:`CSRGraph.from_digraph` preserves the source graph's neighbour
  *iteration order*, so order-sensitive heuristics (``Pick``'s tie-breaking,
  greedy landmark exclusion, Tarjan's traversal) make byte-identical
  decisions on either backend.  The vectorised kernels are only used for
  order-insensitive results (sets, distance maps, booleans), which is what
  makes backend parity testable rather than approximate.

``CSRGraph`` is deliberately immutable: updates land either on ``DiGraph``
(freeze a snapshot with ``from_digraph`` when switching to query answering)
or, for a *serving* graph that must keep absorbing mutations, on a
:class:`repro.updates.overlay.MutableOverlay` layered over a frozen base,
which freezes into the next ``CSRGraph`` from the base's arrays.
"""

from __future__ import annotations

import collections.abc
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph.digraph import DiGraph, Edge, Label, NodeId

_EMPTY = np.empty(0, dtype=np.int64)
_DEGREE_CHUNK = 1 << 12


def _union_degrees(n: int, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-node ``|N(v)|`` (successors ∪ predecessors) from an edge list.

    ``d(v) = out(v) + in(v) - #reciprocal edges at v``; the reciprocal count
    is found by binary-searching each edge code among the sorted reversed
    codes, all in C.  The forward codes go ``_DEGREE_CHUNK`` edges at a
    time: a rebuild after a node removal pays this pass on every
    compaction, under load, so its temporaries are what set the process's
    memory high-water mark (``np.isin`` would allocate several edge-length
    arrays more; the reversed codes are built in place for the same reason).
    """
    out_deg = np.bincount(sources, minlength=n)
    in_deg = np.bincount(targets, minlength=n)
    m = sources.shape[0]
    if m == 0:
        return (out_deg + in_deg).astype(np.int64)
    reversed_codes = targets * np.int64(n)
    reversed_codes += sources
    reversed_codes.sort()
    reciprocal = np.empty(m, dtype=bool)
    for low in range(0, m, _DEGREE_CHUNK):
        chunk = slice(low, low + _DEGREE_CHUNK)
        codes = sources[chunk] * np.int64(n) + targets[chunk]
        found = np.searchsorted(reversed_codes, codes)
        np.minimum(found, m - 1, out=found)
        reciprocal[chunk] = reversed_codes[found] == codes
    duplicates = np.bincount(sources[reciprocal], minlength=n)
    return (out_deg + in_deg - duplicates).astype(np.int64)


def _intern_labels(labels: Iterable[Label], count: int) -> Tuple[List[Label], np.ndarray]:
    """Label table (first-appearance order) and per-node label ids."""
    label_index: Dict[Label, int] = {}
    # ``len(label_index)`` is read before ``setdefault`` inserts, so a new
    # label gets the next free row and a known one keeps its own.
    label_ids = np.fromiter(
        (label_index.setdefault(label, len(label_index)) for label in labels),
        dtype=np.int64,
        count=count,
    )
    return list(label_index), label_ids


def _flat_indices(
    index: Optional[Dict[NodeId, int]], groups: Iterable[Iterable[NodeId]], count: int
) -> np.ndarray:
    """The index of every node in the chained ``groups``, order preserved.

    ``index=None`` means the ids are ``0..n-1`` in row order: each entry
    already is its row.
    """
    entries = chain.from_iterable(groups)
    if index is not None:
        entries = map(index.__getitem__, entries)
    return np.fromiter(entries, dtype=np.int64, count=count)


def _is_identity(ids: List[NodeId]) -> bool:
    """Whether ``ids`` are exactly the ints ``0..n-1``, in that order."""
    # ``True == 1`` and ``1.0 == 1``: the type test keeps those out.
    return ids == list(range(len(ids))) and set(map(type, ids)) <= {int}


def _unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of an int array: one sort and a neighbour compare.

    numpy 2.3+ sends a plain ``np.unique`` through a hash table and then
    sorts what it kept; on int64 the sort alone is faster at every size
    above a few dozen elements (the 33 129 DAG edge codes of ``youtube``, on
    a 2-core Xeon host: 5.5 ms against 0.4 ms).  ``tools/lint.py`` keeps
    plain ``np.unique`` calls out of ``src/repro``.
    """
    ordered = np.sort(values, axis=None)
    if ordered.shape[0] < 2:
        return ordered
    keep = np.empty(ordered.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _indptr(counts: np.ndarray) -> np.ndarray:
    indptr = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[i], …, starts[i] + counts[i] - 1`` for every ``i``, concatenated."""
    total = int(counts.sum())
    if total == 0:
        return _EMPTY
    ends = np.cumsum(counts)
    spans = np.repeat(starts + counts - ends, counts)
    spans += np.arange(total, dtype=np.int64)  # in place: two edge-length arrays at the peak, not three
    return spans


class _ColumnIndex(collections.abc.Mapping):
    """An int id → row map with ``dict`` semantics and no per-node entry.

    A key equal to the int ``i`` hashes to ``i`` (an unhashable raises
    ``TypeError``), so ``hash(node)`` is the one candidate id: ``True``,
    ``1.0`` or ``numpy.int64(1)`` find what ``1`` finds, as in a ``dict``.
    """

    __slots__ = ()

    def __getitem__(self, node: object) -> int:
        row = self.get(node)
        if row is None:
            raise KeyError(node)
        return row

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)


class _IdentityIndex(_ColumnIndex):
    """``{i: i for i in range(n)}``: the map of a graph whose ids are ``0..n-1``."""

    __slots__ = ("_ids", "_n")

    def __init__(self, n: int) -> None:
        self._ids, self._n = range(n), n

    def get(self, node: object, default=None):
        row = hash(node)
        return row if 0 <= row < self._n and row == node else default


class _SortedIndex(_ColumnIndex):
    """The map of a graph whose ids are ascending ints, kept as two columns.

    The ids of a condensation DAG's mirror: ``rows[id]`` is the one
    candidate row (the condensation's ``compact``, or a dense inverse),
    confirmed by ``ids[row] == id``.
    """

    __slots__ = ("ids", "rows", "_ids", "_rows")

    def __init__(self, ids: np.ndarray, rows: Optional[np.ndarray] = None) -> None:
        if rows is None:
            rows = np.zeros(int(ids[-1]) + 1, dtype=np.int64)
            rows[ids] = np.arange(ids.shape[0], dtype=np.int64)
        self.ids, self.rows = ids, rows
        self._ids, self._rows = memoryview(ids), memoryview(rows)

    def __reduce__(self):
        return (_SortedIndex, (self.ids, self.rows))

    def get(self, node: object, default=None):
        key = hash(node)
        if 0 <= key < len(self._rows):
            row = self._rows[key]
            if self._ids[row] == key and key == node:
                return row
        return default


class _NeighborView:
    """Sized, iterable, membership-testable view over one CSR adjacency slice.

    Iteration yields *original node identifiers* in stored order (which
    matches the source ``DiGraph``'s iteration order when the graph was built
    with :meth:`CSRGraph.from_digraph`).  Membership is a vectorised scan of
    the slice — O(deg) but in C, which is fast even at hub nodes.
    """

    __slots__ = ("_graph", "_arr")

    def __init__(self, graph: "CSRGraph", arr: np.ndarray) -> None:
        self._graph = graph
        self._arr = arr

    @property
    def indices(self) -> np.ndarray:
        """The slice itself: node indices in stored order (read only)."""
        return self._arr

    def __len__(self) -> int:
        return int(self._arr.shape[0])

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._graph.ids_of(self._arr))

    def __contains__(self, node: object) -> bool:
        idx = self._graph._index.get(node)
        if idx is None:
            return False
        return bool((self._arr == idx).any())

    def __or__(self, other) -> Set[NodeId]:
        return set(self) | set(other)

    __ror__ = __or__

    def __and__(self, other) -> Set[NodeId]:
        return set(self) & set(other)

    __rand__ = __and__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (set, frozenset)):
            return set(self) == other
        if isinstance(other, _NeighborView):
            return set(self) == set(other)
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - views are transient
        raise TypeError("_NeighborView is unhashable; wrap it in frozenset(...)")

    def __repr__(self) -> str:
        return f"NeighborView({sorted(map(repr, self))})"


class CSRGraph:
    """Immutable node-labeled directed graph in compressed-sparse-row form.

    Implements :class:`~repro.graph.protocol.GraphLike`; construct with
    :meth:`from_digraph` or :meth:`from_edges` and convert back with
    :meth:`to_digraph`.
    """

    __slots__ = (
        "_ids",
        "_index",
        "_identity",
        "_span",
        "_label_table",
        "_label_rows",
        "_label_ids",
        "_succ_indptr",
        "_succ_indices",
        "_pred_indptr",
        "_pred_indices",
        "_degrees",
        "_label_bits",
    )

    def __init__(
        self,
        ids,
        label_table: List[Label],
        label_ids: np.ndarray,
        succ_indptr: np.ndarray,
        succ_indices: np.ndarray,
        pred_indptr: np.ndarray,
        pred_indices: np.ndarray,
        degrees: np.ndarray,
        label_bits: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        _index=None,
    ) -> None:
        """``ids``: a list of hashables, a ``range`` or an ascending int column.

        Ids ``0..n-1`` and an id column keep no per-node object; ``_index`` is
        then the column's candidate rows (optional), else a prebuilt ``{node: i}``.
        """
        if isinstance(ids, np.ndarray) and ids.shape[0] and ids[-1] != ids.shape[0] - 1:
            self._index = _SortedIndex(ids, _index)
            self._ids = self._index._ids
        elif isinstance(ids, (range, np.ndarray)) or _is_identity(ids):
            self._index, self._ids = _IdentityIndex(len(ids)), range(len(ids))
        else:
            self._ids = ids
            self._index = {node: i for i, node in enumerate(ids)} if _index is None else _index
        self._identity = type(self._ids) is range
        self._span = len(self._ids) if self._identity else 0  # ints below it are their own rows
        self._label_table = label_table
        # Label -> row, for ``label_id``.
        self._label_rows: Dict[Label, int] = {label: row for row, label in enumerate(label_table)}
        self._label_ids = label_ids
        self._succ_indptr = succ_indptr
        self._succ_indices = succ_indices
        self._pred_indptr = pred_indptr
        self._pred_indices = pred_indices
        self._degrees = degrees
        self._label_bits = label_bits

    def __reduce__(self):
        # Through the constructor: ids travel as a range, a list or a column, never as a map.
        index = self._index
        ids, rows = (index.ids, index.rows) if type(index) is _SortedIndex else (self._ids, None)
        arrays = (self._label_ids, self._succ_indptr, self._succ_indices, self._pred_indptr)
        tail = (self._pred_indices, self._degrees, self._label_bits, rows)
        return (CSRGraph, (ids, self._label_table, *arrays, *tail))

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_digraph(cls, graph: DiGraph) -> "CSRGraph":
        """Freeze a :class:`DiGraph` (or an overlay speaking its API) into CSR form.

        Node indices follow the graph's node iteration order and each
        successor and predecessor slice preserves the source's neighbour
        iteration order, so algorithms that iterate neighbours behave
        identically on both backends.  Each side is filled by one
        ``np.fromiter`` over the chained adjacency and sliced by a
        ``bincount`` of the other; nothing is stored element by element.

        An exact ``DiGraph`` is read as columns: its label, successor and
        predecessor dicts share one key order (a node enters and leaves all
        three at once), so their ``values()`` are chained whole, with no
        per-node call.  Ids that are the ints ``0..n-1`` in order need no
        ``{node: i}`` map either, since every adjacency entry already is its
        row.  A ``MutableOverlay`` and ``DiGraph`` subclasses, which may
        override the views, are read through ``label``, ``successors`` and
        ``predecessors`` node by node (an overlay over a CSR base freezes
        faster through its own ``freeze``).
        """
        if type(graph) is DiGraph:
            ids = list(graph._labels)
            labels = graph._labels.values()
            successors, predecessors = graph._succ.values(), graph._pred.values()
        else:
            ids = list(graph.nodes())
            labels = map(graph.label, ids)
            successors, predecessors = map(graph.successors, ids), map(graph.predecessors, ids)
        n, m = len(ids), graph.num_edges()
        index = None if _is_identity(ids) else {node: i for i, node in enumerate(ids)}
        label_table, label_ids = _intern_labels(labels, n)
        succ_indices = _flat_indices(index, successors, m)
        pred_indices = _flat_indices(index, predecessors, m)
        # Each side's slice lengths are the other side's occurrence counts.
        succ_indptr = _indptr(np.bincount(pred_indices, minlength=n))
        pred_indptr = _indptr(np.bincount(succ_indices, minlength=n))
        edge_sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(succ_indptr))
        return cls(
            range(n) if index is None else ids,
            label_table,
            label_ids,
            succ_indptr,
            succ_indices,
            pred_indptr,
            pred_indices,
            _union_degrees(n, edge_sources, succ_indices),
            _index=index,
        )

    def induced(self, rows: np.ndarray) -> "CSRGraph":
        """The subgraph induced by ``rows``, its nodes in the order given.

        Each successor and predecessor slice is this graph's, filtered
        through a row membership map, so *both* neighbour orders survive (a
        ``DiGraph`` edge replay could keep only one).  Labels are re-interned
        in first-appearance order, as a freeze of the same nodes would.
        Every step is a whole-array pass over the gathered slices.
        """
        count = rows.shape[0]
        local = np.full(self.num_nodes(), -1, dtype=np.int64)
        local[rows] = np.arange(count, dtype=np.int64)
        positions = np.arange(count, dtype=np.int64)
        sides = []
        for indptr, indices in (
            (self._succ_indptr, self._succ_indices),
            (self._pred_indptr, self._pred_indices),
        ):
            starts = indptr[rows]
            counts = indptr[rows + 1] - starts
            kept = local[indices[_spans(starts, counts)]]
            inside = kept >= 0
            sides.append(np.bincount(np.repeat(positions, counts)[inside], minlength=count))
            sides.append(kept[inside])
        succ_counts, succ_indices, pred_counts, pred_indices = sides
        distinct, first, inverse = np.unique(
            self._label_ids[rows], return_index=True, return_inverse=True
        )
        order = np.argsort(first)  # the distinct labels by first appearance
        rank = np.empty_like(order)
        rank[order] = np.arange(order.shape[0])
        return CSRGraph(
            self.ids_of(rows),
            [self._label_table[label] for label in distinct[order].tolist()],
            rank[inverse],
            _indptr(succ_counts),
            succ_indices,
            _indptr(pred_counts),
            pred_indices,
            _union_degrees(count, np.repeat(positions, succ_counts), succ_indices),
        )

    @classmethod
    def from_index_arrays(
        cls,
        ids,
        label_table: List[Label],
        label_ids: np.ndarray,
        sources: np.ndarray,
        targets: np.ndarray,
        _index=None,
    ) -> "CSRGraph":
        """Assemble a CSR graph from edge arrays in internal index space.

        ``sources[k] → targets[k]`` are the edges as node *indices* into
        ``ids`` (as the constructor takes them).  Adjacency comes out
        grouped by node in edge-array order (vectorised stable sorts): the
        condensation's DAG mirror (edges sorted, so each slice is sorted).
        """
        n = len(ids)
        return cls(
            ids,
            label_table,
            label_ids,
            _indptr(np.bincount(sources, minlength=n)),
            targets[np.argsort(sources, kind="stable")],
            _indptr(np.bincount(targets, minlength=n)),
            sources[np.argsort(targets, kind="stable")],
            _union_degrees(n, sources, targets),
            _index=_index,
        )

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        labels: Optional[Mapping[NodeId, Label]] = None,
        default_label: Label = "",
    ) -> "CSRGraph":
        """Build a CSR graph straight from an edge iterable (no ``DiGraph``).

        Mirrors :meth:`DiGraph.from_edges`: nodes are indexed in order of
        first appearance, parallel edges collapse, and nodes occurring only
        in ``labels`` are added as isolated nodes.  This is the loader path
        for big edge-list files, where materialising an intermediate
        dict-of-sets graph would double peak memory.
        """
        labels = dict(labels or {})
        index: Dict[NodeId, int] = {}
        ids: List[NodeId] = []
        succ_lists: List[List[int]] = []
        pred_lists: List[List[int]] = []
        edge_seen: Set[Tuple[int, int]] = set()

        def intern(node: NodeId) -> int:
            idx = index.get(node)
            if idx is None:
                idx = len(ids)
                index[node] = idx
                ids.append(node)
                succ_lists.append([])
                pred_lists.append([])
            return idx

        for source, target in edges:
            si = intern(source)
            ti = intern(target)
            key = (si, ti)
            if key in edge_seen:
                continue
            edge_seen.add(key)
            succ_lists[si].append(ti)
            pred_lists[ti].append(si)
        for node in labels:
            intern(node)

        n = len(ids)
        label_table, label_ids = _intern_labels(
            (labels.get(node, default_label) for node in ids), n
        )

        succ_indptr = np.zeros(n + 1, dtype=np.int64)
        pred_indptr = np.zeros(n + 1, dtype=np.int64)
        degrees = np.empty(n, dtype=np.int64)
        for i in range(n):
            succ_indptr[i + 1] = succ_indptr[i] + len(succ_lists[i])
            pred_indptr[i + 1] = pred_indptr[i] + len(pred_lists[i])
            degrees[i] = len(set(succ_lists[i]) | set(pred_lists[i]))
        succ_indices = (
            np.fromiter(
                (t for targets in succ_lists for t in targets), dtype=np.int64, count=len(edge_seen)
            )
            if edge_seen
            else _EMPTY.copy()
        )
        pred_indices = (
            np.fromiter(
                (s for sources in pred_lists for s in sources), dtype=np.int64, count=len(edge_seen)
            )
            if edge_seen
            else _EMPTY.copy()
        )
        return cls(
            ids,
            label_table,
            label_ids,
            succ_indptr,
            succ_indices,
            pred_indptr,
            pred_indices,
            degrees,
            _index=index,
        )

    def to_digraph(self) -> DiGraph:
        """Convert back into a mutable :class:`DiGraph` (same nodes/edges/labels)."""
        graph = DiGraph()
        for i, node in enumerate(self._ids):
            graph.add_node(node, self._label_table[int(self._label_ids[i])])
        indptr = self._succ_indptr
        indices = self._succ_indices
        for i, node in enumerate(self._ids):
            for j in indices[int(indptr[i]) : int(indptr[i + 1])].tolist():
                graph.add_edge(node, self._ids[j])
        return graph

    # ------------------------------------------------------------------ #
    # Shared memory
    # ------------------------------------------------------------------ #
    def to_shared(
        self, name: Optional[str] = None, columns: Optional[Mapping[str, np.ndarray]] = None
    ):
        """Export this graph into a ``multiprocessing.shared_memory`` segment.

        Returns an *owning* :class:`~repro.graph.shm.SharedCSRGraph` handle:
        worker processes attach the same physical pages by name
        (:meth:`from_shared`) instead of receiving a pickled copy, and the
        handle's ``close()`` unlinks the segment.  ``columns`` are named
        arrays published beside the graph's own (the handle's ``.columns``).
        See :mod:`repro.graph.shm` for the naming/cleanup contract.
        """
        from repro.graph.shm import SharedCSRGraph

        return SharedCSRGraph.create(self, name=name, columns=columns)

    @classmethod
    def from_shared(cls, name: str):
        """Attach a segment created by :meth:`to_shared`, by name.

        Returns a non-owning :class:`~repro.graph.shm.SharedCSRGraph`
        handle; its ``.graph`` is a :class:`CSRGraph` whose arrays are
        read-only zero-copy views of the shared pages.  Closing the handle
        detaches but never unlinks — only the creating handle does that.
        """
        from repro.graph.shm import SharedCSRGraph

        return SharedCSRGraph.attach(name)

    # ------------------------------------------------------------------ #
    # Index mapping
    # ------------------------------------------------------------------ #
    def index_of(self, node: NodeId) -> int:
        """Internal array index of ``node``; raises :class:`NodeNotFoundError`."""
        if type(node) is int and 0 <= node < self._span:  # the int fast path
            return node
        row = self._index.get(node)
        if row is None:
            raise NodeNotFoundError(node)
        return row

    def node_at(self, index: int) -> NodeId:
        """Original identifier of the node stored at array ``index``."""
        return self._ids[index]

    def ids_of(self, indices: np.ndarray) -> List[NodeId]:
        """Original identifiers of an index array, in order (one C pass)."""
        if self._identity:
            return indices.tolist()
        if type(self._index) is _SortedIndex:
            return self._index.ids[indices].tolist()
        ids = self._ids
        return [ids[i] for i in indices.tolist()]

    # ------------------------------------------------------------------ #
    # GraphLike: nodes, edges, labels
    # ------------------------------------------------------------------ #
    def __contains__(self, node: NodeId) -> bool:
        return (type(node) is int and 0 <= node < self._span) or self._index.get(node) is not None

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._ids)

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(nodes={self.num_nodes()}, edges={self.num_edges()})"

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over all node identifiers (index order)."""
        return iter(self._ids)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as ``(source, target)`` pairs."""
        indptr = self._succ_indptr
        indices = self._succ_indices
        for i, node in enumerate(self._ids):
            for j in indices[int(indptr[i]) : int(indptr[i + 1])].tolist():
                yield (node, self._ids[j])

    def num_nodes(self) -> int:
        """``|V|``."""
        return len(self._ids)

    def num_edges(self) -> int:
        """``|E|``."""
        return int(self._succ_indices.shape[0])

    def size(self) -> int:
        """The paper's ``|G| = |V| + |E|``."""
        return self.num_nodes() + self.num_edges()

    def label(self, node: NodeId) -> Label:
        """The label ``L(node)``."""
        return self._label_table[self._label_ids.item(self.index_of(node))]

    def labels(self) -> Mapping[NodeId, Label]:
        """Node → label mapping (a fresh dict, like :meth:`DiGraph.labels`)."""
        table = self._label_table
        return {node: table[int(lid)] for node, lid in zip(self._ids, self._label_ids.tolist())}

    def distinct_labels(self) -> Set[Label]:
        """The set of labels used by at least one node."""
        return {self._label_table[int(lid)] for lid in _unique(self._label_ids).tolist()}

    def nodes_with_label(self, label: Label) -> Set[NodeId]:
        """All nodes carrying ``label`` (vectorised scan of the label column)."""
        lid = self.label_id(label)
        if lid is None:
            return set()
        return set(self.ids_of(np.nonzero(self._label_ids == lid)[0]))

    # ------------------------------------------------------------------ #
    # GraphLike: adjacency and degrees
    # ------------------------------------------------------------------ #
    def _succ_slice(self, index: int) -> np.ndarray:
        indptr = self._succ_indptr  # ``item`` reads a Python int: half the cost of ``int(a[i])``
        return self._succ_indices[indptr.item(index) : indptr.item(index + 1)]

    def _pred_slice(self, index: int) -> np.ndarray:
        indptr = self._pred_indptr
        return self._pred_indices[indptr.item(index) : indptr.item(index + 1)]

    def neighbor_indices(self, index: int, limit: Optional[int] = None) -> np.ndarray:
        """Child then parent indices of the node at ``index``, as one array.

        The index-space form of iterating ``successors`` then
        ``predecessors``: stored order, a node on both sides appears twice.
        ``limit`` keeps the first ``limit`` entries and copies no more.
        """
        children, parents = self.neighbor_sides(index, limit)
        return np.concatenate((children, parents)) if parents.shape[0] else children

    def neighbor_sides(self, index: int, limit: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """The child and the parent indices of the node at ``index``, as two
        slices of the stored columns (read only, nothing copied); ``limit``
        keeps the first ``limit`` entries of children then parents."""
        succ, pred = self._succ_indptr, self._pred_indptr
        start, stop = succ.item(index), succ.item(index + 1)
        if limit is not None and limit <= stop - start:
            return self._succ_indices[start : start + limit], _EMPTY
        low, high = pred.item(index), pred.item(index + 1)
        if limit is not None:
            high = min(high, low + limit - (stop - start))
        return self._succ_indices[start:stop], self._pred_indices[low:high]

    def neighbor_ids(
        self, index: int, limit: Optional[int] = None
    ) -> Tuple[List[NodeId], Tuple[np.ndarray, np.ndarray]]:
        """The ids of the children then the parents of the node at ``index``
        (``limit`` as in :meth:`neighbor_sides`), and the two index slices
        they were read from."""
        sides = self.neighbor_sides(index, limit)
        if self._identity:
            return sides[0].tolist() + sides[1].tolist(), sides
        return self.ids_of(sides[0]) + self.ids_of(sides[1]), sides

    def adjacent_rows(self, rows: np.ndarray) -> np.ndarray:
        """Child then parent indices of each of ``rows``, row after row.

        :meth:`neighbor_indices` for a whole frontier at once: both sides
        are gathered in one pass each and interleaved by output position.
        """
        succ_starts = self._succ_indptr[rows]
        succ_counts = self._succ_indptr[rows + 1] - succ_starts
        pred_starts = self._pred_indptr[rows]
        pred_counts = self._pred_indptr[rows + 1] - pred_starts
        lengths = succ_counts + pred_counts
        at = np.cumsum(lengths) - lengths  # where each row's run begins
        adjacent = np.empty(int(lengths.sum()), dtype=np.int64)
        adjacent[_spans(at, succ_counts)] = self._succ_indices[_spans(succ_starts, succ_counts)]
        adjacent[_spans(at + succ_counts, pred_counts)] = self._pred_indices[
            _spans(pred_starts, pred_counts)
        ]
        return adjacent

    def side_entries(self, rows: np.ndarray, children: bool) -> Tuple[np.ndarray, np.ndarray]:
        """The children (resp. parents) of each of ``rows``, row after row, and
        beside each the position in ``rows`` of the row it came from."""
        if children:
            indptr, indices = self._succ_indptr, self._succ_indices
        else:
            indptr, indices = self._pred_indptr, self._pred_indices
        starts = indptr[rows]
        counts = indptr[rows + 1] - starts
        return indices[_spans(starts, counts)], np.repeat(np.arange(rows.shape[0]), counts)

    def side_degrees(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Out- and in-degrees of each of ``rows`` (two ``indptr`` gathers)."""
        succ, pred = self._succ_indptr, self._pred_indptr
        return succ[rows + 1] - succ[rows], pred[rows + 1] - pred[rows]

    def edge_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every edge as ``(source rows, target rows)``, in successor order."""
        counts = np.diff(self._succ_indptr)
        return np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts), self._succ_indices

    def num_labels(self) -> int:
        """Rows of the label table (every label id is below this)."""
        return len(self._label_table)

    def label_id(self, label: Label) -> Optional[int]:
        """Row of ``label`` in the label table (``None`` when no node carries it)."""
        return self._label_rows.get(label)

    def label_ids_of(self, indices: np.ndarray) -> np.ndarray:
        """Label ids of an index array (compare against :meth:`label_id`)."""
        return self._label_ids[indices]

    def label_entry(self, index: int) -> Tuple[Label, int]:
        """The label of the node stored at array ``index`` and its label id."""
        label_id = self._label_ids.item(index)
        return self._label_table[label_id], label_id

    def label_at(self, index: int) -> Label:
        """The label of the node stored at array ``index``."""
        return self._label_table[self._label_ids.item(index)]

    def successors(self, node: NodeId) -> _NeighborView:
        """Children of ``node`` as a flat-array view (sized, iterable, ``in``)."""
        return _NeighborView(self, self._succ_slice(self.index_of(node)))

    def predecessors(self, node: NodeId) -> _NeighborView:
        """Parents of ``node`` as a flat-array view (sized, iterable, ``in``)."""
        return _NeighborView(self, self._pred_slice(self.index_of(node)))

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        """The 1-hop neighbourhood ``N(v)`` as a set of node identifiers."""
        index = self.index_of(node)
        both = np.concatenate((self._succ_slice(index), self._pred_slice(index)))
        return set(self.ids_of(_unique(both)))

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        """Whether the directed edge ``(source, target)`` exists."""
        si = self._index.get(source)
        ti = self._index.get(target)
        if si is None or ti is None:
            return False
        return bool((self._succ_slice(si) == ti).any())

    def out_degree(self, node: NodeId) -> int:
        """Number of out-edges of ``node``."""
        index = self.index_of(node)
        return self._succ_indptr.item(index + 1) - self._succ_indptr.item(index)

    def in_degree(self, node: NodeId) -> int:
        """Number of in-edges of ``node``."""
        index = self.index_of(node)
        return self._pred_indptr.item(index + 1) - self._pred_indptr.item(index)

    def degree(self, node: NodeId) -> int:
        """The paper's ``d(v)``: ``|N(v)|`` (union of parents and children)."""
        return self._degrees.item(self.index_of(node))

    def degrees(self) -> np.ndarray:
        """``d(v)`` of every node in index order (the stored column: read only)."""
        return self._degrees

    def max_degree(self) -> int:
        """Maximum ``d(v)`` over the whole graph (0 for empty graphs)."""
        if self._degrees.shape[0] == 0:
            return 0
        return int(self._degrees.max())

    def label_presence(self) -> Tuple[np.ndarray, np.ndarray]:
        """Packed neighbour-label presence bits ``(child_bits, parent_bits)``.

        Both arrays are ``(n, ⌈L/64⌉)`` ``uint64``: bit ``l % 64`` of word
        ``l // 64`` in row ``i`` of ``child_bits`` (resp. ``parent_bits``) is
        set iff node ``i`` has a child (resp. parent) whose label id is
        ``l``.  This is the part of the paper's ``Sl`` summaries the guarded
        condition ``C(v, u)`` reads, for every node at once: one
        ``bitwise_or.reduceat`` sweep per adjacency side, computed on first
        use and kept (the graph is immutable).  A graph attached from shared
        memory receives the publisher's arrays as read-only views instead.
        """
        if self._label_bits is None:
            words = max(1, -(-len(self._label_table) // 64))
            self._label_bits = (
                self._presence_sweep(self._succ_indptr, self._succ_indices, words),
                self._presence_sweep(self._pred_indptr, self._pred_indices, words),
            )
        return self._label_bits

    def _presence_sweep(self, indptr: np.ndarray, indices: np.ndarray, words: int) -> np.ndarray:
        bits = np.zeros((len(self._ids), words), dtype=np.uint64)
        if indices.shape[0] == 0:
            return bits
        label_ids = self._label_ids[indices]
        edge_bits = np.left_shift(np.uint64(1), (label_ids & 63).astype(np.uint64))
        # reduceat folds [start_k, start_{k+1}); skipping the empty rows keeps
        # every segment exactly one node's slice (indptr is monotone).
        rows = np.flatnonzero(indptr[1:] > indptr[:-1])
        starts = indptr[rows]
        for word in range(words):
            in_word = np.where((label_ids >> 6) == word, edge_bits, np.uint64(0))
            bits[rows, word] = np.bitwise_or.reduceat(in_word, starts)
        return bits

    def validate(self) -> None:
        """Check internal array consistency; raises :class:`GraphError`."""
        n = self.num_nodes()
        for name, indptr, indices in (
            ("succ", self._succ_indptr, self._succ_indices),
            ("pred", self._pred_indptr, self._pred_indices),
        ):
            if indptr.shape[0] != n + 1 or int(indptr[0]) != 0:
                raise GraphError(f"{name}_indptr has wrong shape or base offset")
            if np.any(np.diff(indptr) < 0):
                raise GraphError(f"{name}_indptr is not monotone")
            if int(indptr[-1]) != indices.shape[0]:
                raise GraphError(f"{name}_indices length disagrees with indptr")
            if indices.shape[0] and (indices.min() < 0 or indices.max() >= n):
                raise GraphError(f"{name}_indices references an unknown node index")
        if self._succ_indices.shape[0] != self._pred_indices.shape[0]:
            raise GraphError("successor and predecessor edge counts disagree")

    # ------------------------------------------------------------------ #
    # Vectorised kernels (index space)
    # ------------------------------------------------------------------ #
    def _expand(self, frontier: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Gather the concatenated adjacency of every frontier node (with dups)."""
        starts = indptr[frontier]
        positions = _spans(starts, indptr[frontier + 1] - starts)
        return indices[positions] if positions.shape[0] else _EMPTY

    def _frontier_neighbors(self, frontier: np.ndarray, direction: str) -> np.ndarray:
        if direction == "forward":
            return self._expand(frontier, self._succ_indptr, self._succ_indices)
        if direction == "backward":
            return self._expand(frontier, self._pred_indptr, self._pred_indices)
        return np.concatenate(
            (
                self._expand(frontier, self._succ_indptr, self._succ_indices),
                self._expand(frontier, self._pred_indptr, self._pred_indices),
            )
        )

    def fast_bidirectional_reachable(self, source: NodeId, target: NodeId) -> bool:
        """Bidirectional BFS reachability, expanding the smaller frontier."""
        start = self.index_of(source)
        goal = self.index_of(target)
        if start == goal:
            return True
        n = self.num_nodes()
        forward_seen = np.zeros(n, dtype=bool)
        backward_seen = np.zeros(n, dtype=bool)
        forward_seen[start] = True
        backward_seen[goal] = True
        forward_list: List[int] = [start]
        backward_list: List[int] = [goal]
        # Hybrid phase: alternate scalar expansions while both frontiers are
        # small; most negative queries on sparse graphs never leave it.
        while (
            forward_list and backward_list and len(forward_list) + len(backward_list) < 32
        ):
            if len(forward_list) <= len(backward_list):
                indptr, indices, seen, other = (
                    self._succ_indptr,
                    self._succ_indices,
                    forward_seen,
                    backward_seen,
                )
                expanding_forward = True
            else:
                indptr, indices, seen, other = (
                    self._pred_indptr,
                    self._pred_indices,
                    backward_seen,
                    forward_seen,
                )
                expanding_forward = False
            frontier_list = forward_list if expanding_forward else backward_list
            next_list: List[int] = []
            for i in frontier_list:
                for j in indices[int(indptr[i]) : int(indptr[i + 1])].tolist():
                    if other[j]:
                        return True
                    if not seen[j]:
                        seen[j] = True
                        next_list.append(j)
            if expanding_forward:
                forward_list = next_list
            else:
                backward_list = next_list
        forward_frontier = np.array(forward_list, dtype=np.int64)
        backward_frontier = np.array(backward_list, dtype=np.int64)
        while forward_frontier.size and backward_frontier.size:
            if forward_frontier.size <= backward_frontier.size:
                candidates = self._expand(forward_frontier, self._succ_indptr, self._succ_indices)
                candidates = candidates[~forward_seen[candidates]]
                forward_frontier = _unique(candidates)
                forward_seen[forward_frontier] = True
                if backward_seen[forward_frontier].any():
                    return True
            else:
                candidates = self._expand(backward_frontier, self._pred_indptr, self._pred_indices)
                candidates = candidates[~backward_seen[candidates]]
                backward_frontier = _unique(candidates)
                backward_seen[backward_frontier] = True
                if forward_seen[backward_frontier].any():
                    return True
        return False

    def fast_weak_components(self) -> List[Set[NodeId]]:
        """Weakly connected components via vectorised undirected BFS.

        One shared ``seen`` array doubles as the assignment table and members
        are collected during the sweep, so the total cost is O(|V| + |E|)
        regardless of how many components there are (a per-component full-size
        mask would make all-singleton graphs quadratic).
        """
        n = self.num_nodes()
        seen = np.zeros(n, dtype=bool)
        components: List[Set[NodeId]] = []
        for start in range(n):
            if seen[start]:
                continue
            seen[start] = True
            members: List[int] = [start]
            frontier_list: List[int] = [start]
            while frontier_list and len(frontier_list) < 32:
                next_list: List[int] = []
                for i in frontier_list:
                    for indptr, indices in (
                        (self._succ_indptr, self._succ_indices),
                        (self._pred_indptr, self._pred_indices),
                    ):
                        for j in indices[int(indptr[i]) : int(indptr[i + 1])].tolist():
                            if not seen[j]:
                                seen[j] = True
                                next_list.append(j)
                members.extend(next_list)
                frontier_list = next_list
            frontier = np.array(frontier_list, dtype=np.int64)
            while frontier.size:
                candidates = self._frontier_neighbors(frontier, "both")
                candidates = candidates[~seen[candidates]]
                if candidates.size == 0:
                    break
                frontier = _unique(candidates)
                seen[frontier] = True
                members.extend(frontier.tolist())
            components.append(set(self.ids_of(np.array(members, dtype=np.int64))))
        return components

    def fast_connected_component(self, source: NodeId) -> Set[NodeId]:
        """Weakly connected component containing ``source`` (itself included)."""
        mask = self.reach_mask_both(self.index_of(source))
        return set(self.ids_of(np.nonzero(mask)[0]))

    def reach_mask_both(self, start_index: int) -> np.ndarray:
        """Mask of the weakly connected region around ``start_index``."""
        seen = np.zeros(self.num_nodes(), dtype=bool)
        seen[start_index] = True
        frontier = np.array([start_index], dtype=np.int64)
        while frontier.size:
            candidates = self._frontier_neighbors(frontier, "both")
            candidates = candidates[~seen[candidates]]
            if candidates.size == 0:
                break
            frontier = _unique(candidates)
            seen[frontier] = True
        return seen


def freeze(graph) -> CSRGraph:
    """``graph`` as a :class:`CSRGraph`, node and neighbour order exact: itself
    when it is one, a ``MutableOverlay``'s array freeze
    (:meth:`~repro.updates.overlay.MutableOverlay.freeze`), else its
    :meth:`~CSRGraph.from_digraph` freeze."""
    if isinstance(graph, CSRGraph):
        return graph
    from repro.updates.overlay import MutableOverlay  # overlay.py imports this module

    return graph.freeze() if isinstance(graph, MutableOverlay) else CSRGraph.from_digraph(graph)
