"""Traversal kernels: bitset frontiers behind a capability-dispatch registry.

This module is the single dispatch surface for traversal work.  Callers name
an *operation* (``"reach_batch"``, ``"bfs_levels"``, ``"is_reachable"``, ...)
and hand :func:`traverse` any :class:`~repro.graph.protocol.GraphLike`; the
:class:`KernelRegistry` picks the best registered kernel for that graph type
— an exact vectorised kernel when one exists, otherwise the generic
pure-python implementation.  The generic path is not a second-class citizen:
it is the *differential-testing oracle* the vectorised kernels are pinned
against (``tests/test_kernels.py``), so both tiers must return bit-identical
answers forever.

The headline kernel is :func:`reach_batch`: **multi-source batched BFS** on
word-parallel ``uint64`` bitset frontiers.  64 sources share one word column
of a single reach matrix, and one level-synchronous sweep advances *all* of
them at once — per-level work is a handful of numpy gathers over the
frontier's non-zero ``(row, word)`` entries instead of one Python-driven BFS
per source.  The ``stop`` parameter gives the absorption semantics of
:func:`csr_reach_mask` (absorbing nodes are recorded when reached but never
expanded *through*), which is what the RBReach out-of-index label sweep and
the cover statistics need to run batched.

Observability: every batched entry records its size in the
``kernel.batch_size`` histogram, every bitset sweep adds the frontier
entries it expanded to ``kernel.sweep.words``, and every dispatch that lands
on the generic fallback bumps the ``kernel.fallbacks`` counter (an exact
kernel bumps nothing — fallbacks are the signal worth watching).

Dispatch semantics:

* ``register(op, GraphType)`` — exact kernel; chosen for instances of
  ``GraphType`` (or a subclass, via MRO walk, nearest class wins);
* ``register(op)`` — generic fallback; chosen when no class in the MRO has
  an exact kernel.  Lookup results are cached per ``(op, type)``.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from repro import obs
from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph.protocol import GraphLike, NodeId

import numpy as np

from repro.graph.csr import CSRGraph as _CSRGraph, _spans, _unique

Direction = str

_FORWARD = "forward"
_BACKWARD = "backward"
_BOTH = "both"
_DIRECTIONS = (_FORWARD, _BACKWARD, _BOTH)

def neighbors_fn(graph: GraphLike, direction: Direction) -> Callable[[NodeId], Iterable[NodeId]]:
    """The neighbor iterator of ``graph`` for ``direction``."""
    if direction == _FORWARD:
        return graph.successors
    if direction == _BACKWARD:
        return graph.predecessors
    if direction == _BOTH:
        return graph.neighbors
    raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")


# --------------------------------------------------------------------------- #
# Capability dispatch
# --------------------------------------------------------------------------- #
class KernelRegistry:
    """Maps ``(operation, graph type)`` to the best registered kernel.

    Exact kernels are keyed by class and found by MRO walk (nearest class
    wins); a ``graph_type`` of ``None`` registers the generic fallback for
    the operation.  ``resolve`` memoises per concrete type, so the hot path
    is one dict hit.
    """

    def __init__(self) -> None:
        self._kernels: Dict[Tuple[str, Optional[type]], Callable[..., Any]] = {}
        self._cache: Dict[Tuple[str, type], Tuple[Optional[Callable[..., Any]], bool]] = {}

    def register(self, op: str, graph_type: Optional[type] = None):
        """Decorator: register a kernel for ``op`` (exact if typed)."""

        def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
            self._kernels[(op, graph_type)] = fn
            self._cache.clear()
            return fn

        return decorator

    def resolve(self, op: str, graph_type: type) -> Tuple[Optional[Callable[..., Any]], bool]:
        """Return ``(kernel, is_exact)`` for ``op`` on ``graph_type``."""
        key = (op, graph_type)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        for klass in graph_type.__mro__:
            kernel = self._kernels.get((op, klass))
            if kernel is not None:
                entry: Tuple[Optional[Callable[..., Any]], bool] = (kernel, True)
                break
        else:
            kernel = self._kernels.get((op, None))
            entry = (kernel, False)
        self._cache[key] = entry
        return entry

    def has_exact(self, op: str, graph_type: type) -> bool:
        """Whether an exact (non-fallback) kernel serves ``graph_type``."""
        kernel, exact = self.resolve(op, graph_type)
        return kernel is not None and exact

    def operations(self) -> List[str]:
        """Sorted names of every registered operation."""
        return sorted({op for op, _ in self._kernels})


#: The process-wide registry every ``traverse`` call dispatches through.
KERNELS = KernelRegistry()


def traverse(graph: GraphLike, op: str, *args: Any, **kwargs: Any):
    """Dispatch operation ``op`` on ``graph`` through :data:`KERNELS`.

    Raises :class:`~repro.exceptions.GraphError` when neither an exact
    kernel nor a generic fallback is registered for ``op`` — e.g. the
    index-space ``"reach_mask"`` on a non-CSR backend.
    """
    kernel, exact = KERNELS.resolve(op, type(graph))
    if kernel is None:
        raise GraphError(
            f"no kernel registered for operation {op!r} on {type(graph).__name__}"
        )
    if not exact:
        obs.counter("kernel.fallbacks").inc()
    return kernel(graph, *args, **kwargs)


def observe_batch(size: int) -> None:
    """Record one batched entry of ``size`` sources/queries."""
    obs.histogram("kernel.batch_size", scheme="count").observe(float(size))


def reach_batch(
    graph: GraphLike,
    sources: Sequence[NodeId],
    *,
    forward: bool = True,
    stop: Any = None,
    rows: Optional["np.ndarray"] = None,
) -> "ReachBatch":
    """Answer one whole reach batch in a single kernel call.

    ``sources`` is a sequence of node identifiers; the result is a
    :class:`ReachBatch` whose column ``j`` holds everything source ``j``
    reaches (following out-edges when ``forward``, in-edges otherwise),
    *including* the source itself.  ``stop`` — either a set of node ids or,
    for CSR backends, an index-space boolean mask — marks absorbing nodes:
    they are recorded when reached but never expanded through, except that
    every source always expands its own frontier at level 0 (matching
    ``reach_mask``'s semantics, which the landmark label sweep relies on).
    Stop ids that are not in the graph are ignored.  ``rows`` optionally
    holds the sources' row indices, for a CSR caller that mapped them
    already; the pure-python oracle maps the ids itself.
    """
    sources = list(sources)
    observe_batch(len(sources))
    return traverse(graph, "reach_batch", sources, forward=forward, stop=stop, rows=rows)


# --------------------------------------------------------------------------- #
# Batched reach results
# --------------------------------------------------------------------------- #
#: Bit ``b`` of byte value ``v`` (``[v, b]``), its popcount, and flat per-byte
#: lists of its set bits: ``_BYTE_BITS[8 * v : 8 * v + _BYTE_ONES[v]]``, ascending.
_BYTE_MASKS = (np.arange(256)[:, None] >> np.arange(8)) & 1
_BYTE_ONES = _BYTE_MASKS.sum(axis=1)
_BYTE_BITS = np.argsort(1 - _BYTE_MASKS, axis=1, kind="stable").reshape(-1)


def _nonzero_bytes(words: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
    """Index and value of every non-zero byte of a 1-D ``uint64`` array, ascending.

    Byte ``k`` of word ``i`` has index ``8 * i + k`` and holds its bits
    ``8k .. 8k + 7`` (little-endian), so bit ``b`` of byte ``at`` is bit
    ``8 * at + b`` of the array.  Two ``flatnonzero`` scans: the words, then
    the bytes of the non-zero words only.
    """
    at = np.flatnonzero(words != 0)  # a boolean scan runs ≈3× faster than a uint64 one
    octets = words[at].astype("<u8", copy=False).view(np.uint8)
    hit = np.flatnonzero(octets != 0)
    return at[hit >> 3] * 8 + (hit & 7), octets[hit].astype(np.int64)


class ReachBatch:
    """The result of one multi-source sweep: a column of bits per source.

    Bits live in a dense ``(num_nodes, ceil(num_sources / 64)) uint64``
    matrix — row ``i``, column ``j`` set means node at row ``i`` is
    reachable from source ``j`` (sources reach themselves).  A set-backed
    twin representation serves the pure-python oracle so both dispatch
    tiers hand back the same object type with the same accessors.
    """

    __slots__ = ("_sources", "_source_rows", "_ids", "_num_nodes", "_bits", "_sets")

    def __init__(self, sources, source_rows, ids, num_nodes, bits=None, sets=None):
        self._sources = tuple(sources)
        self._source_rows = source_rows
        self._ids = ids  # None == identity: row index IS the node id
        self._num_nodes = num_nodes
        self._bits = bits
        self._sets = sets

    @classmethod
    def from_bits(cls, sources, source_rows, bits, ids, num_nodes) -> "ReachBatch":
        return cls(sources, source_rows, ids, num_nodes, bits=bits)

    @classmethod
    def from_sets(cls, sources, source_rows, row_sets, ids, num_nodes) -> "ReachBatch":
        return cls(sources, source_rows, ids, num_nodes, sets=row_sets)

    # -- shape ---------------------------------------------------------- #
    @property
    def sources(self) -> Tuple[NodeId, ...]:
        return self._sources

    @property
    def num_sources(self) -> int:
        return len(self._sources)

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def source_row(self, j: int) -> int:
        return int(self._source_rows[j])

    # -- per-source accessors ------------------------------------------- #
    def mask(self, j: int) -> "np.ndarray":
        """Boolean reach mask of source ``j`` over all node rows."""
        if self._bits is not None:
            word, bit = divmod(j, 64)
            return ((self._bits[:, word] >> np.uint64(bit)) & np.uint64(1)).astype(bool)
        out = np.zeros(self._num_nodes, dtype=bool)
        out[list(self._sets[j])] = True
        return out

    def rows(self, j: int) -> List[int]:
        """Sorted node rows reached by source ``j`` (source included)."""
        if self._bits is not None:
            return np.nonzero(self.mask(j))[0].tolist()
        return sorted(self._sets[j])

    def count(self, j: int) -> int:
        """Number of nodes source ``j`` reaches, itself included."""
        if self._bits is not None:
            word, bit = divmod(j, 64)
            return int(
                np.count_nonzero((self._bits[:, word] >> np.uint64(bit)) & np.uint64(1))
            )
        return len(self._sets[j])

    def counts(self) -> List[int]:
        """Per-source reach sizes (source included).

        One 1-D pass over the non-zero bytes: a histogram of byte values per
        byte column, times each value's bits — memory follows the non-zero
        bytes, never the set bits or the dense matrix.
        """
        if self._bits is None:
            return [len(s) for s in self._sets]
        columns = 8 * self._bits.shape[1]
        at, values = _nonzero_bytes(self._bits.reshape(-1))
        histogram = np.bincount(at % columns * 256 + values, minlength=columns * 256)
        return (histogram.reshape(columns, 256) @ _BYTE_MASKS).reshape(-1)[: self.num_sources].tolist()

    def row_lists(self) -> "List[np.ndarray]":
        """Per-source reached rows (sorted arrays), one pass over the matrix.

        Restricting extraction to rows with *any* bit set makes this the
        right accessor for absorbing sweeps (landmark labels, index repair),
        where most rows stay empty: per-source cost is O(active rows), not
        O(N), unlike calling :meth:`rows` once per source.
        """
        if self._bits is None:
            return [np.array(sorted(s), dtype=np.int64) for s in self._sets]
        active = np.nonzero(self._bits.any(axis=1))[0]
        sub = self._bits[active]
        one = np.uint64(1)
        out = []
        for j in range(self.num_sources):
            word, bit = divmod(j, 64)
            hits = np.nonzero((sub[:, word] >> np.uint64(bit)) & one)[0]
            out.append(active[hits])
        return out

    def probe_rows(self, j: int, candidate_rows: "np.ndarray") -> List[int]:
        """The subset of ``candidate_rows`` that source ``j`` reaches."""
        if self._bits is not None:
            word, bit = divmod(j, 64)
            hits = (self._bits[candidate_rows, word] >> np.uint64(bit)) & np.uint64(1)
            return np.asarray(candidate_rows)[hits.astype(bool)].tolist()
        reached = self._sets[j]
        return [int(row) for row in candidate_rows if int(row) in reached]

    def reached(self, j: int) -> Set[NodeId]:
        """Node identifiers reached by source ``j`` (source included)."""
        rows = self.rows(j)
        if self._ids is None:
            return set(rows)
        ids = self._ids
        return {ids[row] for row in rows}

    # -- whole-batch accessors ------------------------------------------ #
    def pairs(self, rows: "Optional[np.ndarray]" = None) -> "Tuple[np.ndarray, np.ndarray]":
        """Every set bit as parallel ``(row, source)`` arrays, in one pass.

        With ``rows`` only those node rows are read (the batched form of
        :meth:`probe_rows`); without, the whole matrix (the batched form of
        :meth:`row_lists`).  Pairs come ordered by position in ``rows``
        (ascending row when omitted), then by source.  Extraction is one
        1-D pass through the non-zero bytes, each expanded by table into its
        set bits in order, so the cost follows the set bits, not ``rows ×
        sources`` — absorbing sweeps leave most words empty.
        """
        if self._bits is None:
            reached_by: Dict[int, List[int]] = {}
            for j, reached in enumerate(self._sets):
                for row in reached:
                    reached_by.setdefault(row, []).append(j)
            wanted = sorted(reached_by) if rows is None else [int(row) for row in rows]
            hits = [(row, j) for row in wanted for j in reached_by.get(row, ())]
            flat = np.array(hits, dtype=np.int64).reshape(-1, 2)
            return flat[:, 0], flat[:, 1]
        bits = self._bits if rows is None else self._bits[rows]
        at, values = _nonzero_bytes(bits.reshape(-1))
        ones = _BYTE_ONES[values]
        keys = np.repeat(at * 8, ones) + _BYTE_BITS[_spans(values * 8, ones)]
        position, source = np.divmod(keys, 64 * bits.shape[1])
        return (position if rows is None else np.asarray(rows)[position]), source

    def any_rows(self) -> List[int]:
        """Sorted rows reached by at least one source."""
        if self._bits is not None:
            return np.nonzero(self._bits.any(axis=1))[0].tolist()
        union: Set[int] = set()
        for rows in self._sets:
            union |= rows
        return sorted(union)

    def total_bits(self) -> int:
        """Total reach volume: sum of per-source reach sizes."""
        if self._bits is not None:
            return int(_BYTE_ONES[_nonzero_bytes(self._bits.reshape(-1))[1]].sum())
        return sum(len(s) for s in self._sets)

    def node_at(self, row: int) -> NodeId:
        """The node identifier stored at ``row``."""
        return row if self._ids is None else self._ids[row]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tier = "bitset" if self._bits is not None else "oracle"
        return f"ReachBatch({self.num_sources} sources, {self._num_nodes} nodes, {tier})"


# --------------------------------------------------------------------------- #
# Generic kernels — the pure-python differential-testing oracle
# --------------------------------------------------------------------------- #
def _normalize_stop(stop: Any, ids: Sequence[NodeId]) -> Optional[Set[NodeId]]:
    """Coerce ``stop`` (node-id iterable or row-space mask) to a node-id set."""
    if stop is None:
        return None
    if isinstance(stop, np.ndarray):
        return {ids[row] for row in np.nonzero(stop)[0].tolist()}
    return set(stop)


@KERNELS.register("reach_batch")
def _generic_reach_batch(
    graph: GraphLike,
    sources: Sequence[NodeId],
    forward: bool = True,
    stop: Any = None,
    rows: Any = None,
) -> ReachBatch:
    """One absorbing BFS per source over the GraphLike protocol.

    Deliberately naive — this is the oracle the bitset sweep is pinned
    against, so clarity beats speed here.
    """
    ids = list(graph.nodes())
    index = {node: row for row, node in enumerate(ids)}
    absorbing = _normalize_stop(stop, ids)
    neighbors = graph.successors if forward else graph.predecessors
    row_sets: List[Set[int]] = []
    source_rows: List[int] = []
    for source in sources:
        if source not in index:
            raise NodeNotFoundError(source)
        source_rows.append(index[source])
        seen: Set[NodeId] = {source}
        queue: deque = deque([source])
        while queue:
            node = queue.popleft()
            for child in neighbors(node):
                if child not in seen:
                    seen.add(child)
                    # Absorbing nodes are recorded but never expanded; the
                    # source itself expanded above regardless (level 0).
                    if absorbing is None or child not in absorbing:
                        queue.append(child)
        row_sets.append({index[node] for node in seen})
    return ReachBatch.from_sets(sources, source_rows, row_sets, ids, len(ids))


@KERNELS.register("bfs_levels")
def _generic_bfs_levels(
    graph: GraphLike,
    source: NodeId,
    max_hops: Optional[int] = None,
    direction: Direction = _BOTH,
) -> Dict[NodeId, int]:
    neighbors = neighbors_fn(graph, direction)
    distances: Dict[NodeId, int] = {source: 0}
    queue: deque = deque([source])
    while queue:
        node = queue.popleft()
        depth = distances[node]
        if max_hops is not None and depth >= max_hops:
            continue
        for neighbor in neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = depth + 1
                queue.append(neighbor)
    return distances


@KERNELS.register("is_reachable")
def _generic_is_reachable(graph: GraphLike, source: NodeId, target: NodeId) -> bool:
    if source == target:
        return True
    seen: Set[NodeId] = {source}
    queue: deque = deque([source])
    while queue:
        node = queue.popleft()
        for child in graph.successors(node):
            if child == target:
                return True
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return False


@KERNELS.register("bidirectional_reachable")
def _generic_bidirectional_reachable(graph: GraphLike, source: NodeId, target: NodeId) -> bool:
    if source == target:
        return True
    forward_seen: Set[NodeId] = {source}
    backward_seen: Set[NodeId] = {target}
    forward_frontier: Set[NodeId] = {source}
    backward_frontier: Set[NodeId] = {target}
    while forward_frontier and backward_frontier:
        if len(forward_frontier) <= len(backward_frontier):
            next_frontier: Set[NodeId] = set()
            for node in forward_frontier:
                for child in graph.successors(node):
                    if child in backward_seen:
                        return True
                    if child not in forward_seen:
                        forward_seen.add(child)
                        next_frontier.add(child)
            forward_frontier = next_frontier
        else:
            next_frontier = set()
            for node in backward_frontier:
                for parent in graph.predecessors(node):
                    if parent in forward_seen:
                        return True
                    if parent not in backward_seen:
                        backward_seen.add(parent)
                        next_frontier.add(parent)
            backward_frontier = next_frontier
    return False


@KERNELS.register("reachable_set")
def _generic_reachable_set(graph: GraphLike, source: NodeId, forward: bool = True) -> Set[NodeId]:
    neighbors = graph.successors if forward else graph.predecessors
    seen: Set[NodeId] = {source}
    queue: deque = deque([source])
    while queue:
        node = queue.popleft()
        for child in neighbors(node):
            if child not in seen:
                seen.add(child)
                queue.append(child)
    seen.discard(source)
    return seen


@KERNELS.register("connected_component")
def _generic_connected_component(graph: GraphLike, source: NodeId) -> Set[NodeId]:
    seen: Set[NodeId] = {source}
    queue: deque = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return seen


@KERNELS.register("weak_components")
def _generic_weak_components(graph: GraphLike) -> List[Set[NodeId]]:
    remaining: Set[NodeId] = set(graph.nodes())
    components: List[Set[NodeId]] = []
    while remaining:
        seed = next(iter(remaining))
        component = _generic_connected_component(graph, seed)
        components.append(component)
        remaining -= component
    return components


# --------------------------------------------------------------------------- #
# CSR kernels — vectorised, index-space
# --------------------------------------------------------------------------- #
_EMPTY = np.empty(0, dtype=np.int64)


def _csr_arrays(graph: "_CSRGraph", forward: bool):
    if forward:
        return graph._succ_indptr, graph._succ_indices
    return graph._pred_indptr, graph._pred_indices


def csr_reach_mask(
    graph: "_CSRGraph",
    start_index: int,
    forward: bool = True,
    stop_mask: Optional["np.ndarray"] = None,
    *,
    scalar_threshold: int = 32,
) -> "np.ndarray":
    """Boolean mask of nodes reachable from ``start_index`` (included).

    With ``stop_mask`` the traversal records masked nodes when reached
    but never expands *through* them (they absorb the search) — the
    primitive behind the out-of-index labels ``v.E`` of the RBReach
    index.  ``scalar_threshold`` bounds the hybrid scalar phase (gather
    setup costs more than it saves on tiny frontiers); it exists so the
    property suite can pin scalar-phase and vectorised-phase semantics
    against each other (0 forces pure-vector, a huge value pure-scalar).
    """
    indptr, indices = _csr_arrays(graph, forward)
    seen = np.zeros(graph.num_nodes(), dtype=bool)
    seen[start_index] = True
    frontier_list: List[int] = [start_index]
    while frontier_list and len(frontier_list) < scalar_threshold:
        next_list: List[int] = []
        for i in frontier_list:
            for j in indices[int(indptr[i]) : int(indptr[i + 1])].tolist():
                if not seen[j]:
                    seen[j] = True
                    if stop_mask is None or not stop_mask[j]:
                        next_list.append(j)
        frontier_list = next_list
    frontier = np.array(frontier_list, dtype=np.int64)
    while frontier.size:
        candidates = graph._expand(frontier, indptr, indices)
        candidates = candidates[~seen[candidates]]
        if candidates.size == 0:
            break
        frontier = _unique(candidates)
        seen[frontier] = True
        if stop_mask is not None:
            frontier = frontier[~stop_mask[frontier]]
    return seen


def csr_bfs_distances(
    graph: "_CSRGraph",
    source: NodeId,
    max_hops: Optional[int] = None,
    direction: Direction = _BOTH,
) -> Dict[NodeId, int]:
    """Level-synchronous BFS distances via vectorised frontier gathers."""
    start = graph.index_of(source)
    dist = np.full(graph.num_nodes(), -1, dtype=np.int64)
    dist[start] = 0
    frontier = np.array([start], dtype=np.int64)
    depth = 0
    while frontier.size and (max_hops is None or depth < max_hops):
        candidates = graph._frontier_neighbors(frontier, direction)
        candidates = candidates[dist[candidates] < 0]
        if candidates.size == 0:
            break
        frontier = _unique(candidates)
        depth += 1
        dist[frontier] = depth
    reached = np.nonzero(dist >= 0)[0]
    return dict(zip(graph.ids_of(reached), dist[reached].tolist()))


def csr_is_reachable(graph: "_CSRGraph", source: NodeId, target: NodeId) -> bool:
    """Forward BFS reachability with early exit, in index space."""
    start = graph.index_of(source)
    goal = graph.index_of(target)
    if start == goal:
        return True
    indptr, indices = graph._succ_indptr, graph._succ_indices
    seen = np.zeros(graph.num_nodes(), dtype=bool)
    seen[start] = True
    frontier_list: List[int] = [start]
    while frontier_list and len(frontier_list) < 32:
        next_list: List[int] = []
        for i in frontier_list:
            for j in indices[int(indptr[i]) : int(indptr[i + 1])].tolist():
                if j == goal:
                    return True
                if not seen[j]:
                    seen[j] = True
                    next_list.append(j)
        frontier_list = next_list
    frontier = np.array(frontier_list, dtype=np.int64)
    while frontier.size:
        candidates = graph._expand(frontier, indptr, indices)
        candidates = candidates[~seen[candidates]]
        if candidates.size == 0:
            return False
        frontier = _unique(candidates)
        seen[frontier] = True
        if seen[goal]:
            return True
    return False


def csr_reachable_set(graph: "_CSRGraph", source: NodeId, forward: bool = True) -> Set[NodeId]:
    """Descendants (or ancestors) of ``source``, excluding itself."""
    start = graph.index_of(source)
    mask = csr_reach_mask(graph, start, forward=forward)
    mask[start] = False
    return set(graph.ids_of(np.nonzero(mask)[0]))

# -- the bitset sweep ----------------------------------------------- #
def _merge(codes: "np.ndarray", bits: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
    """OR together the ``bits`` of equal ``codes``; codes come back unique and ascending."""
    if codes.shape[0] == 0:
        return codes, bits
    order = np.argsort(codes)  # OR commutes: no need for a stable sort
    codes = codes[order]
    starts = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), starts))
    return codes[starts], np.bitwise_or.reduceat(bits[order], starts)


def _bitset_sweep(
    indptr: "np.ndarray",
    indices: "np.ndarray",
    num_nodes: int,
    source_rows: "np.ndarray",
    stop_mask: Optional["np.ndarray"],
) -> Tuple["np.ndarray", int]:
    """One level-synchronous sweep for every source at once.

    Returns a dense ``(num_nodes, ceil(len(source_rows)/64)) uint64`` reach
    matrix — bit ``j`` of the row words mirrors what a per-source
    ``reach_mask(source_rows[j])`` would mark ``seen`` — and the number of
    frontier entries expanded.  The frontier is 1-D: a code ``row * W +
    word`` per non-zero word and its pending bits, so a level costs what it
    sets, not ``rows × W``.  Contributions scatter to unique codes with an
    argsort + ``bitwise_or.reduceat``, which benches far faster than
    ``bitwise_or.at``.
    """
    count = source_rows.shape[0]
    width = (count + 63) // 64
    reach = np.zeros((num_nodes, width), dtype=np.uint64)
    flat = reach.reshape(-1)
    columns = np.arange(count, dtype=np.int64)
    # Duplicate sources share a row: their bits merge into one entry.
    codes, bits = _merge(
        source_rows * width + columns // 64, np.uint64(1) << (columns % 64).astype(np.uint64)
    )
    flat[codes] = bits
    expanded = 0
    # Level 0 expands every source row, absorbing or not (reach_mask
    # semantics: the start of a sweep is never absorbed by its own mask).
    while codes.shape[0]:
        expanded += codes.shape[0]
        rows, word = np.divmod(codes, width)
        starts = indptr[rows]
        fanout = indptr[rows + 1] - starts
        codes, bits = _merge(
            indices[_spans(starts, fanout)] * width + np.repeat(word, fanout),
            np.repeat(bits, fanout),
        )
        bits &= ~flat[codes]
        live = bits != 0
        codes, bits = codes[live], bits[live]
        flat[codes] |= bits
        if stop_mask is not None:
            # Absorption: the bits are recorded (above) but an entry only
            # keeps expanding if its row is not masked.
            expanding = ~stop_mask[codes // width]
            codes, bits = codes[expanding], bits[expanding]
    return reach, expanded


def _stop_mask_of(graph: "_CSRGraph", stop: Any, num_nodes: int) -> Optional["np.ndarray"]:
    if stop is None:
        return None
    if isinstance(stop, np.ndarray):
        if stop.dtype != np.bool_ or stop.shape != (num_nodes,):
            raise GraphError("stop mask must be a boolean array over all node rows")
        return stop
    mask = np.zeros(num_nodes, dtype=bool)
    # Ids outside the graph absorb nothing, as in the oracle.
    mask[[row for row in map(graph._index.get, stop) if row is not None]] = True
    return mask


@KERNELS.register("reach_batch", _CSRGraph)
def _csr_reach_batch(
    graph: "_CSRGraph",
    sources: Sequence[NodeId],
    forward: bool = True,
    stop: Any = None,
    rows: Optional["np.ndarray"] = None,
) -> ReachBatch:
    num_nodes = graph.num_nodes()
    if rows is None:
        rows = np.fromiter(map(graph.index_of, sources), dtype=np.int64, count=len(sources))
    stop_mask = _stop_mask_of(graph, stop, num_nodes)
    indptr, indices = _csr_arrays(graph, forward)
    bits, expanded = _bitset_sweep(indptr, indices, num_nodes, rows, stop_mask)
    obs.counter("kernel.sweep.words").inc(expanded)
    ids = None if graph._identity else graph._ids
    return ReachBatch.from_bits(sources, rows, bits, ids, num_nodes)


@KERNELS.register("reach_mask", _CSRGraph)
def _kernel_reach_mask(graph, start_index, forward=True, stop_mask=None, **kwargs):
    return csr_reach_mask(graph, start_index, forward=forward, stop_mask=stop_mask, **kwargs)


@KERNELS.register("bfs_levels", _CSRGraph)
def _kernel_bfs_levels(graph, source, max_hops=None, direction=_BOTH):
    return csr_bfs_distances(graph, source, max_hops=max_hops, direction=direction)


@KERNELS.register("is_reachable", _CSRGraph)
def _kernel_is_reachable(graph, source, target):
    return csr_is_reachable(graph, source, target)


@KERNELS.register("bidirectional_reachable", _CSRGraph)
def _kernel_bidirectional_reachable(graph, source, target):
    return graph.fast_bidirectional_reachable(source, target)


@KERNELS.register("reachable_set", _CSRGraph)
def _kernel_reachable_set(graph, source, forward=True):
    return csr_reachable_set(graph, source, forward=forward)


@KERNELS.register("connected_component", _CSRGraph)
def _kernel_connected_component(graph, source):
    return graph.fast_connected_component(source)


@KERNELS.register("weak_components", _CSRGraph)
def _kernel_weak_components(graph):
    return graph.fast_weak_components()


__all__ = [
    "KERNELS",
    "KernelRegistry",
    "ReachBatch",
    "neighbors_fn",
    "observe_batch",
    "reach_batch",
    "traverse",
]
