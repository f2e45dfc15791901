"""Traversal kernels: bitset frontiers, and one type test per operation.

This module is the single surface for traversal work.  Each operation is
one public function — :func:`reach_batch`, :func:`bfs_levels`,
:func:`is_reachable`, :func:`bidirectional_reachable`,
:func:`reachable_set`, :func:`connected_component` and
:func:`weak_components` — that takes any
:class:`~repro.graph.protocol.GraphLike` and branches once: a
:class:`~repro.graph.csr.CSRGraph` (or a subclass) runs the vectorised
index-space kernel, every other graph the generic pure-python
implementation.  The generic path is not a second-class citizen: it is the
*differential-testing oracle* the vectorised kernels are pinned against
(``tests/test_kernels.py``), so both tiers must return bit-identical answers
forever.

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
entries it expanded to ``kernel.sweep.words``, and every call that lands on
the generic implementation bumps the ``kernel.fallbacks`` counter (a
vectorised kernel bumps nothing — fallbacks are the signal worth watching).
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import obs
from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph.protocol import GraphLike, NodeId

import numpy as np

from repro.graph.csr import CSRGraph, _spans, _unique

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


def observe_batch(size: int) -> None:
    """Record one batched entry of ``size`` sources/queries."""
    obs.histogram("kernel.batch_size", scheme="count").observe(float(size))


def _fallback() -> None:
    """Count one call answered by the generic implementation."""
    obs.counter("kernel.fallbacks").inc()


# --------------------------------------------------------------------------- #
# The operations: a CSRGraph takes the vectorised kernel, any other graph
# the generic implementation — the pure-python differential-testing oracle
# --------------------------------------------------------------------------- #
def _closure(
    neighbors: Callable[[NodeId], Iterable[NodeId]],
    source: NodeId,
    absorbing: Collection[NodeId] = (),
) -> Set[NodeId]:
    """Every node a BFS from ``source`` reaches over ``neighbors``, itself included.

    Nodes in ``absorbing`` are recorded when reached but never expanded;
    the source itself always expands.
    """
    seen: Set[NodeId] = {source}
    queue: deque = deque([source])
    while queue:
        for child in neighbors(queue.popleft()):
            if child not in seen:
                seen.add(child)
                if child not in absorbing:
                    queue.append(child)
    return seen


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
    ``csr_reach_mask``'s semantics, which the landmark label sweep relies on).
    Stop ids that are not in the graph are ignored.  ``rows`` optionally
    holds the sources' row indices, for a CSR caller that mapped them
    already; the pure-python oracle maps the ids itself.
    """
    sources = list(sources)
    observe_batch(len(sources))
    if isinstance(graph, CSRGraph):
        return _csr_reach_batch(graph, sources, forward, stop, rows)
    _fallback()
    # The oracle: one absorbing BFS per source — clarity beats speed here.
    ids = list(graph.nodes())
    index = {node: row for row, node in enumerate(ids)}
    if stop is None:
        absorbing: Set[NodeId] = set()
    elif isinstance(stop, np.ndarray):
        absorbing = {ids[row] for row in np.nonzero(stop)[0].tolist()}
    else:
        absorbing = set(stop)
    neighbors = graph.successors if forward else graph.predecessors
    row_sets: List[Set[int]] = []
    source_rows: List[int] = []
    for source in sources:
        if source not in index:
            raise NodeNotFoundError(source)
        source_rows.append(index[source])
        row_sets.append({index[node] for node in _closure(neighbors, source, absorbing)})
    return ReachBatch.from_sets(sources, source_rows, row_sets, ids, len(ids))


def bfs_levels(
    graph: GraphLike,
    source: NodeId,
    max_hops: Optional[int] = None,
    direction: Direction = _BOTH,
) -> Dict[NodeId, int]:
    """Hop distance from ``source`` of every node within ``max_hops`` (itself at 0)."""
    if isinstance(graph, CSRGraph):
        return csr_bfs_distances(graph, source, max_hops=max_hops, direction=direction)
    _fallback()
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


def is_reachable(graph: GraphLike, source: NodeId, target: NodeId) -> bool:
    """Forward BFS reachability with early exit."""
    if isinstance(graph, CSRGraph):
        return csr_is_reachable(graph, source, target)
    _fallback()
    if source == target:
        return True
    seen: Set[NodeId] = {source}
    queue: deque = deque([source])
    while queue:
        for child in graph.successors(queue.popleft()):
            if child == target:
                return True
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return False


def bidirectional_reachable(graph: GraphLike, source: NodeId, target: NodeId) -> bool:
    """Bidirectional BFS reachability, expanding the smaller frontier."""
    if isinstance(graph, CSRGraph):
        return graph.fast_bidirectional_reachable(source, target)
    _fallback()
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


def reachable_set(graph: GraphLike, source: NodeId, forward: bool = True) -> Set[NodeId]:
    """Descendants (or, with ``forward=False``, ancestors) of ``source``, excluding itself."""
    if isinstance(graph, CSRGraph):
        return csr_reachable_set(graph, source, forward=forward)
    _fallback()
    reached = _closure(graph.successors if forward else graph.predecessors, source)
    reached.discard(source)
    return reached


def connected_component(graph: GraphLike, source: NodeId) -> Set[NodeId]:
    """The weakly connected component containing ``source``."""
    if isinstance(graph, CSRGraph):
        return graph.fast_connected_component(source)
    _fallback()
    return _closure(graph.neighbors, source)


def weak_components(graph: GraphLike) -> List[Set[NodeId]]:
    """Every weakly connected component of ``graph``."""
    if isinstance(graph, CSRGraph):
        return graph.fast_weak_components()
    _fallback()
    remaining: Set[NodeId] = set(graph.nodes())
    components: List[Set[NodeId]] = []
    while remaining:
        component = _closure(graph.neighbors, next(iter(remaining)))
        components.append(component)
        remaining -= component
    return components


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
# CSR kernels — vectorised, index-space
# --------------------------------------------------------------------------- #
_EMPTY = np.empty(0, dtype=np.int64)


def _csr_arrays(graph: CSRGraph, forward: bool):
    if forward:
        return graph._succ_indptr, graph._succ_indices
    return graph._pred_indptr, graph._pred_indices


def csr_reach_mask(
    graph: CSRGraph,
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


def csr_hop_levels(
    graph: CSRGraph,
    rows: Sequence[int],
    max_hops: Optional[int] = None,
    direction: Direction = _BOTH,
) -> "np.ndarray":
    """Hop distance of every row from the nearest of ``rows`` (-1 where not
    reached within ``max_hops``): one level-synchronous sweep of vectorised
    frontier gathers for all sources at once."""
    dist = np.full(graph.num_nodes(), -1, dtype=np.int64)
    frontier = _unique(np.asarray(rows, dtype=np.int64))
    dist[frontier] = 0
    depth = 0
    while frontier.size and (max_hops is None or depth < max_hops):
        candidates = graph._frontier_neighbors(frontier, direction)
        candidates = candidates[dist[candidates] < 0]
        if candidates.size == 0:
            break
        frontier = _unique(candidates)
        depth += 1
        dist[frontier] = depth
    return dist


def csr_bfs_distances(
    graph: CSRGraph,
    source: NodeId,
    max_hops: Optional[int] = None,
    direction: Direction = _BOTH,
) -> Dict[NodeId, int]:
    """Level-synchronous BFS distances from one source (:func:`csr_hop_levels`)."""
    dist = csr_hop_levels(graph, [graph.index_of(source)], max_hops, direction)
    reached = np.nonzero(dist >= 0)[0]
    return dict(zip(graph.ids_of(reached), dist[reached].tolist()))


def csr_is_reachable(graph: CSRGraph, source: NodeId, target: NodeId) -> bool:
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


def csr_reachable_set(graph: CSRGraph, source: NodeId, forward: bool = True) -> Set[NodeId]:
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


def _stop_mask_of(graph: CSRGraph, stop: Any, num_nodes: int) -> Optional["np.ndarray"]:
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


def _csr_reach_batch(
    graph: CSRGraph,
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


__all__ = [
    "ReachBatch",
    "bfs_levels",
    "bidirectional_reachable",
    "connected_component",
    "is_reachable",
    "neighbors_fn",
    "observe_batch",
    "reach_batch",
    "reachable_set",
    "weak_components",
]
