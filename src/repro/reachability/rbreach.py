"""``RBReach`` — resource-bounded reachability (Fan, Wang & Wu, SIGMOD 2014, Section 5.2, Fig. 7).

Given a reachability query ``(vp, vo)`` and the hierarchical landmark index
``I``, ``RBReach`` performs a bidirectional search *on the index* (never on
the full graph):

* the *forward* frontier ``vp.Active`` holds landmarks known to be reachable
  from ``vp``; it is seeded from the out-of-index labels ``vp.E`` and grown
  by following stored index edges in the forward direction (drill-down /
  roll-up, whichever neighbour has the highest weight);
* the *backward* frontier ``vo.Active`` symmetrically holds landmarks known
  to reach ``vo``;
* as soon as the two frontiers share a landmark ``m`` we have
  ``vp → m → vo`` and the answer is ``True`` (Lemma 5(1)) — so the algorithm
  never returns a false positive;
* a landmark enters a frontier only if its rank lies in the query's window
  ``[vo.r, vp.r]``: every edge of the DAG lowers the rank, so a landmark
  outside it cannot lie on a ``vp → vo`` path.  This is Lemma 5(2) applied
  per landmark;
* the search touches at most ``alpha * |G|`` landmarks/edges (the entire
  index in the worst case) and answers ``False`` when the frontiers are
  exhausted without meeting — possibly a false negative, which is exactly
  the accuracy the experiments measure.

The answer loop only reads.  On its first query a matcher builds one row
per landmark — rank, cover size, the frozen set of its forward ∪ backward
index neighbours and its ``repr`` (the heap tie-break) — and the index
adjacency as tuples in the index sets' iteration order, so a weight is one
set intersection.  The rows are built lazily and never pickled: an
unpickled matcher rebuilds them from its own copy of the index.

The index stores no subtree range ``[r1, r2]`` for Lemma 5(2).  The search
tests every candidate on its own rank before it enters a frontier, and a
subtree range always contains the landmark's own rank, so the range test
passes for every landmark the rank window admits: it could never prune.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.graph.digraph import NodeId
from repro.graph.protocol import GraphLike
from repro.reachability.hierarchy import HierarchicalLandmarkIndex, build_index


@dataclass
class ReachabilityAnswer:
    """Result of one resource-bounded reachability query."""

    reachable: bool
    visited: int = 0
    met_at: Optional[NodeId] = None
    exhausted: bool = False


class _Row(NamedTuple):
    """What a query reads of one landmark, built once per index."""

    rank: int
    cover: int
    neighbors: FrozenSet[NodeId]  # forward ∪ backward index neighbours
    key: str  # repr(landmark), the frontier heap's tie-break


class _Rows(NamedTuple):
    """The landmark rows plus the index adjacency in the index sets' iteration order."""

    rows: Dict[NodeId, _Row]
    forward: Dict[NodeId, Tuple[NodeId, ...]]
    backward: Dict[NodeId, Tuple[NodeId, ...]]


class RBReach:
    """Resource-bounded reachability answering over a hierarchical landmark index."""

    def __init__(self, index: HierarchicalLandmarkIndex):
        self._index = index
        self._compressed = index.compressed
        self._rows: Optional[_Rows] = None

    def __reduce__(self):
        # The rows stay behind: they would grow a published payload, and the
        # far side rebuilds them from its copy of the index in under a millisecond.
        return RBReach, (self._index,)

    @classmethod
    def from_graph(cls, graph: GraphLike, alpha: float, **index_kwargs) -> "RBReach":
        """Convenience constructor: compress, build the index, wrap it."""
        return cls(build_index(graph, alpha, **index_kwargs))

    @property
    def index(self) -> HierarchicalLandmarkIndex:
        """The underlying hierarchical landmark index."""
        return self._index

    @property
    def visit_limit(self) -> int:
        """Maximum data items inspected per query (``alpha * |G|``)."""
        return max(1, self._index.size_budget)

    # ------------------------------------------------------------------ #
    # Query answering
    # ------------------------------------------------------------------ #
    def query(self, source: NodeId, target: NodeId) -> ReachabilityAnswer:
        """Answer "does ``source`` reach ``target``?" within bounded resources."""
        source_at = self._compressed.locate(source)
        target_at = self._compressed.locate(target)
        if source_at is None or target_at is None:
            return ReachabilityAnswer(reachable=False)
        (source_component, source_rank), (target_component, target_rank) = source_at, target_at
        if source_component == target_component:
            return ReachabilityAnswer(reachable=True, visited=1)

        # On a DAG every edge strictly decreases rank, so a path from the
        # source to the target requires source_rank > target_rank.
        if source_rank <= target_rank:
            return ReachabilityAnswer(reachable=False, visited=1)

        visited = 0
        limit = self.visit_limit

        forward_active = self._seed(source_component, forward=True)
        backward_active = self._seed(target_component, forward=False)
        visited += len(forward_active) + len(backward_active) + 1

        meeting = self._meeting_point(forward_active, backward_active)
        if meeting is not None:
            return ReachabilityAnswer(reachable=True, visited=visited, met_at=meeting)

        # Lemma 5 per landmark: a landmark on a source -> target path has a
        # rank in [target_rank, source_rank].  A heap pops its entries in
        # sorted order whatever order they arrived in, so each initial
        # frontier is built as a list and heapified once.
        rows, forward_edges, backward_edges = self._landmark_rows()
        forward_frontier = [
            entry
            for landmark in forward_active
            for entry in _candidates(rows, forward_edges.get(landmark, ()), forward_active, target_rank, source_rank)
        ]
        backward_frontier = [
            entry
            for landmark in backward_active
            for entry in _candidates(rows, backward_edges.get(landmark, ()), backward_active, target_rank, source_rank)
        ]
        heapify(forward_frontier)
        heapify(backward_frontier)

        while (forward_frontier or backward_frontier) and visited < limit:
            if forward_frontier and (not backward_frontier or len(forward_active) <= len(backward_active)):
                frontier, active, other_active, edges = (
                    forward_frontier,
                    forward_active,
                    backward_active,
                    forward_edges,
                )
            else:
                frontier, active, other_active, edges = (
                    backward_frontier,
                    backward_active,
                    forward_active,
                    backward_edges,
                )
            _, _, landmark = heappop(frontier)
            if landmark in active:
                continue
            active.add(landmark)
            visited += 1
            if landmark in other_active:
                return ReachabilityAnswer(reachable=True, visited=visited, met_at=landmark)
            for entry in _candidates(rows, edges.get(landmark, ()), active, target_rank, source_rank):
                visited += 1
                heappush(frontier, entry)
                if visited >= limit:
                    break

        return ReachabilityAnswer(reachable=False, visited=visited, exhausted=visited >= limit)

    def query_batch(self, pairs: List[Tuple[NodeId, NodeId]]) -> List["ReachabilityAnswer"]:
        """Answer a whole sub-batch in one entry — the executor fan-out seam.

        Returns one :class:`ReachabilityAnswer` per pair, in order, each
        bit-identical to a lone :meth:`query` call.  The batched entry is
        what the engine/shard chunk functions hand an executor chunk to, and
        it records the batch size on the ``kernel.batch_size`` histogram so
        the observability layer sees how much work arrives per dispatch.
        """
        from repro.graph.kernels import observe_batch

        observe_batch(len(pairs))
        return [self.query(source, target) for source, target in pairs]

    def query_many(self, pairs: List[Tuple[NodeId, NodeId]]) -> Dict[Tuple[NodeId, NodeId], bool]:
        """Answer a batch of queries; returns query → Boolean answer."""
        answers = self.query_batch(list(pairs))
        return {pair: answer.reachable for pair, answer in zip(pairs, answers)}

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _seed(self, component: NodeId, forward: bool) -> Set[NodeId]:
        """Initial active set: the node's out-of-index labels (plus itself if a landmark)."""
        seeds = self._index.labels_of(component, forward=forward)
        if self._index.is_landmark(component):
            seeds.add(component)
        return seeds

    @staticmethod
    def _meeting_point(forward_active: Set[NodeId], backward_active: Set[NodeId]) -> Optional[NodeId]:
        # Deterministic choice: set iteration order depends on insertion
        # history, which a pickle round-trip (shared-memory publication to
        # the daemon workers) rewrites — ``next(iter(...))`` here would break
        # the bit-parity contract between the serial path and attached
        # workers.  The repr key matches the frontier heap's tie-break.
        common = forward_active & backward_active
        return min(common, key=repr) if common else None

    def _landmark_rows(self) -> _Rows:
        """The per-landmark rows and the index adjacency as tuples, built on first use."""
        rows = self._rows
        if rows is None:
            index = self._index
            forward, backward = index.forward_edges, index.backward_edges
            empty: FrozenSet[NodeId] = frozenset()
            rows = self._rows = _Rows(
                {
                    landmark: _Row(
                        info.rank,
                        info.cover_size,
                        frozenset(forward.get(landmark, empty) | backward.get(landmark, empty)),
                        repr(landmark),
                    )
                    for landmark, info in index.landmarks.items()
                },
                {landmark: tuple(targets) for landmark, targets in forward.items()},
                {landmark: tuple(sources) for landmark, sources in backward.items()},
            )
        return rows


def _candidates(
    rows: Dict[NodeId, _Row],
    neighbors: Tuple[NodeId, ...],
    active: Set[NodeId],
    low: int,
    high: int,
) -> Iterator[Tuple[float, str, NodeId]]:
    """Frontier heap entries ``(-weight, repr, node)`` for the index neighbours that may extend ``active``.

    A neighbour qualifies when it is not active yet and its rank lies in the
    query's window ``[low, high]``.  Its drill/roll weight is
    ``p(v) / (c(v) + 1)`` with ``c(v)`` the active landmarks among its index
    neighbours and ``p(v) = max(1, cover - c(v))``.
    """
    for neighbor in neighbors:
        if neighbor in active:
            continue
        rank, cover, around, key = rows[neighbor]
        if low <= rank <= high:
            seen = len(around & active)
            potential = cover - seen  # max(1, ...) without the builtin call
            yield -(potential if potential > 1 else 1) / (1 + seen), key, neighbor


def rbreach(graph: GraphLike, alpha: float, source: NodeId, target: NodeId) -> bool:
    """One-shot convenience wrapper (builds an index per call; prefer :class:`RBReach`)."""
    return RBReach.from_graph(graph, alpha).query(source, target).reachable
