"""``RBReach`` — resource-bounded reachability (Fan, Wang & Wu, SIGMOD 2014, Section 5.2, Fig. 7).

Given a reachability query ``(vp, vo)`` and the hierarchical landmark index
``I``, ``RBReach`` answers in two stages under one budget of
``alpha * |G|`` visits.  The first is Fig. 7's bidirectional search *on the
index*:

* the *forward* frontier ``vp.Active`` holds landmarks known to be reachable
  from ``vp``; it is seeded from the out-of-index labels ``vp.E`` and grown
  by following stored index edges in the forward direction (drill-down /
  roll-up, whichever neighbour has the highest weight);
* the *backward* frontier ``vo.Active`` symmetrically holds landmarks known
  to reach ``vo``;
* as soon as the two frontiers share a landmark ``m`` we have
  ``vp → m → vo`` and the answer is ``True`` (Lemma 5(1)).

A pair with no landmark on any ``vp → vo`` path runs both index frontiers
dry long before the budget.  The second stage spends what is left on a
bidirectional search of the condensed DAG itself (``compressed.dag_csr``):
it expands the side with the shorter queue, first in first out, over the
mirror's rows in CSR order, and each expanded node and each scanned edge
costs one visit.  The two sides meet on a node both have reached, so a
meeting is a real DAG path.

Lemma 5's rank window prunes both stages: every edge of the DAG lowers the
rank, so a landmark enters a frontier only if its rank lies in
``[vo.r, vp.r]``, and a DAG node enters a queue only if its rank lies
strictly between the two.  Neither stage can answer a false positive.  The
answer is ``exhausted`` exactly when the budget ran out: only such a
``False`` may be a false negative, the accuracy the experiments measure.  A
``False`` below the budget is exact, because one side of the DAG search
reached everything its endpoint reaches inside the window.  Seeding the two
frontiers costs ``|vp.E| + |vo.E| + 1`` visits; when that alone passes the
budget, nothing further is read and the answer is an exhausted ``False``
charged the budget, so every answer keeps ``visited <= alpha * |G|``.

The answer loop only reads.  On its first query a matcher builds one row
per landmark — rank, cover size, the frozen set of its forward ∪ backward
index neighbours and its ``repr`` (the heap tie-break) — and the index
adjacency as tuples in the index sets' iteration order, so a weight is one
set intersection.  On its first DAG search it takes the mirror's adjacency
columns and one rank per mirror row, so a scanned edge is two indexings and
no id is resolved until a meeting names one.  Both are built lazily and
never pickled: an unpickled matcher rebuilds them from its own copy of the
index.

The index stores no subtree range ``[r1, r2]`` for Lemma 5(2).  The search
tests every candidate on its own rank before it enters a frontier, and a
subtree range always contains the landmark's own rank, so the range test
passes for every landmark the rank window admits: it could never prune.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, FrozenSet, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from repro import obs
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


class _Mirror(NamedTuple):
    """What the DAG search reads of ``compressed.dag_csr``, by mirror row."""

    rows: Mapping[NodeId, int]  # component id -> mirror row
    ids: Sequence[NodeId]  # mirror row -> component id
    succ_indptr: Sequence[int]
    succ_indices: Sequence[int]
    pred_indptr: Sequence[int]
    pred_indices: Sequence[int]
    ranks: Sequence[int]  # v.r by mirror row


class RBReach:
    """Resource-bounded reachability answering over a hierarchical landmark index."""

    def __init__(self, index: HierarchicalLandmarkIndex):
        self._index = index
        self._compressed = index.compressed
        self._rows: Optional[_Rows] = None
        self._mirror: Optional[_Mirror] = None

    def __reduce__(self):
        # The rows and the mirror views stay behind: they would grow the
        # payload, and the far side rebuilds them from its copy of the index
        # in under a millisecond.
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

        limit = self.visit_limit
        forward_active = self._seed(source_component, forward=True)
        backward_active = self._seed(target_component, forward=False)
        visited = len(forward_active) + len(backward_active) + 1
        if visited > limit:
            # The seed labels alone cost more than the budget: nothing further
            # is read, and the answer is the budget's, not the graph's.
            return ReachabilityAnswer(reachable=False, visited=limit, exhausted=True)

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

        if visited >= limit:
            return ReachabilityAnswer(reachable=False, visited=visited, exhausted=True)
        return self._dag_search(source_component, target_component, target_rank, source_rank, visited, limit)

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

    def _dag_search(
        self, source: NodeId, target: NodeId, low: int, high: int, visited: int, limit: int
    ) -> ReachabilityAnswer:
        """The second stage: a bidirectional search of the condensed DAG for what the budget leaves.

        Each side keeps the rows it has reached and a FIFO queue of rows to
        expand; the side with the shorter queue expands next (forward on a
        tie).  A scanned edge whose far row the other side has reached is a
        meeting; otherwise the row joins the queue if its rank lies strictly
        inside ``(low, high)``.  When either queue runs dry that side has
        reached everything its endpoint reaches through the window, so the
        ``False`` is exact.
        """
        rows, ids, succ_indptr, succ_indices, pred_indptr, pred_indices, ranks = self._mirror_rows()
        source_row, target_row = rows[source], rows[target]
        forward_seen, backward_seen = {source_row}, {target_row}
        forward_queue, backward_queue = deque((source_row,)), deque((target_row,))
        while forward_queue and backward_queue and visited < limit:
            if len(forward_queue) <= len(backward_queue):
                queue, seen, other_seen, indptr, indices = (
                    forward_queue,
                    forward_seen,
                    backward_seen,
                    succ_indptr,
                    succ_indices,
                )
            else:
                queue, seen, other_seen, indptr, indices = (
                    backward_queue,
                    backward_seen,
                    forward_seen,
                    pred_indptr,
                    pred_indices,
                )
            row = queue.popleft()
            visited += 1
            for neighbor in indices[indptr[row] : indptr[row + 1]]:
                if visited >= limit:
                    break
                visited += 1
                if neighbor in other_seen:
                    obs.counter("rbreach.local_hits").inc()
                    return ReachabilityAnswer(reachable=True, visited=visited, met_at=ids[neighbor])
                if neighbor not in seen and low < ranks[neighbor] < high:
                    seen.add(neighbor)
                    queue.append(neighbor)
        return ReachabilityAnswer(reachable=False, visited=visited, exhausted=visited >= limit)

    def _mirror_rows(self) -> _Mirror:
        """The DAG mirror's adjacency columns and its ranks by row, taken on first use."""
        mirror = self._mirror
        if mirror is None:
            compressed = self._compressed
            dag = compressed.dag_csr
            mirror = self._mirror = _Mirror(
                dag._index,
                dag._ids,
                memoryview(dag._succ_indptr),
                memoryview(dag._succ_indices),
                memoryview(dag._pred_indptr),
                memoryview(dag._pred_indices),
                compressed.rank_rows(),
            )
        return mirror

    @staticmethod
    def _meeting_point(forward_active: Set[NodeId], backward_active: Set[NodeId]) -> Optional[NodeId]:
        # Deterministic choice: a set's iteration order depends on its
        # insertion history, and the seed sets come from label columns or
        # from a pickled matcher's copy of the index; ``next(iter(...))``
        # could name a different landmark for the same query on each.  The repr key makes
        # ``met_at`` a function of the sets' contents (what the oracle parity
        # holds) and matches the frontier heap's tie-break.
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
