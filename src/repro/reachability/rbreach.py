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
* landmarks whose topological range cannot lie on a ``vp → vo`` path are
  pruned (Lemma 5(2));
* the search touches at most ``alpha * |G|`` landmarks/edges (the entire
  index in the worst case) and answers ``False`` when the frontiers are
  exhausted without meeting — possibly a false negative, which is exactly
  the accuracy the experiments measure.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

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


class RBReach:
    """Resource-bounded reachability answering over a hierarchical landmark index."""

    def __init__(self, index: HierarchicalLandmarkIndex):
        self._index = index
        self._compressed = index.compressed

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

        forward_frontier = self._new_frontier(forward_active, source_rank, target_rank, forward=True)
        backward_frontier = self._new_frontier(backward_active, source_rank, target_rank, forward=False)

        while (forward_frontier or backward_frontier) and visited < limit:
            if forward_frontier and (not backward_frontier or len(forward_active) <= len(backward_active)):
                frontier, active, other_active, forward = (
                    forward_frontier,
                    forward_active,
                    backward_active,
                    True,
                )
            else:
                frontier, active, other_active, forward = (
                    backward_frontier,
                    backward_active,
                    forward_active,
                    False,
                )
            _, _, landmark = heapq.heappop(frontier)
            if landmark in active:
                continue
            active.add(landmark)
            visited += 1
            if landmark in other_active:
                return ReachabilityAnswer(reachable=True, visited=visited, met_at=landmark)
            for neighbor, weight in self._expansions(landmark, active, source_rank, target_rank, forward):
                visited += 1
                heapq.heappush(frontier, (-weight, repr(neighbor), neighbor))
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

    def _guard(self, landmark: NodeId, source_rank: int, target_rank: int) -> bool:
        """Lemma 5(2): prune landmarks whose range cannot straddle the query."""
        info = self._index.info(landmark)
        return self._compressed.ranks.range_may_cover(
            (info.range_low, info.range_high), source_rank, target_rank
        )

    def _weight(self, landmark: NodeId, active: Set[NodeId]) -> float:
        """Drill/roll weight ``p(v) / (c(v) + 1)`` from cover sizes."""
        info = self._index.info(landmark)
        visited_neighbors = sum(
            1
            for neighbor in (
                self._index.reachable_index_neighbors(landmark)
                | self._index.reaching_index_neighbors(landmark)
            )
            if neighbor in active
        )
        potential = max(1, info.cover_size - visited_neighbors)
        cost = 1 + visited_neighbors
        return potential / cost

    def _new_frontier(
        self,
        active: Set[NodeId],
        source_rank: int,
        target_rank: int,
        forward: bool,
    ) -> List[Tuple[float, str, NodeId]]:
        frontier: List[Tuple[float, str, NodeId]] = []
        for landmark in active:
            for neighbor, weight in self._expansions(landmark, active, source_rank, target_rank, forward):
                heapq.heappush(frontier, (-weight, repr(neighbor), neighbor))
        return frontier

    def _expansions(
        self,
        landmark: NodeId,
        active: Set[NodeId],
        source_rank: int,
        target_rank: int,
        forward: bool,
    ) -> List[Tuple[NodeId, float]]:
        """Index neighbours that can soundly extend the frontier, with weights."""
        if forward:
            neighbors = self._index.reachable_index_neighbors(landmark)
        else:
            neighbors = self._index.reaching_index_neighbors(landmark)
        results: List[Tuple[NodeId, float]] = []
        for neighbor in neighbors:
            if neighbor in active:
                continue
            rank = self._index.info(neighbor).rank
            if rank > source_rank or rank < target_rank:
                continue
            if not self._guard(neighbor, source_rank, target_rank):
                continue
            results.append((neighbor, self._weight(neighbor, active)))
        return results


def rbreach(graph: GraphLike, alpha: float, source: NodeId, target: NodeId) -> bool:
    """One-shot convenience wrapper (builds an index per call; prefer :class:`RBReach`)."""
    return RBReach.from_graph(graph, alpha).query(source, target).reachable
