"""The per-query ``RBReach`` answer loop of commit 8dd5c29, frozen as an oracle.

``OracleRBReach.query`` is ``RBReach.query`` exactly as it stood before the
landmark rows: every candidate pays a Lemma 5(2) ``_guard`` on its subtree
range, and every ``_weight`` builds a fresh ``forward ∪ backward``
index-neighbour set and counts the active landmarks in it.  When both index
frontiers run dry below the budget, ``_dag_search`` is the second stage in
the same style: a bidirectional search over the condensed DAG's ids
(``compressed.dag_csr``), one ``ranks.rank`` call per scanned neighbour.
The index no longer stores the subtree ranges, so
:func:`subtree_ranges` recomputes them with the bottom-up loop that
``assemble_index`` ran, and :func:`range_may_cover` is the removed
``TopologicalRankIndex.range_may_cover``.  The oracle exists only so
``tests/test_rbreach_differential.py`` and ``benchmarks/bench_reach.py`` can
demand bit-identical answers from the row-backed loop; nothing in ``src/``
imports it.

Below the oracle sit the helpers both comparisons share: :func:`fingerprint`
is what "identical to the oracle" compares, :func:`digest` hashes a batch of
fingerprints.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.graph.digraph import NodeId
from repro.reachability.hierarchy import HierarchicalLandmarkIndex
from repro.reachability.rbreach import ReachabilityAnswer


def subtree_ranges(index: HierarchicalLandmarkIndex) -> Dict[NodeId, Tuple[int, int]]:
    """Per landmark the ``[low, high]`` rank span of its index subtree, built bottom-up."""
    ranges = {landmark: (info.rank, info.rank) for landmark, info in index.landmarks.items()}
    for level_number in range(2, len(index.levels) + 1):
        for node in index.levels[level_number - 1]:
            low, high = ranges[node]
            for child in index.forward_edges.get(node, set()) | index.backward_edges.get(node, set()):
                child_low, child_high = ranges[child]
                low = min(low, child_low)
                high = max(high, child_high)
            ranges[node] = (low, high)
    return ranges


def range_may_cover(node_range: Tuple[int, int], source_rank: int, target_rank: int) -> bool:
    """Lemma 5(2) pruning test: the range is neither wholly below the target nor above the source."""
    low, high = node_range
    if high < target_rank:
        return False
    if low > source_rank:
        return False
    return True


class OracleRBReach:
    """``RBReach`` with the per-candidate guard and weight of commit 8dd5c29."""

    def __init__(self, index: HierarchicalLandmarkIndex):
        self._index = index
        self._compressed = index.compressed
        self._ranges = subtree_ranges(index)

    @property
    def visit_limit(self) -> int:
        return max(1, self._index.size_budget)

    def query(self, source: NodeId, target: NodeId) -> ReachabilityAnswer:
        source_at = self._compressed.locate(source)
        target_at = self._compressed.locate(target)
        if source_at is None or target_at is None:
            return ReachabilityAnswer(reachable=False)
        (source_component, source_rank), (target_component, target_rank) = source_at, target_at
        if source_component == target_component:
            return ReachabilityAnswer(reachable=True, visited=1)

        if source_rank <= target_rank:
            return ReachabilityAnswer(reachable=False, visited=1)

        limit = self.visit_limit
        forward_active = self._seed(source_component, forward=True)
        backward_active = self._seed(target_component, forward=False)
        visited = len(forward_active) + len(backward_active) + 1
        if visited > limit:
            return ReachabilityAnswer(reachable=False, visited=limit, exhausted=True)

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

        if visited >= limit:
            return ReachabilityAnswer(reachable=False, visited=visited, exhausted=True)
        return self._dag_search(source_component, target_component, source_rank, target_rank, visited, limit)

    def _dag_search(
        self,
        source: NodeId,
        target: NodeId,
        source_rank: int,
        target_rank: int,
        visited: int,
        limit: int,
    ) -> ReachabilityAnswer:
        dag = self._compressed.dag_csr
        ranks = self._compressed.ranks
        forward_seen, backward_seen = {source}, {target}
        forward_queue, backward_queue = deque([source]), deque([target])
        while forward_queue and backward_queue and visited < limit:
            forward = len(forward_queue) <= len(backward_queue)
            if forward:
                queue, seen, other_seen = forward_queue, forward_seen, backward_seen
            else:
                queue, seen, other_seen = backward_queue, backward_seen, forward_seen
            node = queue.popleft()
            visited += 1
            for neighbor in dag.successors(node) if forward else dag.predecessors(node):
                if visited >= limit:
                    break
                visited += 1
                if neighbor in other_seen:
                    return ReachabilityAnswer(reachable=True, visited=visited, met_at=neighbor)
                if neighbor in seen:
                    continue
                if target_rank < ranks.rank(neighbor) < source_rank:
                    seen.add(neighbor)
                    queue.append(neighbor)
        return ReachabilityAnswer(reachable=False, visited=visited, exhausted=visited >= limit)

    def query_batch(self, pairs: List[Tuple[NodeId, NodeId]]) -> List[ReachabilityAnswer]:
        return [self.query(source, target) for source, target in pairs]

    def _seed(self, component: NodeId, forward: bool) -> Set[NodeId]:
        seeds = self._index.labels_of(component, forward=forward)
        if self._index.is_landmark(component):
            seeds.add(component)
        return seeds

    @staticmethod
    def _meeting_point(forward_active: Set[NodeId], backward_active: Set[NodeId]) -> Optional[NodeId]:
        common = forward_active & backward_active
        return min(common, key=repr) if common else None

    def _guard(self, landmark: NodeId, source_rank: int, target_rank: int) -> bool:
        return range_may_cover(self._ranges[landmark], source_rank, target_rank)

    def _weight(self, landmark: NodeId, active: Set[NodeId]) -> float:
        info = self._index.landmarks[landmark]
        visited_neighbors = sum(
            1
            for neighbor in (
                self._index.forward_edges.get(landmark, set())
                | self._index.backward_edges.get(landmark, set())
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
        if forward:
            neighbors = self._index.forward_edges.get(landmark, set())
        else:
            neighbors = self._index.backward_edges.get(landmark, set())
        results: List[Tuple[NodeId, float]] = []
        for neighbor in neighbors:
            if neighbor in active:
                continue
            rank = self._index.landmarks[neighbor].rank
            if rank > source_rank or rank < target_rank:
                continue
            if not self._guard(neighbor, source_rank, target_rank):
                continue
            results.append((neighbor, self._weight(neighbor, active)))
        return results


def fingerprint(answer: ReachabilityAnswer) -> Tuple[bool, int, Optional[NodeId], bool]:
    """Every field of one answer, in a comparable tuple."""
    return (answer.reachable, answer.visited, answer.met_at, answer.exhausted)


def digest(answers: List[ReachabilityAnswer]) -> str:
    """A short hash of a batch's fingerprints, in order."""
    return hashlib.sha256(repr([fingerprint(answer) for answer in answers]).encode()).hexdigest()[:16]
