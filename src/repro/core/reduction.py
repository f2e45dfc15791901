"""Dynamic reduction: the ``Search`` / ``Pick`` procedures of Figure 3 of
Fan, Wang & Wu, *"Querying Big Graphs within Bounded Resources"* (SIGMOD 2014).

Given a pattern ``Q``, a graph ``G``, the personalized match ``vp`` and a
resource budget, ``Search`` performs a controlled traversal of ``G`` starting
from ``vp`` and populates a subgraph ``G_Q`` with candidate matches:

* only nodes satisfying the guarded condition ``C(v, u)`` are considered;
* among eligible neighbours the top-``b`` by weight ``p/(c+1)`` are pushed
  (procedure ``Pick``), with the best candidate on top of the stack;
* when the stack drains but new nodes were added in the current pass
  (``changed``), the per-query-node bound ``b`` is increased and the search
  restarts from ``(up, vp)`` so that every query node keeps a fair chance of
  acquiring candidates;
* the traversal stops when ``|G_Q|`` reaches ``alpha * |G|`` or no further
  candidate exists.

The procedure is shared by ``RBSim`` and ``RBSub``; they differ only in the
guarded condition (and therefore in the weights derived from it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.budget import BudgetReport, ResourceBudget, snapshot
from repro.core.weights import GuardedCondition, WeightEstimator
from repro.graph.digraph import DiGraph, NodeId
from repro.graph.protocol import GraphLike
from repro.graph.neighborhood import NeighborhoodIndex
from repro.graph.subgraph import SubgraphBuilder
from repro.patterns.pattern import GraphPattern, QueryNodeId


@dataclass
class ReductionResult:
    """Outcome of the dynamic reduction step.

    ``subgraph`` is the extracted ``G_Q``; ``budget`` records how much of the
    allowance was used; ``final_bound`` is the last value of the selection
    bound ``b``; ``passes`` counts how many times the search restarted from
    ``(up, vp)`` with an enlarged bound.
    """

    subgraph: DiGraph
    budget: BudgetReport
    final_bound: int = 2
    passes: int = 1
    candidate_counts: Dict[QueryNodeId, int] = field(default_factory=dict)


class DynamicReducer:
    """Implements procedures ``Search`` and ``Pick`` of the paper (Fig. 3)."""

    def __init__(
        self,
        pattern: GraphPattern,
        graph: GraphLike,
        personalized_match: NodeId,
        guard: GuardedCondition,
        budget: ResourceBudget,
        neighborhood_index: Optional[NeighborhoodIndex] = None,
        initial_bound: int = 2,
        max_passes: int = 6,
        use_weights: bool = True,
        use_guard: bool = True,
        max_depth: Optional[int] = None,
    ) -> None:
        self._pattern = pattern
        self._graph = graph
        self._vp = personalized_match
        self._guard = guard
        self._budget = budget
        self._index = neighborhood_index or NeighborhoodIndex(graph)
        self._initial_bound = max(1, initial_bound)
        self._max_passes = max(1, max_passes)
        self._use_weights = use_weights
        self._use_guard = use_guard
        # Restrict the traversal to the d_Q-ball of vp: the paper's G_Q is a
        # subgraph of G_dQ(vp), so candidates farther than max_depth hops
        # (measured along the traversal) are never added.
        self._max_depth = max_depth if max_depth is not None else pattern.diameter()
        self._estimator = WeightEstimator(pattern, graph, guard)

    # ------------------------------------------------------------------ #
    # Procedure Search
    # ------------------------------------------------------------------ #
    def search(self) -> ReductionResult:
        """Extract ``G_Q`` (procedure ``Search`` of Fig. 3)."""
        builder = SubgraphBuilder(self._graph)
        bound = self._initial_bound
        passes = 0
        candidate_counts: Dict[QueryNodeId, int] = {node: 0 for node in self._pattern.nodes()}

        if self._vp not in self._graph:
            return ReductionResult(
                subgraph=builder.build(), budget=snapshot(self._budget), final_bound=bound, passes=0
            )

        terminate = False
        while not terminate and passes < self._max_passes:
            passes += 1
            changed = False
            # (query edge endpoints, data node) pairs already expanded this pass.
            expanded: Set[Tuple[QueryNodeId, QueryNodeId, NodeId]] = set()
            stack: List[Tuple[QueryNodeId, NodeId, int]] = [(self._pattern.personalized, self._vp, 0)]
            queued: Set[Tuple[QueryNodeId, NodeId]] = {(self._pattern.personalized, self._vp)}

            while stack:
                query_node, node, depth = stack.pop()
                queued.discard((query_node, node))
                added = self._add_to_subgraph(builder, node, query_node, candidate_counts)
                if added:
                    changed = True
                if self._budget.storage_exhausted():
                    terminate = True
                    break
                if depth >= self._max_depth:
                    continue
                for neighbor_query, forward in self._incident_query_edges(query_node):
                    edge_key = (query_node, neighbor_query, node) if forward else (
                        neighbor_query,
                        query_node,
                        node,
                    )
                    if edge_key in expanded:
                        continue
                    expanded.add(edge_key)
                    picked = self._pick(neighbor_query, node, builder, bound, queued)
                    # Best candidate goes on top of the stack (pushed last).
                    for candidate in reversed(picked):
                        pair = (neighbor_query, candidate)
                        if pair not in queued:
                            stack.append((neighbor_query, candidate, depth + 1))
                            queued.add(pair)

            if terminate:
                break
            if changed:
                bound += 1
            else:
                terminate = True

        return ReductionResult(
            subgraph=builder.build(),
            budget=snapshot(self._budget),
            final_bound=bound,
            passes=passes,
            candidate_counts=candidate_counts,
        )

    # ------------------------------------------------------------------ #
    # Procedure Pick
    # ------------------------------------------------------------------ #
    def _pick(
        self,
        query_node: QueryNodeId,
        node: NodeId,
        builder: SubgraphBuilder,
        bound: int,
        queued: Set[Tuple[QueryNodeId, NodeId]],
    ) -> List[NodeId]:
        """Top-``bound`` new candidates for ``query_node`` among ``N(node)``.

        Candidates must pass the guarded condition and not already be queued
        for the same query node; they are ranked by ``p/(c+1)``.
        """
        in_gq = builder.nodes()
        scored: List[Tuple[float, int, NodeId]] = []
        order = 0
        seen_neighbors: Set[NodeId] = set()
        for neighbor in list(self._graph.successors(node)) + list(self._graph.predecessors(node)):
            if neighbor in seen_neighbors:
                continue
            seen_neighbors.add(neighbor)
            self._budget.charge_visit()
            if (query_node, neighbor) in queued:
                continue
            if self._use_guard and not self._guard.check(neighbor, query_node):
                continue
            if not self._use_guard:
                # Ablation mode: only the label must match.
                if query_node != self._pattern.personalized and self._graph.label(
                    neighbor
                ) != self._pattern.label_of(query_node):
                    continue
                if query_node == self._pattern.personalized and neighbor != self._vp:
                    continue
            if self._use_weights:
                weight = self._estimator.weight(neighbor, query_node, in_gq)
            else:
                weight = 0.0  # FIFO ablation: keep discovery order.
            scored.append((weight, -order, neighbor))
            order += 1
        scored.sort(reverse=True)
        limit = max(1, bound)
        return [entry[2] for entry in scored[:limit]]

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _incident_query_edges(self, query_node: QueryNodeId) -> List[Tuple[QueryNodeId, bool]]:
        """Query neighbours of ``query_node`` tagged with the edge direction."""
        incident: List[Tuple[QueryNodeId, bool]] = []
        for child in self._pattern.children(query_node):
            incident.append((child, True))
        for parent in self._pattern.parents(query_node):
            incident.append((parent, False))
        return incident

    def _add_to_subgraph(
        self,
        builder: SubgraphBuilder,
        node: NodeId,
        query_node: QueryNodeId,
        candidate_counts: Dict[QueryNodeId, int],
    ) -> bool:
        """Add ``node`` (and its edges to existing ``G_Q`` nodes) within budget."""
        is_new = node not in builder
        if is_new:
            if not self._budget.can_store(1):
                return False
            builder.add_node(node)
            self._budget.charge_storage(1)
            self._budget.charge_visit()
            candidate_counts[query_node] = candidate_counts.get(query_node, 0) + 1
            added_edges = 0
            # Connect the new node to G_Q.  Iterate over whichever side is
            # smaller (the node's adjacency or the current G_Q) so hub nodes
            # with thousands of neighbours do not dominate the cost.
            successors = self._graph.successors(node)
            predecessors = self._graph.predecessors(node)
            gq_nodes = builder.nodes()
            if len(successors) + len(predecessors) > 2 * len(gq_nodes):
                out_targets = [n for n in gq_nodes if n in successors]
                in_sources = [n for n in gq_nodes if n in predecessors]
            else:
                out_targets = [n for n in successors if n in builder]
                in_sources = [n for n in predecessors if n in builder]
            for target in out_targets:
                if not builder.has_edge(node, target):
                    if not self._budget.can_store(1):
                        break
                    builder.add_edge(node, target)
                    self._budget.charge_storage(1)
                    added_edges += 1
            for source in in_sources:
                if not builder.has_edge(source, node):
                    if not self._budget.can_store(1):
                        break
                    builder.add_edge(source, node)
                    self._budget.charge_storage(1)
                    added_edges += 1
            self._budget.charge_visit(added_edges)
        return is_new
