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

    def spend(self) -> Dict[str, int]:
        """Budget spent versus budget allowed, as the ``reduction.search`` span carries it."""
        budget = self.budget
        return {
            "passes": self.passes,
            "stored": budget.stored,
            "visited": budget.visited,
            "size_limit": budget.size_limit,
        }


class DynamicReducer:
    """Implements procedures ``Search`` and ``Pick`` of the paper (Fig. 3)."""

    def __init__(
        self,
        pattern: GraphPattern,
        graph: GraphLike,
        personalized_match: NodeId,
        guard: GuardedCondition,
        budget: ResourceBudget,
        initial_bound: int = 2,
        max_passes: int = 6,
        use_weights: bool = True,
        use_guard: bool = True,
        max_depth: Optional[int] = None,
    ) -> None:
        self._pattern = pattern
        self._graph = graph
        self._vp = personalized_match
        self._budget = budget
        self._initial_bound = max(1, initial_bound)
        self._max_passes = max(1, max_passes)
        self._use_weights = use_weights
        self._use_guard = use_guard
        # Restrict the traversal to the d_Q-ball of vp: the paper's G_Q is a
        # subgraph of G_dQ(vp), so candidates farther than max_depth hops
        # (measured along the traversal) are never added.
        self._max_depth = max_depth if max_depth is not None else pattern.diameter()
        # The flat state of the search (rows, ``in_gq``, costs): a reducer runs
        # one search, so the state lives exactly as long as its rows hold.
        self._estimator = WeightEstimator(pattern, graph, personalized_match, guard)
        # Query neighbours of each query node, tagged with the edge direction.
        self._incident = {
            node: [(child, True) for child in pattern.children(node)]
            + [(parent, False) for parent in pattern.parents(node)]
            for node in pattern.nodes()
        }

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

        in_gq, budget, max_depth = self._estimator.in_gq, self._budget, self._max_depth
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
                if node not in in_gq and self._add_to_subgraph(
                    builder, node, query_node, candidate_counts
                ):
                    changed = True
                if budget.storage_exhausted():
                    terminate = True
                    break
                if depth >= max_depth:
                    continue
                for neighbor_query, forward in self._incident[query_node]:
                    edge_key = (query_node, neighbor_query, node) if forward else (
                        neighbor_query,
                        query_node,
                        node,
                    )
                    if edge_key in expanded:
                        continue
                    expanded.add(edge_key)
                    # Best candidate goes on top of the stack (pushed last);
                    # none of the picked is queued for this query node yet.
                    for candidate in reversed(self._pick(neighbor_query, node, bound, queued)):
                        stack.append((neighbor_query, candidate, depth + 1))
                        queued.add((neighbor_query, candidate))

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
        bound: int,
        queued: Set[Tuple[QueryNodeId, NodeId]],
    ) -> List[NodeId]:
        """Top-``bound`` new candidates for ``query_node`` among ``N(node)``.

        Candidates must pass the guarded condition and not already be queued
        for the same query node; they are ranked by ``p/(c+1)``.  Every
        neighbour of ``node`` is charged as visited on every call; which of
        them pass is read from the search's state, so only the ``queued``
        filter and the weights (which move with ``G_Q``) are recomputed when
        a later pass picks here again.
        """
        state = self._estimator
        neighbors = state.distinct(node)
        self._budget.charge_visit(len(neighbors))
        if self._use_guard:
            eligible = state.eligible(node, query_node)
        elif query_node == self._pattern.personalized:
            # Ablation mode: only the label must match (up is matched by identity).
            eligible = [n for n in neighbors if n == self._vp]
        else:
            label = self._pattern.label_of(query_node)
            eligible = [n for n in neighbors if self._graph.label(n) == label]
        candidates = [n for n in eligible if (query_node, n) not in queued]
        if self._use_weights and len(candidates) > 1:
            # Best weight first; the sort is stable, so ties keep discovery order.
            weights = [state.weight(candidate, query_node) for candidate in candidates]
            ranked = sorted(range(len(candidates)), key=weights.__getitem__, reverse=True)
            candidates = [candidates[position] for position in ranked]
        # Without weights (FIFO ablation) discovery order is the ranking.
        return candidates[: max(1, bound)]

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _add_to_subgraph(
        self,
        builder: SubgraphBuilder,
        node: NodeId,
        query_node: QueryNodeId,
        candidate_counts: Dict[QueryNodeId, int],
    ) -> bool:
        """Add a new ``node`` (and its edges to existing ``G_Q`` nodes) within budget."""
        in_gq, budget = self._estimator.in_gq, self._budget
        if not budget.can_store(1):
            return False
        builder.add_node(node)
        budget.charge_storage(1)
        budget.charge_visit()
        candidate_counts[query_node] = candidate_counts.get(query_node, 0) + 1
        scan = self._estimator.admit(node)
        split = self._graph.out_degree(node)
        children, parents = scan[:split], scan[split:]
        # Connect the new node to G_Q.  Iterate over whichever side is
        # smaller (the node's adjacency or the current G_Q) so hub nodes
        # with thousands of neighbours do not dominate the cost.
        if len(scan) > 2 * len(in_gq):
            # The edges go in in the iteration order of this set, built the
            # way the frozen oracle builds it.
            gq_nodes = builder.nodes()
            children, parents = set(children), set(parents)
            out_targets = [n for n in gq_nodes if n in children]
            in_sources = [n for n in gq_nodes if n in parents]
        else:
            out_targets = [n for n in children if n in in_gq]
            in_sources = [n for n in parents if n in in_gq]
        added_edges = 0
        for target in out_targets:
            if not builder.has_edge(node, target):
                if not budget.can_store(1):
                    break
                builder.add_edge(node, target)
                budget.charge_storage(1)
                added_edges += 1
        for source in in_sources:
            if not builder.has_edge(source, node):
                if not budget.can_store(1):
                    break
                builder.add_edge(source, node)
                budget.charge_storage(1)
                added_edges += 1
        budget.charge_visit(added_edges)
        return True
