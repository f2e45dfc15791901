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
* the traversal stops when ``|G_Q|`` reaches ``alpha * |G|``, when a pass
  adds nothing, or after ``max_passes`` passes (``ReductionResult.stop``
  says which).

The procedure is shared by ``RBSim`` and ``RBSub``; they differ only in the
guarded condition (and therefore in the weights derived from it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import filterfalse
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
    ``(up, vp)`` with an enlarged bound; ``stop`` says why it stopped:
    ``storage`` (``|G_Q|`` reached ``alpha * |G|``), ``fixpoint`` (a pass
    added nothing) or ``passes`` (``max_passes`` ran out while passes still
    added nodes).
    """

    subgraph: DiGraph
    budget: BudgetReport
    final_bound: int = 2
    passes: int = 1
    candidate_counts: Dict[QueryNodeId, int] = field(default_factory=dict)
    stop: str = "fixpoint"

    def spend(self) -> Dict[str, object]:
        """Budget spent versus budget allowed, as the ``reduction.search`` span carries it."""
        budget = self.budget
        return {
            "passes": self.passes,
            "stop": self.stop,
            "stored": budget.stored,
            "size_limit": budget.size_limit,
            "visited": budget.visited,
            "visit_limit": budget.visit_limit,
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
        # Query neighbours of each query node, each with the bit of the query
        # edge between them (one bit per edge, whichever end it is seen from).
        edge_bits = {
            (node, child): 1 << position
            for position, (node, child) in enumerate(
                (node, child) for node in pattern.nodes() for child in pattern.children(node)
            )
        }
        self._incident = {
            node: [(child, edge_bits[node, child]) for child in pattern.children(node)]
            + [(parent, edge_bits[parent, node]) for parent in pattern.parents(node)]
            for node in pattern.nodes()
        }

    # ------------------------------------------------------------------ #
    # Procedures Search and Pick
    # ------------------------------------------------------------------ #
    def search(self) -> ReductionResult:
        """Extract ``G_Q`` (procedure ``Search`` of Fig. 3, ``Pick`` inline).

        A pop admits a new node into ``G_Q`` (its edges to members read from
        its own row), then expands each query edge at that node once per pass:
        ``Pick`` charges ``|N(v)|`` visits and pushes the top-``b`` eligible
        neighbours not yet queued for that query node, best on top.  Charges
        accumulate in locals and reach the budget when the search ends.
        """
        builder = SubgraphBuilder(self._graph)
        bound, budget, vp = self._initial_bound, self._budget, self._vp
        if vp not in self._graph:
            return ReductionResult(
                subgraph=builder.build(), budget=snapshot(budget), final_bound=bound, passes=0
            )

        state, pattern = self._estimator, self._pattern
        in_gq, bits, incident, max_depth = state.in_gq, state.bits, self._incident, self._max_depth
        use_guard, use_weights, personalized = self._use_guard, self._use_weights, pattern.personalized
        candidate_counts: Dict[QueryNodeId, int] = {node: 0 for node in pattern.nodes()}
        room = budget.size_limit - budget.stored  # storage left; G_Q is full at 0
        stored = visited = passes = 0
        stop = "passes"
        while passes < self._max_passes:
            passes += 1
            changed = False
            # Per data node, the query edges expanded there this pass (as
            # bits); per query node, the data nodes queued for it.
            expanded: Dict[NodeId, int] = {}
            queued: Dict[QueryNodeId, Set[NodeId]] = {u: set() for u in bits}
            queued[personalized].add(vp)
            stack: List[Tuple[QueryNodeId, NodeId, int]] = [(personalized, vp, 0)]
            while stack:
                query_node, node, depth = stack.pop()
                queued[query_node].discard(node)
                if node not in in_gq:
                    if stored < room:
                        label, children, parents = state.admit(node)
                        builder.add_node(node, label)
                        edges = builder.add_row_edges(node, children, parents, room - stored - 1)
                        stored += 1 + edges
                        visited += 1 + edges
                        candidate_counts[query_node] += 1
                        changed = True
                    if stored >= room:
                        stop = "storage"
                        break
                if depth >= max_depth:
                    continue
                done = expanded.get(node, 0)
                for neighbor_query, edge_bit in incident[query_node]:
                    if done & edge_bit:
                        continue
                    done |= edge_bit
                    # Pick: every distinct neighbour of ``node`` is charged.
                    visited += state.width(node)
                    if use_guard:
                        eligible = state.eligible(node, neighbor_query)
                    elif neighbor_query == personalized:
                        # Ablation mode: only the label must match (up is matched by identity).
                        eligible = [vp] if vp in state.distinct(node) else []
                    else:
                        eligible = state.labelled(node, neighbor_query)
                    waiting = queued[neighbor_query]
                    candidates = list(filterfalse(waiting.__contains__, eligible))
                    if use_weights and len(candidates) > 1:
                        candidates = state.rank(candidates, neighbor_query, bound)
                    # Without weights (FIFO ablation) discovery order is the ranking.
                    for candidate in reversed(candidates[:bound]):
                        stack.append((neighbor_query, candidate, depth + 1))
                        waiting.add(candidate)
                expanded[node] = done
            if stop == "storage":
                break
            if not changed:
                stop = "fixpoint"
                break
            bound += 1

        budget.charge_storage(stored)
        budget.charge_visit(visited)
        return ReductionResult(
            subgraph=builder.build(),
            budget=snapshot(budget),
            final_bound=bound,
            passes=passes,
            candidate_counts=candidate_counts,
            stop=stop,
        )
