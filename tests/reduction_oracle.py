"""The per-neighbour ``Search``/``Pick``/``weight`` of PR 16, frozen as an oracle.

``OracleReducer`` and ``OracleWeightEstimator`` are ``DynamicReducer`` and
``WeightEstimator`` exactly as they stood before the candidate table
(commit c271cfb): every ``Pick`` re-scans the adjacency of its node, every
``weight`` re-scans the adjacency of its candidate.  They exist only so
``tests/test_reduction_differential.py`` can demand bit-identical results
from the table-backed implementation; nothing in ``src/`` imports them.
The one addition is the ``max_scan`` constructor argument, passed through
to the estimator so the sweep can make the scan cap bite.

Below the oracle sit the two helpers every comparison with it shares (the
differential test and ``benchmarks/bench_search.py``): :func:`build_reducer`
makes either reducer with the same scan cap, and :func:`fingerprint` is what
"identical to the oracle" compares.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.budget import ResourceBudget, snapshot
from repro.core.reduction import ReductionResult
from repro.core.weights import GuardedCondition, WeightEstimator
from repro.graph.digraph import NodeId
from repro.graph.neighborhood import NeighborhoodIndex
from repro.graph.protocol import GraphLike
from repro.graph.subgraph import SubgraphBuilder
from repro.patterns.pattern import GraphPattern, QueryNodeId


class OracleWeightEstimator:
    """Dynamic cost / potential / weight bookkeeping for candidate selection.

    The estimator is deliberately stateless with respect to ``G_Q``: it takes
    the *current* set of nodes already added to ``G_Q`` at every call, so costs
    shrink as the reduction makes progress (the paper updates ``c(v, u)`` and
    ``p(v, u)`` dynamically for the same reason).
    """

    def __init__(
        self,
        pattern: GraphPattern,
        graph: GraphLike,
        guard: GuardedCondition,
        max_scan: int = 64,
    ) -> None:
        self._pattern = pattern
        self._graph = graph
        self._guard = guard
        # Cap on how many neighbours are inspected per estimate.  The paper
        # notes the potential "can be extended by making use of sampling";
        # bounding the scan keeps the per-candidate work O(max_scan) even at
        # hub nodes with thousands of neighbours, without changing which
        # nodes are eligible (the guarded condition is still exact).
        self._max_scan = max(1, max_scan)

    def _iter_neighbors(self, node: NodeId):
        """Children then parents of ``node`` without materialising the union set."""
        yield from self._graph.successors(node)
        yield from self._graph.predecessors(node)

    def cost(self, node: NodeId, query_node: QueryNodeId, in_gq: Set[NodeId]) -> int:
        """``c(v, u)``: query neighbours of ``u`` with no candidate of ``v`` in ``G_Q``."""
        missing = 0
        # Only neighbours already inside G_Q can lower the cost, and G_Q is
        # small by construction, so restrict the scan to those.
        inside = [n for n in self._iter_neighbors(node) if n in in_gq][: self._max_scan]
        for neighbor_query in self._pattern.neighbors(query_node):
            found = False
            for neighbor in inside:
                if self._guard.check(neighbor, neighbor_query):
                    found = True
                    break
            if not found:
                missing += 1
        return missing

    def potential(self, node: NodeId, query_node: QueryNodeId, in_gq: Set[NodeId]) -> int:
        """``p(v, u)``: neighbours of ``v`` outside ``G_Q`` usable for some query neighbour."""
        count = 0
        scanned = 0
        query_neighbors = self._pattern.neighbors(query_node)
        for neighbor in self._iter_neighbors(node):
            if scanned >= self._max_scan:
                break
            scanned += 1
            if neighbor in in_gq:
                continue
            if any(self._guard.check(neighbor, nq) for nq in query_neighbors):
                count += 1
        return count

    def weight(self, node: NodeId, query_node: QueryNodeId, in_gq: Set[NodeId]) -> float:
        """The selection weight ``p / (c + 1)``."""
        return self.potential(node, query_node, in_gq) / (self.cost(node, query_node, in_gq) + 1)


class OracleReducer:
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
        max_scan: int = 64,
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
        self._estimator = OracleWeightEstimator(pattern, graph, guard, max_scan)

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


# --------------------------------------------------------------------------- #
# Shared by every comparison with the oracle
# --------------------------------------------------------------------------- #
def build_reducer(reducer_class, max_scan: int = 64, **arguments):
    """``reducer_class`` (``DynamicReducer`` or ``OracleReducer``) over the
    constructor ``arguments``, its estimates reading at most ``max_scan``
    entries of a row."""
    if reducer_class is OracleReducer:
        return OracleReducer(max_scan=max_scan, **arguments)
    reducer = reducer_class(**arguments)
    if reducer._estimator.max_scan != max_scan:
        reducer._estimator = WeightEstimator(
            arguments["pattern"], arguments["graph"], arguments["personalized_match"], arguments["guard"],
            max_scan=max_scan,
        )
    return reducer


def fingerprint(result: ReductionResult):
    """Everything a ``ReductionResult`` says, order included."""
    subgraph = result.subgraph
    return (
        [(node, subgraph.label(node)) for node in subgraph.nodes()],
        list(subgraph.edges()),
        result.budget,
        result.final_bound,
        result.passes,
        result.candidate_counts,
    )
