"""The per-neighbour ``Search``/``Pick``/``weight``, kept as an oracle.

``OracleWeightEstimator`` is ``WeightEstimator`` as it stood before the
candidate table (commit c271cfb): every ``weight`` re-scans the adjacency of
its candidate.  ``OracleReducer`` is ``DynamicReducer`` in the same simple
style, with the resume rule written out and no caches: every ``Pick`` (first
or repeated) re-scans the adjacency of its node and re-weighs every
candidate from scratch.  They exist only so
``tests/test_reduction_differential.py`` can demand bit-identical results
from the table-backed implementation; nothing in ``src/`` imports them.
The ``max_scan`` constructor argument is passed through to the estimator so
the sweep can make the scan cap bite.

The pass-then-restart rule: ``search`` first walks from ``(up, vp)`` with
no bound and no weights, every ``Pick`` (charged ``|N(v)|``) pushing all its
eligible neighbours not queued, first in scan order on top.  It stops as
the weighted search does (a charge that would pass the visit cap, or a
budget full before the walk), or reaches its fixpoint when the stack
drains, and that is the result; but where an admission leaves ``G_Q`` full
and the ``|G_Q|`` visits of a read still fit, the walk is abandoned: its
storage is released, its visits stay charged, and
:meth:`OracleReducer.weighted_search` (the rest of this docstring, callable
on its own) runs from ``(up, vp)`` on the same budget.  A first ``Pick`` the
walk made is charged nothing when the weighted search makes it again: the
walk paid for that read.

The resume rule: a ``Pick`` with more eligible neighbours than its bound is
*cut* and remembered as ``(node, neighbour query node, depth, candidates
given, eligible count)``.  When a pass drains and a ``Pick`` is still cut,
the bound grows by one and the next pass makes the cut Picks again, in the
order they were made, each giving its best candidates not given before (up
to its bound over its life) at ``depth + 1``; the traversal from each runs
before the next one is made, and a query edge is expanded at a data node
once from each of its ends per search.  A first ``Pick`` is charged
``|N(v)|``; a repeated one re-scans ``N(v)`` all the same, but is charged
only ``len(picked)``, the candidates it gives (its row was read when it was
first made).  A ``Pick`` whose eligible candidates have all been given is
dropped, and the search reaches its fixpoint once none is left.  A charge
that would pass either limit is not made.

The edge rule: a node joining ``G_Q`` brings its edges to the nodes already
there, but only those a match can read, an edge ``v -> w`` for which some
query edge ``(u, u')`` has ``C(v, u)`` and ``C(w, u')``; each is decided by
its own ``guard.check`` calls.

The reclamation rule: when an admission fills ``G_Q``, the oracle reads it
(``|G_Q|`` visits, if they fit) and keeps, for the simulation guard, one
witness per pair ``(u, v)`` of the maximum dual-simulation relation on
``G_Q`` and query edge at ``u`` (the first in ``v``'s adjacency), for the
isomorphism guard the query-edge images of the first embedding it meets of
each output match, enumerating every embedding with no cap, in the query
node order of ``matching/vf2.py`` and sorted-id order
(:func:`embeddings`); every other edge goes.  Nothing to keep, or nothing to
drop, is the ``storage`` stop.  Otherwise the node just admitted gets the
readable edges the room had cut off it (none it had before the read), and
the search goes on, or reclaims again while ``G_Q`` is still full.

Below the oracle sit the two helpers every comparison with it shares (the
differential test and ``benchmarks/bench_search.py``): :func:`build_reducer`
makes either reducer with the same scan cap, and :func:`fingerprint` is what
"identical to the oracle" compares.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.budget import ResourceBudget, snapshot
from repro.core.reduction import ReductionResult
from repro.core.weights import GuardedCondition, IsomorphismGuard, WeightEstimator
from repro.graph.digraph import DiGraph, Edge, NodeId
from repro.graph.neighborhood import NeighborhoodIndex
from repro.graph.protocol import GraphLike
from repro.graph.subgraph import SubgraphBuilder
from repro.matching.filters import degree_filtered_candidates, structural_prune
from repro.matching.simulation import dual_simulation
from repro.matching.strong_simulation import simulation_witnesses
from repro.matching.vf2 import _matching_order, embedding_witnesses, node_order
from repro.patterns.pattern import GraphPattern, QueryNodeId


def embeddings(pattern: GraphPattern, graph: DiGraph, vp: NodeId) -> Iterator[Dict[QueryNodeId, NodeId]]:
    """Every subgraph-isomorphism embedding of ``pattern`` in ``graph`` with
    ``up -> vp``, no cap, in lexicographic order: query nodes in
    ``_matching_order``, each over its candidates in sorted-id order, and
    every query edge between two assigned nodes checked by its own
    ``has_edge``.  ``subgraph_isomorphism`` pins ``uo`` right after ``up``
    instead; within one match ``uo`` is fixed, so the first embedding met
    per match is the same."""
    if vp not in graph:
        return
    candidates = structural_prune(pattern, graph, degree_filtered_candidates(pattern, graph, vp))
    order = _matching_order(pattern, candidates)
    pools = [sorted(candidates[query_node], key=node_order) for query_node in order]
    assignment: Dict[QueryNodeId, NodeId] = {}

    def extend(depth: int) -> Iterator[Dict[QueryNodeId, NodeId]]:
        if depth == len(order):
            yield dict(assignment)
            return
        query_node = order[depth]
        for node in pools[depth]:
            if node in assignment.values():
                continue
            assignment[query_node] = node
            if all(
                graph.has_edge(assignment[source], assignment[target])
                for source, target in pattern.edges
                if source in assignment and target in assignment
            ):
                yield from extend(depth + 1)
            del assignment[query_node]

    yield from extend(0)


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
        self._use_weights = use_weights
        self._use_guard = use_guard
        # Restrict the traversal to the d_Q-ball of vp: the paper's G_Q is a
        # subgraph of G_dQ(vp), so candidates farther than max_depth hops
        # (measured along the traversal) are never added.
        self._max_depth = max_depth if max_depth is not None else pattern.diameter()
        self._estimator = OracleWeightEstimator(pattern, graph, guard, max_scan)
        # (query node, neighbour query node, direction, data node) expanded so
        # far: a query edge is expanded once from each end it is seen from.
        self._expanded: Set[Tuple[QueryNodeId, QueryNodeId, bool, NodeId]] = set()
        self._reclaimed = 0
        # The Picks the abandoned unweighted pass made and paid for.
        self._paid: Set[Tuple[QueryNodeId, QueryNodeId, bool, NodeId]] = set()

    # ------------------------------------------------------------------ #
    # Procedure Search
    # ------------------------------------------------------------------ #
    def search(self) -> ReductionResult:
        """Extract ``G_Q``: the unweighted pass, and the weighted search from
        ``(up, vp)`` when the pass fills ``G_Q`` and could reclaim it."""
        if self._vp not in self._graph:
            return self.weighted_search()
        visited = self._budget.visited
        result = self._unweighted_pass()
        if result is not None:
            return result
        spent = self._budget.visited - visited
        return replace(self.weighted_search(), restarted=True, abandoned_visits=spent)

    def _unweighted_pass(self) -> Optional[ReductionResult]:
        """The traversal from ``(up, vp)`` with no bound and no ranking: every
        ``Pick`` pushes all its eligible candidates not queued, first in scan
        order on top.  Its result when it stops; ``None``, its storage
        released and its visits kept charged, where it fills ``G_Q`` and
        could pay to read it."""
        budget, pattern = self._budget, self._pattern
        builder = SubgraphBuilder(self._graph)
        candidate_counts: Dict[QueryNodeId, int] = {node: 0 for node in pattern.nodes()}
        expanded: Set[Tuple[QueryNodeId, QueryNodeId, bool, NodeId]] = set()
        stack = [(pattern.personalized, self._vp, 0)]
        queued = {(pattern.personalized, self._vp)}
        stop = None
        while stop is None and stack:
            query_node, node, depth = stack.pop()
            queued.discard((query_node, node))
            added = self._add_to_subgraph(builder, node, query_node, candidate_counts)
            if added is None:
                stop = "visits"
                break
            if budget.storage_exhausted():
                if not added:
                    stop = "storage"
                    break
                if budget.visited + builder.size() <= budget.visit_limit:
                    budget.release_storage(builder.size())
                    self._paid = expanded
                    return None  # the weighted search would reclaim here
                stop = "visits"
                break
            if depth >= self._max_depth:
                continue
            for neighbor_query, forward in self._incident_query_edges(query_node):
                edge_key = (query_node, neighbor_query, forward, node)
                if edge_key in expanded:
                    continue
                neighbors = self._neighbors(node)
                if not self._pick_fits(len(neighbors)):
                    stop = "visits"
                    break
                expanded.add(edge_key)
                budget.charge_visit(len(neighbors))
                picked = [
                    neighbor
                    for neighbor in neighbors
                    if self._eligible(neighbor, neighbor_query) and (neighbor_query, neighbor) not in queued
                ]
                for candidate in reversed(picked):
                    stack.append((neighbor_query, candidate, depth + 1))
                    queued.add((neighbor_query, candidate))
        return ReductionResult(
            subgraph=builder.build(),
            budget=snapshot(budget),
            final_bound=self._initial_bound,
            candidate_counts=candidate_counts,
            stop=stop or "fixpoint",
        )

    def weighted_search(self) -> ReductionResult:
        """The weighted search of Fig. 3 from ``(up, vp)``, resuming cut
        Picks, on its own: what ``search`` runs once the pass filled ``G_Q``."""
        builder = SubgraphBuilder(self._graph)
        bound = self._initial_bound
        candidate_counts: Dict[QueryNodeId, int] = {node: 0 for node in self._pattern.nodes()}

        if self._vp not in self._graph:
            return ReductionResult(
                subgraph=builder.build(), budget=snapshot(self._budget), final_bound=bound, passes=0
            )

        passes = 1
        cuts: List[list] = []  # [node, neighbour query node, depth, given, eligible]
        stop = self._drain(builder, [(self._pattern.personalized, self._vp, 0)], bound, cuts, candidate_counts)
        unmade: List[list] = []  # cut Picks of the interrupted pass not made again
        repicks = 0  # cut Picks made again
        while stop is None:
            if not cuts:
                stop = "fixpoint"
                break
            bound += 1
            passes += 1
            pending, cuts = cuts, []
            for index, pick in enumerate(pending):
                node, neighbor_query, depth, given, eligible = pick
                # Charged only the candidates it gives, though it re-scans N(v).
                if not self._pick_fits(min(eligible, bound) - len(given)):
                    stop, unmade = "visits", pending[index:]
                    break
                repicks += 1
                picked, _ = self._pick(neighbor_query, node, builder, bound - len(given), set(), given)
                self._budget.charge_visit(len(picked))
                given.update(picked)
                if len(given) < eligible:
                    cuts.append(pick)
                stop = self._drain(
                    builder,
                    [(neighbor_query, candidate, depth + 1) for candidate in reversed(picked)],
                    bound,
                    cuts,
                    candidate_counts,
                )
                if stop is not None:
                    unmade = pending[index + 1:]
                    break

        return ReductionResult(
            subgraph=builder.build(),
            budget=snapshot(self._budget),
            final_bound=bound,
            passes=passes,
            candidate_counts=candidate_counts,
            stop=stop,
            cut=len(cuts) + len(unmade),
            ungiven=sum(eligible - len(given) for *_, given, eligible in cuts + unmade),
            repicks=repicks,
            reclaimed=self._reclaimed,
        )

    def _drain(
        self,
        builder: SubgraphBuilder,
        stack: List[Tuple[QueryNodeId, NodeId, int]],
        bound: int,
        cuts: List[list],
        candidate_counts: Dict[QueryNodeId, int],
    ) -> Optional[str]:
        """The depth-first traversal from ``stack`` until it drains; returns
        the stop it met (``None`` if none)."""
        queued: Set[Tuple[QueryNodeId, NodeId]] = {(query_node, node) for query_node, node, _ in stack}
        while stack:
            query_node, node, depth = stack.pop()
            queued.discard((query_node, node))
            added = self._add_to_subgraph(builder, node, query_node, candidate_counts)
            if added is None:
                return "visits"
            if self._budget.storage_exhausted():
                stop = self._reclaim(builder, node) if added else "storage"
                if stop is not None:
                    return stop
            if depth >= self._max_depth:
                continue
            for neighbor_query, forward in self._incident_query_edges(query_node):
                edge_key = (query_node, neighbor_query, forward, node)
                if edge_key in self._expanded:
                    continue
                # A Pick the abandoned pass made was paid for there.
                width = 0 if edge_key in self._paid else len(self._neighbors(node))
                if not self._pick_fits(width):
                    return "visits"
                self._expanded.add(edge_key)
                picked, eligible = self._pick(neighbor_query, node, builder, bound, queued, set())
                self._budget.charge_visit(width)
                if eligible > bound:
                    cuts.append([node, neighbor_query, depth, set(picked), eligible])
                # Best candidate goes on top of the stack (pushed last).
                for candidate in reversed(picked):
                    pair = (neighbor_query, candidate)
                    if pair not in queued:
                        stack.append((neighbor_query, candidate, depth + 1))
                        queued.add(pair)
        return None

    # ------------------------------------------------------------------ #
    # Procedure Pick
    # ------------------------------------------------------------------ #
    def _neighbors(self, node: NodeId) -> List[NodeId]:
        """``N(node)``: children then parents, each once."""
        seen: Set[NodeId] = set()
        distinct = []
        for neighbor in list(self._graph.successors(node)) + list(self._graph.predecessors(node)):
            if neighbor not in seen:
                seen.add(neighbor)
                distinct.append(neighbor)
        return distinct

    def _pick_fits(self, charge: int) -> bool:
        """Whether a ``Pick`` charged ``charge`` visits fits the visit cap."""
        return self._budget.visited + charge <= self._budget.visit_limit

    def _pick(
        self,
        query_node: QueryNodeId,
        node: NodeId,
        builder: SubgraphBuilder,
        limit: int,
        queued: Set[Tuple[QueryNodeId, NodeId]],
        given: Set[NodeId],
    ) -> Tuple[List[NodeId], int]:
        """Top-``limit`` new candidates for ``query_node`` among ``N(node)``,
        and how many neighbours are eligible at all.

        Candidates must pass the guarded condition and be neither queued for
        the same query node nor ``given`` by this ``Pick`` before; they are
        ranked by ``p/(c+1)``.
        """
        in_gq = builder.nodes()
        scored: List[Tuple[float, int, NodeId]] = []
        order = eligible = 0
        for neighbor in self._neighbors(node):
            if not self._eligible(neighbor, query_node):
                continue
            eligible += 1
            if (query_node, neighbor) in queued or neighbor in given:
                continue
            if self._use_weights:
                weight = self._estimator.weight(neighbor, query_node, in_gq)
            else:
                weight = 0.0  # FIFO ablation: keep discovery order.
            scored.append((weight, -order, neighbor))
            order += 1
        scored.sort(reverse=True)
        return [entry[2] for entry in scored[:limit]], eligible

    def _eligible(self, neighbor: NodeId, query_node: QueryNodeId) -> bool:
        """Whether a ``Pick`` for ``query_node`` may give ``neighbor``."""
        if self._use_guard:
            return self._guard.check(neighbor, query_node)
        # Ablation mode: only the label must match.
        if query_node == self._pattern.personalized:
            return neighbor == self._vp
        return self._graph.label(neighbor) == self._pattern.label_of(query_node)

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

    def _fits(self) -> bool:
        """Whether one more item fits ``G_Q`` and its visit fits the cap."""
        return self._budget.can_store(1) and not self._budget.visits_exhausted()

    def _readable(self, source: NodeId, target: NodeId) -> bool:
        """Whether some query edge ``(u, u')`` can map to ``source -> target``:
        ``C(source, u)`` and ``C(target, u')``."""
        check = self._guard.check
        return any(check(source, u) and check(target, child) for u, child in self._pattern.edges)

    def _add_to_subgraph(
        self,
        builder: SubgraphBuilder,
        node: NodeId,
        query_node: QueryNodeId,
        candidate_counts: Dict[QueryNodeId, int],
    ) -> Optional[bool]:
        """Add ``node`` (and its readable edges to existing ``G_Q`` nodes) within
        budget; ``None`` when storage is left but the node's visit would pass the cap."""
        is_new = node not in builder
        if is_new:
            if not self._budget.can_store(1):
                return False
            if self._budget.visits_exhausted():
                return None
            builder.add_node(node)
            self._budget.charge_storage(1)
            self._budget.charge_visit()
            candidate_counts[query_node] = candidate_counts.get(query_node, 0) + 1
            self._connect(builder, node, self._graph.successors(node), self._graph.predecessors(node))
        return is_new

    def _connect(self, builder: SubgraphBuilder, node: NodeId, successors, predecessors) -> None:
        """Join ``node`` to the rest of ``G_Q`` by its readable edges to those
        of ``successors`` and ``predecessors`` that are members, within budget."""
        # Iterate over whichever side is smaller (the node's adjacency or the
        # current G_Q) so hub nodes with thousands of neighbours do not
        # dominate the cost.
        gq_nodes = builder.nodes()
        if len(successors) + len(predecessors) > 2 * len(gq_nodes):
            out_targets = [n for n in gq_nodes if n in successors]
            in_sources = [n for n in gq_nodes if n in predecessors]
        else:
            out_targets = [n for n in successors if n in builder]
            in_sources = [n for n in predecessors if n in builder]
        # Only the edges a match can read go in.
        for target in out_targets:
            if self._readable(node, target) and not builder.has_edge(node, target):
                if not self._fits():
                    break
                builder.add_edge(node, target)
                self._budget.charge_storage(1)
                self._budget.charge_visit()
        for source in in_sources:
            if self._readable(source, node) and not builder.has_edge(source, node):
                if not self._fits():
                    break
                builder.add_edge(source, node)
                self._budget.charge_storage(1)
                self._budget.charge_visit()

    # ------------------------------------------------------------------ #
    # Reclamation
    # ------------------------------------------------------------------ #
    def _reclaim(self, builder: SubgraphBuilder, node: NodeId) -> Optional[str]:
        """``G_Q`` is full after admitting ``node``: keep the witnesses of the
        answer on it, drop the other edges, give ``node`` the readable edges
        the room cut off it, and repeat while ``G_Q`` is full; the stop met,
        or ``None`` to go on."""
        successors = list(self._graph.successors(node))
        predecessors = list(self._graph.predecessors(node))
        while self._budget.storage_exhausted():
            size = builder.size()
            if self._budget.visited + size > self._budget.visit_limit:
                return "visits"
            self._budget.charge_visit(size)
            subgraph = builder.build()
            needed = self._needed(subgraph)
            # An edge ``node`` had (kept or about to be dropped) is not given back.
            successors = [n for n in successors if not subgraph.has_edge(node, n)]
            predecessors = [n for n in predecessors if not subgraph.has_edge(n, node)]
            if not needed:
                return "storage"
            freed = builder.retain_edges(needed)
            if not freed:
                return "storage"
            self._budget.release_storage(freed)
            self._reclaimed += freed
            self._connect(builder, node, successors, predecessors)
        return None

    def _needed(self, subgraph: DiGraph) -> Set[Edge]:
        """The edges of ``subgraph`` the answer on it needs."""
        pattern, vp = self._pattern, self._vp
        needed: Set[Edge] = set()
        if isinstance(self._guard, IsomorphismGuard):
            # Per embedding: the first one met of each output match keeps its edge images.
            matched: Set[NodeId] = set()
            for embedding in embeddings(pattern, subgraph, vp):
                if embedding[pattern.output] in matched:
                    continue
                matched.add(embedding[pattern.output])
                for source, target in pattern.edges:
                    needed.add((embedding[source], embedding[target]))
            return needed
        # Per pair: each query edge at u keeps the first edge of v that witnesses it.
        relation = dual_simulation(pattern, subgraph, vp)
        for query_node in pattern.nodes():
            for node in relation[query_node]:
                for neighbor_query, forward in self._incident_query_edges(query_node):
                    if forward:
                        for child in subgraph.successors(node):
                            if child in relation[neighbor_query]:
                                needed.add((node, child))
                                break
                    else:
                        for parent in subgraph.predecessors(node):
                            if parent in relation[neighbor_query]:
                                needed.add((parent, node))
                                break
        return needed


# --------------------------------------------------------------------------- #
# Shared by every comparison with the oracle
# --------------------------------------------------------------------------- #
def witness_rule(guard: GuardedCondition):
    """The witness rule ``RBSim`` or ``RBSub`` (whichever ``guard`` is the
    guarded condition of) hands ``Search``."""
    if isinstance(guard, IsomorphismGuard):
        return embedding_witnesses
    return simulation_witnesses


def build_reducer(reducer_class, max_scan: int = 64, **arguments):
    """``reducer_class`` (``DynamicReducer`` or ``OracleReducer``) over the
    constructor ``arguments``, its estimates reading at most ``max_scan``
    entries of a row; ``DynamicReducer`` gets the matcher's witness rule
    for the guard (:func:`witness_rule`), the oracle derives its own."""
    if reducer_class is OracleReducer:
        return OracleReducer(max_scan=max_scan, **arguments)
    reducer = reducer_class(witnesses=witness_rule(arguments["guard"]), **arguments)
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
        result.stop,
        result.cut,
        result.ungiven,
        result.repicks,
        result.reclaimed,
        result.restarted,
        result.abandoned_visits,
    )
