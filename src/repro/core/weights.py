"""Guarded conditions, costs and potentials for dynamic reduction (Section 4.1).

For a data node ``v`` and a query node ``u`` the reduction maintains:

* a Boolean *guarded condition* ``C(v, u)`` — a cheap necessary condition for
  ``v`` to match ``u``; nodes failing it are never added to ``G_Q``;
* a *cost* ``c(v, u)`` — how many query neighbours of ``u`` still lack a
  candidate neighbour of ``v`` inside the current ``G_Q`` (more missing
  neighbours ⇒ adding ``v`` will drag in more nodes);
* a *potential* ``p(v, u)`` — how many neighbours of ``v`` (not yet in
  ``G_Q``) could serve as candidates for query neighbours of ``u``.

The selection weight is ``p(v, u) / (c(v, u) + 1)``: prefer nodes with high
potential and low estimated cost.

Two guarded conditions are provided: :class:`SimulationGuard` follows the
strong-simulation semantics (label + one labelled parent/child per query
neighbour), and :class:`IsomorphismGuard` is the revised condition of
``RBSub`` (Section 4.2), which additionally requires *distinct* neighbours
with sufficient degree for every query neighbour.
"""

from __future__ import annotations

from typing import Dict, List, Protocol, Set

from repro.graph.digraph import NodeId
from repro.graph.protocol import GraphLike
from repro.graph.neighborhood import NeighborhoodIndex
from repro.patterns.pattern import GraphPattern, QueryNodeId


class GuardedCondition(Protocol):
    """Interface shared by the simulation and isomorphism guards."""

    def check(self, node: NodeId, query_node: QueryNodeId) -> bool:
        """Whether ``node`` may still match ``query_node`` (necessary condition)."""
        ...  # pragma: no cover - protocol definition


class _BaseGuard:
    """Common state for guarded conditions: graph, pattern, summaries, pinning.

    Guarded conditions depend only on the data graph and the pattern (never on
    the evolving ``G_Q``), so results are memoised per ``(node, query_node)``
    pair: the potential/cost estimators re-check the same pairs many times
    during one reduction and the cache turns those repeats into dictionary
    lookups.
    """

    def __init__(
        self,
        pattern: GraphPattern,
        graph: GraphLike,
        personalized_match: NodeId,
        index: NeighborhoodIndex,
    ) -> None:
        self._pattern = pattern
        self._graph = graph
        self._vp = personalized_match
        self._index = index
        self._cache: Dict[tuple, bool] = {}

    def check(self, node: NodeId, query_node: QueryNodeId) -> bool:
        """Memoised evaluation of the guarded condition."""
        key = (node, query_node)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._evaluate(node, query_node)
            self._cache[key] = cached
        return cached

    def _evaluate(self, node: NodeId, query_node: QueryNodeId) -> bool:
        raise NotImplementedError

    def _label_matches(self, node: NodeId, query_node: QueryNodeId) -> bool:
        """Label test; the personalized node is matched by identity, not label."""
        if query_node == self._pattern.personalized:
            return node == self._vp
        return self._graph.label(node) == self._pattern.label_of(query_node)

    def _query_label(self, query_node: QueryNodeId):
        return self._pattern.label_of(query_node)


class SimulationGuard(_BaseGuard):
    """The guarded condition of RBSim (Section 4.1, item (1)).

    ``C(v, u)`` holds iff ``fv(u) = L(v)`` and for each parent (resp. child)
    ``u'`` of ``u`` in ``Q`` there exists a parent (resp. child) of ``v``
    labelled ``fv(u')``.  Neighbour labels come from the offline ``Sl``
    summaries, so the test never re-scans the graph.
    """

    def __init__(
        self,
        pattern: GraphPattern,
        graph: GraphLike,
        personalized_match: NodeId,
        index: NeighborhoodIndex,
    ) -> None:
        super().__init__(pattern, graph, personalized_match, index)
        # Per query node: the labels its non-personalized parents/children
        # require, compiled once, and whether vp itself must be a parent/child.
        personalized = pattern.personalized
        self._needs = {}
        for query_node in pattern.nodes():
            parents = pattern.parents(query_node)
            children = pattern.children(query_node)
            self._needs[query_node] = (
                index.requirement(pattern.label_of(u) for u in parents if u != personalized),
                index.requirement(pattern.label_of(u) for u in children if u != personalized),
                personalized in parents,
                personalized in children,
            )

    def _evaluate(self, node: NodeId, query_node: QueryNodeId) -> bool:
        """Evaluate ``C(node, query_node)``."""
        if not self._label_matches(node, query_node):
            return False
        parent_labels, child_labels, vp_parent, vp_child = self._needs[query_node]
        if vp_parent and self._vp not in self._graph.predecessors(node):
            return False
        if vp_child and self._vp not in self._graph.successors(node):
            return False
        return self._index.has_parent_labels(node, parent_labels) and self._index.has_child_labels(
            node, child_labels
        )


class IsomorphismGuard(_BaseGuard):
    """The revised guarded condition of RBSub (Section 4.2).

    ``C(v, u)`` holds iff for every query neighbour ``u'`` of ``u`` (with
    degree ``d_{u'}``) there is a *distinct* data neighbour of ``v`` on the
    correct side with the same label and degree at least ``d_{u'}``.
    Distinctness is checked per (direction, label) group by comparing sorted
    degree requirements against sorted available degrees.
    """

    def _evaluate(self, node: NodeId, query_node: QueryNodeId) -> bool:
        """Evaluate the degree-aware guarded condition."""
        if not self._label_matches(node, query_node):
            return False
        if not self._degree_dominates(node, query_node):
            return False
        return self._side_satisfiable(node, query_node, children=True) and self._side_satisfiable(
            node, query_node, children=False
        )

    def _degree_dominates(self, node: NodeId, query_node: QueryNodeId) -> bool:
        out_needed = len(self._pattern.children(query_node))
        in_needed = len(self._pattern.parents(query_node))
        return (
            self._graph.out_degree(node) >= out_needed
            and self._graph.in_degree(node) >= in_needed
        )

    def _side_satisfiable(self, node: NodeId, query_node: QueryNodeId, children: bool) -> bool:
        """Greedy distinct-assignment check for one direction."""
        query_neighbors = (
            self._pattern.children(query_node) if children else self._pattern.parents(query_node)
        )
        if not query_neighbors:
            return True
        data_neighbors = (
            self._graph.successors(node) if children else self._graph.predecessors(node)
        )
        requirements: Dict[object, List[int]] = {}
        for neighbor_query in query_neighbors:
            if neighbor_query == self._pattern.personalized:
                # The personalized neighbour must literally be vp.
                if self._vp not in data_neighbors:
                    return False
                continue
            label = self._query_label(neighbor_query)
            requirements.setdefault(label, []).append(self._pattern.degree(neighbor_query))
        for label, degrees_needed in requirements.items():
            degrees_needed.sort(reverse=True)
            available = sorted(
                (
                    self._graph.degree(neighbor)
                    for neighbor in data_neighbors
                    if self._graph.label(neighbor) == label
                ),
                reverse=True,
            )
            if len(available) < len(degrees_needed):
                return False
            if any(have < need for have, need in zip(available, degrees_needed)):
                return False
        return True


class WeightEstimator:
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
