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

``C(v, u)`` and the adjacency of ``v`` depend on ``G`` and ``Q`` alone, never
on the evolving ``G_Q``, while ``Search`` restarts with a larger bound up to
``max_passes`` times and re-ranks the same neighbourhoods each time.
:class:`CandidateTable` therefore derives them once per search;
:class:`WeightEstimator` recomputes only the part that moves with ``G_Q``.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Protocol, Sequence, Set, Tuple

from repro.graph.digraph import NodeId
from repro.graph.protocol import GraphLike
from repro.graph.neighborhood import NeighborhoodIndex
from repro.patterns.pattern import GraphPattern, QueryNodeId

try:  # only the index-space row fill needs numpy
    import numpy as np
except ImportError:  # pragma: no cover - numpy is baked into the image
    np = None


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
        # The graph whose array indices :meth:`passing` accepts: ``graph`` when
        # it is a ``CSRGraph``, else ``None`` (a ``DiGraph`` or an overlay is
        # asked node by node through ``check``).
        self.index_graph = graph if hasattr(graph, "neighbor_indices") else None
        self._label_lookups: Dict[Tuple[QueryNodeId, ...], tuple] = {}
        self._vp_sides: Dict[bool, FrozenSet[NodeId]] = {}

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

    def passing(self, indices, query_nodes: Tuple[QueryNodeId, ...]):
        """Positions in ``indices`` (an array of ``index_graph`` node indices)
        of the nodes satisfying ``C(·, u)`` for at least one ``u`` of ``query_nodes``.

        One gather through a label lookup discards, for all of
        ``query_nodes`` at once, every entry whose label none of them asks
        for: most of a slice, and usually all of it.  Only the survivors
        reach the exact, memoised :meth:`check`, each against the query
        nodes that ask for its label.
        """
        graph = self.index_graph
        wanted, askers = self._label_lookup(query_nodes)
        labels = graph.label_ids_of(indices)
        positions = wanted[labels].nonzero()[0]
        if not positions.size:
            return positions
        check = self.check
        passed = []
        for position, node, row in zip(
            positions.tolist(), graph.ids_of(indices[positions]), labels[positions].tolist()
        ):
            for query_node in askers[row]:
                if check(node, query_node):
                    passed.append(position)
                    break
        return np.array(passed, dtype=np.intp)

    def _label_lookup(self, query_nodes: Tuple[QueryNodeId, ...]):
        """``(wanted, askers)`` of one tuple of query nodes, by label-table row:
        whether any of them asks for that label, and which of them do
        (``up`` is matched by identity, so it asks for the label ``vp`` has)."""
        lookup = self._label_lookups.get(query_nodes)
        if lookup is None:
            graph = self.index_graph
            askers: Dict[int, List[QueryNodeId]] = {}
            for query_node in query_nodes:
                if query_node != self._pattern.personalized:
                    row = graph.label_id(self._pattern.label_of(query_node))
                elif self._vp in graph:
                    row = graph.label_id(graph.label(self._vp))
                else:
                    row = None
                if row is not None:
                    askers.setdefault(row, []).append(query_node)
            wanted = np.zeros(graph.num_labels(), dtype=bool)
            wanted[list(askers)] = True
            lookup = self._label_lookups[query_nodes] = (wanted, askers)
        return lookup

    def _vp_side(self, children: bool) -> FrozenSet[NodeId]:
        """The children (resp. parents) of ``vp``, as a set built on first use."""
        side = self._vp_sides.get(children)
        if side is None:
            graph, vp = self._graph, self._vp
            if vp not in graph:
                side = frozenset()
            else:
                side = frozenset(graph.successors(vp) if children else graph.predecessors(vp))
            self._vp_sides[children] = side
        return side

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
        # vp is a parent of node iff node is a child of vp: probe vp's side,
        # materialised once, instead of scanning the adjacency of every node.
        if vp_parent and node not in self._vp_side(children=True):
            return False
        if vp_child and node not in self._vp_side(children=False):
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
        requirements: Dict[object, List[int]] = {}
        for neighbor_query in query_neighbors:
            if neighbor_query == self._pattern.personalized:
                # The personalized neighbour must literally be vp.
                if node not in self._vp_side(children=not children):
                    return False
                continue
            label = self._query_label(neighbor_query)
            requirements.setdefault(label, []).append(self._pattern.degree(neighbor_query))
        data_neighbors = (
            self._graph.successors(node) if children else self._graph.predecessors(node)
        )
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


class _Adjacency(NamedTuple):
    """One data node's adjacency, materialised once per search."""

    scan: Tuple[NodeId, ...]  # children then parents; a node on both sides twice
    distinct: Tuple[NodeId, ...]  # the same order, first occurrences only
    members: FrozenSet[NodeId]
    roles: FrozenSet[QueryNodeId]  # the query nodes u with C(node, u)


class CandidateTable:
    """What ``Search``/``Pick`` derive from ``G`` and ``Q`` alone, once per search.

    Rows are filled on first use and kept until the search ends:

    * per data node ``v``: :meth:`adjacency`, with the query nodes ``v``
      satisfies ``C`` for;
    * per ``(v, u)``: :meth:`eligible`, the neighbours of ``v`` that satisfy
      ``C(·, u)`` (what ``Pick`` ranks), and :meth:`usable`, the entries
      among the first ``max_scan`` neighbours of ``v`` that satisfy ``C`` for
      some query neighbour of ``u`` (what ``p(v, u)`` counts).

    None of it depends on ``G_Q``, so a restart with a larger bound reads the
    rows the earlier passes filled.  When the guard answers whole CSR slices
    (:attr:`_BaseGuard.index_graph` is this graph) the ``(v, u)`` rows are
    filled in index space; on any other graph, or with a guard that only
    has ``check``, the same rows are filled node by node.
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
        # the cap bounds what one estimate reads without changing which
        # nodes are eligible (the guarded condition is still exact).
        self.max_scan = max(1, max_scan)
        csr = getattr(guard, "index_graph", None)
        self._csr = csr if csr is graph else None
        self._adjacency: Dict[NodeId, _Adjacency] = {}
        self._eligible: Dict[Tuple[NodeId, QueryNodeId], Tuple[NodeId, ...]] = {}
        self._usable: Dict[Tuple[NodeId, QueryNodeId], List[NodeId]] = {}

    def adjacency(self, node: NodeId) -> _Adjacency:
        """The full adjacency of ``node`` (scan order, de-duplicated, as a set) and its roles."""
        row = self._adjacency.get(node)
        if row is None:
            row = self._adjacency[node] = self._materialise(node)
        return row

    def adjacencies(self, nodes) -> List[_Adjacency]:
        """:meth:`adjacency` of every node of ``nodes``."""
        rows = self._adjacency
        return [rows.get(node) or self.adjacency(node) for node in nodes]

    def _materialise(self, node: NodeId) -> _Adjacency:
        scan = tuple(self._scan(node))
        distinct = tuple(dict.fromkeys(scan))
        check = self._guard.check
        roles = frozenset(u for u in self._pattern.nodes() if check(node, u))
        return _Adjacency(scan, distinct, frozenset(distinct), roles)

    def eligible(self, node: NodeId, query_node: QueryNodeId) -> Tuple[NodeId, ...]:
        """Distinct neighbours of ``node`` satisfying ``C(·, query_node)``, in scan order."""
        key = (node, query_node)
        row = self._eligible.get(key)
        if row is None:
            row = self._eligible[key] = tuple(dict.fromkeys(self._passing(node, (query_node,))))
        return row

    def usable(self, node: NodeId, query_node: QueryNodeId) -> List[NodeId]:
        """Entries among the first ``max_scan`` neighbours of ``node`` (duplicates
        kept) that could serve some query neighbour of ``query_node``."""
        key = (node, query_node)
        row = self._usable.get(key)
        if row is None:
            row = self._usable[key] = self._passing(
                node, self._pattern.neighbors(query_node), self.max_scan
            )
        return row

    def _scan(self, node: NodeId, limit: Optional[int] = None) -> Sequence[NodeId]:
        """Children then parents of ``node``, at most ``limit`` of them."""
        csr = self._csr
        if csr is not None:
            return csr.ids_of(csr.neighbor_indices(csr.index_of(node), limit))
        both = chain(self._graph.successors(node), self._graph.predecessors(node))
        return list(islice(both, limit))

    def _passing(
        self, node: NodeId, query_nodes: Tuple[QueryNodeId, ...], limit: Optional[int] = None
    ) -> List[NodeId]:
        """:meth:`_scan` filtered to the entries satisfying ``C(·, u)`` for some
        ``u`` of ``query_nodes``: a whole slice at once in index space, else
        node by node (over the materialised row when the scan is the full one)."""
        csr = self._csr
        if csr is not None:
            indices = csr.neighbor_indices(csr.index_of(node), limit)
            positions = self._guard.passing(indices, query_nodes)
            return csr.ids_of(indices[positions]) if positions.size else []
        check = self._guard.check
        scan = self.adjacency(node).scan if limit is None else self._scan(node, limit)
        return [n for n in scan if any(check(n, u) for u in query_nodes)]


class WeightEstimator:
    """Dynamic cost / potential / weight bookkeeping for candidate selection.

    The estimator is deliberately stateless with respect to ``G_Q``: it takes
    the *current* set of nodes already added to ``G_Q`` at every call, so costs
    shrink as the reduction makes progress (the paper updates ``c(v, u)`` and
    ``p(v, u)`` dynamically for the same reason).  Everything that does not
    move with ``G_Q`` is read from :attr:`table`.
    """

    def __init__(
        self,
        pattern: GraphPattern,
        graph: GraphLike,
        guard: GuardedCondition,
        max_scan: int = 64,
    ) -> None:
        self.table = CandidateTable(pattern, graph, guard, max_scan)
        self._needed = {node: frozenset(pattern.neighbors(node)) for node in pattern.nodes()}

    def _offers(self, in_gq: Set[NodeId]) -> Optional[List[_Adjacency]]:
        """The rows of the members of ``G_Q``: who their neighbours are and which
        query nodes they can play.

        ``None`` when ``G_Q`` has outgrown ``max_scan``: intersecting from its
        side would then cost more than the capped scan it replaces.
        """
        if len(in_gq) > self.table.max_scan:
            return None
        return self.table.adjacencies(in_gq)

    def _missing(self, node: NodeId, needed, in_gq: Set[NodeId], offers) -> int:
        """How many query nodes of ``needed`` no ``G_Q`` neighbour of ``node`` can play.

        ``c(v, u)`` looks at the first ``max_scan`` neighbours of ``node`` that
        are in ``G_Q``, in scan order, a neighbour on both sides counting
        twice.  With ``offers`` that is O(|G_Q|) set probes, whatever the
        degree of ``node``; the scan of its adjacency, O(deg) until
        ``max_scan`` members are found, is left for when the cap may bite
        (which members it keeps then depends on the order) or ``G_Q`` is large.
        """
        table = self.table
        covered: Set[QueryNodeId] = set()
        if offers is not None:
            found = 0
            for _, _, members, roles in offers:
                if node in members:
                    found += 1
                    covered |= roles
            if 2 * found <= table.max_scan:
                return len(needed - covered)
            covered.clear()
        found = 0
        for neighbor in table.adjacency(node).scan:
            if neighbor in in_gq:
                covered |= table.adjacency(neighbor).roles
                found += 1
                if found == table.max_scan:
                    break
        return len(needed - covered)

    def cost(self, node: NodeId, query_node: QueryNodeId, in_gq: Set[NodeId]) -> int:
        """``c(v, u)``: query neighbours of ``u`` with no candidate of ``v`` in ``G_Q``."""
        return self._missing(node, self._needed[query_node], in_gq, self._offers(in_gq))

    def potential(self, node: NodeId, query_node: QueryNodeId, in_gq: Set[NodeId]) -> int:
        """``p(v, u)``: neighbours of ``v`` outside ``G_Q`` usable for some query neighbour."""
        usable = self.table.usable(node, query_node)
        return len(usable) - sum(map(in_gq.__contains__, usable))

    def weight(self, node: NodeId, query_node: QueryNodeId, in_gq: Set[NodeId]) -> float:
        """The selection weight ``p / (c + 1)``."""
        return self.weights((node,), query_node, in_gq)[0]

    def weights(
        self, nodes: Sequence[NodeId], query_node: QueryNodeId, in_gq: Set[NodeId]
    ) -> List[float]:
        """:meth:`weight` of every node of ``nodes`` against one state of ``G_Q``."""
        needed = self._needed[query_node]
        offers = self._offers(in_gq)
        weights = []
        for node in nodes:
            potential = self.potential(node, query_node, in_gq)
            if potential:
                weights.append(potential / (self._missing(node, needed, in_gq, offers) + 1))
            else:
                weights.append(0.0)  # whatever the cost
        return weights
