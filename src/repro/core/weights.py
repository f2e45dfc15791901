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
:class:`WeightEstimator`, the flat state of one search, therefore loads each
data node's row once, and updates ``c(v, u)`` the way the paper says,
"dynamically": a node joining ``G_Q`` pushes what it can play to its
neighbours, and nothing is recomputed from scratch per candidate.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import chain, islice, repeat
from operator import or_
from typing import Dict, FrozenSet, List, Optional, Protocol, Set, Tuple

from repro.graph.digraph import NodeId
from repro.graph.protocol import GraphLike
from repro.graph.neighborhood import NeighborhoodIndex
from repro.patterns.pattern import GraphPattern, QueryNodeId


def _csr_of(graph: GraphLike):
    """``graph`` when its columns can be read a slice at a time (a ``CSRGraph``), else ``None``."""
    return graph if hasattr(graph, "neighbor_indices") else None


def _label_key(csr, label):
    """What a row of label keys holds for ``label``: its label-table row on a
    ``CSRGraph`` (``None`` when no node carries it), else the label itself."""
    return label if csr is None else csr.label_id(label)


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
        # On a ``CSRGraph`` labels and degrees of a neighbour slice are read
        # from its columns; a ``DiGraph`` or an overlay is asked node by node.
        self._csr = _csr_of(graph)
        self._vp_sides: Dict[bool, FrozenSet[NodeId]] = {}
        # What each query node asks of its neighbourhood, compiled once per guard.
        self._needs: Dict[object, tuple] = {}

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
        children, parents = self._needs.get(query_node) or self._compile(query_node)
        graph = self._graph
        # Degree dominance first: it reads no neighbour.
        if graph.out_degree(node) < children[0] or graph.in_degree(node) < parents[0]:
            return False
        for on_children, (_, vp_needed, requirements) in ((True, children), (False, parents)):
            # The personalized neighbour must literally be vp.
            if vp_needed and node not in self._vp_side(children=not on_children):
                return False
            if requirements and not self._satisfiable(
                graph.successors(node) if on_children else graph.predecessors(node), requirements
            ):
                return False
        return True

    def _compile(self, query_node: QueryNodeId):
        """What ``query_node`` asks of the children and of the parents of a data
        node, compiled once: how many there must be, whether ``vp`` must be one,
        and per label key the degrees its query neighbours need, largest first."""
        pattern = self._pattern
        sides = []
        for query_neighbors in (pattern.children(query_node), pattern.parents(query_node)):
            requirements: Dict[object, List[int]] = {}
            for neighbor_query in query_neighbors:
                if neighbor_query != pattern.personalized:
                    label = _label_key(self._csr, pattern.label_of(neighbor_query))
                    requirements.setdefault(label, []).append(pattern.degree(neighbor_query))
            for degrees_needed in requirements.values():
                degrees_needed.sort(reverse=True)
            sides.append((len(query_neighbors), pattern.personalized in query_neighbors, requirements))
        needs = self._needs[query_node] = tuple(sides)
        return needs

    def _satisfiable(self, side, requirements: Dict[object, List[int]]) -> bool:
        """Greedy distinct-assignment check for one direction: the label keys
        and ``d(·)`` of ``side`` are two column gathers on a ``CSRGraph``,
        else one pass over the neighbours."""
        csr, graph = self._csr, self._graph
        if csr is not None:
            labels = csr.label_ids_of(side.indices).tolist()
            degrees = csr.degrees()[side.indices].tolist()
        else:
            side = list(side)
            labels, degrees = list(map(graph.label, side)), list(map(graph.degree, side))
        for label, degrees_needed in requirements.items():
            available = sorted(
                (have for have, found in zip(degrees, labels) if found == label), reverse=True
            )
            if len(available) < len(degrees_needed):
                return False
            if any(have < need for have, need in zip(available, degrees_needed)):
                return False
        return True


class WeightEstimator:
    """The flat state of one ``Search``: rows, role bits, ``c(v, u)`` and ``p(v, u)``.

    * **Role bits.**  Query nodes are bit positions: the query neighbours of
      ``u``, the query nodes asking for a label, and the *roles* of a data
      node (the query nodes it satisfies ``C`` for) are ints.
    * **Rows.**  What ``G`` says about a data node is loaded once: its scan
      list (children then parents, a node on both sides twice) and, beside
      it, which query nodes ask for the label of each entry.  A candidate
      that is only *ranked* loads its first ``max_scan`` entries, all that
      ``p(v, u)`` reads; the whole row is loaded when the node is expanded or
      joins ``G_Q``.  Who can play what is decided on the row in list space,
      and only an entry whose label is asked for reaches the exact, memoised
      ``guard.check`` (which, being a necessary condition for a match,
      implies the label test), once per search and query node.
    * **Incremental cost.**  :meth:`admit` pushes the roles of the node
      joining ``G_Q`` to the entries of its row, so ``c(v, u)`` is a popcount:
      one node joining changes the cost of its neighbours and of nobody
      else.  A member with more than ``max_scan`` entries is not pushed but
      probed from its side, and the order-dependent capped scan is left for
      a ``v`` with more than ``max_scan`` members around it.
    """

    def __init__(
        self,
        pattern: GraphPattern,
        graph: GraphLike,
        personalized_match: NodeId,
        guard: GuardedCondition,
        max_scan: int = 64,
    ) -> None:
        self._graph = graph
        self._csr = _csr_of(graph)
        self._check = guard.check
        # Cap on how many neighbours are inspected per estimate.  The paper
        # notes the potential "can be extended by making use of sampling";
        # the cap bounds what one estimate reads without changing which
        # nodes are eligible (the guarded condition is still exact).
        self.max_scan = max(1, max_scan)
        self.in_gq: Set[NodeId] = set()
        self._query_nodes = tuple(pattern.nodes())
        self._bit = {u: 1 << position for position, u in enumerate(self._query_nodes)}
        self._needed = {
            u: reduce(or_, (self._bit[neighbor] for neighbor in pattern.neighbors(u)), 0)
            for u in self._query_nodes
        }
        # Label key -> the query nodes asking for it (``up`` is matched by
        # identity, so it asks for the label ``vp`` has).
        self._askers: Dict[object, int] = {}
        for u, bit in self._bit.items():
            if u != pattern.personalized:
                key = _label_key(self._csr, pattern.label_of(u))
            elif personalized_match in graph:
                key = _label_key(self._csr, graph.label(personalized_match))
            else:
                continue
            self._askers[key] = self._askers.get(key, 0) | bit
        # Per data node: (scan, askers of each entry, whether that is the whole row).
        self._rows: Dict[NodeId, Tuple[List[NodeId], List[int], bool]] = {}
        self._distinct: Dict[NodeId, Dict[NodeId, int]] = {}
        # Per data node: its roles as far as known, and the query nodes tried.
        self._roles: Dict[NodeId, int] = {}
        self._tried: Dict[NodeId, int] = {}
        self._eligible: Dict[Tuple[NodeId, QueryNodeId], List[NodeId]] = {}
        self._usable: Dict[Tuple[NodeId, QueryNodeId], List[NodeId]] = {}
        # What moves with G_Q, per data node: the roles of the members among
        # the entries of its row, and how many entries those are.  Members too
        # wide to push are kept aside: (roles, how often each entry occurs).
        self._covered: Dict[NodeId, int] = {}
        self._hits: Dict[NodeId, int] = {}
        self._wide: List[Tuple[int, Counter]] = []

    # ------------------------------------------------------------------ #
    # What depends on G and Q alone
    # ------------------------------------------------------------------ #
    def _load(self, node: NodeId, limit: Optional[int]) -> Tuple[List[NodeId], List[int], bool]:
        """The first ``limit`` entries of the row of ``node`` (all when ``None``):
        an index slice and a label gather on a ``CSRGraph``, else one pass
        over each side."""
        csr = self._csr
        if csr is not None:
            indices = csr.neighbor_indices(csr.index_of(node), limit)
            scan, keys = csr.ids_of(indices), csr.label_ids_of(indices).tolist()
        else:
            graph = self._graph
            scan = list(islice(chain(graph.successors(node), graph.predecessors(node)), limit))
            keys = map(graph.label, scan)
        askers = list(map(self._askers.get, keys, repeat(0)))
        row = self._rows[node] = (scan, askers, limit is None or len(scan) < limit)
        return row

    def row(self, node: NodeId) -> List[NodeId]:
        """The whole scan list of ``node``."""
        row = self._rows.get(node)
        if row is None or not row[2]:
            row = self._load(node, None)
        return row[0]

    def distinct(self, node: NodeId) -> Dict[NodeId, int]:
        """The neighbours of ``node`` in scan order, first occurrences only (what
        ``Pick`` charges and walks), each with the query nodes asking for its label."""
        distinct = self._distinct.get(node)
        if distinct is None:
            scan = self.row(node)
            distinct = self._distinct[node] = dict(zip(scan, self._rows[node][1]))
        return distinct

    def _plays(self, node: NodeId, mask: int, every: bool = False) -> int:
        """The roles of ``node`` among the query nodes of ``mask`` (all asking
        for its label): all of them, or just the first one found.  No
        ``(node, query node)`` reaches the guard twice in one search."""
        roles, tried = self._roles.get(node, 0), self._tried.get(node, 0)
        untried = mask & ~tried
        if untried and (every or not roles & mask):
            check, query_nodes = self._check, self._query_nodes
            while untried:
                low = untried & -untried
                untried ^= low
                tried |= low
                if check(node, query_nodes[low.bit_length() - 1]):
                    roles |= low
                    if not every:
                        break
            self._roles[node], self._tried[node] = roles, tried
        return roles & mask

    def eligible(self, node: NodeId, query_node: QueryNodeId) -> List[NodeId]:
        """Distinct neighbours of ``node`` satisfying ``C(·, query_node)``, in scan order."""
        key = (node, query_node)
        eligible = self._eligible.get(key)
        if eligible is None:
            bit, plays = self._bit[query_node], self._plays
            eligible = self._eligible[key] = [
                neighbor
                for neighbor, askers in self.distinct(node).items()
                if askers & bit and plays(neighbor, bit)
            ]
        return eligible

    def _usable_entries(self, node: NodeId, query_node: QueryNodeId) -> List[NodeId]:
        """Entries among the first ``max_scan`` of the row of ``node`` (duplicates
        kept) that could serve some query neighbour of ``query_node``."""
        key = (node, query_node)
        usable = self._usable.get(key)
        if usable is None:
            scan, asking, _ = self._rows.get(node) or self._load(node, self.max_scan)
            needed, known, plays = self._needed[query_node], self._roles.get, self._plays
            usable = self._usable[key] = [
                neighbor
                for neighbor, askers in islice(zip(scan, asking), self.max_scan)
                if askers & needed and (known(neighbor, 0) & needed or plays(neighbor, askers & needed))
            ]
        return usable

    # ------------------------------------------------------------------ #
    # What moves with G_Q
    # ------------------------------------------------------------------ #
    def admit(self, node: NodeId) -> List[NodeId]:
        """``node`` joins ``G_Q``: tell its neighbours what it can play.

        Returns its scan list.  Each entry of the row of ``node`` is an entry
        for ``node`` in that neighbour's row (a child here is a parent
        there), so after the push ``hits[v]`` is how many entries of the row
        of ``v`` are members of ``G_Q`` and ``covered[v]`` what they can play.
        """
        self.in_gq.add(node)
        scan = self.row(node)
        label = _label_key(self._csr, self._graph.label(node))
        roles = self._plays(node, self._askers.get(label, 0), every=True)
        if len(scan) > self.max_scan:
            self._wide.append((roles, Counter(scan)))  # no O(deg) loop per hub
        else:
            covered, hits = self._covered, self._hits
            for neighbor in scan:
                covered[neighbor] = covered.get(neighbor, 0) | roles
                hits[neighbor] = hits.get(neighbor, 0) + 1
        return scan

    def cost(self, node: NodeId, query_node: QueryNodeId) -> int:
        """``c(v, u)``: query neighbours of ``u`` with no candidate of ``v`` in ``G_Q``.

        It looks at the first ``max_scan`` entries of the row of ``node`` that
        are in ``G_Q``.  With no more than ``max_scan`` such entries it looks
        at them all, so their pushed union is the answer; which ones the cap
        keeps otherwise depends on the scan order.
        """
        covered, hits = self._covered.get(node, 0), self._hits.get(node, 0)
        for roles, entries in self._wide:
            times = entries.get(node)
            if times:
                covered |= roles
                hits += times
        if hits > self.max_scan:
            covered, found, in_gq, roles_of = 0, 0, self.in_gq, self._roles
            for neighbor in self.row(node):
                if neighbor in in_gq:
                    covered |= roles_of.get(neighbor, 0)
                    found += 1
                    if found == self.max_scan:
                        break
        return (self._needed[query_node] & ~covered).bit_count()

    def potential(self, node: NodeId, query_node: QueryNodeId) -> int:
        """``p(v, u)``: neighbours of ``v`` outside ``G_Q`` usable for some query neighbour."""
        usable = self._usable_entries(node, query_node)
        return len(usable) - sum(map(self.in_gq.__contains__, usable))

    def weight(self, node: NodeId, query_node: QueryNodeId) -> float:
        """The selection weight ``p / (c + 1)`` against the current ``G_Q``."""
        potential = self.potential(node, query_node)
        # No potential: the weight is 0 whatever the cost.
        return potential / (self.cost(node, query_node) + 1) if potential else 0.0
