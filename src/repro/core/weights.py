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
on the evolving ``G_Q``, while ``Search`` comes back, pass after pass, to the
Picks its bound cut short and ranks the same neighbourhoods again.
:class:`WeightEstimator`, the flat state of one search, therefore loads each
data node's row once, and updates ``c(v, u)`` the way the paper says,
"dynamically": a node joining ``G_Q`` pushes what it can play to its
neighbours, and nothing is recomputed from scratch per candidate; a weight is
recomputed only when a member joined around its node.  A cut ``Pick`` keeps
its ungiven candidates as a :class:`Remainder`, a heap that re-weighs only
the candidates in the rows of members admitted since it last gave.

On a ``CSRGraph`` the state works in row space: a row's askers are one
gather through a label id -> askers table, and a row wider than
``max_scan`` has ``C(·, u)`` decided for all of its untried entries by one
:meth:`GuardedCondition.check_rows` call, vectorised over label ids,
degrees and the ``label_presence`` words.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import chain, islice, repeat
from operator import or_
from typing import Collection, Dict, FrozenSet, Iterator, List, Optional, Protocol, Set, Tuple

import numpy as np

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

    #: Whether :meth:`check_rows` may be asked: the graph is a ``CSRGraph``
    #: whose rows are the rows of every array the guard reads.
    row_space: bool

    def check(self, node: NodeId, query_node: QueryNodeId) -> bool:
        """Whether ``node`` may still match ``query_node`` (necessary condition)."""
        ...  # pragma: no cover - protocol definition

    def check_rows(self, rows: np.ndarray, query_node: QueryNodeId) -> np.ndarray:
        """:meth:`check` of the node at each of ``rows``, as one boolean array."""
        ...  # pragma: no cover - protocol definition


class _BaseGuard:
    """Common state for guarded conditions: graph, pattern, summaries, pinning.

    Guarded conditions depend only on the data graph and the pattern (never on
    the evolving ``G_Q``), so results are memoised per ``(node, query_node)``
    pair: the potential/cost estimators re-check the same pairs many times
    during one reduction and the cache turns those repeats into dictionary
    lookups.  :meth:`check_rows` is the same condition over an array of
    ``CSRGraph`` rows, read from the columns in one vectorised pass; it
    memoises nothing (the search state records what it returns).
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
        csr = self._csr = _csr_of(graph)
        self.row_space = csr is not None
        self._vp_sides: Dict[bool, FrozenSet[NodeId]] = {}
        # What each query node asks of its neighbourhood, compiled once per guard.
        self._needs: Dict[object, tuple] = {}
        # The label key each query node asks for (``up`` is pinned to ``vp``).
        self._label_keys = {u: _label_key(csr, pattern.label_of(u)) for u in pattern.nodes()}

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
        csr = self._csr
        if csr is None:
            return self._graph.label(node) == self._pattern.label_of(query_node)
        return csr.label_ids_of(csr.index_of(node)) == self._label_keys[query_node]

    # Row space (``CSRGraph`` only) --------------------------------------- #
    def _label_rows(self, rows: np.ndarray, query_node: QueryNodeId) -> np.ndarray:
        """:meth:`_label_matches` of each of ``rows``."""
        csr, vp = self._csr, self._vp
        if query_node == self._pattern.personalized:
            return rows == (csr.index_of(vp) if vp in csr else -1)
        key = self._label_keys[query_node]
        if key is None:
            return np.zeros(rows.shape[0], dtype=bool)
        return csr.label_ids_of(rows) == key

    def _vp_side_rows(self, rows: np.ndarray, children: bool) -> np.ndarray:
        """Which of ``rows`` are children (resp. parents) of ``vp``."""
        csr, vp = self._csr, self._vp
        if vp not in csr:
            return np.zeros(rows.shape[0], dtype=bool)
        side = csr.successors(vp) if children else csr.predecessors(vp)
        return np.isin(rows, side.indices)


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
        # The presence words are read by row: they must be this graph's.
        self.row_space = self.row_space and index.graph is graph
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
        return self._index.has_labels(node, parent_labels, child_labels)

    def check_rows(self, rows: np.ndarray, query_node: QueryNodeId) -> np.ndarray:
        """``C(·, query_node)`` of each of ``rows``: label ids, ``vp``'s sides
        and the presence words, each one vectorised test."""
        passed = self._label_rows(rows, query_node)
        parent_labels, child_labels, vp_parent, vp_child = self._needs[query_node]
        if vp_parent:
            passed &= self._vp_side_rows(rows, children=True)
        if vp_child:
            passed &= self._vp_side_rows(rows, children=False)
        passed &= self._index.rows_have_labels(rows, parent_labels, children=False)
        passed &= self._index.rows_have_labels(rows, child_labels, children=True)
        return passed


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
            if requirements and not _satisfiable(
                *self._side_columns(graph.successors(node) if on_children else graph.predecessors(node)),
                requirements,
            ):
                return False
        return True

    def check_rows(self, rows: np.ndarray, query_node: QueryNodeId) -> np.ndarray:
        """``C(·, query_node)`` of each of ``rows``: label ids, degree dominance
        and ``vp``'s sides vectorised; the distinct-assignment test then runs
        per survivor, on two column gathers of its row."""
        children, parents = self._needs.get(query_node) or self._compile(query_node)
        csr = self._csr
        out_degrees, in_degrees = csr.side_degrees(rows)
        passed = self._label_rows(rows, query_node)
        passed &= (out_degrees >= children[0]) & (in_degrees >= parents[0])
        for on_children, (_, vp_needed, _) in ((True, children), (False, parents)):
            if vp_needed:
                passed &= self._vp_side_rows(rows, children=not on_children)
        survivors = np.flatnonzero(passed)
        if survivors.shape[0] and (children[2] or parents[2]):
            # Every survivor's row in one gather; each side is a slice of it.
            entries = csr.adjacent_rows(rows[survivors])
            labels, degrees = csr.label_ids_of(entries).tolist(), csr.degrees()[entries].tolist()
            start = 0
            for position, split, length in zip(
                survivors.tolist(), out_degrees[survivors].tolist(), in_degrees[survivors].tolist()
            ):
                middle = start + split
                end = middle + length
                if not (
                    _satisfiable(labels[start:middle], degrees[start:middle], children[2])
                    and _satisfiable(labels[middle:end], degrees[middle:end], parents[2])
                ):
                    passed[position] = False
                start = end
        return passed

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
                    requirements.setdefault(self._label_keys[neighbor_query], []).append(
                        pattern.degree(neighbor_query)
                    )
            for degrees_needed in requirements.values():
                degrees_needed.sort(reverse=True)
            sides.append((len(query_neighbors), pattern.personalized in query_neighbors, requirements))
        needs = self._needs[query_node] = tuple(sides)
        return needs

    def _side_columns(self, side) -> Tuple[List[object], List[int]]:
        """The label keys and ``d(·)`` of the neighbours on one side: two
        column gathers on a ``CSRGraph``, else one pass over the neighbours."""
        csr, graph = self._csr, self._graph
        if csr is not None:
            return csr.label_ids_of(side.indices).tolist(), csr.degrees()[side.indices].tolist()
        side = list(side)
        return list(map(graph.label, side)), list(map(graph.degree, side))


def _satisfiable(labels: List[object], degrees: List[int], requirements: Dict[object, List[int]]) -> bool:
    """Greedy distinct-assignment check for one direction: per label key, the
    neighbours carrying it, largest degree first, must cover the degrees needed."""
    for label, degrees_needed in requirements.items():
        available = sorted((have for have, found in zip(degrees, labels) if found == label), reverse=True)
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
      it, which query nodes ask for the label of each entry (on a
      ``CSRGraph`` one gather through a label id -> askers table).  A
      candidate that is only *ranked* loads its first ``max_scan`` entries,
      all that ``p(v, u)`` reads; the whole row is loaded when the node is
      expanded or joins ``G_Q``.  Who can play what is decided on the row in
      list space, and only an entry whose label is asked for reaches the
      exact, memoised ``guard.check`` (which, being a necessary condition for
      a match, implies the label test), once per search and query node.
    * **Wide rows.**  On a ``CSRGraph``, a row with more than ``max_scan``
      entries gets ``C(·, u)`` for all of its untried entries in one
      ``guard.check_rows`` call, whose results go into the same roles.
    * **Incremental cost.**  :meth:`admit` pushes the roles of the node
      joining ``G_Q`` to the entries of its row, so ``c(v, u)`` is a popcount:
      one node joining changes the cost of its neighbours and of nobody
      else.  A member with more than ``max_scan`` entries is not pushed but
      probed from its side, and the order-dependent capped scan is left for
      a ``v`` with more than ``max_scan`` members around it.  A weight is
      kept until a member joins around its node: ``hits[v]`` moves, or a
      wide member has ``v`` in its row.
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
        csr = self._csr = _csr_of(graph)
        self._check = guard.check
        self._check_rows = guard.check_rows if guard.row_space else None
        # Cap on how many neighbours are inspected per estimate.  The paper
        # notes the potential "can be extended by making use of sampling";
        # the cap bounds what one estimate reads without changing which
        # nodes are eligible (the guarded condition is still exact).
        self.max_scan = max(1, max_scan)
        self.in_gq: Set[NodeId] = set()
        self._query_nodes = tuple(pattern.nodes())
        self.bits = {u: 1 << position for position, u in enumerate(self._query_nodes)}
        self._needed = {
            u: reduce(or_, (self.bits[neighbor] for neighbor in pattern.neighbors(u)), 0)
            for u in self._query_nodes
        }
        # Label key -> the query nodes asking for it (``up`` is matched by
        # identity, so it asks for the label ``vp`` has).
        self._askers: Dict[object, int] = {}
        for u, bit in self.bits.items():
            if u != pattern.personalized:
                key = _label_key(csr, pattern.label_of(u))
            elif personalized_match not in graph:
                continue
            elif csr is None:
                key = graph.label(personalized_match)
            else:
                key = csr.label_ids_of(csr.index_of(personalized_match)).item()
            self._askers[key] = self._askers.get(key, 0) | bit
        if csr is not None:
            # Label id -> askers, so a row's askers are one gather.
            self._askers_table = np.zeros(
                csr.num_labels(), dtype=np.int64 if len(self.bits) < 64 else object
            )
            for key, askers in self._askers.items():
                if key is not None:
                    self._askers_table[key] = askers
        # Per data node: (scan, askers of each entry, whether that is the whole row).
        self._rows: Dict[NodeId, Tuple[List[NodeId], List[int], bool]] = {}
        # Wide whole rows when ``check_rows`` may be asked: (entry rows, askers).
        self._arrays: Dict[NodeId, Tuple[np.ndarray, np.ndarray]] = {}
        self._distinct: Dict[NodeId, Dict[NodeId, int]] = {}
        # Per data node: its roles as far as known (all of them for a member
        # of G_Q), and the query nodes tried.
        self.roles: Dict[NodeId, int] = {}
        self._tried: Dict[NodeId, int] = {}
        self._eligible: Dict[Tuple[NodeId, QueryNodeId], List[NodeId]] = {}
        self._usable: Dict[Tuple[NodeId, QueryNodeId], List[NodeId]] = {}
        # Per query node u: hits[v] when the weight of (v, u) was computed (-1:
        # stale) and that weight; and how many wide members were applied to them.
        self._kept: Dict[QueryNodeId, Tuple[Dict[NodeId, int], Dict[NodeId, float]]] = {
            u: ({}, {}) for u in self._query_nodes
        }
        self._wide_seen: Dict[QueryNodeId, int] = {}
        # What moves with G_Q, per data node: the roles of the members among
        # the entries of its row, and how many entries those are.  Members too
        # wide to push are kept aside: (roles, how often each entry occurs).
        self._covered: Dict[NodeId, int] = {}
        self._hits: Counter = Counter()
        self._wide: List[Tuple[int, Counter]] = []
        # The row of every member, in admission order: whose weights moved.
        self.touched: List[List[NodeId]] = []

    # ------------------------------------------------------------------ #
    # What depends on G and Q alone
    # ------------------------------------------------------------------ #
    def _load(self, node: NodeId, limit: Optional[int]) -> Tuple[List[NodeId], List[int], bool]:
        """The first ``limit`` entries of the row of ``node`` (all when ``None``):
        an index slice and two gathers on a ``CSRGraph``, else one pass over
        each side."""
        csr = self._csr
        if csr is not None:
            indices = csr.neighbor_indices(csr.index_of(node), limit)
            askers = self._askers_table[csr.label_ids_of(indices)]
            scan = csr.ids_of(indices)
            if limit is None and len(scan) > self.max_scan and self._check_rows is not None:
                self._arrays[node] = (indices, askers)
            askers = askers.tolist()
        else:
            graph = self._graph
            scan = list(islice(chain(graph.successors(node), graph.predecessors(node)), limit))
            askers = list(map(self._askers.get, map(graph.label, scan), repeat(0)))
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
        ``Pick`` walks), each with the query nodes asking for its label."""
        distinct = self._distinct.get(node)
        if distinct is None:
            scan = self.row(node)
            distinct = self._distinct[node] = dict(zip(scan, self._rows[node][1]))
        return distinct

    def width(self, node: NodeId) -> int:
        """``|N(v)|``, what the first ``Pick`` at ``node`` is charged (on a
        ``CSRGraph`` the ``degrees`` column)."""
        csr = self._csr
        return len(self.distinct(node)) if csr is None else csr.degree(node)

    def _plays(self, node: NodeId, mask: int, every: bool = False) -> int:
        """The roles of ``node`` among the query nodes of ``mask`` (all asking
        for its label): all of them, or just the first one found.  No
        ``(node, query node)`` reaches the guard twice in one search."""
        roles, tried = self.roles.get(node, 0), self._tried.get(node, 0)
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
            self.roles[node], self._tried[node] = roles, tried
        return roles & mask

    def eligible(self, node: NodeId, query_node: QueryNodeId) -> List[NodeId]:
        """Distinct neighbours of ``node`` satisfying ``C(·, query_node)``, in scan order."""
        key = (node, query_node)
        eligible = self._eligible.get(key)
        if eligible is None:
            self.row(node)
            bit, arrays = self.bits[query_node], self._arrays.get(node)
            if arrays is None:
                plays = self._plays
                eligible = [
                    neighbor
                    for neighbor, askers in self.distinct(node).items()
                    if askers & bit and plays(neighbor, bit)
                ]
            else:
                eligible = self._eligible_rows(arrays, query_node, bit)
            self._eligible[key] = eligible
        return eligible

    def _eligible_rows(self, arrays, query_node: QueryNodeId, bit: int) -> List[NodeId]:
        """:meth:`eligible` of a wide row in row space: the entries whose label
        ``query_node`` asks for, one ``check_rows`` call for those not tried."""
        indices, askers = arrays
        asked = indices[(askers & bit) != 0]
        first = dict(zip(self._csr.ids_of(asked), asked.tolist()))  # distinct, in scan order
        roles, tried = self.roles, self._tried
        fresh = [neighbor for neighbor in first if not tried.get(neighbor, 0) & bit]
        if fresh:
            rows = np.fromiter(map(first.__getitem__, fresh), dtype=np.int64, count=len(fresh))
            for neighbor, passed in zip(fresh, self._check_rows(rows, query_node).tolist()):
                tried[neighbor] = tried.get(neighbor, 0) | bit
                if passed:
                    roles[neighbor] = roles.get(neighbor, 0) | bit
        return [neighbor for neighbor in first if roles.get(neighbor, 0) & bit]

    def labelled(self, node: NodeId, query_node: QueryNodeId) -> List[NodeId]:
        """Distinct neighbours of ``node`` whose label ``query_node`` asks for
        (the guardless ablation's eligibility), in scan order."""
        bit = self.bits[query_node]
        return [neighbor for neighbor, askers in self.distinct(node).items() if askers & bit]

    def _usable_entries(self, node: NodeId, query_node: QueryNodeId) -> List[NodeId]:
        """Entries among the first ``max_scan`` of the row of ``node`` (duplicates
        kept) that could serve some query neighbour of ``query_node``."""
        key = (node, query_node)
        usable = self._usable.get(key)
        if usable is None:
            scan, asking, _ = self._rows.get(node) or self._load(node, self.max_scan)
            needed, plays = self._needed[query_node], self._plays
            known, tried = self.roles.get, self._tried.get
            usable = self._usable[key] = [
                neighbor
                for neighbor, askers in islice(zip(scan, asking), self.max_scan)
                if askers & needed
                and (
                    known(neighbor, 0) & needed
                    or askers & needed & ~tried(neighbor, 0)
                    and plays(neighbor, askers & needed)
                )
            ]
        return usable

    # ------------------------------------------------------------------ #
    # What moves with G_Q
    # ------------------------------------------------------------------ #
    def admit(self, node: NodeId) -> Tuple[object, int, List[NodeId], List[NodeId]]:
        """``node`` joins ``G_Q``: tell its neighbours what it can play.

        Returns its label, its roles (every query node it satisfies ``C``
        for, as bits, which ``roles`` keeps from now on), its children and
        its parents.  Each entry of the row of ``node`` is an entry for
        ``node`` in that neighbour's row (a child here is a parent there), so
        after the push ``hits[v]`` is how many entries of the row of ``v``
        are members of ``G_Q`` and ``covered[v]`` what they can play.
        """
        self.in_gq.add(node)
        scan = self.row(node)
        csr = self._csr
        if csr is None:
            label = key = self._graph.label(node)
        else:
            label = csr.label_at(csr.index_of(node))
            key = csr.label_id(label)
        roles = self._plays(node, self._askers.get(key, 0), every=True)
        self.touched.append(scan)
        if len(scan) > self.max_scan:
            self._wide.append((roles, Counter(scan)))  # no O(deg) loop per hub
        else:
            covered = self._covered
            for neighbor in scan:
                covered[neighbor] = covered.get(neighbor, 0) | roles
            self._hits.update(scan)
        split = self._graph.out_degree(node)
        return label, roles, scan[:split], scan[split:]

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
            covered, found, in_gq, roles_of = 0, 0, self.in_gq, self.roles
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

    def weights(self, candidates: List[NodeId], query_node: QueryNodeId) -> List[float]:
        """The weight of each of ``candidates`` for ``query_node``.

        Only a member joining around ``v`` moves its weight: it raises
        ``hits[v]``, or it is a wide member with ``v`` in its row.  A weight is
        kept with the ``hits[v]`` it was computed at, a wide member joining
        marks the kept weights of its row's entries stale, and only a stale
        weight is computed again: a call with none reads two dicts.
        """
        kept_hits, kept = self._kept[query_node]
        wide, seen = self._wide, self._wide_seen.get(query_node, 0)
        if seen != len(wide):
            for _, entries in wide[seen:]:
                for stale in kept_hits.keys() & entries.keys():
                    kept_hits[stale] = -1
            self._wide_seen[query_node] = len(wide)
        hits = list(map(self._hits.get, candidates, repeat(0)))
        then = list(map(kept_hits.get, candidates))
        if then != hits:
            weight = self.weight
            for candidate, now, before in zip(candidates, hits, then):
                if now != before:
                    kept[candidate], kept_hits[candidate] = weight(candidate, query_node), now
        return list(map(kept.__getitem__, candidates))

    def rank(self, candidates: List[NodeId], query_node: QueryNodeId, bound: int) -> List[NodeId]:
        """The ``bound`` best ``candidates`` by weight, best first; the sort is
        stable, so ties keep their order."""
        weights = self.weights(candidates, query_node)
        ranked = sorted(range(len(candidates)), key=weights.__getitem__, reverse=True)
        return list(map(candidates.__getitem__, ranked[:bound]))


class Remainder:
    """The candidates a cut ``Pick`` has not given yet, best first.

    ``eligible`` is the ``Pick``'s eligible list in scan order; the order is
    weight, highest first, then scan position, which is what a stable sort
    of the ungiven candidates gives.  The heap holds ``(-weight, position)``
    entries, one current per candidate (``keys``) and superseded ones left
    to be skipped when popped.  Before giving, it re-weighs only the
    candidates in the rows of members admitted since it last gave (all of
    them when those rows are longer than what is left), and pushes a new
    entry for each weight that moved.  Unweighted (the FIFO ablation), the
    order is the scan order.
    """

    __slots__ = ("_state", "_query_node", "_eligible", "_positions", "_heap", "_keys", "_seen")

    def __init__(
        self, state: WeightEstimator, eligible: List[NodeId], query_node: QueryNodeId, weighted: bool
    ) -> None:
        self._state, self._query_node, self._eligible = state, query_node, eligible
        weights = map(float.__neg__, state.weights(eligible, query_node)) if weighted else [0.0] * len(eligible)
        self._keys: Dict[int, float] = dict(enumerate(weights))
        self._heap = [(key, position) for position, key in self._keys.items()]
        heapify(self._heap)
        self._positions: Optional[Dict[NodeId, int]] = None  # candidate -> position, on first use
        # How much of ``state.touched`` the weights have seen (``None``: never moves).
        self._seen = len(state.touched) if weighted else None

    def __len__(self) -> int:
        """How many eligible candidates are still to be given."""
        return len(self._keys)

    def __iter__(self) -> Iterator[NodeId]:
        """The eligible candidates still to be given, in scan order."""
        return map(self._eligible.__getitem__, sorted(self._keys))

    @property
    def given(self) -> int:
        """How many candidates this ``Pick`` has given so far."""
        return len(self._eligible) - len(self._keys)

    def take(self, count: int, waiting: Collection[NodeId] = ()) -> List[NodeId]:
        """Give the ``count`` best candidates not ``waiting``, best first."""
        self._refresh()
        heap, keys, eligible = self._heap, self._keys, self._eligible
        taken: List[NodeId] = []
        passed = []
        while heap and len(taken) < count:
            entry = heappop(heap)
            key, position = entry
            if keys.get(position) != key:
                continue  # superseded, or given
            candidate = eligible[position]
            if candidate in waiting:
                passed.append(entry)
                continue
            del keys[position]
            taken.append(candidate)
        for entry in passed:
            heappush(heap, entry)
        return taken

    def _refresh(self) -> None:
        """Re-weigh the candidates whose weight may have moved since the last call."""
        touched, seen, keys = self._state.touched, self._seen, self._keys
        if seen is None or seen == len(touched):
            return
        self._seen = len(touched)
        rows = touched[seen:]
        if sum(map(len, rows)) < len(keys):
            positions = self._positions
            if positions is None:
                positions = self._positions = {c: p for p, c in enumerate(self._eligible)}
            moved = [p for p in map(positions.get, set(chain.from_iterable(rows))) if p in keys]
        else:
            moved = list(keys)
        if not moved:
            return
        eligible, heap = self._eligible, self._heap
        weights = self._state.weights([eligible[p] for p in moved], self._query_node)
        for p, weight in zip(moved, weights):
            if keys[p] != -weight:
                keys[p] = -weight
                heappush(heap, (-weight, p))
