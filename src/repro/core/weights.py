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
:class:`WeightEstimator`, the flat state of one search, therefore reads each
data node's row once, into one record (:class:`_Row`) that describing the
node, the guard's test of the node itself and the ``G_Q`` edges of its
admission all read, asks the guard only what a known role or an earlier
try does not settle (through :meth:`GuardedCondition.check_asked`, which
skips the label test the askers bit already made), and updates
``c(v, u)`` the way the paper says,
"dynamically": a node joining ``G_Q`` pushes what it can play to its
neighbours, and nothing is recomputed from scratch per candidate; a weight is
recomputed only when a member joined around its node.  A cut ``Pick`` keeps
its ungiven candidates as a :class:`Remainder`, a heap that re-weighs only
the candidates in the rows of members admitted since it last gave.  Weights
are asked only where ``alpha`` binds: ``Search`` first makes one unweighted
pass, which reads rows and ``C`` and nothing that moves with ``G_Q``.

The guards and the state read one substrate, the ``CSRGraph`` the matcher
froze on entry, in row space: a row is two index slices, its askers are one
gather through a label id -> askers table, and a row wider than
``max_scan`` has ``C(·, u)`` decided for all of its untried entries by one
:meth:`GuardedCondition.check_rows` call, vectorised over label ids,
degrees and the ``label_presence`` words; the isomorphism guard's
distinct-assignment test is there a set of threshold counts
(:func:`_thresholds`), one ``bincount`` per (side, label, threshold) for all
the rows at once.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
from itertools import chain, compress, islice, repeat
from typing import Collection, Dict, FrozenSet, Iterator, List, Optional, Protocol, Set, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.digraph import NodeId
from repro.graph.neighborhood import NeighborhoodIndex
from repro.patterns.pattern import GraphPattern, QueryNodeId


_NO_ROWS = np.zeros(0, dtype=np.int64)


def _label_keys(graph: CSRGraph, pattern: GraphPattern) -> Dict[QueryNodeId, Optional[int]]:
    """The label-table row of the label each query node asks for (``None``
    when no node carries it)."""
    label_id = graph.label_id
    return {u: label_id(label) for u, label in pattern.labels.items()}


class GuardedCondition(Protocol):
    """Interface shared by the simulation and isomorphism guards."""

    def check_asked(self, node: NodeId, query_node: QueryNodeId, row: Optional["_Row"] = None) -> bool:
        """Whether ``node``, whose label ``query_node`` asks for, may still
        match ``query_node`` (a necessary condition; ``up`` keeps its
        identity test); ``row`` is the node's whole row when the caller has
        loaded it."""
        ...  # pragma: no cover - protocol definition

    def check_rows(self, rows: np.ndarray, query_node: QueryNodeId) -> np.ndarray:
        """``C(·, query_node)`` of the node at each of ``rows``, the label
        test included, as one boolean array."""
        ...  # pragma: no cover - protocol definition


class _BaseGuard:
    """Common state for guarded conditions: graph, pattern, summaries, pinning.

    Guarded conditions depend only on the data graph and the pattern (never on
    the evolving ``G_Q``).  :meth:`check_asked` is the entry of the search
    state, which asks each pair once per search and only of a node whose
    label the query node asks for: it skips the label test and memoises
    nothing.  :meth:`check_rows` is the same condition over an array of
    rows, read from the columns in one vectorised pass; it memoises nothing
    either (the search state records what it returns).  What a query node
    asks of a neighbourhood is compiled on its first test.
    """

    def __init__(
        self,
        pattern: GraphPattern,
        graph: CSRGraph,
        personalized_match: NodeId,
        index: NeighborhoodIndex,
    ) -> None:
        self._pattern = pattern
        self._personalized = pattern.personalized
        self._graph = graph
        self._vp = personalized_match
        self._index = index
        self._vp_sides: Dict[bool, FrozenSet[NodeId]] = {}
        self._vp_sorted: Dict[bool, np.ndarray] = {}
        self._vp_row: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # What each query node asks of its neighbourhood, compiled on first use.
        self._needs: Dict[object, tuple] = {}
        # The label key each query node asks for (``up`` is pinned to ``vp``).
        self._label_keys = _label_keys(graph, pattern)

    def check_asked(self, node: NodeId, query_node: QueryNodeId, row: Optional["_Row"] = None) -> bool:
        """``C(node, query_node)`` for a node whose label ``query_node`` asks
        for, so only ``up`` is tested for it (by identity).  ``row`` is the
        whole row of ``node`` as the search state loaded it, which the guard
        then reads instead of the graph."""
        if query_node == self._personalized and node != self._vp:
            return False
        return self._condition(node, query_node, row)

    def _condition(self, node: NodeId, query_node: QueryNodeId, row: Optional["_Row"]) -> bool:
        raise NotImplementedError

    def _vp_rows(self, children: bool) -> np.ndarray:
        """The rows of the children (resp. parents) of ``vp`` (``vp``'s row is
        read once per guard)."""
        if self._vp_row is None:
            graph, vp = self._graph, self._vp
            self._vp_row = graph.neighbor_sides(graph.index_of(vp)) if vp in graph else (_NO_ROWS, _NO_ROWS)
        return self._vp_row[0 if children else 1]

    def _vp_side(self, children: bool) -> FrozenSet[NodeId]:
        """The children (resp. parents) of ``vp``, as a set built on first use."""
        side = self._vp_sides.get(children)
        if side is None:
            side = self._vp_sides[children] = frozenset(self._graph.ids_of(self._vp_rows(children)))
        return side

    # Row space ------------------------------------------------------------ #
    def _label_rows(self, rows: np.ndarray, query_node: QueryNodeId) -> np.ndarray:
        """The label test of each of ``rows`` (``up`` is matched by identity)."""
        graph, vp = self._graph, self._vp
        if query_node == self._personalized:
            return rows == (graph.index_of(vp) if vp in graph else -1)
        key = self._label_keys[query_node]
        if key is None:
            return np.zeros(rows.shape[0], dtype=bool)
        return graph.label_ids_of(rows) == key

    def _vp_side_rows(self, rows: np.ndarray, children: bool) -> np.ndarray:
        """Which of ``rows`` are children (resp. parents) of ``vp``: a binary
        search in that side, sorted once per guard."""
        side = self._vp_sorted.get(children)
        if side is None:
            side = self._vp_sorted[children] = np.sort(self._vp_rows(children))
        if not side.shape[0]:
            return np.zeros(rows.shape[0], dtype=bool)
        return side[np.minimum(np.searchsorted(side, rows), side.shape[0] - 1)] == rows


class SimulationGuard(_BaseGuard):
    """The guarded condition of RBSim (Section 4.1, item (1)).

    ``C(v, u)`` holds iff ``fv(u) = L(v)`` and for each parent (resp. child)
    ``u'`` of ``u`` in ``Q`` there exists a parent (resp. child) of ``v``
    labelled ``fv(u')``.  Neighbour labels come from the offline ``Sl``
    summaries, so the test never re-scans the graph.
    """

    def _compile(self, query_node: QueryNodeId) -> tuple:
        """The labels the non-personalized parents and children of
        ``query_node`` require, and whether ``vp`` itself must be a parent or
        a child."""
        pattern, index, personalized = self._pattern, self._index, self._personalized
        parents, children = pattern.parents(query_node), pattern.children(query_node)
        needs = self._needs[query_node] = (
            index.requirement(pattern.label_of(u) for u in parents if u != personalized),
            index.requirement(pattern.label_of(u) for u in children if u != personalized),
            personalized in parents,
            personalized in children,
        )
        return needs

    def _condition(self, node: NodeId, query_node: QueryNodeId, row: Optional["_Row"]) -> bool:
        """``C(node, query_node)`` past the label test."""
        parent_labels, child_labels, vp_parent, vp_child = self._needs.get(query_node) or self._compile(query_node)
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
        parent_labels, child_labels, vp_parent, vp_child = self._needs.get(query_node) or self._compile(query_node)
        if vp_parent:
            passed &= self._vp_side_rows(rows, children=True)
        if vp_child:
            passed &= self._vp_side_rows(rows, children=False)
        passed &= self._index.rows_have_labels(rows, parent_labels, children=False)
        passed &= self._index.rows_have_labels(rows, child_labels, children=True)
        return passed


#: Per label key, the ``(count, degree)`` thresholds of one side: at least
#: ``count`` neighbours on that side carry the key and have ``d(·) >= degree``.
Thresholds = Dict[object, Tuple[Tuple[int, int], ...]]


def _thresholds(degrees_needed: List[int]) -> Tuple[Tuple[int, int], ...]:
    """The distinct-assignment test for one label as threshold counts.

    With the needs sorted ``n_1 >= n_2 >= ...``, distinct neighbours of that
    label can cover them iff, for every ``j``, at least ``j`` of them have a
    degree ``>= n_j`` (the greedy assignment, largest first, needs nothing
    more); within a run of equal needs the last ``j`` implies the others.
    """
    needs = sorted(degrees_needed, reverse=True)
    return tuple(
        (count, need)
        for count, need in enumerate(needs, start=1)
        if count == len(needs) or needs[count] != need
    )


class IsomorphismGuard(_BaseGuard):
    """The revised guarded condition of RBSub (Section 4.2).

    ``C(v, u)`` holds iff for every query neighbour ``u'`` of ``u`` (with
    degree ``d_{u'}``) there is a *distinct* data neighbour of ``v`` on the
    correct side with the same label and degree at least ``d_{u'}``.
    Distinctness is decided per (direction, label) group as threshold counts
    (:func:`_thresholds`): one per node from its row's label and degree
    columns, one ``bincount`` per (side, label, threshold) for a whole array
    of rows.
    """

    def _condition(self, node: NodeId, query_node: QueryNodeId, row: Optional["_Row"]) -> bool:
        """``C(node, query_node)`` past the label test: degree dominance,
        ``vp``'s sides, then the thresholds on one read of the row."""
        children, parents = self._needs.get(query_node) or self._compile(query_node)
        graph = self._graph
        if row is not None:
            split, in_degree = row.split, len(row.scan) - row.split
        else:
            split, in_degree = graph.out_degree(node), graph.in_degree(node)
        # Degree dominance first: it reads no neighbour.
        if split < children[0] or in_degree < parents[0]:
            return False
        # The personalized neighbour must literally be vp.
        if children[1] and node not in self._vp_side(children=False):
            return False
        if parents[1] and node not in self._vp_side(children=True):
            return False
        if not (children[2] or parents[2]):
            return True
        entries = graph.neighbor_indices(graph.index_of(node)) if row is None else row.entries
        labels, degrees = graph.label_ids_of(entries).tolist(), graph.degrees()[entries].tolist()
        return _satisfiable(labels[:split], degrees[:split], children[2]) and _satisfiable(
            labels[split:], degrees[split:], parents[2]
        )

    def check_rows(self, rows: np.ndarray, query_node: QueryNodeId) -> np.ndarray:
        """``C(·, query_node)`` of each of ``rows``: label ids, degree dominance
        and ``vp``'s sides vectorised, then the distinct-assignment test of
        every survivor at once, as threshold counts over one gather of their
        rows."""
        children, parents = self._needs.get(query_node) or self._compile(query_node)
        graph = self._graph
        out_degrees, in_degrees = graph.side_degrees(rows)
        passed = self._label_rows(rows, query_node)
        passed &= (out_degrees >= children[0]) & (in_degrees >= parents[0])
        if children[1]:
            passed &= self._vp_side_rows(rows, children=False)
        if parents[1]:
            passed &= self._vp_side_rows(rows, children=True)
        survivors = np.flatnonzero(passed)
        if not survivors.shape[0] or not (children[2] or parents[2]):
            return passed
        # One gather per side asked about, each entry beside its survivor.
        kept, surviving = np.ones(survivors.shape[0], dtype=bool), rows[survivors]
        for on_children, thresholds in ((True, children[2]), (False, parents[2])):
            if not thresholds:
                continue
            if None in thresholds:  # a label no node carries
                kept[:] = False
                break
            entries, owner = graph.side_entries(surviving, on_children)
            labels, degrees = graph.label_ids_of(entries), graph.degrees()[entries]
            for key, pairs in thresholds.items():
                carrying = labels == key
                for needed, degree in pairs:
                    kept &= np.bincount(owner[carrying & (degrees >= degree)], minlength=kept.shape[0]) >= needed
        passed[survivors] = kept
        return passed

    def _compile(self, query_node: QueryNodeId):
        """What ``query_node`` asks of the children and of the parents of a data
        node, compiled once: how many there must be, whether ``vp`` must be one,
        and per label key the thresholds its query neighbours set."""
        pattern, personalized = self._pattern, self._personalized
        sides = []
        for query_neighbors in (pattern.children(query_node), pattern.parents(query_node)):
            requirements: Dict[object, List[int]] = {}
            for neighbor_query in query_neighbors:
                if neighbor_query != personalized:
                    requirements.setdefault(self._label_keys[neighbor_query], []).append(
                        pattern.degree(neighbor_query)
                    )
            thresholds = {key: _thresholds(needed) for key, needed in requirements.items()}
            sides.append((len(query_neighbors), personalized in query_neighbors, thresholds))
        needs = self._needs[query_node] = tuple(sides)
        return needs


def _satisfiable(labels: List[object], degrees: List[int], thresholds: Thresholds) -> bool:
    """The distinct-assignment test for one side: per label key, enough
    neighbours carrying it reach each of its thresholds."""
    for label, pairs in thresholds.items():
        have = [degree for degree, found in zip(degrees, labels) if found == label]
        for needed, degree in pairs:
            if len(have) < needed or sum(1 for own in have if own >= degree) < needed:
                return False
    return True


class _Row:
    """A data node's row as one search loaded it: the ids of its entries
    (children then parents, a node on both sides twice), whether that is the
    whole row, how many of the entries are children, its own row and the
    entries' rows, and beside each entry the query nodes asking for its
    label (:meth:`WeightEstimator._asking`, on first use: a row read only
    to admit its node never needs them).  :meth:`WeightEstimator.describe`,
    the guard's test of the node itself and
    :meth:`SubgraphBuilder.add_row_edges` all read this one record."""

    __slots__ = ("scan", "whole", "split", "index", "sides", "_entries", "askers")

    def __init__(
        self,
        scan: List[NodeId],
        whole: bool,
        split: int,
        index: int,
        sides: Tuple[np.ndarray, np.ndarray],
    ) -> None:
        self.scan = scan
        self.whole = whole
        self.split = split
        self.index = index  # the node's own row
        self.sides = sides  # and the rows of its children and of its parents
        self._entries: Optional[np.ndarray] = None
        self.askers: Optional[List[int]] = None

    @property
    def entries(self) -> np.ndarray:
        """The rows of the entries, children then parents (joined on first use)."""
        if self._entries is None:
            self._entries = np.concatenate(self.sides)
        return self._entries


class WeightEstimator:
    """The flat state of one ``Search``: rows, role bits, ``c(v, u)`` and ``p(v, u)``.

    * **Role bits.**  Query nodes are bit positions: the query neighbours of
      ``u``, the query nodes asking for a label, and the *roles* of a data
      node (the query nodes it satisfies ``C`` for) are ints.
    * **Rows.**  What ``G`` says about a data node is loaded once, as a
      :class:`_Row`: its scan list (children then parents, a node on both
      sides twice) and, beside it, which query nodes ask for the label of
      each entry (one gather through a label id -> askers table).  A
      candidate that is only *ranked* loads its first ``max_scan``
      entries, all that ``p(v, u)`` reads; the whole row is
      loaded when the node is expanded or joins ``G_Q``.  Who can play what
      is decided on the row in list space: a known role or an already tried
      query node settles an entry, and only an entry whose label is asked
      for and not yet tried reaches the guard, through
      ``guard.check_asked`` (the askers bit vouches for the label), once per
      search and query node.
    * **Wide rows.**  A row with more than ``max_scan`` entries gets
      ``C(·, u)`` for all of its untried entries in one
      ``guard.check_rows`` call, whose results go into the same roles.
    * **Incremental cost.**  :meth:`admit` pushes the roles of the node
      joining ``G_Q`` to the entries of its row, so ``c(v, u)`` is a popcount:
      one node joining changes the cost of its neighbours and of nobody
      else.  A member with more than ``max_scan`` entries is not pushed but
      probed from its side, and the order-dependent capped scan is left for
      a ``v`` with more than ``max_scan`` members around it.  A weight is
      kept until a member joins around its node: ``hits[v]`` moves, or a
      wide member has ``v`` in its row.
    * **One search, two traversals.**  ``Search``'s unweighted pass reads
      only what depends on ``G`` and ``Q`` (:meth:`describe`, never
      :meth:`admit`), so when it is abandoned the weighted search that
      restarts finds ``in_gq`` and every count that moves with ``G_Q``
      empty, and the rows, roles and eligible lists the pass loaded.  The
      kept weights of a query node are made on its first ranking.
    """

    def __init__(
        self,
        pattern: GraphPattern,
        graph: CSRGraph,
        personalized_match: NodeId,
        guard: GuardedCondition,
        max_scan: int = 64,
    ) -> None:
        self._graph = graph
        self._check = guard.check_asked
        self._check_rows = guard.check_rows
        # Cap on how many neighbours are inspected per estimate.  The paper
        # notes the potential "can be extended by making use of sampling";
        # the cap bounds what one estimate reads without changing which
        # nodes are eligible (the guarded condition is still exact).
        self.max_scan = max(1, max_scan)
        self.in_gq: Set[NodeId] = set()
        query_nodes = self._query_nodes = tuple(pattern.nodes())
        bits = self.bits = {u: 1 << position for position, u in enumerate(query_nodes)}
        # Per query node: the bits of its query neighbours.
        needed = self._needed = dict.fromkeys(query_nodes, 0)
        for source, target in pattern.edges:
            needed[source] |= bits[target]
            needed[target] |= bits[source]
        # Label id -> the query nodes asking for it, so a row's askers are
        # one gather (``up`` is matched by identity, so it asks for the
        # label ``vp`` has).
        askers = self._askers_table = np.zeros(
            graph.num_labels(), dtype=np.int64 if len(bits) < 64 else object
        )
        keys = _label_keys(graph, pattern)
        for u, bit in bits.items():
            if u != pattern.personalized:
                key = keys[u]
            elif personalized_match not in graph:
                continue
            else:
                key = graph.label_entry(graph.index_of(personalized_match))[1]
            if key is not None:
                askers[key] |= bit
        self._rows: Dict[NodeId, _Row] = {}
        self._distinct: Dict[NodeId, Dict[NodeId, int]] = {}
        # Per data node: its roles as far as known (all of them for a member
        # of G_Q), and the query nodes tried.
        self.roles: Dict[NodeId, int] = {}
        self._tried: Dict[NodeId, int] = {}
        self._eligible: Dict[Tuple[NodeId, QueryNodeId], List[NodeId]] = {}
        self._usable: Dict[Tuple[NodeId, QueryNodeId], List[NodeId]] = {}
        # Per query node u (made on its first ranking): hits[v] when the
        # weight of (v, u) was computed (-1: stale) and that weight; and how
        # many wide members were applied to them.
        self._kept: Dict[QueryNodeId, Tuple[Dict[NodeId, int], Dict[NodeId, float]]] = {}
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
    def _load(self, node: NodeId, limit: Optional[int]) -> _Row:
        """The first ``limit`` entries of the row of ``node`` (all when ``None``):
        two index slices (their askers are gathered on first use)."""
        index = self._graph.index_of(node)
        scan, sides = self._graph.neighbor_ids(index, limit)
        split = sides[0].shape[0]
        row = self._rows[node] = _Row(scan, limit is None or len(scan) < limit, split, index, sides)
        return row

    def _asking(self, row: _Row) -> List[int]:
        """The query nodes asking for the label of each entry of ``row``: one
        gather through the label id -> askers table."""
        askers = row.askers
        if askers is None:
            askers = row.askers = self._askers_table[self._graph.label_ids_of(row.entries)].tolist()
        return askers

    def _whole(self, node: NodeId) -> _Row:
        """The whole row of ``node``, loaded on first use."""
        row = self._rows.get(node)
        if row is None or not row.whole:
            row = self._load(node, None)
        return row

    def row(self, node: NodeId) -> List[NodeId]:
        """The whole scan list of ``node``."""
        return self._whole(node).scan

    def distinct(self, node: NodeId) -> Dict[NodeId, int]:
        """The neighbours of ``node`` in scan order, first occurrences only (what
        ``Pick`` walks), each with the query nodes asking for its label."""
        distinct = self._distinct.get(node)
        if distinct is None:
            row = self._whole(node)
            distinct = self._distinct[node] = dict(zip(row.scan, self._asking(row)))
        return distinct

    def width(self, node: NodeId) -> int:
        """``|N(v)|``, what the first ``Pick`` at ``node`` is charged (the
        ``degrees`` column)."""
        return self._graph.degree(node)

    def _plays(self, node: NodeId, mask: int, every: bool = False) -> int:
        """The roles of ``node`` among the query nodes of ``mask`` (all asking
        for its label): all of them, or just the first one found.  No
        ``(node, query node)`` reaches the guard twice in one search, and a
        whole row already loaded is handed to it."""
        roles, tried = self.roles.get(node, 0), self._tried.get(node, 0)
        untried = mask & ~tried
        if untried and (every or not roles & mask):
            check, query_nodes = self._check, self._query_nodes
            row = self._rows.get(node)
            if row is not None and not row.whole:
                row = None
            while untried:
                low = untried & -untried
                untried ^= low
                tried |= low
                if check(node, query_nodes[low.bit_length() - 1], row):
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
            row, bit = self._whole(node), self.bits[query_node]
            if len(row.scan) > self.max_scan:
                eligible = self._eligible_rows(row, query_node, bit)
            else:
                # The asked entries, first occurrences only; a known role or a
                # tried query node settles one before the guard is asked.
                asked = dict.fromkeys(compress(row.scan, map(bit.__and__, self._asking(row))))
                roles, tried, rows, check = self.roles, self._tried, self._rows, self._check
                eligible = []
                for neighbor in asked:
                    played = roles.get(neighbor, 0)
                    if not played & bit:
                        seen = tried.get(neighbor, 0)
                        if seen & bit:
                            continue
                        tried[neighbor] = seen | bit  # ``_plays`` for one query node, inline
                        loaded = rows.get(neighbor)
                        if not check(neighbor, query_node, loaded if loaded is not None and loaded.whole else None):
                            continue
                        roles[neighbor] = played | bit
                    eligible.append(neighbor)
            self._eligible[key] = eligible
        return eligible

    def _eligible_rows(self, row: _Row, query_node: QueryNodeId, bit: int) -> List[NodeId]:
        """:meth:`eligible` of a wide row in row space: the entries whose label
        ``query_node`` asks for, first occurrences only, and one
        ``check_rows`` call for those not tried.  A node never tried has no
        role yet, so those (most of a wide row) are recorded by dict
        operations, not one by one."""
        graph = self._graph
        asked = row.entries[(self._askers_table[graph.label_ids_of(row.entries)] & bit) != 0]
        at = dict(zip(graph.ids_of(asked), asked.tolist()))  # distinct, in scan order
        roles, tried = self.roles, self._tried
        known = tried.keys() & at.keys()
        fresh = list(at) if not known else [neighbor for neighbor in at if neighbor not in known]
        retried = [neighbor for neighbor in known if not tried[neighbor] & bit]
        eligible = {neighbor for neighbor in known if roles.get(neighbor, 0) & bit}
        untried = fresh + retried
        if untried:
            rows = np.fromiter(map(at.__getitem__, untried), dtype=np.int64, count=len(untried))
            passed = self._check_rows(rows, query_node).tolist()
            tried.update(dict.fromkeys(fresh, bit))
            found = list(compress(fresh, passed))
            roles.update(dict.fromkeys(found, bit))
            if not known:  # every entry was fresh: the ones that passed, in scan order
                return found
            for neighbor, passing in zip(retried, passed[len(fresh) :]):
                tried[neighbor] |= bit
                if passing:
                    roles[neighbor] = roles.get(neighbor, 0) | bit
            eligible.update(compress(untried, passed))
        return list(filter(eligible.__contains__, at))

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
            row = self._rows.get(node) or self._load(node, self.max_scan)
            needed, plays = self._needed[query_node], self._plays
            known, tried = self.roles.get, self._tried.get
            usable = self._usable[key] = [
                neighbor
                for neighbor, askers in islice(zip(row.scan, self._asking(row)), self.max_scan)
                if askers & needed
                and (
                    known(neighbor, 0) & needed
                    or askers & needed & ~tried(neighbor, 0)
                    and plays(neighbor, askers & needed)
                )
            ]
        return usable

    def describe(self, node: NodeId) -> Tuple[object, int, List[NodeId], List[NodeId]]:
        """What ``node`` brings to ``G_Q``: its label, its roles (every query
        node it satisfies ``C`` for, as bits, which ``roles`` keeps from now
        on), its children and its parents, all read off its one row.  It
        reads ``G`` and ``Q`` alone: the unweighted pass of ``Search`` admits
        a node with this, and no weight is asked of it."""
        row = self._rows.get(node)
        if row is None or not row.whole:
            row = self._load(node, None)
        label, key = self._graph.label_entry(row.index)
        roles = self._plays(node, self._askers_table.item(key), every=True)
        scan, split = row.scan, row.split
        return label, roles, scan[:split], scan[split:]

    # ------------------------------------------------------------------ #
    # What moves with G_Q
    # ------------------------------------------------------------------ #
    def admit(self, node: NodeId) -> Tuple[object, int, List[NodeId], List[NodeId]]:
        """``node`` joins ``G_Q``: :meth:`describe` it and tell its neighbours
        what it can play.

        Each entry of the row of ``node`` is an entry for ``node`` in that
        neighbour's row (a child here is a parent there), so after the push
        ``hits[v]`` is how many entries of the row of ``v`` are members of
        ``G_Q`` and ``covered[v]`` what they can play.
        """
        self.in_gq.add(node)
        described = self.describe(node)
        roles, scan = described[1], self._rows[node].scan
        self.touched.append(scan)
        if len(scan) > self.max_scan:
            self._wide.append((roles, Counter(scan)))  # no O(deg) loop per hub
        else:
            covered = self._covered
            for neighbor in scan:
                covered[neighbor] = covered.get(neighbor, 0) | roles
            self._hits.update(scan)
        return described

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
        kept_hits, kept = self._kept.get(query_node) or self._kept.setdefault(query_node, ({}, {}))
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
