"""Subgraph extraction helpers.

The paper distinguishes two subgraph notions (Section 2):

* a *subgraph* ``Gs`` of ``G``: any node/edge subset closed under endpoints,
  with labels restricted from ``G``;
* the *subgraph induced by* a node set ``Vs``: contains *all* edges of ``G``
  between nodes of ``Vs``.

Both are provided here, together with an incremental :class:`SubgraphBuilder`
used by the dynamic-reduction algorithms to grow ``G_Q`` one node/edge at a
time while keeping its size observable in O(1).  ``G_Q`` is a subgraph in the
first sense, not the induced one: :meth:`SubgraphBuilder.add_row_edges` joins
an admitted node only to the members a query edge can map an edge to, by the
query nodes each end can play, so ``alpha * |G|`` is not spent on edges no
match reads; :meth:`SubgraphBuilder.retain_edges` drops, when ``G_Q`` is full,
the edges the current answer does not need.
"""

from __future__ import annotations

from typing import Container, Iterable, Mapping, Sequence, Set, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graph.digraph import DiGraph, Edge, Label, NodeId
from repro.graph.protocol import GraphLike

_FROM_HOST = object()


def induced_subgraph(graph: GraphLike, nodes: Iterable[NodeId]) -> DiGraph:
    """Return the subgraph of ``graph`` induced by ``nodes``.

    Every edge of ``graph`` whose endpoints are both in ``nodes`` is kept.
    Unknown nodes raise :class:`NodeNotFoundError`.
    """
    node_set = set(nodes)
    result = DiGraph()
    for node in node_set:
        if node not in graph:
            raise NodeNotFoundError(node)
        result.add_node(node, graph.label(node))
    for node in node_set:
        for target in graph.successors(node):
            if target in node_set:
                result.add_edge(node, target)
    return result


def edge_subgraph(graph: GraphLike, edges: Iterable[Tuple[NodeId, NodeId]]) -> DiGraph:
    """Return the subgraph containing exactly ``edges`` and their endpoints."""
    result = DiGraph()
    for source, target in edges:
        if source not in graph:
            raise NodeNotFoundError(source)
        if target not in graph:
            raise NodeNotFoundError(target)
        if source not in result:
            result.add_node(source, graph.label(source))
        if target not in result:
            result.add_node(target, graph.label(target))
        result.add_edge(source, target)
    return result


def is_subgraph(candidate: GraphLike, graph: GraphLike) -> bool:
    """Whether ``candidate`` is a subgraph of ``graph`` (paper Section 2).

    Checks node containment, label agreement and edge containment.
    """
    for node in candidate.nodes():
        if node not in graph or candidate.label(node) != graph.label(node):
            return False
    return all(graph.has_edge(source, target) for source, target in candidate.edges())


class SubgraphBuilder:
    """Incrementally build a subgraph ``G_Q`` of a fixed host graph.

    The dynamic-reduction procedures of the paper add nodes and edges one at a
    time and constantly compare ``|G_Q|`` against the budget ``alpha * |G|``.
    This builder keeps that size up to date and exposes it via :meth:`size`.
    Labels are always copied from the host graph, so the result is a genuine
    subgraph in the paper's sense.
    """

    def __init__(self, host: GraphLike):
        self._host = host
        self._graph = DiGraph()
        self._members: Set[NodeId] = set()  # the nodes of ``_graph``, for C-level membership

    @property
    def host(self) -> GraphLike:
        """The graph this builder extracts from."""
        return self._host

    @property
    def partial(self) -> DiGraph:
        """The subgraph built so far, not a copy: read it, do not change it."""
        return self._graph

    @property
    def members(self) -> Set[NodeId]:
        """The nodes added so far, as a set (not a copy: read it, do not change it)."""
        return self._members

    def __contains__(self, node: NodeId) -> bool:
        return node in self._members

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        """Whether the partial subgraph already holds this edge."""
        return self._graph.has_edge(source, target)

    def add_node(self, node: NodeId, label: Label = _FROM_HOST) -> bool:
        """Add ``node`` (label copied from the host); return True if new.

        ``label`` is the host's label of ``node`` when the caller has read
        it from the host already (the host is then not asked again).
        """
        if node in self._members:
            return False
        if label is _FROM_HOST:
            if node not in self._host:
                raise NodeNotFoundError(node)
            label = self._host.label(node)
        self._graph.add_node(node, label)
        self._members.add(node)
        return True

    def add_edge(self, source: NodeId, target: NodeId) -> bool:
        """Add a host edge between two already-added nodes; return True if new.

        The edge must exist in the host graph — the builder never invents
        edges, which keeps ``G_Q`` a subgraph of ``G``.
        """
        if not self._host.has_edge(source, target):
            raise NodeNotFoundError((source, target))
        if source not in self._graph or target not in self._graph:
            raise NodeNotFoundError(source if source not in self._graph else target)
        return self._graph.add_edge(source, target)

    def add_row_edges(
        self,
        node: NodeId,
        children: Sequence[NodeId],
        parents: Sequence[NodeId],
        room: int,
        roles: Mapping[NodeId, int],
        child_roles: int,
        parent_roles: int,
    ) -> int:
        """Connect the newly added ``node`` to the subgraph from its own row,
        by the edges a match can read.

        ``children`` and ``parents`` are the row of ``node`` in the host, so an
        edge is a host edge exactly when its other end is in the row: no host
        probe is made.  ``roles`` maps a member to the query nodes it can play
        (bits; a member missing from it plays none).  ``node -> t`` goes in
        for every member ``t`` among the children that plays one of
        ``child_roles``, then ``s -> node`` for every member ``s`` among the
        parents that plays one of ``parent_roles``, until ``room`` edges were
        added; returns how many were.  The caller passes as ``child_roles``
        the query children of the roles of ``node`` (and as ``parent_roles``
        their query parents), so an edge goes in only when a query edge can
        map to it.

        A side no role can use is not read.  Whichever side is smaller, the row or
        the subgraph, is iterated, so hub nodes with thousands of neighbours
        do not dominate the cost.  A row more than twice the node count is
        intersected with a snapshot of the nodes (a side only when some
        member plays a role it can use), and the edges go in in that set's
        iteration order.
        """
        graph, members, plays = self._graph, self._members, roles.get
        if len(children) + len(parents) > 2 * len(members):
            # Built from the node iteration, not copied from ``members``: a
            # copy is presized and iterates in another order, so the edges
            # would go in in another order.
            snapshot = set(graph.nodes())
            targets = [m for m in snapshot if plays(m, 0) & child_roles] if child_roles else []
            if targets:
                children = set(children)
                targets = [m for m in targets if m in children]
            sources = [m for m in snapshot if plays(m, 0) & parent_roles] if parent_roles else []
            if sources:
                parents = set(parents)
                sources = [m for m in sources if m in parents]
        else:
            member = members.__contains__
            targets = [c for c in filter(member, children) if plays(c, 0) & child_roles] if child_roles else []
            sources = [p for p in filter(member, parents) if plays(p, 0) & parent_roles] if parent_roles else []
        added = 0
        for target in targets:
            if added == room:
                return added
            added += graph.add_edge(node, target)
        for source in sources:
            if added == room:
                break
            added += graph.add_edge(source, node)  # a self-loop is met on both sides
        return added

    def retain_edges(self, needed: Container[Edge]) -> int:
        """Drop every edge not in ``needed``; return how many were dropped.

        Every node stays, and the kept edges keep their order.  ``Search``
        calls this when ``G_Q`` is full, with the edges the matcher's answer
        on ``G_Q`` needs (``BoundedMatcher.witnesses``), so the count returned
        is the storage freed.
        """
        graph = self._graph
        dropped = [edge for edge in graph.edges() if edge not in needed]
        for source, target in dropped:
            graph.remove_edge(source, target)
        return len(dropped)

    def size(self) -> int:
        """Current |G_Q| = nodes + edges."""
        return self._graph.size()

    def num_nodes(self) -> int:
        """Current number of nodes in the partial subgraph."""
        return self._graph.num_nodes()

    def num_edges(self) -> int:
        """Current number of edges in the partial subgraph."""
        return self._graph.num_edges()

    def nodes(self) -> Set[NodeId]:
        """A snapshot of the nodes currently in the partial subgraph."""
        return set(self._graph.nodes())

    def build(self) -> DiGraph:
        """Return the constructed subgraph (a copy; the builder stays usable)."""
        return self._graph.copy()
