"""Subgraph extraction helpers.

The paper distinguishes two subgraph notions (Section 2):

* a *subgraph* ``Gs`` of ``G``: any node/edge subset closed under endpoints,
  with labels restricted from ``G``;
* the *subgraph induced by* a node set ``Vs``: contains *all* edges of ``G``
  between nodes of ``Vs``.

Both are provided here, together with an incremental :class:`SubgraphBuilder`
used by the dynamic-reduction algorithms to grow ``G_Q`` one node/edge at a
time while keeping its size observable in O(1).
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterable, Sequence, Set, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graph.digraph import DiGraph, Label, NodeId
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

    @property
    def host(self) -> GraphLike:
        """The graph this builder extracts from."""
        return self._host

    def __contains__(self, node: NodeId) -> bool:
        return node in self._graph

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        """Whether the partial subgraph already holds this edge."""
        return self._graph.has_edge(source, target)

    def add_node(self, node: NodeId, label: Label = _FROM_HOST) -> bool:
        """Add ``node`` (label copied from the host); return True if new.

        ``label`` is the host's label of ``node`` when the caller has read
        it from the host already (the host is then not asked again).
        """
        if node in self._graph:
            return False
        if label is _FROM_HOST:
            if node not in self._host:
                raise NodeNotFoundError(node)
            label = self._host.label(node)
        self._graph.add_node(node, label)
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
        self, node: NodeId, children: Sequence[NodeId], parents: Sequence[NodeId], room: int
    ) -> int:
        """Connect the newly added ``node`` to the subgraph from its own row.

        ``children`` and ``parents`` are the row of ``node`` in the host, so an
        edge is a host edge exactly when its other end is in the row: no host
        probe is made.  ``node -> t`` goes in for every member ``t`` among the
        children, then ``s -> node`` for every member ``s`` among the parents,
        until ``room`` edges were added; returns how many were.

        Whichever side is smaller, the row or the subgraph, is iterated, so
        hub nodes with thousands of neighbours do not dominate the cost.  A
        row more than twice the node count is intersected with a snapshot of
        the nodes, and the edges go in in that set's iteration order.
        """
        graph = self._graph
        if len(children) + len(parents) > 2 * graph.num_nodes():
            members = set(graph.nodes())
            children, parents = set(children), set(parents)
            targets = [member for member in members if member in children]
            sources = [member for member in members if member in parents]
        else:
            targets = [child for child in children if child in graph]
            sources = [parent for parent in parents if parent in graph]
        added = 0
        for source, target in chain(zip(repeat(node), targets), zip(sources, repeat(node))):
            if added == room:
                break
            added += graph.add_edge(source, target)  # a self-loop is met on both sides
        return added

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
