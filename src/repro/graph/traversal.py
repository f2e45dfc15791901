"""Graph traversal primitives: BFS, DFS, shortest hop distances, reachability.

These are the building blocks both for the baselines of Fan, Wang & Wu
(SIGMOD 2014) — plain ``BFS`` reachability, the ``MatchOpt`` ball extraction
— and for the preprocessing steps of the resource-bounded algorithms.  All
traversals are iterative so they work on graphs far deeper than Python's
recursion limit.

Every function accepts any :class:`~repro.graph.protocol.GraphLike` backend.
Functions whose results are order-insensitive (distance maps, reachability
booleans, node sets) call the matching :mod:`repro.graph.kernels`
operation, which runs the vectorised kernel on a
:class:`~repro.graph.csr.CSRGraph` and the generic pure-python
implementation on everything else, with identical answers by contract.
Generators whose yield *order* is part of the contract
(:func:`bfs_order`, :func:`dfs_order`, :func:`shortest_path`) always run
the generic implementation here.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Set

from repro.exceptions import NodeNotFoundError
from repro.graph import kernels
from repro.graph.kernels import _BOTH, _DIRECTIONS, _FORWARD, Direction, neighbors_fn
from repro.graph.protocol import GraphLike, NodeId


def bfs_order(graph: GraphLike, source: NodeId, direction: Direction = _FORWARD) -> Iterator[NodeId]:
    """Yield nodes in breadth-first order from ``source``.

    ``direction`` selects which edges to follow: ``"forward"`` (out-edges),
    ``"backward"`` (in-edges) or ``"both"`` (treat edges as undirected).
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    neighbors = neighbors_fn(graph, direction)
    seen: Set[NodeId] = {source}
    queue: deque = deque([source])
    while queue:
        node = queue.popleft()
        yield node
        for neighbor in neighbors(node):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)


def bfs_levels(
    graph: GraphLike,
    source: NodeId,
    max_hops: Optional[int] = None,
    direction: Direction = _BOTH,
) -> Dict[NodeId, int]:
    """Return hop distances from ``source`` up to ``max_hops``.

    With ``direction="both"`` this computes the paper's ``N_r(v)`` membership:
    a node is within ``r`` hops of ``v`` if there is a path of at most ``r``
    edges from ``v`` to it *or* from it to ``v`` (Section 2).  The result maps
    every reached node (including ``source`` at distance 0) to its distance.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    return kernels.bfs_levels(graph, source, max_hops=max_hops, direction=direction)


def dfs_order(graph: GraphLike, source: NodeId, direction: Direction = _FORWARD) -> Iterator[NodeId]:
    """Yield nodes in (pre-order) depth-first order from ``source``."""
    if source not in graph:
        raise NodeNotFoundError(source)
    neighbors = neighbors_fn(graph, direction)
    seen: Set[NodeId] = set()
    stack: List[NodeId] = [source]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        yield node
        # Sort for deterministic order when node ids are comparable.
        children = list(neighbors(node))
        try:
            children.sort(reverse=True)
        except TypeError:
            pass
        stack.extend(child for child in children if child not in seen)


def is_reachable(
    graph: GraphLike,
    source: NodeId,
    target: NodeId,
    visit_counter: Optional[List[int]] = None,
) -> bool:
    """Plain forward BFS reachability test — the paper's ``BFS`` baseline.

    If ``visit_counter`` (a one-element list) is given, the number of nodes
    and edges touched by the traversal is accumulated into it, which the
    experiment harness uses to compare data accessed per algorithm.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if target not in graph:
        raise NodeNotFoundError(target)
    if source == target:
        return True
    if visit_counter is None:
        # The kernel gives the same Boolean; the counting loop is
        # kept when the caller wants the paper's data-items-visited count.
        return kernels.is_reachable(graph, source, target)
    seen: Set[NodeId] = {source}
    queue: deque = deque([source])
    visited = 1
    while queue:
        node = queue.popleft()
        for child in graph.successors(node):
            visited += 1
            if child == target:
                if visit_counter is not None:
                    visit_counter[0] += visited
                return True
            if child not in seen:
                seen.add(child)
                queue.append(child)
    if visit_counter is not None:
        visit_counter[0] += visited
    return False


def bidirectional_reachable(graph: GraphLike, source: NodeId, target: NodeId) -> bool:
    """Bidirectional BFS reachability (used as an exact oracle in tests).

    Alternates expanding the smaller of the two frontiers, which is much
    faster than one-sided BFS on social-like graphs.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if target not in graph:
        raise NodeNotFoundError(target)
    return kernels.bidirectional_reachable(graph, source, target)


def descendants(graph: GraphLike, source: NodeId) -> Set[NodeId]:
    """All nodes reachable from ``source`` (excluding ``source`` itself)."""
    if source not in graph:
        raise NodeNotFoundError(source)
    return kernels.reachable_set(graph, source, forward=True)


def ancestors(graph: GraphLike, source: NodeId) -> Set[NodeId]:
    """All nodes that can reach ``source`` (excluding ``source`` itself)."""
    if source not in graph:
        raise NodeNotFoundError(source)
    return kernels.reachable_set(graph, source, forward=False)


def shortest_path(
    graph: GraphLike, source: NodeId, target: NodeId, direction: Direction = _FORWARD
) -> Optional[List[NodeId]]:
    """Return one shortest (fewest-hops) path from ``source`` to ``target``.

    Returns ``None`` when no path exists.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if target not in graph:
        raise NodeNotFoundError(target)
    if source == target:
        return [source]
    neighbors = neighbors_fn(graph, direction)
    parents: Dict[NodeId, NodeId] = {source: source}
    queue: deque = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in neighbors(node):
            if neighbor in parents:
                continue
            parents[neighbor] = node
            if neighbor == target:
                path = [target]
                while path[-1] != source:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            queue.append(neighbor)
    return None


def eccentricity(graph: GraphLike, source: NodeId, direction: Direction = _BOTH) -> int:
    """Longest shortest-path distance from ``source`` to any reachable node."""
    levels = bfs_levels(graph, source, direction=direction)
    return max(levels.values()) if levels else 0


def diameter(graph: GraphLike, directed: bool = False, sample: Optional[int] = None) -> int:
    """Diameter of ``graph``: the longest shortest path between any two nodes.

    With ``directed=False`` edges are treated as undirected, matching the
    paper's use of the pattern diameter ``d`` "when Q is treated as an
    undirected graph".  Unreachable pairs are ignored.  For large graphs a
    ``sample`` of source nodes can be given to compute an estimate.
    """
    nodes = list(graph.nodes())
    if sample is not None and sample < len(nodes):
        step = max(1, len(nodes) // sample)
        nodes = nodes[::step][:sample]
    direction = _FORWARD if directed else _BOTH
    best = 0
    for node in nodes:
        best = max(best, eccentricity(graph, node, direction=direction))
    return best


def connected_component(graph: GraphLike, source: NodeId) -> Set[NodeId]:
    """Weakly connected component containing ``source``."""
    if source not in graph:
        raise NodeNotFoundError(source)
    return kernels.connected_component(graph, source)


def weakly_connected_components(graph: GraphLike) -> List[Set[NodeId]]:
    """All weakly connected components of the graph."""
    return kernels.weak_components(graph)
