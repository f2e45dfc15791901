"""Subgraph isomorphism (VF2-style backtracking) — the ``VF2`` / ``VF2OPT`` baselines.

A *match* of pattern ``Q`` in graph ``G`` by subgraph isomorphism is an
injective mapping ``h`` from query nodes to data nodes such that labels agree,
every query edge maps to a data edge, and — following the paper — the data
edges between mapped nodes must correspond exactly to query edges restricted
to the matched subgraph ``G'`` (``(u, u')`` is a query edge *iff*
``(h(u), h(u'))`` is an edge of ``G'``; we take ``G'`` to be the image of the
query edges, the standard subgraph-isomorphism reading).  The personalized
node is pinned: ``h(up) = vp``.

The answer ``Q(G)`` is the set of data nodes ``h(uo)`` over all matches.

``VF2OPT`` (the optimised baseline of Section 6) restricts the search to the
``d_Q``-ball around ``vp`` before matching, exactly as ``MatchOpt`` does for
strong simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.graph.digraph import DiGraph, Edge, NodeId
from repro.graph.neighborhood import ball
from repro.matching.filters import degree_filtered_candidates, structural_prune
from repro.patterns.pattern import GraphPattern, QueryNodeId


@dataclass
class SubgraphIsomorphismResult:
    """Outcome of a subgraph-isomorphism evaluation.

    ``answer`` is ``Q(G)``, the matches of the output node; ``embedding_of``
    maps each match to the first embedding found for it (query node → data
    node), in sorted-id order.
    """

    answer: Set[NodeId] = field(default_factory=set)
    embedding_of: Dict[NodeId, Dict[QueryNodeId, NodeId]] = field(default_factory=dict)
    ball_size: int = 0


def node_order(node: NodeId) -> Tuple[str, NodeId]:
    """Sort key of data node ids: ints in numeric order, and ids of different
    types never compared with each other."""
    return type(node).__name__, node


def _matching_order(pattern: GraphPattern, candidates: Dict[QueryNodeId, Set[NodeId]]) -> List[QueryNodeId]:
    """Order query nodes: personalized first, then by connectivity and selectivity."""
    order: List[QueryNodeId] = [pattern.personalized]
    placed = {pattern.personalized}
    remaining = [node for node in pattern.nodes() if node != pattern.personalized]
    while remaining:
        connected = [node for node in remaining if any(nb in placed for nb in pattern.neighbors(node))]
        pool = connected if connected else remaining
        nxt = min(pool, key=lambda node: (len(candidates.get(node, ())), -pattern.degree(node)))
        order.append(nxt)
        placed.add(nxt)
        remaining.remove(nxt)
    return order


def _consistent(
    pattern: GraphPattern,
    graph: DiGraph,
    assignment: Dict[QueryNodeId, NodeId],
    query_node: QueryNodeId,
    node: NodeId,
) -> bool:
    """Whether extending the partial assignment with ``query_node → node`` is legal."""
    for child_query in pattern.children(query_node):
        mapped = assignment.get(child_query)
        if mapped is not None and not graph.has_edge(node, mapped):
            return False
    for parent_query in pattern.parents(query_node):
        mapped = assignment.get(parent_query)
        if mapped is not None and not graph.has_edge(mapped, node):
            return False
    return True


def subgraph_isomorphism(
    pattern: GraphPattern,
    graph: DiGraph,
    personalized_match: NodeId,
) -> SubgraphIsomorphismResult:
    """The subgraph-isomorphism answer of ``pattern`` in ``graph``, exact.

    ``Q(G)`` is a projection, so no embedding is listed: for each candidate
    ``v`` of the output node, ``uo → v`` is pinned and the backtracking stops
    at the first embedding.  Every pool is walked in sorted-id order
    (:func:`node_order`), so the embedding found for a match is the first in
    that order, whatever the hash seed.
    """
    pattern.validate()
    result = SubgraphIsomorphismResult()
    if personalized_match not in graph:
        return result

    candidates = degree_filtered_candidates(pattern, graph, personalized_match)
    candidates = structural_prune(pattern, graph, candidates)
    if any(not nodes for nodes in candidates.values()):
        return result

    output = pattern.output
    # The output node goes right after ``up``, so its pin anchors the rest.
    order = [node for node in _matching_order(pattern, candidates) if node != output]
    order.insert(1 if output != pattern.personalized else 0, output)
    pools = {query_node: sorted(nodes, key=node_order) for query_node, nodes in candidates.items()}
    assignment: Dict[QueryNodeId, NodeId] = {}
    used: Set[NodeId] = set()

    def extend(depth: int) -> bool:
        """Depth-first extension; True once ``assignment`` is an embedding."""
        if depth == len(order):
            return True
        query_node = order[depth]
        for node in pools[query_node]:
            if node in used or not _consistent(pattern, graph, assignment, query_node, node):
                continue
            assignment[query_node] = node
            used.add(node)
            if extend(depth + 1):
                return True
            used.discard(node)
            del assignment[query_node]
        return False

    for match in pools.pop(output):
        pools[output] = [match]
        if extend(0):
            result.answer.add(match)
            result.embedding_of[match] = dict(assignment)
        assignment.clear()
        used.clear()
    return result


def vf2_opt(
    pattern: GraphPattern,
    graph: DiGraph,
    personalized_match: NodeId,
) -> SubgraphIsomorphismResult:
    """The ``VF2OPT`` baseline: restrict to the ``d_Q``-ball of ``vp``, then match."""
    if personalized_match not in graph:
        return SubgraphIsomorphismResult()
    the_ball = ball(graph, personalized_match, pattern.diameter())
    result = subgraph_isomorphism(pattern, the_ball, personalized_match)
    result.ball_size = the_ball.size()
    return result


def isomorphic_answer_in_subgraph(
    pattern: GraphPattern,
    subgraph: DiGraph,
    personalized_match: NodeId,
    max_embeddings: Optional[int] = None,
) -> Set[NodeId]:
    """Subgraph-isomorphism answer inside an already reduced graph ``G_Q``.

    This is the evaluation step ``RBSub`` applies after dynamic reduction.
    ``max_embeddings`` is accepted and ignored: the answer has no cap.
    """
    return subgraph_isomorphism(pattern, subgraph, personalized_match).answer


def embedding_witnesses(pattern: GraphPattern, subgraph: DiGraph, personalized_match: NodeId) -> Set[Edge]:
    """The edges of ``subgraph`` that its isomorphism answer needs: the images
    of the query edges under the first embedding found for each output match
    (:attr:`SubgraphIsomorphismResult.embedding_of`).  Empty when the answer is."""
    return {
        (embedding[source], embedding[target])
        for embedding in subgraph_isomorphism(pattern, subgraph, personalized_match).embedding_of.values()
        for source, target in pattern.edges
    }
