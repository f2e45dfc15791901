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
from typing import Dict, List, Optional, Set

from repro.graph.digraph import DiGraph, Edge, NodeId
from repro.graph.neighborhood import ball
from repro.matching.filters import degree_filtered_candidates, structural_prune
from repro.patterns.pattern import GraphPattern, QueryNodeId


@dataclass
class SubgraphIsomorphismResult:
    """Outcome of a subgraph-isomorphism evaluation.

    ``answer`` collects the matches of the output node; ``embeddings`` holds
    up to ``max_embeddings`` full assignments (query node → data node) for
    inspection; ``complete`` is False when the search was truncated by the
    embedding cap.
    """

    answer: Set[NodeId] = field(default_factory=set)
    embeddings: List[Dict[QueryNodeId, NodeId]] = field(default_factory=list)
    ball_size: int = 0
    visited: int = 0
    complete: bool = True


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
    max_embeddings: int = 10_000,
) -> SubgraphIsomorphismResult:
    """Enumerate subgraph-isomorphism matches of ``pattern`` in ``graph``.

    The search is exact unless it would produce more than ``max_embeddings``
    embeddings, in which case ``complete`` is set to False (the answer set is
    still a valid under-approximation).
    """
    pattern.validate()
    result = SubgraphIsomorphismResult()
    if personalized_match not in graph:
        return result

    candidates = degree_filtered_candidates(pattern, graph, personalized_match)
    candidates = structural_prune(pattern, graph, candidates)
    if any(not nodes for nodes in candidates.values()):
        return result

    order = _matching_order(pattern, candidates)
    assignment: Dict[QueryNodeId, NodeId] = {}
    used: Set[NodeId] = set()
    visited = [0]

    def backtrack(depth: int) -> bool:
        """Depth-first extension; returns False when the embedding cap is hit."""
        if depth == len(order):
            result.embeddings.append(dict(assignment))
            result.answer.add(assignment[pattern.output])
            return len(result.embeddings) < max_embeddings
        query_node = order[depth]
        pool = candidates[query_node]
        # Prefer extending through already-mapped neighbours to cut the pool.
        anchored: Optional[Set[NodeId]] = None
        for neighbor_query in pattern.neighbors(query_node):
            mapped = assignment.get(neighbor_query)
            if mapped is None:
                continue
            if pattern.has_edge(neighbor_query, query_node):
                reachable = graph.successors(mapped)
            else:
                reachable = graph.predecessors(mapped)
            anchored = set(reachable) if anchored is None else anchored & set(reachable)
        search_space = pool if anchored is None else (pool & anchored)
        for node in search_space:
            visited[0] += 1
            if node in used:
                continue
            if not _consistent(pattern, graph, assignment, query_node, node):
                continue
            assignment[query_node] = node
            used.add(node)
            keep_going = backtrack(depth + 1)
            used.discard(node)
            del assignment[query_node]
            if not keep_going:
                return False
        return True

    result.complete = backtrack(0)
    result.visited = visited[0]
    return result


def vf2_opt(
    pattern: GraphPattern,
    graph: DiGraph,
    personalized_match: NodeId,
    max_embeddings: int = 10_000,
) -> SubgraphIsomorphismResult:
    """The ``VF2OPT`` baseline: restrict to the ``d_Q``-ball of ``vp``, then match."""
    if personalized_match not in graph:
        return SubgraphIsomorphismResult()
    the_ball = ball(graph, personalized_match, pattern.diameter())
    result = subgraph_isomorphism(pattern, the_ball, personalized_match, max_embeddings)
    result.ball_size = the_ball.size()
    result.visited += the_ball.size()
    return result


def isomorphic_answer_in_subgraph(
    pattern: GraphPattern,
    subgraph: DiGraph,
    personalized_match: NodeId,
    max_embeddings: int = 10_000,
) -> Set[NodeId]:
    """Subgraph-isomorphism answer inside an already reduced graph ``G_Q``.

    This is the evaluation step ``RBSub`` applies after dynamic reduction.
    """
    if personalized_match not in subgraph:
        return set()
    return subgraph_isomorphism(pattern, subgraph, personalized_match, max_embeddings).answer


def embedding_witnesses(
    pattern: GraphPattern,
    subgraph: DiGraph,
    personalized_match: NodeId,
    max_embeddings: int = 10_000,
) -> Set[Edge]:
    """The edges of ``subgraph`` that its isomorphism answer needs: the images
    of the query edges under the first embedding found for each output match
    (among the first ``max_embeddings``).  Empty when the answer is."""
    matched: Set[NodeId] = set()
    needed: Set[Edge] = set()
    for embedding in subgraph_isomorphism(pattern, subgraph, personalized_match, max_embeddings).embeddings:
        match = embedding[pattern.output]
        if match not in matched:
            matched.add(match)
            needed.update((embedding[source], embedding[target]) for source, target in pattern.edges)
    return needed
