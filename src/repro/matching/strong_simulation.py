"""Strong simulation matching (the paper's ``Match`` / ``MatchOpt`` baselines).

Strong simulation [Ma et al., PVLDB 2011] restricts dual simulation to a ball:
``G`` matches ``Q`` if there is a dual-simulation relation inside the
``d_Q``-neighbourhood ``G_dQ(v0)`` of some node ``v0``, where ``d_Q`` is the
(undirected) diameter of ``Q``.  With a personalized node the relevant ball is
the one around ``vp``, since ``up`` must match ``vp`` (paper Section 2); the
``MatchOpt`` baseline of Section 6 is exactly this optimisation ("only checks
subgraphs within d_Q hops of vp").

The answer ``Q(G)`` is the set of matches of the output node ``uo``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.graph.digraph import DiGraph, Edge, NodeId
from repro.graph.neighborhood import ball
from repro.matching.simulation import MatchRelation, dual_simulation, output_matches
from repro.patterns.pattern import GraphPattern


@dataclass
class StrongSimulationResult:
    """Outcome of a strong-simulation evaluation.

    Attributes
    ----------
    answer:
        ``Q(G)`` — matches of the output node.
    relation:
        The maximum dual-simulation relation inside the ball (empty when no
        match exists).
    ball_size:
        ``|G_dQ(vp)|`` (nodes + edges); the experiments report the ratio of
        the resource bound to this quantity (Table 2).
    visited:
        Number of nodes and edges touched while extracting the ball and
        running the fixpoint — used for the data-access comparisons.
    """

    answer: Set[NodeId] = field(default_factory=set)
    relation: MatchRelation = field(default_factory=dict)
    ball_size: int = 0
    visited: int = 0


def strong_simulation(
    pattern: GraphPattern,
    graph: DiGraph,
    personalized_match: NodeId,
    radius: Optional[int] = None,
) -> StrongSimulationResult:
    """Evaluate ``pattern`` on ``graph`` by strong simulation around ``vp``.

    ``radius`` defaults to the pattern diameter ``d_Q``.  This routine reads
    the full ball, so it is the *exact* (non resource-bounded) baseline.
    """
    pattern.validate()
    if personalized_match not in graph:
        return StrongSimulationResult()
    hop_radius = pattern.diameter() if radius is None else radius
    the_ball = ball(graph, personalized_match, hop_radius)
    relation = dual_simulation(pattern, the_ball, personalized_match)
    answer = output_matches(pattern, relation)
    visited = the_ball.size()
    return StrongSimulationResult(
        answer=answer,
        relation=relation,
        ball_size=the_ball.size(),
        visited=visited,
    )


def match_in_subgraph(
    pattern: GraphPattern,
    subgraph: DiGraph,
    personalized_match: NodeId,
) -> Set[NodeId]:
    """Strong-simulation answer computed inside an already-extracted subgraph.

    This is the ``Match`` step that ``RBSim`` applies to the reduced graph
    ``G_Q`` (Fig. 3, line 2).  The subgraph is assumed to already be within
    the ball of ``vp`` (which is how the dynamic reduction builds it), so no
    further ball extraction is performed.
    """
    if personalized_match not in subgraph:
        return set()
    relation = dual_simulation(pattern, subgraph, personalized_match)
    return output_matches(pattern, relation)


def simulation_witnesses(
    pattern: GraphPattern,
    subgraph: DiGraph,
    personalized_match: NodeId,
) -> Set[Edge]:
    """The edges of ``subgraph`` that its strong-simulation answer needs.

    For each pair ``(u, v)`` of the maximum dual-simulation relation on
    ``subgraph`` and each query edge at ``u``, the first edge of ``v``'s
    adjacency (in ``subgraph``'s order) that witnesses it.  The relation is a
    dual simulation on these edges alone, so every graph that keeps them
    (and any graph grown from one) answers at least as much.  Empty when the
    answer is.
    """
    if personalized_match not in subgraph:
        return set()
    relation = dual_simulation(pattern, subgraph, personalized_match)
    needed: Set[Edge] = set()
    for query_node, matches in relation.items():
        for node in matches:
            for child in pattern.children(query_node):
                related = relation[child]
                needed.add((node, next(w for w in subgraph.successors(node) if w in related)))
            for parent in pattern.parents(query_node):
                related = relation[parent]
                needed.add((next(w for w in subgraph.predecessors(node) if w in related), node))
    return needed


def match_opt(
    pattern: GraphPattern,
    graph: DiGraph,
    personalized_match: NodeId,
) -> StrongSimulationResult:
    """The paper's ``MatchOpt`` baseline (alias of :func:`strong_simulation`)."""
    return strong_simulation(pattern, graph, personalized_match)
