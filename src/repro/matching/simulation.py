"""Graph simulation and dual simulation (fixpoint computation).

Dual simulation is the relational core of the paper's *strong simulation*
semantics [Ma et al., PVLDB 2011]: a binary relation ``R ⊆ Vp × V`` such that
for every ``(u, v) ∈ R``

* ``fv(u) = L(v)`` (label match; the personalized node is instead pinned),
* for every query edge ``(u, u')`` some ``(v, v') ∈ E`` has ``(u', v') ∈ R``
  (child preservation), and
* for every query edge ``(u'', u)`` some ``(v'', v) ∈ E`` has
  ``(u'', v'') ∈ R`` (parent preservation).

There is a unique maximum such relation; it is computed here by iterated
candidate refinement, which runs in ``O(|Q| * |V| * (|V| + |E|))`` time on the
(usually small) graphs it is applied to — the ball ``G_dQ(vp)`` or the reduced
graph ``G_Q``.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.graph.digraph import DiGraph, NodeId
from repro.graph.statistics import LabelIndex
from repro.matching.filters import label_candidates
from repro.patterns.pattern import GraphPattern, QueryNodeId

MatchRelation = Dict[QueryNodeId, Set[NodeId]]


def graph_simulation(
    pattern: GraphPattern,
    graph: DiGraph,
    personalized_match: NodeId,
    label_index: Optional[LabelIndex] = None,
) -> MatchRelation:
    """Maximum (child-preserving only) graph simulation of ``pattern`` in ``graph``.

    Returns the empty relation (all sets empty) when no simulation exists,
    i.e. when some query node ends up without a match or the personalized
    node's match ``vp`` is eliminated.
    """
    return _maximum_relation(pattern, graph, personalized_match, label_index, require_parents=False)


def dual_simulation(
    pattern: GraphPattern,
    graph: DiGraph,
    personalized_match: NodeId,
    label_index: Optional[LabelIndex] = None,
) -> MatchRelation:
    """Maximum dual simulation (children *and* parents preserved)."""
    return _maximum_relation(pattern, graph, personalized_match, label_index, require_parents=True)


def _maximum_relation(
    pattern: GraphPattern,
    graph: DiGraph,
    personalized_match: NodeId,
    label_index: Optional[LabelIndex],
    require_parents: bool,
) -> MatchRelation:
    """Shared fixpoint: start from label candidates and refine until stable."""
    relation = label_candidates(pattern, graph, personalized_match, label_index)
    if any(not nodes for nodes in relation.values()):
        return {query_node: set() for query_node in pattern.nodes()}

    changed = True
    while changed:
        changed = False
        for query_node in pattern.nodes():
            survivors: Set[NodeId] = set()
            for node in relation[query_node]:
                if _satisfies(pattern, graph, relation, query_node, node, require_parents):
                    survivors.add(node)
            if survivors != relation[query_node]:
                relation[query_node] = survivors
                changed = True
                if not survivors:
                    return {other: set() for other in pattern.nodes()}
    if personalized_match not in relation[pattern.personalized]:
        return {query_node: set() for query_node in pattern.nodes()}
    return relation


def _satisfies(
    pattern: GraphPattern,
    graph: DiGraph,
    relation: MatchRelation,
    query_node: QueryNodeId,
    node: NodeId,
    require_parents: bool,
) -> bool:
    """Whether ``node`` still satisfies the simulation conditions for ``query_node``."""
    for child_query in pattern.children(query_node):
        if relation[child_query].isdisjoint(graph.successors(node)):
            return False
    if require_parents:
        for parent_query in pattern.parents(query_node):
            if relation[parent_query].isdisjoint(graph.predecessors(node)):
                return False
    return True


def relation_is_empty(relation: MatchRelation) -> bool:
    """True when the relation contains no pair at all."""
    return all(not nodes for nodes in relation.values())


def output_matches(pattern: GraphPattern, relation: MatchRelation) -> Set[NodeId]:
    """The answer ``Q(G)``: matches of the output node under ``relation``."""
    return set(relation.get(pattern.output, set()))


def verify_dual_simulation(
    pattern: GraphPattern,
    graph: DiGraph,
    relation: MatchRelation,
    personalized_match: NodeId,
) -> bool:
    """Check that ``relation`` really is a dual simulation (used by tests).

    Verifies label agreement (except for the pinned personalized node), the
    child/parent preservation conditions, the pinning of ``up`` to ``vp``,
    and that every query node has at least one match.
    """
    if relation_is_empty(relation):
        return True
    if relation.get(pattern.personalized) != {personalized_match}:
        return False
    for query_node, nodes in relation.items():
        if not nodes:
            return False
        for node in nodes:
            if node not in graph:
                return False
            if query_node != pattern.personalized and graph.label(node) != pattern.label_of(query_node):
                return False
            if not _satisfies(pattern, graph, relation, query_node, node, require_parents=True):
                return False
    return True
