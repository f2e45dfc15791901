"""Candidate filtering shared by the matching algorithms.

All matchers pin the personalized query node ``up`` to its unique data match
``vp`` (paper Section 2: "the match of up is fixed to be vp").  For the other
query nodes the basic candidate test is label equality; the subgraph-
isomorphism matcher additionally requires the data node's in/out degrees to
dominate the query node's, a standard VF2-style pruning rule that the paper's
``RBSub`` also exploits in its revised guarded condition.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.graph.digraph import DiGraph, Label, NodeId
from repro.graph.statistics import LabelIndex
from repro.patterns.pattern import GraphPattern, QueryNodeId


def label_candidates(
    pattern: GraphPattern,
    graph: DiGraph,
    personalized_match: NodeId,
    label_index: Optional[LabelIndex] = None,
) -> Dict[QueryNodeId, Set[NodeId]]:
    """Candidate sets by label: ``{u: {v | L(v) = fv(u)}}``, with ``up → {vp}``.

    Without ``label_index`` one pass over the labels of ``graph`` collects
    the labels the pattern asks for, and no others."""
    if label_index is not None:
        nodes_with = label_index.nodes_with
    else:
        found: Dict[Label, Set[NodeId]] = {pattern.label_of(u): set() for u in pattern.nodes()}
        for node, label in graph.labels().items():
            if label in found:
                found[label].add(node)

        def nodes_with(label: Label) -> Set[NodeId]:
            return set(found[label])

    candidates: Dict[QueryNodeId, Set[NodeId]] = {}
    for query_node in pattern.nodes():
        if query_node == pattern.personalized:
            candidates[query_node] = {personalized_match} if personalized_match in graph else set()
        else:
            candidates[query_node] = nodes_with(pattern.label_of(query_node))
    return candidates


def degree_filtered_candidates(
    pattern: GraphPattern,
    graph: DiGraph,
    personalized_match: NodeId,
    label_index: Optional[LabelIndex] = None,
) -> Dict[QueryNodeId, Set[NodeId]]:
    """Label candidates additionally pruned by in/out degree dominance.

    A data node ``v`` can only host an isomorphic image of query node ``u``
    if ``outdeg(v) >= outdeg(u)`` and ``indeg(v) >= indeg(u)``.
    """
    base = label_candidates(pattern, graph, personalized_match, label_index)
    filtered: Dict[QueryNodeId, Set[NodeId]] = {}
    for query_node, nodes in base.items():
        required_out = len(pattern.children(query_node))
        required_in = len(pattern.parents(query_node))
        filtered[query_node] = {
            node
            for node in nodes
            if graph.out_degree(node) >= required_out and graph.in_degree(node) >= required_in
        }
    return filtered


def structural_prune(
    pattern: GraphPattern,
    graph: DiGraph,
    candidates: Dict[QueryNodeId, Set[NodeId]],
    max_rounds: int = 10,
) -> Dict[QueryNodeId, Set[NodeId]]:
    """Iteratively drop candidates missing a required neighbour candidate.

    This is a light-weight arc-consistency pass: a candidate ``v`` for ``u``
    survives only if, for every query child (resp. parent) ``u'`` of ``u``,
    some child (resp. parent) of ``v`` is still a candidate for ``u'``.  It is
    used to speed up VF2 and to compute tight candidate sets in tests; it
    never removes a node that participates in an actual match.
    """
    current = {node: set(values) for node, values in candidates.items()}
    for _ in range(max_rounds):
        changed = False
        for query_node, nodes in current.items():
            survivors: Set[NodeId] = set()
            for node in nodes:
                ok = True
                for child_query in pattern.children(query_node):
                    if current[child_query].isdisjoint(graph.successors(node)):
                        ok = False
                        break
                if ok:
                    for parent_query in pattern.parents(query_node):
                        if current[parent_query].isdisjoint(graph.predecessors(node)):
                            ok = False
                            break
                if ok:
                    survivors.add(node)
            if survivors != nodes:
                current[query_node] = survivors
                changed = True
        if not changed:
            break
    return current


def has_empty_candidate_set(candidates: Dict[QueryNodeId, Set[NodeId]]) -> bool:
    """True when any query node has no remaining candidate (no match possible)."""
    return any(not nodes for nodes in candidates.values())
