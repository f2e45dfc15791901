"""``RBSub`` — resource-bounded subgraph (isomorphism) queries (Fan, Wang & Wu,
SIGMOD 2014, Section 4.2).

``RBSub`` revises ``RBSim`` in two places:

* the guarded condition additionally imposes degree constraints and requires
  *distinct* candidate neighbours (``IsomorphismGuard``); and
* after the reduction, the answer is computed on ``G_Q`` with a subgraph-
  isomorphism matcher instead of strong simulation.

Everything else — the budgets, the ``Search``/``Pick`` traversal of
:class:`repro.core.reduction.DynamicReducer` and the leaf spans — is
shared with ``RBSim`` through :class:`repro.core.rbsim.BoundedMatcher`.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.rbsim import BoundedMatcher, PatternAnswer, RBSimConfig
from repro.core.weights import IsomorphismGuard
from repro.graph.digraph import DiGraph, Edge, NodeId
from repro.graph.protocol import GraphLike
from repro.matching.vf2 import embedding_witnesses, isomorphic_answer_in_subgraph
from repro.patterns.pattern import GraphPattern


class RBSub(BoundedMatcher):
    """Resource-bounded subgraph-isomorphism matcher (parameters: :class:`BoundedMatcher`)."""

    guard_class = IsomorphismGuard

    def _match(self, pattern: GraphPattern, subgraph: DiGraph, personalized_match: NodeId) -> Set[NodeId]:
        return isomorphic_answer_in_subgraph(pattern, subgraph, personalized_match)

    def witnesses(self, pattern: GraphPattern, subgraph: DiGraph, personalized_match: NodeId) -> Set[Edge]:
        """The query-edge images of the first embedding found for each output match."""
        return embedding_witnesses(pattern, subgraph, personalized_match)

    def answer(self, pattern: GraphPattern, personalized_match: NodeId) -> PatternAnswer:
        """Algorithm ``RBSub``: reduce to ``G_Q`` and return the isomorphism answer."""
        return self._answer(pattern, personalized_match if personalized_match in self._graph else None)


def rbsub(
    pattern: GraphPattern,
    graph: GraphLike,
    personalized_match: NodeId,
    alpha: float,
    config: Optional[RBSimConfig] = None,
) -> PatternAnswer:
    """One-shot convenience wrapper around :class:`RBSub`."""
    return RBSub(graph, alpha, config=config).answer(pattern, personalized_match)
