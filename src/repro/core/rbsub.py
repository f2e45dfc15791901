"""``RBSub`` — resource-bounded subgraph (isomorphism) queries (Fan, Wang & Wu,
SIGMOD 2014, Section 4.2).

``RBSub`` revises ``RBSim`` in two places:

* the guarded condition additionally imposes degree constraints and requires
  *distinct* candidate neighbours (``IsomorphismGuard``); and
* after the reduction, the answer is computed on ``G_Q`` with a subgraph-
  isomorphism matcher instead of strong simulation.

Everything else — the ``Search``/``Pick`` traversal, the budgets, the
restart-with-larger-``b`` loop — is shared with ``RBSim`` via
:class:`repro.core.reduction.DynamicReducer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.core.budget import ResourceBudget
from repro.core.rbsim import PatternAnswer, RBSimConfig
from repro.core.reduction import DynamicReducer, ReductionResult
from repro.core.weights import IsomorphismGuard
from repro.graph.digraph import DiGraph, NodeId
from repro.graph.protocol import GraphLike
from repro.graph.neighborhood import NeighborhoodIndex
from repro.matching.vf2 import isomorphic_answer_in_subgraph
from repro.patterns.pattern import GraphPattern


@dataclass(frozen=True)
class RBSubConfig(RBSimConfig):
    """Tunables for :class:`RBSub`; adds the embedding cap of the VF2 step."""

    max_embeddings: int = 2_000


class RBSub:
    """Resource-bounded subgraph-isomorphism matcher."""

    def __init__(
        self,
        graph: GraphLike,
        alpha: float,
        config: Optional[RBSubConfig] = None,
        neighborhood_index: Optional[NeighborhoodIndex] = None,
        reference_size: Optional[int] = None,
    ) -> None:
        self._graph = graph
        self._alpha = alpha
        self._config = config or RBSubConfig()
        self._index = neighborhood_index or NeighborhoodIndex(graph)
        self._reference_size = reference_size
        self._max_degree_cache: Optional[int] = None

    @property
    def graph(self) -> GraphLike:
        """The data graph this matcher answers queries on."""
        return self._graph

    @property
    def alpha(self) -> float:
        """The resource ratio."""
        return self._alpha

    def _max_degree(self) -> int:
        # Computed once per matcher: scanning every node's degree is linear in
        # |G| and would otherwise dominate small queries.
        if self._max_degree_cache is None:
            self._max_degree_cache = max(1, self._graph.max_degree())
        return self._max_degree_cache

    def _make_budget(self) -> ResourceBudget:
        coefficient = self._config.visit_coefficient
        if coefficient is None:
            coefficient = float(self._max_degree())
        size = self._reference_size if self._reference_size is not None else self._graph.size()
        return ResourceBudget(
            alpha=self._alpha,
            graph_size=size,
            visit_coefficient=coefficient,
        )

    def reduce(self, pattern: GraphPattern, personalized_match: NodeId) -> ReductionResult:
        """Run only the dynamic-reduction step with the isomorphism guard."""
        pattern.validate()
        budget = self._make_budget()
        guard = IsomorphismGuard(pattern, self._graph, personalized_match, self._index)
        reducer = DynamicReducer(
            pattern=pattern,
            graph=self._graph,
            personalized_match=personalized_match,
            guard=guard,
            budget=budget,
            initial_bound=self._config.initial_bound,
            max_passes=self._config.max_passes,
            use_weights=self._config.use_weights,
            use_guard=self._config.use_guard,
            max_depth=pattern.diameter(),
        )
        return reducer.search()

    def answer(self, pattern: GraphPattern, personalized_match: NodeId) -> PatternAnswer:
        """Algorithm ``RBSub``: reduce to ``G_Q`` and return the isomorphism answer."""
        if personalized_match not in self._graph:
            return PatternAnswer(answer=set(), subgraph=DiGraph())
        # Leaf spans under the caller's ``executor.chunk``; one branch each when
        # untraced, and one more to say what the search spent of its budget.
        with obs.span("reduction.search") as span:
            reduction = self.reduce(pattern, personalized_match)
            if span.attrs is not None:
                span.attrs.update(reduction.spend())
        with obs.span("match.exact"):
            answer = isomorphic_answer_in_subgraph(
                pattern,
                reduction.subgraph,
                personalized_match,
                max_embeddings=self._config.max_embeddings,
            )
        return PatternAnswer(
            answer=answer,
            subgraph=reduction.subgraph,
            budget=reduction.budget,
            reduction=reduction,
        )


def rbsub(
    pattern: GraphPattern,
    graph: GraphLike,
    personalized_match: NodeId,
    alpha: float,
    config: Optional[RBSubConfig] = None,
) -> PatternAnswer:
    """One-shot convenience wrapper around :class:`RBSub`."""
    return RBSub(graph, alpha, config=config).answer(pattern, personalized_match)
