"""``RBSim`` — resource-bounded strong simulation (Fan, Wang & Wu, SIGMOD 2014,
Section 4.1, Fig. 3).

Given a simulation query ``Q``, a graph ``G``, the personalized match ``vp``
and a resource ratio ``alpha``, ``RBSim``

1. runs the dynamic reduction (``Search``/``Pick`` with the simulation
   guarded condition) to extract a subgraph ``G_Q`` of the ``d_Q``-ball of
   ``vp`` with ``|G_Q| <= alpha * |G|``, visiting at most ``d_G * alpha * |G|``
   data items (when ``G_Q`` fills, the edges the answer on it does not need
   are dropped and the search goes on); and
2. evaluates strong simulation on ``G_Q`` and returns the matches of the
   output node as the approximate answer ``Q(G_Q)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Set

from repro import obs
from repro.core.budget import BudgetReport, ResourceBudget
from repro.core.reduction import DynamicReducer, ReductionResult
from repro.core.weights import GuardedCondition, SimulationGuard
from repro.graph.csr import CSRGraph, freeze
from repro.graph.digraph import DiGraph, Edge, NodeId
from repro.graph.protocol import GraphLike
from repro.graph.neighborhood import NeighborhoodIndex
from repro.matching.strong_simulation import match_in_subgraph, simulation_witnesses
from repro.patterns.pattern import GraphPattern


@dataclass(frozen=True)
class RBSimConfig:
    """Tunables for :class:`RBSim`.

    ``visit_coefficient`` is the paper's ``c`` (the visit cap is
    ``c * alpha * |G|``); it defaults to the maximum degree observed lazily,
    approximated by a user-supplied constant.  ``initial_bound`` is the
    starting value of the selection bound ``b`` (the paper uses 2).
    ``use_weights`` / ``use_guard`` exist for the ablation benchmarks;
    ``allow_unanchored`` enables the future-work extension where a query has
    no personalized node match and the reduction is seeded from the most
    selective label instead.
    """

    initial_bound: int = 2
    visit_coefficient: Optional[float] = None
    use_weights: bool = True
    use_guard: bool = True
    allow_unanchored: bool = False


@dataclass
class PatternAnswer:
    """Approximate answer produced by a resource-bounded pattern algorithm."""

    answer: Set[NodeId] = field(default_factory=set)
    subgraph: Optional[DiGraph] = None
    budget: Optional[BudgetReport] = None
    reduction: Optional[ReductionResult] = None

    @property
    def subgraph_size(self) -> int:
        """``|G_Q|`` of the extracted subgraph (0 when nothing was extracted)."""
        return self.subgraph.size() if self.subgraph is not None else 0


class BoundedMatcher:
    """What ``RBSim`` and ``RBSub`` share: the budget, the reduction to
    ``G_Q`` and the two leaf spans.  A subclass names its guarded condition
    (``guard_class``), its exact matcher on ``G_Q`` (``_match``) and the
    edges of ``G_Q`` that matcher's answer needs (``witnesses``, which
    ``Search`` keeps when ``G_Q`` is full).

    Parameters
    ----------
    graph:
        The data graph ``G``.  ``Search`` reads a ``CSRGraph`` only: any
        other graph (a ``DiGraph``, a ``MutableOverlay``) is frozen on entry
        (:func:`repro.graph.csr.freeze`, node and neighbour order exact), so
        answers are those of the graph as given.
    alpha:
        Resource ratio; ``|G_Q| <= alpha * |G|``.
    config:
        Optional config (:class:`RBSimConfig` by default).
    neighborhood_index:
        Optional shared :class:`NeighborhoodIndex`; pass one when issuing many
        queries against the same graph so the offline summaries are reused
        (this mirrors the paper's once-for-all preprocessing).  It must index
        the graph searched, ``index.graph is`` this matcher's ``CSRGraph``
        (freeze once, then build the index and the matchers on the frozen
        graph); any other index raises ``ValueError``.
    reference_size:
        ``|G|`` used for the resource budget; defaults to the size of
        ``graph``.  The sharded serving layer evaluates queries on a shard
        subgraph while keeping the paper's bound stated on the *full* graph,
        so it passes the global size here (budgets, and therefore answers,
        then match single-graph evaluation exactly).
    """

    guard_class: Callable[..., GuardedCondition] = SimulationGuard

    def __init__(
        self,
        graph: GraphLike,
        alpha: float,
        config: Optional[RBSimConfig] = None,
        neighborhood_index: Optional[NeighborhoodIndex] = None,
        reference_size: Optional[int] = None,
    ) -> None:
        graph = self._graph = freeze(graph)
        if neighborhood_index is not None and neighborhood_index.graph is not graph:
            raise ValueError("neighborhood_index must index the CSRGraph this matcher searches")
        self._alpha = alpha
        self._config = config or RBSimConfig()
        self._index = neighborhood_index or NeighborhoodIndex(graph)
        self._reference_size = reference_size
        self._max_degree_cache: Optional[int] = None

    @property
    def graph(self) -> CSRGraph:
        """The data graph this matcher answers queries on (its ``CSRGraph``)."""
        return self._graph

    @property
    def alpha(self) -> float:
        """The resource ratio."""
        return self._alpha

    def _make_budget(self) -> ResourceBudget:
        coefficient = self._config.visit_coefficient
        if coefficient is None:
            # ``d_G``, computed once per matcher: scanning every node's degree
            # is linear in |G| and would otherwise dominate small queries.
            if self._max_degree_cache is None:
                self._max_degree_cache = max(1, self._graph.max_degree())
            coefficient = float(self._max_degree_cache)
        size = self._reference_size if self._reference_size is not None else self._graph.size()
        return ResourceBudget(alpha=self._alpha, graph_size=size, visit_coefficient=coefficient)

    def reduce(self, pattern: GraphPattern, personalized_match: NodeId) -> ReductionResult:
        """Run only the dynamic-reduction step and return ``G_Q``."""
        pattern.validate()
        config = self._config
        return DynamicReducer(
            pattern=pattern,
            graph=self._graph,
            personalized_match=personalized_match,
            guard=self.guard_class(pattern, self._graph, personalized_match, self._index),
            budget=self._make_budget(),
            witnesses=self.witnesses,
            initial_bound=config.initial_bound,
            use_weights=config.use_weights,
            use_guard=config.use_guard,
            max_depth=pattern.diameter(),
        ).search()

    def _match(self, pattern: GraphPattern, subgraph: DiGraph, personalized_match: NodeId) -> Set[NodeId]:
        raise NotImplementedError

    def witnesses(self, pattern: GraphPattern, subgraph: DiGraph, personalized_match: NodeId) -> Set[Edge]:
        """The edges of ``subgraph`` that ``_match``'s answer on it needs (empty when the answer is)."""
        raise NotImplementedError

    def _answer(self, pattern: GraphPattern, personalized_match: Optional[NodeId]) -> PatternAnswer:
        """Reduce to ``G_Q`` and answer exactly inside it (empty without ``vp``)."""
        if personalized_match is None:
            return PatternAnswer(answer=set(), subgraph=DiGraph())
        # Leaf spans under the caller's ``executor.chunk``; one branch each when
        # untraced, and one more to say what the search spent of its budget.
        with obs.span("reduction.search") as span:
            reduction = self.reduce(pattern, personalized_match)
            if span.attrs is not None:
                span.attrs.update(reduction.spend())
        with obs.span("match.exact"):
            answer = self._match(pattern, reduction.subgraph, personalized_match)
        return PatternAnswer(
            answer=answer,
            subgraph=reduction.subgraph,
            budget=reduction.budget,
            reduction=reduction,
        )


class RBSim(BoundedMatcher):
    """Resource-bounded strong-simulation matcher (parameters: :class:`BoundedMatcher`)."""

    def _resolve_personalized(self, pattern: GraphPattern, personalized_match: Optional[NodeId]) -> Optional[NodeId]:
        """Return the data node pinned to ``up``.

        When ``allow_unanchored`` is set and no match is supplied, the node
        with the pattern's personalized label is used if unique; otherwise the
        highest-degree node carrying the most selective pattern label seeds
        the reduction (future-work extension of the paper's conclusion).
        """
        if personalized_match is not None:
            return personalized_match if personalized_match in self._graph else None
        if not self._config.allow_unanchored:
            return None
        labels = [pattern.label_of(node) for node in pattern.nodes() if node != pattern.personalized]
        if not labels:
            return None
        candidates: Set[NodeId] = set()
        for label in labels:
            candidates |= {node for node in self._graph.nodes() if self._graph.label(node) == label}
        if not candidates:
            return None
        return max(candidates, key=lambda node: (self._graph.degree(node), repr(node)))

    def _match(self, pattern: GraphPattern, subgraph: DiGraph, personalized_match: NodeId) -> Set[NodeId]:
        return match_in_subgraph(pattern, subgraph, personalized_match)

    def witnesses(self, pattern: GraphPattern, subgraph: DiGraph, personalized_match: NodeId) -> Set[Edge]:
        """One witness edge per pair of the dual-simulation relation and query edge at it."""
        return simulation_witnesses(pattern, subgraph, personalized_match)

    def answer(self, pattern: GraphPattern, personalized_match: Optional[NodeId] = None) -> PatternAnswer:
        """Algorithm ``RBSim``: reduce to ``G_Q`` and return ``Q(G_Q)``."""
        return self._answer(pattern, self._resolve_personalized(pattern, personalized_match))


def rbsim(
    pattern: GraphPattern,
    graph: GraphLike,
    personalized_match: NodeId,
    alpha: float,
    config: Optional[RBSimConfig] = None,
) -> PatternAnswer:
    """One-shot convenience wrapper around :class:`RBSim`."""
    return RBSim(graph, alpha, config=config).answer(pattern, personalized_match)
