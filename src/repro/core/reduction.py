"""Dynamic reduction: the ``Search`` / ``Pick`` procedures of Figure 3 of
Fan, Wang & Wu, *"Querying Big Graphs within Bounded Resources"* (SIGMOD 2014).

Given a pattern ``Q``, a graph ``G``, the personalized match ``vp`` and a
resource budget, ``Search`` performs a controlled traversal of ``G`` starting
from ``vp`` and populates a subgraph ``G_Q`` with candidate matches:

* only nodes satisfying the guarded condition ``C(v, u)`` are considered;
* among eligible neighbours the top-``b`` by weight ``p/(c+1)`` are pushed
  (procedure ``Pick``), with the best candidate on top of the stack;
* a ``Pick`` with more eligible neighbours than ``b`` is *cut*.  When the
  stack drains and a ``Pick`` is still cut, the bound grows to ``b+1`` and
  the next pass *resumes*: it re-Picks only the cut Picks, in the order
  they were made, each giving its best candidates not given before (up to
  ``b`` over its life), and runs the same traversal from those; a query edge
  is expanded at a data node once per search.  This is the paper's restart
  from ``(up, vp)`` without re-walking what did not change;
* when an admission brings ``|G_Q|`` to ``alpha * |G|``, ``G_Q`` is
  *reclaimed*: reading it costs ``|G_Q|`` visits, the matcher names the
  edges its current answer on ``G_Q`` needs (``witnesses``), every other
  edge is dropped, the node just admitted gets the readable edges the room
  had cut off it, and the search goes on where it was (reclaiming again
  while ``G_Q`` is still full);
* the traversal stops when ``G_Q`` is full and a reclamation would free
  nothing (the answer on ``G_Q`` is empty, or needs every edge: ``storage``),
  when the next charge would pass the visit cap ``c * alpha * |G|``
  (``visits``), or when no ``Pick`` is left cut (``fixpoint``: every
  ``Pick`` made has given all its eligible candidates);
  ``ReductionResult.stop`` says which, ``ReductionResult.ungiven`` how
  many candidates the cut Picks still held and ``ReductionResult.reclaimed``
  how many edges were dropped.

``G_Q`` holds the admitted nodes and, of the edges of ``G`` between them,
only those a match can read: a node joining ``G_Q`` is joined to a member
``w`` by ``v -> w`` only when some query edge ``(u, u')`` has ``C(v, u)`` and
``C(w, u')`` (and likewise ``w -> v``).  Dual simulation and the isomorphism
step read an edge only as the image of a query edge, and ``C`` is necessary
for a match in ``G``, so the edges left out change no answer; ``|G_Q|`` is
still nodes plus the edges stored.  A reclamation keeps the witnesses of the
answer it read, and the answer on ``G_Q`` only grows with ``G_Q``, so the
answer at the end contains the one at every reclamation; a reclaimed
``G_Q`` is no longer the readable subgraph induced on its nodes.  The weights
read ``in_gq`` and rows, never ``G_Q``'s edges, so reclaiming changes the
order nodes are admitted in nowhere.

The procedure is shared by ``RBSim`` and ``RBSub``; they differ only in the
guarded condition (and therefore in the weights derived from it) and in the
matcher that names the witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import filterfalse
from operator import or_
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.budget import BudgetReport, ResourceBudget, snapshot
from repro.core.weights import GuardedCondition, Remainder, WeightEstimator
from repro.graph.digraph import DiGraph, Edge, NodeId
from repro.graph.protocol import GraphLike
from repro.graph.subgraph import SubgraphBuilder
from repro.patterns.pattern import GraphPattern, QueryNodeId


#: A cut ``Pick``: the node it was made at, the query node it picks for, the
#: node's traversal depth, and the candidates it has not given yet.
CutPick = Tuple[NodeId, QueryNodeId, int, Remainder]

#: The matcher's witness rule: the edges of ``G_Q`` its answer on ``G_Q``
#: needs, from ``(pattern, G_Q, vp)``; empty when the answer is.
WitnessRule = Callable[[GraphPattern, DiGraph, NodeId], Set[Edge]]


@dataclass
class ReductionResult:
    """Outcome of the dynamic reduction step.

    ``subgraph`` is the extracted ``G_Q``; ``budget`` records how much of the
    allowance was used; ``final_bound`` is the selection bound ``b`` of the
    last pass; ``passes`` counts the passes (the first from ``(up, vp)``,
    each later one resuming the cut Picks); ``stop`` says why it
    stopped: ``storage`` (``|G_Q|`` reached ``alpha * |G|``), ``visits`` (the
    next charge would pass the visit cap) or ``fixpoint`` (no ``Pick`` was
    left cut, so the graph ran out before the budget); ``cut`` is how many
    Picks were still cut at the stop and ``ungiven`` how many eligible
    candidates they still held, so ``storage`` or ``visits`` with
    ``ungiven > 0`` says the budget, not the graph, ended the search (and
    ``fixpoint`` always has both at 0); ``repicks`` is how many times a cut
    ``Pick`` was made again; ``reclaimed`` is how many edges the storage
    reclamations dropped from ``G_Q`` (so ``storage`` with ``reclaimed > 0``
    says ``alpha`` binds even after the spare edges were freed).
    """

    subgraph: DiGraph
    budget: BudgetReport
    final_bound: int = 2
    passes: int = 1
    candidate_counts: Dict[QueryNodeId, int] = field(default_factory=dict)
    stop: str = "fixpoint"
    cut: int = 0
    ungiven: int = 0
    repicks: int = 0
    reclaimed: int = 0

    def spend(self) -> Dict[str, object]:
        """Budget spent versus budget allowed, as the ``reduction.search`` span carries it."""
        budget = self.budget
        return {
            "passes": self.passes,
            "stop": self.stop,
            "cut": self.cut,
            "ungiven": self.ungiven,
            "reclaimed": self.reclaimed,
            "stored": budget.stored,
            "size_limit": budget.size_limit,
            "visited": budget.visited,
            "visit_limit": budget.visit_limit,
        }


class DynamicReducer:
    """Implements procedures ``Search`` and ``Pick`` of the paper (Fig. 3)."""

    def __init__(
        self,
        pattern: GraphPattern,
        graph: GraphLike,
        personalized_match: NodeId,
        guard: GuardedCondition,
        budget: ResourceBudget,
        witnesses: WitnessRule,
        initial_bound: int = 2,
        use_weights: bool = True,
        use_guard: bool = True,
        max_depth: Optional[int] = None,
    ) -> None:
        self._pattern = pattern
        self._graph = graph
        self._vp = personalized_match
        self._budget = budget
        self._witnesses = witnesses
        self._initial_bound = max(1, initial_bound)
        self._use_weights = use_weights
        self._use_guard = use_guard
        # Restrict the traversal to the d_Q-ball of vp: the paper's G_Q is a
        # subgraph of G_dQ(vp), so candidates farther than max_depth hops
        # (measured along the traversal) are never added.
        self._max_depth = max_depth if max_depth is not None else pattern.diameter()
        # The flat state of the search (rows, ``in_gq``, costs): a reducer runs
        # one search, so the state lives exactly as long as its rows hold.
        self._estimator = WeightEstimator(pattern, graph, personalized_match, guard)
        # Query neighbours of each query node, each with the bit of the query
        # edge between them (one bit per edge, whichever end it is seen from).
        edge_bits = {
            (node, child): 1 << position
            for position, (node, child) in enumerate(
                (node, child) for node in pattern.nodes() for child in pattern.children(node)
            )
        }
        self._incident = {
            node: [(child, edge_bits[node, child]) for child in pattern.children(node)]
            + [(parent, edge_bits[parent, node]) for parent in pattern.parents(node)]
            for node in pattern.nodes()
        }
        # Per query node: its role bit, and the role bits of its query children
        # and of its query parents, the roles the far end of a readable edge plays.
        bits = self._estimator.bits
        self._reads = [
            (
                bits[node],
                reduce(or_, (bits[child] for child in pattern.children(node)), 0),
                reduce(or_, (bits[parent] for parent in pattern.parents(node)), 0),
            )
            for node in pattern.nodes()
        ]

    # ------------------------------------------------------------------ #
    # Procedures Search and Pick
    # ------------------------------------------------------------------ #
    def search(self) -> ReductionResult:
        """Extract ``G_Q`` (procedure ``Search`` of Fig. 3, ``Pick`` inline).

        A pop admits a new node into ``G_Q`` (its edges to members read from
        its own row, kept when its roles and the member's meet on a query
        edge), then expands each query edge at that node not expanded
        before: ``Pick`` charges ``|N(v)|`` visits and pushes the top-``b``
        eligible neighbours not yet queued for that query node, best on top,
        and keeps the rest as the ``Remainder`` of a cut ``Pick``.  When the
        stack drains, the next cut ``Pick`` of the pass is made again (the
        first one of the next pass at ``b+1`` once the pass is over), giving
        what its bound now allows.  An admission that fills ``G_Q`` reclaims
        it (see the module docstring) before the node is expanded.  Charges
        accumulate in locals and reach the budget when the search ends.
        """
        builder = SubgraphBuilder(self._graph)
        gq = builder.partial
        bound, budget, vp = self._initial_bound, self._budget, self._vp
        if vp not in self._graph:
            return ReductionResult(
                subgraph=builder.build(), budget=snapshot(budget), final_bound=bound, passes=0
            )

        state, pattern = self._estimator, self._pattern
        in_gq, bits, incident, max_depth = state.in_gq, state.bits, self._incident, self._max_depth
        reads, witnesses = self._reads, self._witnesses
        use_guard, use_weights, personalized = self._use_guard, self._use_weights, pattern.personalized
        candidate_counts: Dict[QueryNodeId, int] = {node: 0 for node in pattern.nodes()}
        room = budget.size_limit - budget.stored  # storage left; G_Q is full at 0
        visit_room = budget.visit_limit - budget.visited  # a charge past it is not made
        stored = visited = repicks = reclaimed = 0
        passes, stop = 1, None
        # Per data node, the query edges expanded there (as bits); per query
        # node, the data nodes queued for it.
        expanded: Dict[NodeId, int] = {}
        queued: Dict[QueryNodeId, Set[NodeId]] = {u: set() for u in bits}
        queued[personalized].add(vp)
        stack: List[Tuple[QueryNodeId, NodeId, int]] = [(personalized, vp, 0)]
        # The cut Picks of this pass still to be made again, and those of the next.
        pending: List[CutPick] = []
        cuts: List[CutPick] = []
        position = 0
        while True:
            if not stack:
                if position == len(pending):  # the pass is over
                    if not cuts:
                        stop = "fixpoint"
                        break
                    pending, cuts, position = cuts, [], 0
                    bound, passes = bound + 1, passes + 1
                pick = pending[position]
                node, neighbor_query, depth, remainder = pick
                width = state.width(node)
                if visited + width > visit_room:
                    stop = "visits"
                    break
                visited += width
                position += 1
                repicks += 1
                taken = remainder.take(bound - remainder.given)
                if remainder:
                    cuts.append(pick)
                waiting = queued[neighbor_query]
                for candidate in reversed(taken):
                    stack.append((neighbor_query, candidate, depth + 1))
                    waiting.add(candidate)
                continue

            query_node, node, depth = stack.pop()
            queued[query_node].discard(node)
            if node not in in_gq:
                if stored >= room:  # only a budget spent before the search is full here
                    stop = "storage"
                    break
                if visited >= visit_room:
                    stop = "visits"
                    break
                label, roles, children, parents = state.admit(node)
                builder.add_node(node, label)
                child_roles = parent_roles = 0
                for bit, below, above in reads:
                    if roles & bit:
                        child_roles |= below
                        parent_roles |= above
                edges = builder.add_row_edges(
                    node, children, parents, min(room - stored, visit_room - visited) - 1,
                    state.roles, child_roles, parent_roles,
                )
                stored += 1 + edges
                visited += 1 + edges
                candidate_counts[query_node] += 1
                while stored >= room:
                    # Reclaim: read G_Q (|G_Q| visits), keep the edges the
                    # answer on it needs and drop the rest; then the node just
                    # admitted gets the readable edges the room cut off it
                    # (never one it had, kept or dropped).
                    if visited + stored > visit_room:
                        stop = "visits"
                        break
                    visited += stored
                    needed = witnesses(pattern, gq, vp)
                    had_children, had_parents = gq.successors(node), gq.predecessors(node)
                    children = [child for child in children if child not in had_children]
                    parents = [parent for parent in parents if parent not in had_parents]
                    freed = builder.retain_edges(needed) if needed else 0
                    if not freed:
                        stop = "storage"
                        break
                    stored -= freed
                    reclaimed += freed
                    edges = builder.add_row_edges(
                        node, children, parents, min(room - stored, visit_room - visited),
                        state.roles, child_roles, parent_roles,
                    )
                    stored += edges
                    visited += edges
                if stop is not None:
                    break
            if depth >= max_depth:
                continue
            done = expanded.get(node, 0)
            for neighbor_query, edge_bit in incident[query_node]:
                if done & edge_bit:
                    continue
                # Pick: every distinct neighbour of ``node`` is charged.
                width = state.width(node)
                if visited + width > visit_room:
                    stop = "visits"
                    break
                visited += width
                done |= edge_bit
                if use_guard:
                    eligible = state.eligible(node, neighbor_query)
                elif neighbor_query == personalized:
                    # Ablation mode: only the label must match (up is matched by identity).
                    eligible = [vp] if vp in state.distinct(node) else []
                else:
                    eligible = state.labelled(node, neighbor_query)
                waiting = queued[neighbor_query]
                if len(eligible) > bound:
                    # Cut: the rest waits for a later pass, best first.
                    remainder = Remainder(state, eligible, neighbor_query, use_weights)
                    candidates = remainder.take(bound, waiting)
                    cuts.append((node, neighbor_query, depth, remainder))
                else:
                    candidates = list(filterfalse(waiting.__contains__, eligible))
                    if use_weights and len(candidates) > 1:
                        candidates = state.rank(candidates, neighbor_query, bound)
                    # Without weights (FIFO ablation) discovery order is the ranking.
                for candidate in reversed(candidates):
                    stack.append((neighbor_query, candidate, depth + 1))
                    waiting.add(candidate)
            expanded[node] = done
            if stop is not None:
                break

        budget.charge_storage(stored)
        budget.charge_visit(visited)
        open_picks = cuts + pending[position:]
        return ReductionResult(
            subgraph=builder.build(),
            budget=snapshot(budget),
            final_bound=bound,
            passes=passes,
            candidate_counts=candidate_counts,
            stop=stop,
            cut=len(open_picks),
            ungiven=sum(len(remainder) for *_, remainder in open_picks),
            repicks=repicks,
            reclaimed=reclaimed,
        )
