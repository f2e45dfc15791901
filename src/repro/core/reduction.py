"""Dynamic reduction: the ``Search`` / ``Pick`` procedures of Figure 3 of
Fan, Wang & Wu, *"Querying Big Graphs within Bounded Resources"* (SIGMOD 2014).

Given a pattern ``Q``, a graph ``G``, the personalized match ``vp`` and a
resource budget, ``Search`` performs a controlled traversal of ``G`` starting
from ``vp`` and populates a subgraph ``G_Q`` with candidate matches:

* only nodes satisfying the guarded condition ``C(v, u)`` are considered;
* the weights rank what a full ``G_Q`` keeps, so ``Search`` first makes one
  *unweighted pass*: no bound, no ranking, every eligible neighbour pushed
  in scan order, charged and stopped as below.  Only where an admission
  fills ``G_Q`` and the weighted search would reclaim it is the pass
  abandoned: its visits stay charged, and the weighted search below
  *restarts* from ``(up, vp)`` with a new ``G_Q`` (the rows, the roles and
  the eligible lists the pass loaded carry over; they depend on ``G`` and
  ``Q`` alone).  Otherwise the pass is the search, also where it runs out
  of visits: a restart there could only spend less;
* in the weighted search, among eligible neighbours the top-``b`` by
  weight ``p/(c+1)`` are pushed (procedure ``Pick``), with the best
  candidate on top of the stack;
* a ``Pick`` with more eligible neighbours than ``b`` is *cut*.  When the
  stack drains and a ``Pick`` is still cut, the bound grows to ``b+1`` and
  the next pass *resumes*: it re-Picks only the cut Picks, in the order
  they were made, each giving its best candidates not given before (up to
  ``b`` over its life), and runs the same traversal from those; a query edge
  is expanded at a data node once from each of its ends per search.  This is
  the paper's restart from ``(up, vp)`` without re-walking what did not
  change;
* the visit cap pays for what is read: a first ``Pick`` at ``v`` is charged
  ``|N(v)|``, an admission ``1`` plus its edges, a reclamation ``|G_Q|``; a
  re-Pick reads no row (its ``Remainder`` kept the candidates), so it is
  charged only the candidates it gives, at least 1; and after a restart, a
  ``Pick`` the abandoned pass made reads the row the pass paid for, so it is
  charged nothing;
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
from itertools import filterfalse, repeat
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
    ``Pick`` was made again (each charged the candidates it gave, never its
    row again); ``reclaimed`` is how many edges the storage
    reclamations dropped from ``G_Q`` (so ``storage`` with ``reclaimed > 0``
    says ``alpha`` binds even after the spare edges were freed);
    ``restarted`` says the unweighted pass filled ``G_Q`` with the visits to
    reclaim it left, so the weighted search ran from ``(up, vp)``, and
    ``abandoned_visits`` is what that pass was charged, counted in
    ``budget.visited``.  A search the pass made alone has one pass and the
    initial bound, and ``restarted`` false.
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
    restarted: bool = False
    abandoned_visits: int = 0

    @property
    def saturated(self) -> bool:
        """Whether no cap bound this search: one pass to its ``fixpoint`` that
        never reclaimed, with ``stored`` and ``visited`` strictly under the
        caps.  Every charge then fit and no cut fired, so under any caps its
        spend fits strictly under the search takes the same steps and gives
        the same ``G_Q``."""
        budget = self.budget
        return (
            self.stop == "fixpoint"
            and not self.restarted
            and self.reclaimed == 0
            and budget.stored < budget.size_limit
            and budget.visited < budget.visit_limit
        )

    def spend(self) -> Dict[str, object]:
        """Budget spent versus budget allowed, as the ``reduction.search`` span carries it."""
        budget = self.budget
        return {
            "passes": self.passes,
            "stop": self.stop,
            "cut": self.cut,
            "ungiven": self.ungiven,
            "reclaimed": self.reclaimed,
            "restarted": self.restarted,
            "abandoned_visits": self.abandoned_visits,
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
        # One pass over the query edges.  Per query node: its query children,
        # then its query parents (in the pattern's order), each with the bit
        # of the query edge between them seen from this end (one bit per edge
        # and end: a data node playing both ends expands the edge toward
        # each); and its role bit with the role bits of its query children and
        # of its query parents, the roles the far end of a readable edge plays.
        bits = self._estimator.bits
        downward: Dict[QueryNodeId, list] = {node: [] for node in bits}
        upward: Dict[QueryNodeId, list] = {node: [] for node in bits}
        below, above = dict.fromkeys(bits, 0), dict.fromkeys(bits, 0)
        for position, (source, target) in enumerate(pattern.edges):
            downward[source].append((target, 1 << 2 * position))
            upward[target].append((source, 2 << 2 * position))
            below[source] |= bits[target]
            above[target] |= bits[source]
        self._incident = {node: downward[node] + upward[node] for node in bits}
        self._reads = [(bit, below[node], above[node]) for node, bit in bits.items()]
        self._edge_role_memo: Dict[int, Tuple[int, int]] = {}

    # ------------------------------------------------------------------ #
    # Procedures Search and Pick
    # ------------------------------------------------------------------ #
    def search(self) -> ReductionResult:
        """Extract ``G_Q`` (procedure ``Search`` of Fig. 3, ``Pick`` inline).

        One unweighted pass first (:meth:`_pass`).  Where it fills ``G_Q``
        with the visits to read it left, the weighted search would reclaim:
        the pass is abandoned, still charged, and the weighted search
        (:meth:`_weighted`) restarts from ``(up, vp)``.  Otherwise the pass is
        the search.  Charges accumulate in locals and reach the budget when
        the search ends.
        """
        budget = self._budget
        if self._vp not in self._graph:
            return ReductionResult(
                subgraph=DiGraph(), budget=snapshot(budget), final_bound=self._initial_bound, passes=0
            )
        builder = SubgraphBuilder(self._graph)
        candidate_counts: Dict[QueryNodeId, int] = {node: 0 for node in self._pattern.nodes()}
        stop, stored, visited, picked = self._pass(builder, candidate_counts)
        if stop is None:
            return self._weighted(visited, picked)
        budget.charge_storage(stored)
        budget.charge_visit(visited)
        return ReductionResult(
            subgraph=builder.partial,
            budget=snapshot(budget),
            final_bound=self._initial_bound,
            candidate_counts=candidate_counts,
            stop=stop,
        )

    def _eligible_of(self) -> Callable[[NodeId, QueryNodeId], List[NodeId]]:
        """What gives the distinct neighbours of a node a ``Pick`` for a query
        node may give, in scan order: the search state's ``eligible``, or
        the label test alone in the guardless ablation."""
        return self._estimator.eligible if self._use_guard else self._labelled

    def _labelled(self, node: NodeId, neighbor_query: QueryNodeId) -> List[NodeId]:
        """Ablation mode: only the label must match (up is matched by identity)."""
        state = self._estimator
        if neighbor_query == self._pattern.personalized:
            return [self._vp] if self._vp in state.distinct(node) else []
        return state.labelled(node, neighbor_query)

    def _edge_roles(self, roles: int) -> Tuple[int, int]:
        """The roles a child and a parent of a node playing ``roles`` must
        play for the edge between them to be readable (once per ``roles``)."""
        found = self._edge_role_memo.get(roles)
        if found is None:
            child_roles = parent_roles = 0
            for bit, below, above in self._reads:
                if roles & bit:
                    child_roles |= below
                    parent_roles |= above
            found = self._edge_role_memo[roles] = (child_roles, parent_roles)
        return found

    def _pass(
        self, builder: SubgraphBuilder, candidate_counts: Dict[QueryNodeId, int]
    ) -> Tuple[Optional[str], int, int, Dict[NodeId, int]]:
        """The traversal from ``(up, vp)`` with no bound and no ranking: a
        ``Pick`` pushes every eligible candidate not queued for its query
        node, the first in scan order on top.  It is charged as the weighted
        search is and stops where that search would: ``visits`` when a charge
        would pass the cap, ``storage`` when the budget was full before it
        began, ``fixpoint`` when the stack drains.  The one step it cannot
        take is a reclamation, whose kept edges depend on the admission
        order: where an admission fills ``G_Q`` and the read of ``G_Q`` fits
        the visits, it gives up (stop ``None``).  Returns the stop, the
        storage and visits charged, and the Picks made (per data node, the
        query edges expanded there, as bits).  It reads only what depends on
        ``G`` and ``Q`` (no weight, no push), so it leaves nothing for the
        weighted search to undo.
        """
        budget, state, vp = self._budget, self._estimator, self._vp
        room = budget.size_limit - budget.stored
        visit_room = budget.visit_limit - budget.visited
        gq, roles_of, incident, max_depth = builder.members, state.roles, self._incident, self._max_depth
        describe, width_of, eligible_of, edge_roles = state.describe, state.width, self._eligible_of(), self._edge_roles
        add_node, add_row_edges = builder.add_node, builder.add_row_edges
        personalized = self._pattern.personalized
        stored = visited = 0
        expanded: Dict[NodeId, int] = {}
        queued: Dict[QueryNodeId, Set[NodeId]] = {u: set() for u in state.bits}
        queued[personalized].add(vp)
        stack: List[Tuple[QueryNodeId, NodeId, int]] = [(personalized, vp, 0)]
        while stack:
            query_node, node, depth = stack.pop()
            queued[query_node].discard(node)
            if node not in gq:
                if stored >= room:  # only a budget spent before the search is full here
                    return "storage", stored, visited, expanded
                if visited >= visit_room:
                    return "visits", stored, visited, expanded
                label, roles, children, parents = describe(node)
                add_node(node, label)
                child_roles, parent_roles = edge_roles(roles)
                edges = add_row_edges(
                    node, children, parents, min(room - stored, visit_room - visited) - 1,
                    roles_of, child_roles, parent_roles,
                )
                stored += 1 + edges
                visited += 1 + edges
                candidate_counts[query_node] += 1
                if stored >= room:
                    # Full: the weighted search reclaims here, if reading G_Q fits.
                    return ("visits" if visited + stored > visit_room else None), stored, visited, expanded
            if depth >= max_depth:
                continue
            done, width = expanded.get(node, 0), None
            for neighbor_query, edge_bit in incident[query_node]:
                if done & edge_bit:
                    continue
                if width is None:
                    width = width_of(node)
                if visited + width > visit_room:
                    return "visits", stored, visited, expanded
                visited += width
                done |= edge_bit
                waiting = queued[neighbor_query]
                candidates = list(filterfalse(waiting.__contains__, eligible_of(node, neighbor_query)))
                if candidates:
                    stack.extend(zip(repeat(neighbor_query), reversed(candidates), repeat(depth + 1)))
                    waiting.update(candidates)
            expanded[node] = done
        return "fixpoint", stored, visited, expanded

    def _weighted(self, spent: int, paid: Dict[NodeId, int]) -> ReductionResult:
        """The weighted, resumable search from ``(up, vp)``, after an unweighted
        pass that filled ``G_Q``, was charged ``spent`` visits and was abandoned.
        ``paid`` holds the Picks that pass made (per data node, the query
        edges expanded there): the same ``Pick`` made here reads the row the
        pass paid for, so it is charged nothing.

        A pop admits a new node into ``G_Q`` (its edges to members read from
        its own row, kept when its roles and the member's meet on a query
        edge), then expands each query edge at that node not expanded
        before from the end it plays: ``Pick`` charges ``|N(v)|`` visits and
        pushes the top-``b`` eligible neighbours not yet queued for that query
        node, best on top, and keeps the rest as the ``Remainder`` of a cut
        ``Pick``.  When the stack drains, the next cut ``Pick`` of the pass is
        made again (the first one of the next pass at ``b+1`` once the pass is
        over), giving what its bound now allows and charged just that many
        visits: it reads the ``Remainder``, not the row.  An admission that
        fills ``G_Q`` reclaims it (see the module docstring) before the node
        is expanded.
        """
        builder = SubgraphBuilder(self._graph)
        gq = builder.partial
        bound, budget, vp = self._initial_bound, self._budget, self._vp
        state, pattern = self._estimator, self._pattern
        in_gq, bits, incident, max_depth = state.in_gq, state.bits, self._incident, self._max_depth
        witnesses, edge_roles, eligible_of = self._witnesses, self._edge_roles, self._eligible_of()
        use_weights, personalized = self._use_weights, pattern.personalized
        candidate_counts: Dict[QueryNodeId, int] = {node: 0 for node in pattern.nodes()}
        room = budget.size_limit - budget.stored  # storage left; G_Q is full at 0
        visit_room = budget.visit_limit - budget.visited  # a charge past it is not made
        stored = repicks = reclaimed = 0
        visited = spent
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
                # A re-Pick reads no row: it is charged the candidates it gives.
                give = min(len(remainder), bound - remainder.given)
                if visited + give > visit_room:
                    stop = "visits"
                    break
                visited += give
                position += 1
                repicks += 1
                taken = remainder.take(give)
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
                if visited >= visit_room:
                    stop = "visits"
                    break
                label, roles, children, parents = state.admit(node)
                builder.add_node(node, label)
                child_roles, parent_roles = edge_roles(roles)
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
                # Pick: every distinct neighbour of ``node`` is charged, unless
                # the abandoned pass read them for the same Pick.
                width = 0 if paid.get(node, 0) & edge_bit else state.width(node)
                if visited + width > visit_room:
                    stop = "visits"
                    break
                visited += width
                done |= edge_bit
                eligible = eligible_of(node, neighbor_query)
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
            subgraph=builder.partial,
            budget=snapshot(budget),
            final_bound=bound,
            passes=passes,
            candidate_counts=candidate_counts,
            stop=stop,
            cut=len(open_picks),
            ungiven=sum(len(remainder) for *_, remainder in open_picks),
            repicks=repicks,
            reclaimed=reclaimed,
            restarted=True,
            abandoned_visits=spent,
        )
