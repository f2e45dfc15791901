"""The answer-unchanged oracle shared by the LRU cache and standing queries.

``GraphService.update`` keeps a cached answer across a delta only when the
repaired state is provably answer-identical for it; the subscription layer
(``repro.subscribe``) asks the *same* question about every standing query
to decide which materialised answers need re-evaluation.  Both call
:func:`partition_entries` — one oracle, two consumers — so cache retention
and subscription maintenance can never disagree about what an update may
have changed.

The predicates, per query class:

* **reachability** ``(source, target)`` — retained only when the repaired α
  landmark index (plus component ranks) is answer-identical to the
  pre-update one (``UpdateSummary.reach_alphas_preserved``) *and* neither
  endpoint lies in the touched region.  The index is a global structure, so
  the preserved flag is necessarily global per α.
* **patterns** ``(personalized_match, radius)`` — a pattern answer is a
  function of the ``d_Q``-ball around the personalized match, the storage
  budget ``⌊α·|G|⌋`` and the visit coefficient (max degree).  An entry is
  retained when the budget *quantum* is unchanged (``|G|`` may drift within
  ``⌊α·|G|⌋`` without moving the bound the matcher actually consults — see
  ``repro.core.budget.ResourceBudget.size_limit``), the max-degree guard
  still holds, and the ball is further than ``radius`` undirected hops from
  every touched node.

The pattern guard is the max degree snapshotted when the first pattern
answer was cached; :func:`partition_entries` returns the guard to carry
forward, dropping it (``None``) whenever no pattern entry survives so a
stale guard can never outlive the entries it described.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.engine.queries import REACH
from repro.graph.digraph import NodeId
from repro.graph.protocol import GraphLike
from repro.engine.prepared import UpdateSummary

#: ``(key, alpha, anchor)`` — ``key`` is opaque to the oracle (a cache key
#: for the LRU, a subscription ID for the maintenance pass); ``anchor`` is
#: what :func:`anchor_of` produced for the query, or ``None`` when unknown.
Entry = Tuple[Hashable, float, Optional[Tuple[Any, ...]]]


def anchor_of(query) -> Tuple[Any, ...]:
    """What part of the graph a cached answer depends on.

    Reachability answers anchor on their endpoints; pattern answers on the
    personalized match plus a ball-radius upper bound (``|Vp|`` ≥ the
    pattern diameter RBSim explores).
    """
    if query.kind == REACH:
        return (REACH, query.source, query.target)
    return ("pattern", query.personalized_match, query.pattern.shape()[0])


def pattern_budget_changed(alpha: float, summary: UpdateSummary) -> bool:
    """Whether the delta moved the α storage budget ``⌊α·|G|⌋``.

    The pattern matchers bound ``|G_Q|`` by ``max(1, ⌊α·|G|⌋)`` and never
    consult ``|G|`` elsewhere, so a size drift that stays within one budget
    quantum is answer-invisible to every pattern query under that α.
    """
    before = max(1, math.floor(alpha * summary.size_before))
    after = max(1, math.floor(alpha * summary.size_after))
    return before != after


def hops_from(graph: GraphLike, sources, max_hops: int) -> Dict[NodeId, int]:
    """Undirected hop distance from any source, up to ``max_hops``."""
    distances: Dict[NodeId, int] = {}
    frontier = [node for node in sources if node in graph]
    for node in frontier:
        distances[node] = 0
    depth = 0
    while frontier and depth < max_hops:
        depth += 1
        next_frontier: List[NodeId] = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor not in distances:
                    distances[neighbor] = depth
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return distances


@dataclass
class InvalidationDecision:
    """The oracle's verdict on one update: which entries survived.

    ``stale`` entries may answer differently on the updated graph and must
    be dropped (cache) or re-evaluated (subscriptions); ``retained`` entries
    are provably answer-identical.  ``pattern_guard`` is the max-degree
    snapshot the caller should carry forward (``None`` when it must be
    re-snapshotted with the next pattern answer).
    """

    stale: List[Hashable] = field(default_factory=list)
    retained: List[Hashable] = field(default_factory=list)
    pattern_guard: Optional[int] = None


def partition_entries(
    entries: Sequence[Entry],
    summary: UpdateSummary,
    *,
    pattern_guard: Optional[int],
    graph: GraphLike,
    max_degree: Callable[[], int],
) -> InvalidationDecision:
    """Partition ``entries`` into stale vs provably answer-unchanged.

    Parameters
    ----------
    entries:
        ``(key, alpha, anchor)`` triples; an entry with a ``None`` anchor is
        always stale (the oracle cannot vouch for what it cannot place).
    summary:
        The :class:`~repro.engine.prepared.UpdateSummary` of the absorbed
        delta.  ``noop`` retains everything; ``rebuilt`` marks everything
        stale (the derived state was dropped wholesale).
    pattern_guard:
        The caller's max-degree snapshot from when its first pattern answer
        was materialised (``None`` when no snapshot is held).
    graph:
        The *post-update* graph, for the ball-distance sweep.
    max_degree:
        Zero-argument callable returning the current max degree — only
        invoked on the rare guard-boundary case, so callers can pass a
        lazily-computed property without paying a full scan per update.
    """
    decision = InvalidationDecision()
    if summary.mode == "noop":
        decision.retained = [key for key, _, _ in entries]
        decision.pattern_guard = pattern_guard
        return decision
    if summary.mode == "rebuilt":
        # Derived state was dropped wholesale; nothing is vouched for.
        decision.stale = [key for key, _, _ in entries]
        return decision
    touched = summary.touched_nodes | summary.membership_dirty
    pattern_entries: List[Tuple[Hashable, float, Any, int]] = []
    for key, alpha, anchor in entries:
        if anchor is None:
            decision.stale.append(key)
        elif anchor[0] == REACH:
            _, source, target = anchor
            if (
                not summary.reach_alphas_preserved.get(alpha, False)
                or source in touched
                or target in touched
            ):
                decision.stale.append(key)
            else:
                decision.retained.append(key)
        else:
            pattern_entries.append((key, alpha, anchor[1], anchor[2]))

    if pattern_entries:
        stale_patterns = _stale_pattern_entries(
            pattern_entries, summary, touched, pattern_guard, graph, max_degree
        )
        decision.stale.extend(stale_patterns)
        retained_patterns = len(pattern_entries) - len(stale_patterns)
        if retained_patterns:
            stale_set = set(stale_patterns)
            decision.retained.extend(
                key for key, _, _, _ in pattern_entries if key not in stale_set
            )
            decision.pattern_guard = pattern_guard
    # No surviving pattern entry ⇒ drop the guard so it re-snapshots with
    # the next pattern answer.  (This also heals the guard after capacity
    # evictions silently removed the entries it described.)
    return decision


def _stale_pattern_entries(
    pattern_entries: List[Tuple[Hashable, float, Any, int]],
    summary: UpdateSummary,
    touched,
    guard: Optional[int],
    graph: GraphLike,
    max_degree: Callable[[], int],
) -> List[Hashable]:
    """Pattern entries an update may have invalidated.

    Pattern answers depend on the storage budget ``⌊α·|G|⌋``, the visit
    coefficient (max degree) and the ball around the personalized match; an
    entry survives only when all three are provably unchanged.
    """
    if guard is None:
        return [key for key, _, _, _ in pattern_entries]
    # Only the delta's touched nodes changed degree, so the global max moved
    # only if a touched node now exceeds the guard or a touched node *at*
    # the guard shrank (it may have been the unique holder).  This keeps the
    # common update free of a full-graph degree scan.
    after = summary.touched_degrees_after
    before = summary.touched_degrees_before
    if max(after.values(), default=0) > guard:
        return [key for key, _, _, _ in pattern_entries]
    if any(
        degree == guard and after.get(node, 0) < guard
        for node, degree in before.items()
    ):
        if max_degree() != guard:
            return [key for key, _, _, _ in pattern_entries]
    budget_moved = {
        alpha: pattern_budget_changed(alpha, summary)
        for alpha in {alpha for _, alpha, _, _ in pattern_entries}
    }
    max_radius = max(radius for _, _, _, radius in pattern_entries)
    hops = hops_from(graph, touched, max_radius)
    return [
        key
        for key, alpha, match, radius in pattern_entries
        if budget_moved[alpha] or hops.get(match, max_radius + 1) <= radius
    ]


__all__ = [
    "Entry",
    "InvalidationDecision",
    "anchor_of",
    "hops_from",
    "partition_entries",
    "pattern_budget_changed",
]
