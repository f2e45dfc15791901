"""The answer-unchanged oracle shared by the LRU cache and standing queries.

``GraphService.update`` keeps a cached answer across a delta only when the
re-prepared state is provably answer-identical for it; the subscription
layer (``repro.subscribe``) asks the *same* question about every standing
query to decide which materialised answers need re-evaluation.  The service
asks it once per update, for both populations in one
:func:`partition_entries` call, so cache retention and subscription
maintenance can never disagree about what an update may have changed.

The predicates, per query class:

* **reachability** ``(source, target)`` — retained only when the re-prepared
  α landmark index (plus component ranks) is answer-identical to the
  pre-update one (``UpdateSummary.reach_alphas_preserved``) *and* neither
  endpoint lies in the touched region or in a component that split or
  merged.  The index is a global structure, so the preserved flag is
  necessarily global per α.
* **patterns** ``(personalized_match, radius, caps, spend)`` — a pattern
  answer is a function of the ``d_Q``-ball around the personalized match and
  of the two caps its search ran under, ``⌊α·|G|⌋`` and ``⌊c·α·|G|⌋``
  (§4, Fig. 3; ``c = d_G``).  An entry is retained when its ball is further
  than ``radius`` undirected hops from every touched node and either the
  fresh caps (:meth:`PreparedGraph.pattern_caps`) equal its caps, or its
  search was saturated (``ReductionResult.saturated``) and its spend fits
  strictly under the fresh caps: such a search takes the same steps under
  either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, List, Optional, Sequence, Tuple

from repro.engine.prepared import PreparedGraph, UpdateSummary
from repro.engine.queries import REACH
from repro.graph import kernels

#: ``(key, alpha, anchor)`` — ``key`` is opaque to the oracle (a cache key
#: for the LRU, a subscription ID for the maintenance pass); ``anchor`` is
#: what :func:`anchor_of` produced for the query, or ``None`` when unknown.
Entry = Tuple[Hashable, float, Optional[Tuple[Any, ...]]]


def anchor_of(query, answer) -> Tuple[Any, ...]:
    """What part of the graph and of the budget an answer depends on.

    Reachability answers anchor on their endpoints: ``(REACH, source,
    target)``.  Pattern answers anchor on ``("pattern", match, radius, caps,
    spend)``: the personalized match, a ball-radius upper bound (``|Vp|`` ≥
    the pattern diameter ``Search`` explores), the caps ``(size_limit,
    visit_limit)`` its search ran under, and ``(stored, visited)`` when that
    search was saturated (``None`` otherwise).  An answer no search made
    (no personalized match in the graph) reads no cap: no caps, nothing
    spent.
    """
    if query.kind == REACH:
        return (REACH, query.source, query.target)
    radius = query.pattern.shape()[0]
    reduction = answer.reduction
    if reduction is None:
        return ("pattern", query.personalized_match, radius, None, (0, 0))
    budget = reduction.budget
    spend = (budget.stored, budget.visited) if reduction.saturated else None
    return ("pattern", query.personalized_match, radius, (budget.size_limit, budget.visit_limit), spend)


@dataclass
class InvalidationDecision:
    """The oracle's verdict on one population of entries.

    ``stale`` entries may answer differently on the updated graph and must
    be dropped (cache) or re-evaluated (subscriptions); ``retained`` entries
    are provably answer-identical.
    """

    stale: List[Hashable] = field(default_factory=list)
    retained: List[Hashable] = field(default_factory=list)


def partition_entries(
    populations: Sequence[Sequence[Entry]],
    summary: UpdateSummary,
    prepared: PreparedGraph,
) -> List[InvalidationDecision]:
    """Partition each population into stale vs provably answer-unchanged.

    Parameters
    ----------
    populations:
        Lists of ``(key, alpha, anchor)`` triples, one decision each; an
        entry with a ``None`` anchor is always stale (the oracle cannot
        vouch for what it cannot place).
    summary:
        The :class:`~repro.engine.prepared.UpdateSummary` of the absorbed
        delta.  ``noop`` retains everything; ``rebuilt`` marks everything
        stale (the derived state was dropped wholesale).
    prepared:
        The *post-update* prepared state: the fresh caps per α, and the
        fresh CSR one ball sweep reads for every pattern entry at once.
    """
    decisions = [InvalidationDecision() for _ in populations]
    if summary.mode in ("noop", "rebuilt"):
        for decision, entries in zip(decisions, populations):
            keys = [key for key, _, _ in entries]
            if summary.mode == "noop":
                decision.retained = keys
            else:
                decision.stale = keys
        return decisions
    touched = summary.touched_nodes | summary.membership_dirty
    patterns: List[Tuple[InvalidationDecision, Hashable, float, Tuple[Any, ...]]] = []
    for decision, entries in zip(decisions, populations):
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
                patterns.append((decision, key, alpha, anchor))
    if not patterns:
        return decisions

    graph = prepared.graph
    max_radius = max(anchor[2] for _, _, _, anchor in patterns)
    hops = kernels.csr_hop_levels(graph, [graph.index_of(node) for node in touched], max_radius)
    fresh_caps = {alpha: prepared.pattern_caps(alpha) for alpha in {alpha for _, _, alpha, _ in patterns}}
    for decision, key, alpha, (_, match, radius, caps, spend) in patterns:
        size_cap, visit_cap = fresh = fresh_caps[alpha]
        far = match not in graph or not 0 <= hops[graph.index_of(match)] <= radius
        fits = caps == fresh or (spend is not None and spend[0] < size_cap and spend[1] < visit_cap)
        (decision.retained if far and fits else decision.stale).append(key)
    return decisions


__all__ = [
    "Entry",
    "InvalidationDecision",
    "anchor_of",
    "partition_entries",
]
