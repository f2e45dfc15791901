"""Engine query objects: one value type per query class the paper serves.

The engine answers the paper's two query classes — reachability (Section 5)
and personalized patterns (Sections 3–4) — in *batches*.  Each query knows
its own stable :meth:`fingerprint`, which keys the engine's answer cache and
lets worker processes agree on query identity without relying on Python's
randomised ``hash``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.exceptions import EngineError
from repro.graph.digraph import NodeId
from repro.patterns.pattern import GraphPattern
from repro.workloads.queries import pattern_fingerprint, reachability_fingerprint

REACH = "reach"
"""Kind tag for reachability queries (answered by ``RBReach``)."""

SIMULATION = "simulation"
"""Kind tag for strong-simulation pattern queries (answered by ``RBSim``)."""

SUBGRAPH = "subgraph"
"""Kind tag for subgraph-isomorphism pattern queries (answered by ``RBSub``)."""

KINDS = (REACH, SIMULATION, SUBGRAPH)


def _memoized(query, compute) -> str:
    """Per-object fingerprint memo (frozen dataclasses still own a dict).

    Repeated batches probe the cache with the same query objects; hashing
    the full query repr once per *object* instead of once per *batch* keeps
    the warm cache-hit path nearly free.
    """
    cached = query.__dict__.get("_fingerprint")
    if cached is None:
        cached = compute()
        object.__setattr__(query, "_fingerprint", cached)
    return cached


@dataclass(frozen=True)
class ReachQuery:
    """"Does ``source`` reach ``target``?" — answered by ``RBReach``."""

    source: NodeId
    target: NodeId

    kind = REACH

    def fingerprint(self) -> str:
        """Stable cross-process identity of this query (memoized)."""
        return _memoized(self, lambda: reachability_fingerprint(self.source, self.target))


@dataclass(frozen=True)
class PatternQuery:
    """A personalized pattern query under one of the two paper semantics."""

    pattern: GraphPattern
    personalized_match: NodeId
    semantics: str = SIMULATION

    def __post_init__(self) -> None:
        if self.semantics not in (SIMULATION, SUBGRAPH):
            raise EngineError(
                f"unknown pattern semantics {self.semantics!r}; "
                f"use {SIMULATION!r} or {SUBGRAPH!r}"
            )

    @property
    def kind(self) -> str:
        """The executor dispatch kind (which matcher answers this query)."""
        return self.semantics

    def fingerprint(self) -> str:
        """Stable cross-process identity of this query (semantics included, memoized)."""
        return _memoized(
            self,
            lambda: self.semantics
            + ":"
            + pattern_fingerprint(self.pattern, self.personalized_match),
        )


EngineQuery = Union[ReachQuery, PatternQuery]
