"""Matching substrate: simulation, strong simulation, subgraph isomorphism."""

from repro.matching.filters import (
    degree_filtered_candidates,
    has_empty_candidate_set,
    label_candidates,
    structural_prune,
)
from repro.matching.simulation import (
    MatchRelation,
    dual_simulation,
    graph_simulation,
    output_matches,
    relation_is_empty,
    verify_dual_simulation,
)
from repro.matching.strong_simulation import (
    StrongSimulationResult,
    match_in_subgraph,
    match_opt,
    simulation_witnesses,
    strong_simulation,
)
from repro.matching.vf2 import (
    SubgraphIsomorphismResult,
    embedding_witnesses,
    isomorphic_answer_in_subgraph,
    subgraph_isomorphism,
    vf2_opt,
)

__all__ = [
    "degree_filtered_candidates",
    "has_empty_candidate_set",
    "label_candidates",
    "structural_prune",
    "MatchRelation",
    "dual_simulation",
    "graph_simulation",
    "output_matches",
    "relation_is_empty",
    "verify_dual_simulation",
    "StrongSimulationResult",
    "match_in_subgraph",
    "match_opt",
    "simulation_witnesses",
    "strong_simulation",
    "SubgraphIsomorphismResult",
    "embedding_witnesses",
    "isomorphic_answer_in_subgraph",
    "subgraph_isomorphism",
    "vf2_opt",
]
