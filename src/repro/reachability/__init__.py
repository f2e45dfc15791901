"""Non-localized (reachability) querying within bounded resources (Section 5)."""

from repro.reachability.baselines import (
    BFSOptReachability,
    BFSReachability,
    BaselineAnswer,
    LandmarkVectorReachability,
    exact_answers,
)
from repro.reachability.compression import (
    CompressedGraph,
    compress,
    verify_reachability_preserved,
)
from repro.reachability.hierarchy import (
    HierarchicalLandmarkIndex,
    LandmarkInfo,
    build_index,
)
from repro.reachability.landmarks import first_landmarks_hit, greedy_landmarks
from repro.reachability.rbreach import RBReach, ReachabilityAnswer, rbreach

__all__ = [
    "BFSOptReachability",
    "BFSReachability",
    "BaselineAnswer",
    "LandmarkVectorReachability",
    "exact_answers",
    "CompressedGraph",
    "compress",
    "verify_reachability_preserved",
    "HierarchicalLandmarkIndex",
    "LandmarkInfo",
    "build_index",
    "first_landmarks_hit",
    "greedy_landmarks",
    "RBReach",
    "ReachabilityAnswer",
    "rbreach",
]
