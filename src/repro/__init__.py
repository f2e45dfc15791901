"""repro — resource-bounded graph query answering.

A self-contained reproduction of *"Querying Big Graphs within Bounded
Resources"* (Fan, Wang & Wu, SIGMOD 2014).  The package provides:

* :mod:`repro.graph` — the data-graph substrate (directed labeled graphs,
  neighbourhoods, SCC condensation, topological ranks, generators, I/O);
* :mod:`repro.patterns` — graph pattern queries with personalized/output
  nodes and workload generators;
* :mod:`repro.matching` — strong simulation and subgraph isomorphism
  (the exact baselines);
* :mod:`repro.core` — the resource-bounded pattern algorithms ``RBSim`` and
  ``RBSub`` with explicit budgets and accuracy measures;
* :mod:`repro.reachability` — the hierarchical landmark index and the
  resource-bounded reachability algorithm ``RBReach`` plus baselines;
* :mod:`repro.workloads` and :mod:`repro.experiments` — datasets, query
  workloads and the drivers that regenerate every table and figure of the
  paper's evaluation section.

Quickstart (serving)::

    from repro import GraphService, ReachRequest, ServiceConfig

    with GraphService.open("youtube-small", ServiceConfig(alpha=0.02)) as service:
        report = service.run_batch([ReachRequest(4, 17), ReachRequest(3, 99)])
        print(report.plan.backend, [a.reachable for a in report.answers])

Quickstart (paper algorithms)::

    from repro import RBSim, youtube_like, generate_pattern_workload

    graph = youtube_like()
    workload = generate_pattern_workload(graph, shape=(4, 8), count=3, seed=1)
    matcher = RBSim(graph, alpha=0.01)
    for query in workload:
        answer = matcher.answer(query.pattern, query.personalized_match)
        print(query.shape, len(answer.answer), answer.subgraph_size)

The old top-level serving aliases (``ShardedEngine``, ``Partition``,
``partition_graph``) have been removed after their one-release deprecation
window — serve through :class:`repro.service.GraphService`, or import the
low-level machinery from :mod:`repro.shard` / :mod:`repro.engine` directly.
See ``docs/MIGRATION.md``.
"""

from repro.core import (
    AccuracyReport,
    PatternAnswer,
    RBSim,
    RBSimConfig,
    RBSub,
    ResourceBudget,
    pattern_accuracy,
    rbsim,
    rbsub,
)
from repro.graph import CSRGraph, DiGraph, GraphLike
from repro.matching import match_opt, strong_simulation, subgraph_isomorphism, vf2_opt
from repro.patterns import GraphPattern, example1_pattern, make_pattern
from repro.reachability import (
    BFSOptReachability,
    BFSReachability,
    LandmarkVectorReachability,
    RBReach,
    build_index,
    compress,
    rbreach,
)
from repro.service import (
    GraphService,
    PatternRequest,
    ReachRequest,
    ServiceAnswer,
    ServiceConfig,
    ServiceStats,
)
from repro.workloads import (
    generate_pattern_workload,
    generate_reachability_workload,
    load_dataset,
    scale_alpha,
    synthetic,
    yahoo_like,
    youtube_like,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "AccuracyReport",
    "PatternAnswer",
    "RBSim",
    "RBSimConfig",
    "RBSub",
    "ResourceBudget",
    "pattern_accuracy",
    "rbsim",
    "rbsub",
    "CSRGraph",
    "DiGraph",
    "GraphLike",
    "match_opt",
    "strong_simulation",
    "subgraph_isomorphism",
    "vf2_opt",
    "GraphPattern",
    "example1_pattern",
    "make_pattern",
    "BFSOptReachability",
    "BFSReachability",
    "LandmarkVectorReachability",
    "RBReach",
    "build_index",
    "compress",
    "rbreach",
    "GraphService",
    "PatternRequest",
    "ReachRequest",
    "ServiceAnswer",
    "ServiceConfig",
    "ServiceStats",
    "generate_pattern_workload",
    "generate_reachability_workload",
    "load_dataset",
    "scale_alpha",
    "synthetic",
    "yahoo_like",
    "youtube_like",
]
