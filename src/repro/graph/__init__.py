"""Graph substrate: data model, traversal, components, statistics, generators.

This package implements the data-graph machinery of the paper (Section 2):
node-labeled directed graphs, r-hop neighbourhoods / balls, subgraph
extraction, SCC condensation, topological ranks, plus the synthetic graph
generators and serialisation used by the workloads and experiments.
"""

from repro.graph.bisimulation import (
    SimulationCompressedGraph,
    bisimulation_partition,
    compress_for_simulation,
    simulation_preserving,
)
from repro.graph.components import (
    Condensation,
    condensation,
    is_dag,
    strongly_connected_components,
)
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph, Edge, Label, NodeId
from repro.graph.protocol import GraphLike
from repro.graph.shm import SEGMENT_PREFIX, SharedCSRGraph
from repro.graph.generators import (
    DEFAULT_ALPHABET,
    community_graph,
    complete_bipartite_graph,
    cycle_graph,
    layered_dag,
    path_graph,
    preferential_attachment_graph,
    random_graph,
    star_graph,
)
from repro.graph.kernels import ReachBatch, reach_batch
from repro.graph.io import (
    BACKENDS,
    from_json_dict,
    read_edge_list,
    read_json,
    to_json_dict,
    write_edge_list,
    write_json,
)
from repro.graph.neighborhood import (
    NeighborhoodIndex,
    ball,
    ball_size,
    max_label_fanout,
    nodes_within_hops,
    theoretical_alpha_bound,
)
from repro.graph.statistics import (
    GraphProfile,
    LabelIndex,
    average_degree,
    degree_histogram,
    density,
    label_cooccurrence,
    label_histogram,
    maximum_label_fanout,
    profile,
    summarize_for_report,
    top_degree_nodes,
)
from repro.graph.subgraph import (
    SubgraphBuilder,
    edge_subgraph,
    induced_subgraph,
    is_subgraph,
)
from repro.graph.topology import (
    TopologicalRankIndex,
    csr_topological_ranks,
    verify_rank_invariant,
)
from repro.graph.traversal import (
    ancestors,
    bfs_levels,
    bfs_order,
    bidirectional_reachable,
    connected_component,
    descendants,
    dfs_order,
    diameter,
    eccentricity,
    is_reachable,
    shortest_path,
    weakly_connected_components,
)

__all__ = [
    "BACKENDS",
    "CSRGraph",
    "DiGraph",
    "Edge",
    "GraphLike",
    "Label",
    "NodeId",
    "SEGMENT_PREFIX",
    "SharedCSRGraph",
    "SimulationCompressedGraph",
    "bisimulation_partition",
    "compress_for_simulation",
    "simulation_preserving",
    "Condensation",
    "condensation",
    "is_dag",
    "strongly_connected_components",
    "DEFAULT_ALPHABET",
    "community_graph",
    "complete_bipartite_graph",
    "cycle_graph",
    "layered_dag",
    "path_graph",
    "preferential_attachment_graph",
    "random_graph",
    "star_graph",
    "ReachBatch",
    "reach_batch",
    "from_json_dict",
    "read_edge_list",
    "read_json",
    "to_json_dict",
    "write_edge_list",
    "write_json",
    "NeighborhoodIndex",
    "ball",
    "ball_size",
    "max_label_fanout",
    "nodes_within_hops",
    "theoretical_alpha_bound",
    "GraphProfile",
    "LabelIndex",
    "average_degree",
    "degree_histogram",
    "density",
    "label_cooccurrence",
    "label_histogram",
    "maximum_label_fanout",
    "profile",
    "summarize_for_report",
    "top_degree_nodes",
    "SubgraphBuilder",
    "edge_subgraph",
    "induced_subgraph",
    "is_subgraph",
    "TopologicalRankIndex",
    "csr_topological_ranks",
    "verify_rank_invariant",
    "ancestors",
    "bfs_levels",
    "bfs_order",
    "bidirectional_reachable",
    "connected_component",
    "descendants",
    "dfs_order",
    "diameter",
    "eccentricity",
    "is_reachable",
    "shortest_path",
    "weakly_connected_components",
]
