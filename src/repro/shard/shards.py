"""Per-shard serving graphs: induced subgraphs with halo (ghost) regions.

Each shard serves the subgraph induced by its *core* nodes plus a ``halo`` —
every node within :data:`DEFAULT_HALO_DEPTH` undirected hops of the core,
with all edges among included nodes.  The halo is what lets a shard answer
locally beyond its own border:

* a core node's adjacency is always *complete* (its neighbours are halo
  members at worst), so shard-local traversals through core nodes see
  exactly the full graph's structure;
* more generally, a node at distance ``d < halo_depth`` from the core has
  complete adjacency, so anything a matcher reads within ``halo_depth - 1``
  hops past the core agrees bit-for-bit with the full graph.

The default depth of 3 is the exact margin the pattern matchers need: for a
query whose ``d_Q``-ball lies inside the core, the dynamic reduction reads
adjacency up to one hop past the ball (potential/cost estimation), degrees up
to two hops past it (the isomorphism guard), and labels up to two hops past
it (neighbourhood summaries) — all within the guaranteed-exact region, which
is what makes shard-contained answers bit-identical to single-graph
evaluation (property-tested in ``tests/test_shard.py``).

The build runs on row arrays of the source's CSR freeze, never node by node:
a shard's core is the rows its owner column gives it, the halo is a
level-synchronous BFS over index arrays, and the shard graph is
``CSRGraph.induced`` over core plus halo — the source's successor *and*
predecessor slices filtered through a membership map (a ``DiGraph`` replay
could only preserve one order), so every order-sensitive heuristic
downstream makes the same decisions it would make on the full graph.  At
``k = 1`` the slice is exactly ``CSRGraph.from_digraph(graph)`` — the
bit-identical baseline the parity tests compare against.  Only
:func:`assemble_region`, the spill path, still walks node by node: it
stitches a region from owner-shard fragments with
:func:`induced_order_preserving`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.engine.prepared import PreparedGraph
from repro.exceptions import ShardError
from repro.graph.csr import CSRGraph, _indptr, _intern_labels, _union_degrees, freeze
from repro.graph.digraph import NodeId
from repro.graph.protocol import GraphLike
from repro.shard.partition import Partition

DEFAULT_HALO_DEPTH = 3
"""Ghost-region depth; the minimum that preserves pattern-matcher reads
(adjacency to ball+1, degrees and labels to ball+2) bit-exactly for
core-contained balls."""


def induced_order_preserving(source: GraphLike, ordered_nodes: Sequence[NodeId]) -> CSRGraph:
    """The subgraph induced by ``ordered_nodes``, both adjacency orders kept.

    Built as a :class:`CSRGraph` whose successor *and* predecessor slices are
    the source's slices filtered to included nodes — something a ``DiGraph``
    edge replay cannot reproduce (one insertion sequence cannot realise two
    independent orders).  Node by node, for sources with no rows to slice:
    the views :func:`assemble_region` stitches together.
    """
    ids: List[NodeId] = list(ordered_nodes)
    index = {node: i for i, node in enumerate(ids)}
    n = len(ids)
    sides = []
    for neighbors in (source.successors, source.predecessors):
        kept = [[index[other] for other in neighbors(node) if other in index] for node in ids]
        sides.append(_indptr(np.fromiter(map(len, kept), dtype=np.int64, count=n)))
        sides.append(np.fromiter(chain.from_iterable(kept), dtype=np.int64, count=int(sides[-1][-1])))
    succ_indptr, succ_indices, pred_indptr, pred_indices = sides
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(succ_indptr))
    return CSRGraph(
        ids,
        *_intern_labels(map(source.label, ids), n),
        succ_indptr,
        succ_indices,
        pred_indptr,
        pred_indices,
        _union_degrees(n, sources, succ_indices),
        _index=index,
    )


def collect_halo(graph: CSRGraph, core_rows: np.ndarray, depth: int) -> np.ndarray:
    """Rows within ``depth`` undirected hops of the core rows, in discovery order.

    Level-synchronous BFS seeded from the core in its stored order, each
    frontier row's successors before its predecessors — every tie is broken
    by a stored iteration order, so the halo (and therefore the shard
    graph's node order) is deterministic.  A level is one gather of the
    frontier's adjacency, kept at each unseen row's first occurrence.
    """
    seen = np.zeros(graph.num_nodes(), dtype=bool)
    seen[core_rows] = True
    levels = [core_rows[:0]]
    frontier = core_rows
    for _ in range(depth):
        reached = graph.adjacent_rows(frontier)
        reached = reached[~seen[reached]]
        if not reached.shape[0]:
            break
        _, first = np.unique(reached, return_index=True)
        frontier = reached[np.sort(first)]
        seen[frontier] = True
        levels.append(frontier)
    return np.concatenate(levels)


@dataclass
class GraphShard:
    """One shard's serving state: graph, membership sets and prepared state."""

    shard_id: int
    graph: CSRGraph
    core: Set[NodeId]
    core_list: List[NodeId]
    halo: Set[NodeId]
    prepared: PreparedGraph
    core_size: int

    def ball_in_core(self, node: NodeId, radius: int) -> bool:
        """Whether the undirected ``radius``-ball around ``node`` stays in core.

        Computed on the shard graph, which is exact: as long as every visited
        node is core its adjacency is complete, so the shard-local ball
        equals the full-graph ball level by level; the first halo node
        encountered proves the full-graph ball escapes the core too.
        """
        if node not in self.core:
            return False
        graph = self.graph
        seen = {node}
        frontier = [node]
        for _ in range(radius):
            next_frontier: List[NodeId] = []
            for current in frontier:
                for neighbor in list(graph.successors(current)) + list(graph.predecessors(current)):
                    if neighbor in seen:
                        continue
                    if neighbor not in self.core:
                        return False
                    seen.add(neighbor)
                    next_frontier.append(neighbor)
            frontier = next_frontier
            if not frontier:
                break
        return True


def build_shard(
    graph: CSRGraph,
    owner: np.ndarray,
    shard_id: int,
    num_shards: int,
    halo_depth: int = DEFAULT_HALO_DEPTH,
    global_size: Optional[int] = None,
    visit_coefficient: Optional[float] = None,
) -> GraphShard:
    """Build one shard's serving graph and prepared state from the frozen source graph.

    ``owner`` is each row's home shard (:meth:`Partition.owners`).  The core
    is the rows it gives ``shard_id``, in row order; the shard graph is the
    row slice of core plus halo.  With ``k = 1`` the budget overrides stay
    unset so the shard's prepared state is *exactly* a single-graph
    :class:`PreparedGraph` (live sizes, same CSR) — the reference point of
    the parity contract.  With ``k > 1`` the RBReach budget is pinned to the
    shard's share of ``α·|G|`` and the pattern budget to the global graph's
    parameters.
    """
    if halo_depth < 1:
        raise ShardError("halo_depth must be >= 1 (cut edges live in the halo)")
    single = num_shards == 1
    core_rows = np.flatnonzero(owner == shard_id)
    halo_rows = core_rows[:0] if single else collect_halo(graph, core_rows, halo_depth)
    shard_graph = graph.induced(np.concatenate((core_rows, halo_rows)))
    ordered = list(shard_graph.nodes())  # the shard graph's own id objects, core first
    core_list = ordered[: core_rows.shape[0]]
    halo = set(ordered[core_rows.shape[0] :])
    # |V_core| plus the core's out-edges: cut edges are owned by their source.
    core_size = core_rows.shape[0] + int(np.diff(graph._succ_indptr)[core_rows].sum())
    prepared = PreparedGraph(
        shard_graph,
        reach_reference_size=None if single else core_size,
        pattern_reference_size=None if single else global_size,
        pattern_visit_coefficient=None if single else visit_coefficient,
    )
    return GraphShard(
        shard_id=shard_id,
        graph=shard_graph,
        core=set(core_list),
        core_list=core_list,
        halo=halo,
        prepared=prepared,
        core_size=core_size,
    )


def build_shards(
    graph: GraphLike,
    partition: Partition,
    halo_depth: int = DEFAULT_HALO_DEPTH,
) -> Dict[int, GraphShard]:
    """Build every shard of ``partition`` over ``graph``'s CSR freeze.

    ``|G|`` and ``d_G`` are read once off the frozen graph's columns.
    """
    graph = freeze(graph)
    owner = partition.owners(graph)
    global_size = graph.size()
    visit_coefficient = float(max(1, graph.max_degree()))
    return {
        shard_id: build_shard(
            graph,
            owner,
            shard_id,
            partition.num_shards,
            halo_depth=halo_depth,
            global_size=global_size,
            visit_coefficient=visit_coefficient,
        )
        for shard_id in range(partition.num_shards)
    }


class MultiShardView:
    """Read-only adjacency view stitched from shard graphs (no full graph).

    Resolves every node through its *owner* shard, whose core adjacency is
    complete — so the view agrees with the full graph on any node it can
    resolve.  Used by the sharded engine to assemble the evaluation region
    of a spilled pattern query from shard fragments.
    """

    def __init__(self, shards: Dict[int, GraphShard], partition: Partition):
        self._shards = shards
        self._partition = partition

    def _owner(self, node: NodeId) -> GraphShard:
        shard_id = self._partition.shard_of(node)
        if shard_id is None:
            raise ShardError(f"node {node!r} has no home shard")
        return self._shards[shard_id]

    def label(self, node: NodeId):
        """Label from the owner shard (exact for every assigned node)."""
        return self._owner(node).graph.label(node)

    def successors(self, node: NodeId):
        """Owner-shard successor view (complete and order-exact for cores)."""
        return self._owner(node).graph.successors(node)

    def predecessors(self, node: NodeId):
        """Owner-shard predecessor view (complete and order-exact for cores)."""
        return self._owner(node).graph.predecessors(node)


def assemble_region(
    shards: Dict[int, GraphShard],
    partition: Partition,
    center: NodeId,
    radius: int,
) -> Tuple[GraphLike, int]:
    """Materialise the undirected ``radius``-ball around ``center`` from shards.

    A multi-shard BFS walks owner-shard adjacency (each hop resolved by the
    node's home shard, where its adjacency is complete), so the assembled
    region agrees with the full graph without the full graph ever existing
    in one place.  Returns the induced, order-preserving region graph plus
    the number of distinct shards touched.
    """
    view = MultiShardView(shards, partition)
    ordered: List[NodeId] = [center]
    seen = {center}
    touched = {partition.shard_of(center)}
    frontier = [center]
    for _ in range(radius):
        next_frontier: List[NodeId] = []
        for node in frontier:
            for neighbor in list(view.successors(node)) + list(view.predecessors(node)):
                if neighbor not in seen:
                    seen.add(neighbor)
                    ordered.append(neighbor)
                    next_frontier.append(neighbor)
                    touched.add(partition.shard_of(neighbor))
        frontier = next_frontier
        if not frontier:
            break
    return induced_order_preserving(view, ordered), len(touched)


__all__ = [
    "DEFAULT_HALO_DEPTH",
    "GraphShard",
    "MultiShardView",
    "assemble_region",
    "build_shard",
    "build_shards",
    "collect_halo",
    "induced_order_preserving",
]
