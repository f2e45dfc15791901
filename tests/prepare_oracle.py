"""The element-by-element ``RBIndex`` prepare of PR 17, frozen as an oracle.

Every function here is the body that stood in ``src/`` before the prepare
moved to whole-array passes (commit cf00f60): ``CSRGraph.from_digraph`` with
one numpy scalar store per edge, ``condensation`` over node-keyed dicts and
checked ``add_edge`` calls, Kahn-order ``topological_ranks``, the
``greedy_landmarks`` sort that asks ``DiGraph.degree`` per candidate, and the
per-landmark ``probe_rows``/``row_lists`` extraction loops of
``_cover_statistics_csr`` and ``_out_of_index_labels_by_sweep``.  They exist
only so ``tests/test_prepare_differential.py`` can demand the same objects
from the array passes; nothing in ``src/`` imports them.  The one addition
is :func:`oracle_build_index`, which strings the frozen stages together the
way ``compress`` + ``build_index`` did.  The stages hand back the containers
``src/`` once accepted beside its columns: :class:`OracleCondensation` (the
DAG, membership and member dicts), :class:`OracleRankIndex` (a node → rank
dict), :class:`OracleCompressedGraph` over the two, and
:class:`OracleLandmarkIndex` with label dicts, each reading its containers
the way the removed container arms of ``Condensation``,
``TopologicalRankIndex``, ``CompressedGraph`` and
``HierarchicalLandmarkIndex`` did.  :func:`verify_rank_invariant` and
:func:`selection_scores` are the recurrence and the greedy score written out
node by node.

The shard build is frozen the same way, from before it moved to row arrays:
``greedy_partition`` rescanning every candidate's neighbours for its pull
(with ``_pick_seeds``, ``_refine`` and the edge-by-edge ``_finalize``), the
node-keyed ``collect_halo`` BFS, ``induced_order_preserving`` with its
per-node slice lists, and ``build_shard``'s core selection.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ShardError
from repro.graph.csr import CSRGraph, _union_degrees
from repro.graph.digraph import DiGraph, Label, NodeId
from repro.graph.kernels import reach_batch
from repro.graph.protocol import GraphLike
from repro.reachability.hierarchy import HierarchicalLandmarkIndex, assemble_index
from repro.reachability.landmarks import first_landmarks_hit
from repro.shard.partition import BALANCE_SLACK, GREEDY, REFINEMENT_PASSES, Partition


# --------------------------------------------------------------------------- #
# The prepared objects as containers
# --------------------------------------------------------------------------- #
@dataclass
class OracleCondensation:
    """The condensation as three containers: the DAG, node → component id, component id → members."""

    dag: DiGraph
    membership: Dict[NodeId, int]
    members: Dict[int, Set[NodeId]]


class OracleRankIndex:
    """Topological ranks as a node → rank dict, with ``L`` and ``D``."""

    def __init__(self, graph: DiGraph, ranks: Dict[NodeId, int], max_rank: int, max_degree: int) -> None:
        self.graph = graph
        self._ranks = ranks
        self.max_rank = max_rank
        self.max_degree = max_degree

    def rank(self, node: NodeId) -> int:
        return self._ranks[node]

    def ranks(self) -> Dict[NodeId, int]:
        return dict(self._ranks)

    def selection_score(self, node: NodeId) -> float:
        degree = self.graph.degree(node)
        rank = self.rank(node)
        denominator = self.max_rank * self.max_degree
        if denominator == 0:
            return float(degree * rank)
        return (degree * rank) / denominator


@dataclass
class OracleCompressedGraph:
    """``CompressedGraph`` over the container condensation and the rank dict."""

    original: GraphLike
    condensation: OracleCondensation
    ranks: OracleRankIndex
    dag_csr: Optional[CSRGraph]

    @property
    def dag(self) -> DiGraph:
        return self.condensation.dag

    def component_of(self, node: NodeId) -> int:
        return self.condensation.membership[node]

    def locate(self, node: NodeId) -> Optional[Tuple[int, int]]:
        if node not in self.original:
            return None
        component = self.component_of(node)
        return component, self.ranks.rank(component)

    def rank_rows(self) -> List[int]:
        return list(map(self.ranks.rank, self.dag_csr.nodes()))

    def rank_of(self, node: NodeId) -> int:
        return self.ranks.rank(self.component_of(node))

    def compression_ratio(self) -> float:
        original_size = self.original.size()
        if original_size == 0:
            return 1.0
        return self.dag.size() / original_size


@dataclass
class OracleLandmarkIndex(HierarchicalLandmarkIndex):
    """The landmark index with plain-dict labels, handed out as copies (``RBReach`` adds to its seeds)."""

    forward_labels: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)
    backward_labels: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)

    def labels_of(self, dag_node: NodeId, forward: bool) -> Set[NodeId]:
        table = self.forward_labels if forward else self.backward_labels
        return set(table.get(dag_node, ()))


def verify_rank_invariant(graph: DiGraph, ranks: Dict[NodeId, int]) -> bool:
    """Check that ranks satisfy the defining recurrence."""
    for node in graph.nodes():
        children = graph.successors(node)
        expected = 0 if not children else 1 + max(ranks[child] for child in children)
        if ranks[node] != expected:
            return False
    return True


def selection_scores(dag: GraphLike, ranks) -> Dict[NodeId, float]:
    """The greedy score of every node: ``(degree * rank) / (L * D)``."""
    return {node: ranks.selection_score(node) for node in dag.nodes()}


# --------------------------------------------------------------------------- #
# Freeze
# --------------------------------------------------------------------------- #
def oracle_from_digraph(graph: DiGraph, preserve_order: bool = True) -> CSRGraph:
    ids = list(graph.nodes())
    index = {node: i for i, node in enumerate(ids)}
    n = len(ids)

    label_table: List[Label] = []
    label_index: Dict[Label, int] = {}
    label_ids = np.empty(n, dtype=np.int64)
    for i, node in enumerate(ids):
        label = graph.label(node)
        lid = label_index.get(label)
        if lid is None:
            lid = len(label_table)
            label_index[label] = lid
            label_table.append(label)
        label_ids[i] = lid

    succ_indptr = np.zeros(n + 1, dtype=np.int64)
    for i, node in enumerate(ids):
        succ_indptr[i + 1] = succ_indptr[i] + graph.out_degree(node)
    m = int(succ_indptr[-1])
    succ_indices = np.empty(m, dtype=np.int64)
    edge_sources = np.empty(m, dtype=np.int64)
    pos = 0
    for i, node in enumerate(ids):
        for target in graph.successors(node):
            succ_indices[pos] = index[target]
            edge_sources[pos] = i
            pos += 1

    if preserve_order:
        pred_indptr = np.zeros(n + 1, dtype=np.int64)
        for i, node in enumerate(ids):
            pred_indptr[i + 1] = pred_indptr[i] + graph.in_degree(node)
        pred_indices = np.empty(m, dtype=np.int64)
        fill = pred_indptr[:-1].copy()
        for i, node in enumerate(ids):
            for source in graph.predecessors(node):
                j = index[source]
                pred_indices[int(fill[i])] = j
                fill[i] += 1
    else:
        order = np.argsort(succ_indices, kind="stable")
        pred_indices = edge_sources[order]
        pred_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(succ_indices, minlength=n), out=pred_indptr[1:])

    degrees = _union_degrees(n, edge_sources, succ_indices)
    return CSRGraph(
        ids,
        label_table,
        label_ids,
        succ_indptr,
        succ_indices,
        pred_indptr,
        pred_indices,
        degrees,
    )


# --------------------------------------------------------------------------- #
# Condense
# --------------------------------------------------------------------------- #
def oracle_successor_adjacency(graph: CSRGraph) -> Dict[NodeId, List[NodeId]]:
    indptr = graph._succ_indptr.tolist()
    values = graph._succ_indices.tolist()
    ids = graph._ids
    return {
        node: [ids[j] for j in values[indptr[i] : indptr[i + 1]]] for i, node in enumerate(ids)
    }


def oracle_strongly_connected_components(graph: GraphLike) -> List[Set[NodeId]]:
    index_counter = 0
    indices: Dict[NodeId, int] = {}
    lowlinks: Dict[NodeId, int] = {}
    on_stack: Set[NodeId] = set()
    stack: List[NodeId] = []
    components: List[Set[NodeId]] = []

    if isinstance(graph, CSRGraph):
        adjacency = oracle_successor_adjacency(graph)

        def successors_of(node: NodeId) -> List[NodeId]:
            return adjacency[node]

    else:

        def successors_of(node: NodeId) -> List[NodeId]:
            return list(graph.successors(node))

    for root in graph.nodes():
        if root in indices:
            continue
        work: List[Tuple[NodeId, List[NodeId], int]] = [(root, successors_of(root), 0)]
        indices[root] = lowlinks[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children, child_pos = work.pop()
            advanced = False
            while child_pos < len(children):
                child = children[child_pos]
                child_pos += 1
                if child not in indices:
                    indices[child] = lowlinks[child] = index_counter
                    index_counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((node, children, child_pos))
                    work.append((child, successors_of(child), 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[child])
            if advanced:
                continue
            if lowlinks[node] == indices[node]:
                component: Set[NodeId] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
    return components


def oracle_condensation(graph: GraphLike) -> OracleCondensation:
    components = oracle_strongly_connected_components(graph)
    position = {node: index for index, node in enumerate(graph.nodes())}
    membership: Dict[NodeId, int] = {}
    members: Dict[int, Set[NodeId]] = {}
    representatives: Dict[int, NodeId] = {}
    for component in components:
        representative = min(component, key=position.__getitem__)
        component_id = position[representative]
        members[component_id] = component
        representatives[component_id] = representative
        for node in component:
            membership[node] = component_id
    dag = DiGraph()
    for component_id in sorted(members):
        dag.add_node(component_id, graph.label(representatives[component_id]))
    dag_edges: Set[Tuple[int, int]] = set()
    for source, target in graph.edges():
        source_id = membership[source]
        target_id = membership[target]
        if source_id != target_id:
            dag_edges.add((source_id, target_id))
    for source_id, target_id in sorted(dag_edges):
        dag.add_edge(source_id, target_id)
    return OracleCondensation(dag=dag, membership=membership, members=members)


# --------------------------------------------------------------------------- #
# Rank
# --------------------------------------------------------------------------- #
def oracle_topological_sort(graph: DiGraph) -> List[NodeId]:
    in_degree: Dict[NodeId, int] = {node: graph.in_degree(node) for node in graph.nodes()}
    queue: deque = deque(node for node, degree in in_degree.items() if degree == 0)
    order: List[NodeId] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for child in graph.successors(node):
            in_degree[child] -= 1
            if in_degree[child] == 0:
                queue.append(child)
    assert len(order) == graph.num_nodes(), "oracle_topological_sort needs a DAG"
    return order


def oracle_topological_ranks(graph: DiGraph) -> Dict[NodeId, int]:
    order = oracle_topological_sort(graph)
    ranks: Dict[NodeId, int] = {}
    for node in reversed(order):
        children = graph.successors(node)
        if not children:
            ranks[node] = 0
        else:
            ranks[node] = 1 + max(ranks[child] for child in children)
    return ranks


def oracle_rank_index(dag: DiGraph) -> OracleRankIndex:
    ranks = oracle_topological_ranks(dag)
    return OracleRankIndex(
        dag, ranks, max(ranks.values()) if ranks else 0, dag.max_degree()
    )


def oracle_compress(graph: GraphLike) -> OracleCompressedGraph:
    """``compress`` as it stood: condense, Kahn ranks, re-freeze the DAG."""
    condensed = oracle_condensation(graph)
    ranks = oracle_rank_index(condensed.dag)
    dag_csr = None
    if isinstance(graph, CSRGraph):
        dag_csr = oracle_from_digraph(condensed.dag, preserve_order=False)
    return OracleCompressedGraph(original=graph, condensation=condensed, ranks=ranks, dag_csr=dag_csr)


# --------------------------------------------------------------------------- #
# Order and select
# --------------------------------------------------------------------------- #
def oracle_selection_order(
    dag: DiGraph, ranks: OracleRankIndex, weights: Optional[Dict[NodeId, float]] = None
) -> List[NodeId]:
    """The candidate sort at the head of ``greedy_landmarks``."""

    def sort_key(node: NodeId):
        weight = weights.get(node, 1.0) if weights else 1.0
        degree = dag.degree(node)
        return (-((degree * (ranks.rank(node) + 1)) * weight), -degree, repr(node))

    return sorted(dag.nodes(), key=sort_key)


def oracle_select_leaves(compressed: OracleCompressedGraph, alpha: float, size_budget: int) -> List[NodeId]:
    dag = compressed.dag
    exclusion_radius = max(1, math.floor(2 / alpha)) if alpha < 1 else 1
    num_leaves = max(1, min(size_budget // 2, dag.num_nodes()))
    component_sizes = {
        component: float(len(members))
        for component, members in compressed.condensation.members.items()
    }
    excluded: Set[NodeId] = set()
    selected: List[NodeId] = []
    for node in oracle_selection_order(dag, compressed.ranks, component_sizes):
        if len(selected) >= num_leaves:
            break
        if node in excluded:
            continue
        selected.append(node)
        excluded.add(node)
        removed = 0
        for neighbor in dag.neighbors(node):
            if removed >= exclusion_radius:
                break
            if neighbor not in excluded:
                excluded.add(neighbor)
                removed += 1
    return selected


# --------------------------------------------------------------------------- #
# Extract
# --------------------------------------------------------------------------- #
def oracle_cover_statistics_csr(
    csr_dag: CSRGraph, landmarks: List[NodeId]
) -> Tuple[Dict[NodeId, Tuple[int, int]], Dict[NodeId, Set[NodeId]], Dict[NodeId, Set[NodeId]]]:
    landmark_indices = np.array(
        [csr_dag.index_of(landmark) for landmark in landmarks], dtype=np.int64
    )
    parts: Dict[NodeId, Tuple[int, int]] = {}
    forward_reach: Dict[NodeId, Set[NodeId]] = {}
    backward_reach: Dict[NodeId, Set[NodeId]] = {}
    forward_batch = reach_batch(csr_dag, landmarks, forward=True)
    backward_batch = reach_batch(csr_dag, landmarks, forward=False)
    descendant_counts = forward_batch.counts()
    ancestor_counts = backward_batch.counts()
    for j, landmark in enumerate(landmarks):
        own_row = int(landmark_indices[j])
        for batch, table in ((forward_batch, forward_reach), (backward_batch, backward_reach)):
            hits = batch.probe_rows(j, landmark_indices)
            table[landmark] = {csr_dag.node_at(i) for i in hits if i != own_row}
        parts[landmark] = (int(descendant_counts[j]) - 1, int(ancestor_counts[j]) - 1)
    return parts, forward_reach, backward_reach


def oracle_out_of_index_labels_by_sweep(
    dag: GraphLike,
    csr_dag: CSRGraph,
    landmarks: Set[NodeId],
    max_labels: Optional[int],
) -> Tuple[Dict[NodeId, Set[NodeId]], Dict[NodeId, Set[NodeId]]]:
    n = csr_dag.num_nodes()
    stop_mask = np.zeros(n, dtype=bool)
    landmark_list = list(landmarks)
    landmark_indices = [csr_dag.index_of(landmark) for landmark in landmark_list]
    stop_mask[landmark_indices] = True

    full_forward: Dict[int, Set[NodeId]] = {}
    full_backward: Dict[int, Set[NodeId]] = {}
    for follow_forward, table in ((False, full_forward), (True, full_backward)):
        batch = reach_batch(csr_dag, landmark_list, forward=follow_forward, stop=stop_mask)
        for landmark, rows in zip(landmark_list, batch.row_lists()):
            rows = rows[~stop_mask[rows]]
            for index in rows.tolist():
                table.setdefault(index, set()).add(landmark)

    forward: Dict[NodeId, Set[NodeId]] = {}
    backward: Dict[NodeId, Set[NodeId]] = {}
    for table, result, is_forward in (
        (full_forward, forward, True),
        (full_backward, backward, False),
    ):
        for index, found in table.items():
            node = csr_dag.node_at(index)
            if max_labels is not None and len(found) > max_labels:
                found = first_landmarks_hit(
                    dag, node, landmarks, forward=is_forward, max_labels=max_labels
                )
            if found:
                result[node] = found
    return forward, backward


# --------------------------------------------------------------------------- #
# The whole prepare
# --------------------------------------------------------------------------- #
def oracle_build_index(
    graph: GraphLike,
    alpha: float,
    reference_size: Optional[int] = None,
) -> OracleLandmarkIndex:
    """``build_index(compress(graph), alpha)`` out of the frozen stages."""
    compressed = oracle_compress(graph)
    dag = compressed.dag
    if reference_size is None:
        reference_size = graph.size()
    size_budget = max(2, math.floor(alpha * reference_size))
    index = OracleLandmarkIndex(compressed=compressed, alpha=alpha, size_budget=size_budget)
    if dag.num_nodes() == 0:
        return index
    leaves = oracle_select_leaves(compressed, alpha, size_budget)
    assemble_index(index, leaves, *oracle_cover_statistics_csr(compressed.dag_csr, leaves))
    index.label_cap = max(1, size_budget // 2)
    index.forward_labels, index.backward_labels = oracle_out_of_index_labels_by_sweep(
        dag, compressed.dag_csr, set(leaves), index.label_cap
    )
    return index


# --------------------------------------------------------------------------- #
# Shard build: the partitioner and the shard graphs as they walked the graph
# --------------------------------------------------------------------------- #
def oracle_finalize(
    graph: GraphLike, assignment: Dict[NodeId, int], num_shards: int, method: str, seed: int
) -> Partition:
    partition = Partition(num_shards=num_shards, method=method, seed=seed, assignment=assignment)
    partition.boundary = {shard: set() for shard in range(num_shards)}
    cut = 0
    total = 0
    for source in graph.nodes():
        owner = assignment[source]
        for target in graph.successors(source):
            total += 1
            other = assignment[target]
            if other != owner:
                cut += 1
                partition.boundary[owner].add(source)
                partition.boundary[other].add(target)
    partition.cut_edges = cut
    partition.total_edges = total
    return partition


def oracle_pick_seeds(
    graph: GraphLike, nodes: Sequence[NodeId], k: int, rng: random.Random
) -> List[NodeId]:
    best = max(nodes, key=lambda node: (graph.degree(node), repr(node)))
    seeds: List[NodeId] = [best]
    chosen = {best}
    attempts = 0
    while len(seeds) < k and attempts < 50 * k:
        attempts += 1
        candidate = rng.choice(nodes)
        if candidate not in chosen:
            chosen.add(candidate)
            seeds.append(candidate)
    for node in nodes:
        if len(seeds) >= k:
            break
        if node not in chosen:
            chosen.add(node)
            seeds.append(node)
    return seeds


def oracle_refine(
    graph: GraphLike,
    nodes: Sequence[NodeId],
    assignment: Dict[NodeId, int],
    sizes: List[int],
    num_shards: int,
    capacity: int,
) -> None:
    for _ in range(REFINEMENT_PASSES):
        moved = 0
        for node in nodes:
            owner = assignment[node]
            if sizes[owner] <= 1:
                continue
            counts: Dict[int, int] = {}
            for neighbor in graph.neighbors(node):
                shard = assignment[neighbor]
                counts[shard] = counts.get(shard, 0) + 1
            home = counts.get(owner, 0)
            best_shard, best_gain = owner, 0
            for shard in sorted(counts):
                if shard == owner or sizes[shard] >= capacity:
                    continue
                gain = counts[shard] - home
                if gain > best_gain:
                    best_shard, best_gain = shard, gain
            if best_shard != owner:
                assignment[node] = best_shard
                sizes[owner] -= 1
                sizes[best_shard] += 1
                moved += 1
        if not moved:
            break


def oracle_greedy_partition(graph: GraphLike, num_shards: int, seed: int = 0) -> Partition:
    """``greedy_partition`` with a ``pull`` rescan of every candidate's neighbours."""
    if num_shards < 1:
        raise ShardError(f"num_shards must be >= 1, got {num_shards}")
    nodes = list(graph.nodes())
    if not nodes:
        raise ShardError("cannot partition an empty graph")
    if num_shards == 1:
        return oracle_finalize(graph, {node: 0 for node in nodes}, 1, GREEDY, seed)
    if num_shards > len(nodes):
        raise ShardError(f"num_shards={num_shards} exceeds the graph's {len(nodes)} nodes")

    rng = random.Random(seed)
    capacity = math.ceil(len(nodes) / num_shards * (1.0 + BALANCE_SLACK))
    seeds = oracle_pick_seeds(graph, nodes, num_shards, rng)

    assignment: Dict[NodeId, int] = {}
    frontiers: List[deque] = [deque() for _ in range(num_shards)]
    sizes = [0] * num_shards

    def claim(node: NodeId, shard: int) -> None:
        assignment[node] = shard
        sizes[shard] += 1
        for neighbor in list(graph.successors(node)) + list(graph.predecessors(node)):
            if neighbor not in assignment:
                frontiers[shard].append(neighbor)

    for shard, node in enumerate(seeds):
        if node not in assignment:
            claim(node, shard)

    window = 8
    active = True
    while active:
        active = False
        for shard in range(num_shards):
            if sizes[shard] >= capacity:
                continue
            frontier = frontiers[shard]
            candidates: List[NodeId] = []
            while frontier and len(candidates) < window:
                node = frontier.popleft()
                if node not in assignment and node not in candidates:
                    candidates.append(node)
            if not candidates:
                continue
            active = True

            def pull(node: NodeId) -> int:
                inside = outside = 0
                for neighbor in graph.neighbors(node):
                    owner = assignment.get(neighbor)
                    if owner == shard:
                        inside += 1
                    elif owner is not None:
                        outside += 1
                return inside - outside

            best = max(candidates, key=lambda node: (pull(node), -candidates.index(node)))
            for node in candidates:
                if node is not best:
                    frontier.append(node)
            claim(best, shard)

    for node in nodes:
        if node not in assignment:
            shard = min(range(num_shards), key=lambda s: (sizes[s], s))
            claim(node, shard)

    oracle_refine(graph, nodes, assignment, sizes, num_shards, capacity)
    ordered = {node: assignment[node] for node in nodes}
    return oracle_finalize(graph, ordered, num_shards, GREEDY, seed)


def oracle_core_list(graph: GraphLike, partition: Partition, shard_id: int) -> List[NodeId]:
    """``build_shard``'s core selection."""
    return [node for node in graph.nodes() if partition.assignment.get(node) == shard_id]


def oracle_collect_halo(
    graph: GraphLike, core_list: Sequence[NodeId], core: Set[NodeId], depth: int
) -> List[NodeId]:
    seen = set(core)
    halo: List[NodeId] = []
    frontier: List[NodeId] = list(core_list)
    for _ in range(depth):
        next_frontier: List[NodeId] = []
        for node in frontier:
            for neighbor in list(graph.successors(node)) + list(graph.predecessors(node)):
                if neighbor not in seen:
                    seen.add(neighbor)
                    halo.append(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
        if not frontier:
            break
    return halo


def oracle_induced_order_preserving(source: GraphLike, ordered_nodes: Sequence[NodeId]) -> CSRGraph:
    ids: List[NodeId] = list(ordered_nodes)
    index = {node: i for i, node in enumerate(ids)}
    n = len(ids)

    label_table: List = []
    label_index: Dict = {}
    label_ids = np.empty(n, dtype=np.int64)
    for i, node in enumerate(ids):
        label = source.label(node)
        lid = label_index.get(label)
        if lid is None:
            lid = len(label_table)
            label_index[label] = lid
            label_table.append(label)
        label_ids[i] = lid

    succ_lists: List[List[int]] = []
    pred_lists: List[List[int]] = []
    for node in ids:
        succ_lists.append([index[t] for t in source.successors(node) if t in index])
        pred_lists.append([index[s] for s in source.predecessors(node) if s in index])

    edge_total = sum(len(values) for values in succ_lists)
    succ_indptr = np.zeros(n + 1, dtype=np.int64)
    pred_indptr = np.zeros(n + 1, dtype=np.int64)
    degrees = np.empty(n, dtype=np.int64)
    for i in range(n):
        succ_indptr[i + 1] = succ_indptr[i] + len(succ_lists[i])
        pred_indptr[i + 1] = pred_indptr[i] + len(pred_lists[i])
        degrees[i] = len(set(succ_lists[i]) | set(pred_lists[i]))
    empty = np.empty(0, dtype=np.int64)
    succ_indices = (
        np.fromiter((t for targets in succ_lists for t in targets), dtype=np.int64, count=edge_total)
        if edge_total
        else empty
    )
    pred_indices = (
        np.fromiter((s for sources in pred_lists for s in sources), dtype=np.int64, count=edge_total)
        if edge_total
        else empty.copy()
    )
    return CSRGraph(
        ids,
        label_table,
        label_ids,
        succ_indptr,
        succ_indices,
        pred_indptr,
        pred_indices,
        degrees,
        _index=index,
    )


__all__ = [
    "OracleCompressedGraph",
    "OracleCondensation",
    "OracleLandmarkIndex",
    "OracleRankIndex",
    "oracle_build_index",
    "oracle_collect_halo",
    "oracle_core_list",
    "oracle_greedy_partition",
    "oracle_induced_order_preserving",
    "oracle_compress",
    "oracle_condensation",
    "oracle_cover_statistics_csr",
    "oracle_from_digraph",
    "oracle_out_of_index_labels_by_sweep",
    "oracle_rank_index",
    "oracle_select_leaves",
    "oracle_selection_order",
    "oracle_strongly_connected_components",
    "oracle_topological_ranks",
    "selection_scores",
    "verify_rank_invariant",
]
