"""The hierarchical landmark index ``I`` (Fan, Wang & Wu, *"Querying Big Graphs
within Bounded Resources"*, SIGMOD 2014, Section 5.1, procedure RBIndex).

The index is a small, size-bounded structure over a reachability-preserving
DAG.  It consists of:

* at most ``alpha * |G| / 2`` *landmarks*, selected greedily by
  ``(degree * rank) / (L * D)``, organised into levels — every landmark lives
  at level 1, and progressively smaller subsets are "moved up" to levels
  2, 3, ... (the paper's bottom-up expansion with ``a = floor(2/alpha)``);
* direction-tagged *index edges* between landmarks of adjacent levels:
  an edge ``v -> v'`` is stored when ``v`` can reach ``v'`` in the DAG
  (so following stored edges only ever asserts true reachability);
* per-landmark *cover sizes* (how many connected pairs the landmark covers,
  estimated as ancestors x descendants) and topological ranks ``v.r``, which
  drive the drill-down / roll-up decisions and the Lemma 5(2) pruning;
* per-node *out-of-index labels* ``v.E``: the first landmarks hit by a
  forward (resp. backward) traversal from the node that stops at landmarks
  (int columns, :class:`~repro.reachability.landmarks.LabelTable`).

The total number of landmarks plus index edges never exceeds
``alpha * |G|``, which is the resource bound RBReach operates under.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.exceptions import IndexBuildError
from repro.graph.digraph import NodeId
from repro.graph import kernels
from repro.graph.protocol import GraphLike
from repro.reachability.compression import CompressedGraph, compress
from repro.reachability.landmarks import (
    LabelTable,
    greedy_landmarks,
    landmark_rows,
    out_of_index_labels,
    selection_rows,
)


@dataclass
class LandmarkInfo:
    """Per-landmark metadata stored in the index."""

    node: NodeId
    level: int
    rank: int
    cover_size: int


@dataclass
class HierarchicalLandmarkIndex:
    """The hierarchical landmark index ``I`` plus the out-of-index labels.

    ``cover_parts``, ``forward_reach`` and ``backward_reach`` retain the raw
    per-landmark statistics (descendant/ancestor counts and the
    landmark-to-landmark reachability sets) the assembly consumed.  They are
    small — the landmark graph is sparse.
    """

    compressed: CompressedGraph
    alpha: float
    size_budget: int
    forward_labels: LabelTable
    backward_labels: LabelTable
    landmarks: Dict[NodeId, LandmarkInfo] = field(default_factory=dict)
    levels: List[List[NodeId]] = field(default_factory=list)
    forward_edges: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)
    backward_edges: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)
    edge_count: int = 0
    cover_parts: Dict[NodeId, Tuple[int, int]] = field(default_factory=dict)
    forward_reach: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)
    backward_reach: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)
    label_cap: int = 0

    # ------------------------------------------------------------------ #
    # Size and structure
    # ------------------------------------------------------------------ #
    def num_landmarks(self) -> int:
        """Number of landmarks in the index."""
        return len(self.landmarks)

    def num_levels(self) -> int:
        """Number of hierarchy levels."""
        return len(self.levels)

    def size(self) -> int:
        """|I| = landmarks + index edges; bounded by ``alpha * |G|``."""
        return self.num_landmarks() + self.edge_count

    def is_landmark(self, node: NodeId) -> bool:
        """Whether a DAG node is a landmark."""
        return node in self.landmarks

    def labels_of(self, dag_node: NodeId, forward: bool) -> Set[NodeId]:
        """Out-of-index labels ``v.E`` of a DAG node for one direction (a fresh set the caller owns)."""
        labels = (self.forward_labels if forward else self.backward_labels).get(dag_node)
        return set() if labels is None else labels

    def columns(self) -> Dict[str, np.ndarray]:
        """The label columns by name, for publication beside their mirror."""
        return {
            f"{direction}_{name}": column
            for direction, table in (("forward", self.forward_labels), ("backward", self.backward_labels))
            for name, column in (("offsets", table.offsets), ("values", table.ids))
        }


def index_equivalent(left: HierarchicalLandmarkIndex, right: HierarchicalLandmarkIndex) -> bool:
    """Whether two indexes answer every query identically.

    Compares the answer-relevant state: landmark metadata, levels, stored
    index edges and the out-of-index labels.  Used by the engine to decide
    whether cached answers survived an update.
    """
    return (
        left.size_budget == right.size_budget
        and left.landmarks == right.landmarks
        and left.levels == right.levels
        and left.forward_edges == right.forward_edges
        and left.backward_edges == right.backward_edges
        and left.forward_labels == right.forward_labels
        and left.backward_labels == right.backward_labels
    )


def sweep_landmarks(
    mirror: GraphLike,
    landmarks: List[NodeId],
    forward: bool,
    row_of: Optional[Mapping[NodeId, int]] = None,
) -> Tuple[Dict[NodeId, int], Dict[NodeId, Set[NodeId]]]:
    """One directional sweep per landmark over the CSR DAG ``mirror``, all at once.

    Returns ``(counts, reached)``: per landmark the number of nodes it
    reaches and the *other* landmarks among them.  All landmarks ride one
    multi-source bitset sweep over the CSR DAG ``mirror`` and the
    landmark-to-landmark hits are read out of the landmark rows in a single
    :meth:`~repro.graph.kernels.ReachBatch.pairs` call.  ``row_of`` maps the
    landmarks to ``mirror`` rows when the caller did so already.
    """
    marks = landmark_rows(mirror, landmarks, row_of)
    batch = kernels.reach_batch(mirror, landmarks, forward=forward, rows=marks)
    rows, sources = batch.pairs(marks)
    # A sweep reaches its own source; neither it nor its count is reported.  The stable sort keeps each landmark's hits in
    # ``landmarks`` order, as the per-landmark probe listed them.
    others = rows != marks[sources]
    rows, sources = rows[others], sources[others]
    by_source = np.argsort(sources, kind="stable")
    hits = mirror.ids_of(rows[by_source])
    bounds = np.cumsum(np.bincount(sources, minlength=len(landmarks))).tolist()
    return (
        {landmark: count - 1 for landmark, count in zip(landmarks, batch.counts())},
        {
            landmark: set(hits[low:high])
            for landmark, low, high in zip(landmarks, [0] + bounds, bounds)
        },
    )


def _cover_statistics(
    mirror: GraphLike, landmarks: List[NodeId], row_of: Optional[Mapping[NodeId, int]] = None
) -> Tuple[Dict[NodeId, Tuple[int, int]], Dict[NodeId, Set[NodeId]], Dict[NodeId, Set[NodeId]]]:
    """Descendant/ancestor counts and landmark-to-landmark reachability.

    One forward and one backward :func:`sweep_landmarks` pass over the CSR
    DAG ``mirror``.  Returns (per-landmark ``(descendants, ancestors)``
    counts, forward landmark reach sets, backward landmark reach sets).
    """
    descendants, forward_reach = sweep_landmarks(mirror, landmarks, True, row_of)
    ancestors, backward_reach = sweep_landmarks(mirror, landmarks, False, row_of)
    parts = {landmark: (descendants[landmark], ancestors[landmark]) for landmark in landmarks}
    return parts, forward_reach, backward_reach


def build_index(
    graph_or_compressed,
    alpha: float,
    reference_size: Optional[int] = None,
    max_parents_per_landmark: int = 4,
    max_levels: Optional[int] = None,
) -> HierarchicalLandmarkIndex:
    """Procedure ``RBIndex``: build the hierarchical landmark index.

    Parameters
    ----------
    graph_or_compressed:
        Either a raw graph (it will be compressed first) or an
        already built :class:`CompressedGraph`.
    alpha:
        The resource ratio; the index holds at most ``alpha * reference_size``
        landmarks plus edges.
    reference_size:
        ``|G|`` used for the budget; defaults to the *original* graph size so
        that the bound matches the paper's statement on ``G`` rather than on
        the condensation.
    max_parents_per_landmark:
        How many higher-level landmarks a landmark may attach to per
        direction; keeps the index forest-like and within budget.
    max_levels:
        Optional cap on hierarchy depth (defaults to the paper's
        ``floor(log_a |G|) + 1``).
    """
    if not 0 < alpha <= 1:
        raise IndexBuildError(f"alpha must be in (0, 1], got {alpha}")
    compressed = graph_or_compressed if isinstance(graph_or_compressed, CompressedGraph) else compress(graph_or_compressed)
    if reference_size is None:
        reference_size = compressed.original.size()
    size_budget = max(2, math.floor(alpha * reference_size))

    # The build's one id -> row map: every sweep below takes its rows from it.
    mirror = compressed.dag_csr
    leaves = select_leaves(compressed, alpha, size_budget) if mirror.num_nodes() else []
    row_of = dict(zip(leaves, map(mirror.index_of, leaves)))
    # The cover statistics before the labels: the other order built the
    # youtube index about 5% slower in a paired A/B (cause not found).
    statistics = _cover_statistics(mirror, leaves, row_of) if leaves else None
    # --- out-of-index labels v.E ------------------------------------------ #
    label_cap = max(1, size_budget // 2) if leaves else 0
    index = HierarchicalLandmarkIndex(
        compressed,
        alpha,
        size_budget,
        *out_of_index_labels(mirror, set(leaves), max_labels=label_cap, row_of=row_of),
        label_cap=label_cap,
    )
    if leaves:
        assemble_index(
            index,
            leaves,
            *statistics,
            max_parents_per_landmark=max_parents_per_landmark,
            max_levels=max_levels,
        )
    return index


def select_leaves(
    compressed: CompressedGraph,
    alpha: float,
    size_budget: int,
) -> List[NodeId]:
    """The deterministic greedy leaf selection used by ``build_index``.

    The score is the paper's ``(deg * rank) / (L * D)`` weighted by SCC
    size: a component node stands for all of its original members, so it
    covers proportionally more pairs.  On a condensed DAG a giant strongly
    connected component becomes one rank-0 sink, which the unweighted score
    would never select although it covers by far the most original pairs.
    """
    mirror = compressed.dag_csr
    exclusion_radius = max(1, math.floor(2 / alpha)) if alpha < 1 else 1
    num_leaves = max(1, min(size_budget // 2, mirror.num_nodes()))
    order = selection_rows(*_selection_columns(compressed))
    return greedy_landmarks(mirror, order, num_leaves, exclusion_radius)


def _selection_columns(compressed: CompressedGraph) -> Tuple[np.ndarray, ...]:
    """Ids, degrees, ``v.r`` and SCC sizes (float64) over the rows of ``compressed.dag_csr``.

    The ids are the condensation's id column and the degrees the mirror's
    degree column; ranks and sizes are columns already (the rank column and
    the differences of the member offsets).
    """
    mirror, condensed = compressed.dag_csr, compressed.condensation
    sizes = np.diff(condensed.columns()["member_offsets"]).astype(np.float64)
    return condensed.component_ids(), mirror.degrees(), compressed.ranks.columns()["ranks"], sizes


def assemble_index(
    index: HierarchicalLandmarkIndex,
    leaves: List[NodeId],
    cover_parts: Dict[NodeId, Tuple[int, int]],
    forward_reach: Dict[NodeId, Set[NodeId]],
    backward_reach: Dict[NodeId, Set[NodeId]],
    max_parents_per_landmark: int = 4,
    max_levels: Optional[int] = None,
) -> HierarchicalLandmarkIndex:
    """Deterministic assembly: levels and index edges.

    Everything downstream of the per-landmark sweeps is cheap and pure;
    ``build_index`` and the element-by-element reference in the tests both
    run this exact function, so equal inputs guarantee an identical index.
    """
    compressed = index.compressed
    alpha = index.alpha
    size_budget = index.size_budget
    index.cover_parts = cover_parts
    index.forward_reach = forward_reach
    index.backward_reach = backward_reach
    cover = {
        landmark: (parts[0] + 1) * (parts[1] + 1) for landmark, parts in cover_parts.items()
    }
    exclusion_radius = max(1, math.floor(2 / alpha)) if alpha < 1 else 1

    # --- arrange landmarks into levels (subsets moved up) ---------------- #
    shrink = max(2, exclusion_radius)
    depth_cap = max_levels if max_levels is not None else max(1, math.floor(math.log(max(compressed.dag_csr.num_nodes(), 2), shrink)) + 1)
    levels: List[List[NodeId]] = [list(leaves)]
    current = list(leaves)
    while len(current) > 2 and len(levels) < depth_cap:
        next_count = max(1, len(current) // shrink)
        if next_count >= len(current):
            break
        ordered = sorted(current, key=lambda node: (-cover[node], repr(node)))
        current = ordered[:next_count]
        levels.append(list(current))

    level_of: Dict[NodeId, int] = {}
    for level_number, members in enumerate(levels, start=1):
        for node in members:
            level_of[node] = level_number  # highest level wins (later overwrites)

    for node in leaves:
        index.landmarks[node] = LandmarkInfo(
            node=node,
            level=level_of[node],
            rank=compressed.ranks.rank(node),
            cover_size=cover[node],
        )
    index.levels = levels

    # --- index edges between adjacent levels ----------------------------- #
    remaining = size_budget - len(leaves)
    parents_per_child: Dict[Tuple[NodeId, bool], int] = {}

    def try_add_edge(source: NodeId, target: NodeId) -> bool:
        """Store the direction-tagged edge source → target if budget allows."""
        nonlocal remaining
        if remaining <= 0:
            return False
        if target in index.forward_edges.get(source, set()):
            return True
        index.forward_edges.setdefault(source, set()).add(target)
        index.backward_edges.setdefault(target, set()).add(source)
        index.edge_count += 1
        remaining -= 1
        return True

    for upper_level in range(len(levels), 1, -1):
        uppers = levels[upper_level - 1]
        lowers = [node for node in levels[upper_level - 2] if level_of[node] == upper_level - 1]
        for upper in sorted(uppers, key=lambda node: (-cover[node], repr(node))):
            for lower in sorted(lowers, key=lambda node: (-cover[node], repr(node))):
                if remaining <= 0:
                    break
                if lower in forward_reach[upper]:
                    key = (lower, True)
                    if parents_per_child.get(key, 0) < max_parents_per_landmark:
                        if try_add_edge(upper, lower):
                            parents_per_child[key] = parents_per_child.get(key, 0) + 1
                if upper in forward_reach[lower]:
                    key = (lower, False)
                    if parents_per_child.get(key, 0) < max_parents_per_landmark:
                        if try_add_edge(lower, upper):
                            parents_per_child[key] = parents_per_child.get(key, 0) + 1
            if remaining <= 0:
                break

    # Spend any leftover edge budget on leaf-to-leaf shortcuts: direct edges
    # between landmarks that reach each other.  These are the pairs the upper
    # levels are meant to summarise; materialising the highest-cover ones
    # directly improves recall at no extra cost (the budget cap still holds).
    if remaining > 0:
        fanout: Dict[NodeId, int] = {}
        for leaf in sorted(leaves, key=lambda node: (-cover[node], repr(node))):
            if remaining <= 0:
                break
            for other in sorted(forward_reach[leaf], key=lambda node: (-cover[node], repr(node))):
                if remaining <= 0:
                    break
                if fanout.get(leaf, 0) >= max_parents_per_landmark * 2:
                    break
                if try_add_edge(leaf, other):
                    fanout[leaf] = fanout.get(leaf, 0) + 1
    return index
