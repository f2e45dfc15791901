"""Repair a hierarchical landmark index after a condensation patch.

``build_index`` splits into three stages: a cheap deterministic *selection*,
the expensive per-landmark *sweeps* (cover statistics and out-of-index
labels — one BFS pair per landmark, the dominant cost), and a cheap
deterministic *assembly*.  After a delta, only the sweeps touching the dirty
region of the DAG can have changed; this module reruns the selection and
assembly verbatim and recomputes sweeps only for

* landmarks inside the dirty forward/backward closures,
* landmarks entering the selection (their reach also patches the clean
  landmarks' reach sets), and
* label entries in the regions of changed/added/removed landmarks or whose
  truncation cap moved.

Every recomputation goes through the primitives that define the fresh build
(:func:`sweep_landmark`, :func:`first_landmarks_hit`), so the repaired index
is equal — field for field — to the index a fresh ``build_index`` on the
patched condensation would produce.  That equality is the rebuild-
equivalence contract, property-tested in ``tests/test_updates.py``; when the
dirty region swallows most of the selection the repair simply rebuilds,
which is always safe.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.graph.digraph import NodeId
from repro.graph import kernels
from repro.graph.protocol import GraphLike
from repro.reachability.compression import CompressedGraph
from repro.reachability.hierarchy import (
    HierarchicalLandmarkIndex,
    assemble_index,
    build_index,
    select_leaves,
    sweep_landmark,
)
from repro.reachability.landmarks import first_landmarks_hit
from repro.updates.scc import PatchResult

REBUILD_DIRTY_FRACTION = 0.5
"""Above this dirty fraction of the selection, rebuilding is cheaper."""


def _reach_mask_sets(mirror: GraphLike, nodes, forward: bool) -> Dict[NodeId, Set[NodeId]]:
    """Node -> full descendant/ancestor set (node excluded), one bitset sweep over the CSR DAG ``mirror``."""
    nodes = list(nodes)
    if not nodes:
        return {}
    batch = kernels.reach_batch(mirror, nodes, forward=forward)
    result: Dict[NodeId, Set[NodeId]] = {}
    for j, node in enumerate(nodes):
        reached = batch.reached(j)
        reached.discard(node)
        result[node] = reached
    return result


def _absorbing_regions(
    mirror: GraphLike, landmarks_added, stop_mask: np.ndarray, forward_labels: bool
) -> Set[NodeId]:
    """Nodes whose *label* search reaches one of ``landmarks_added`` landmark-free.

    For forward labels that is a backward sweep from each newcomer absorbing
    at the landmarks ``stop_mask`` marks (and vice versa) — the regions the
    landmark-major label sweep covers.  Only the union is consumed, so every
    newcomer rides one absorbing multi-source sweep and the union is the rows
    any column reached, minus the landmarks themselves.
    """
    landmarks_added = list(landmarks_added)
    if not landmarks_added:
        return set()
    batch = kernels.reach_batch(mirror, landmarks_added, forward=not forward_labels, stop=stop_mask)
    rows = np.asarray(batch.any_rows(), dtype=np.int64)
    rows = rows[~stop_mask[rows]]
    return {mirror.node_at(i) for i in rows.tolist()}


def repair_index(
    old_index: HierarchicalLandmarkIndex,
    compressed: CompressedGraph,
    patch: PatchResult,
    reference_size: int,
    max_parents_per_landmark: int = 4,
    max_levels: Optional[int] = None,
) -> HierarchicalLandmarkIndex:
    """Rebuild-equivalent index for the patched condensation.

    ``compressed`` is the patched compression (sharing the condensation the
    :class:`~repro.updates.scc.CondensationMaintainer` maintains);
    ``patch`` carries the dirty closures.  Falls back to a full
    ``build_index`` when reuse would not pay.
    """
    alpha = old_index.alpha
    dag = compressed.dag
    size_budget = max(2, math.floor(alpha * reference_size))

    index = HierarchicalLandmarkIndex(compressed=compressed, alpha=alpha, size_budget=size_budget)
    if dag.num_nodes() == 0:
        return index

    leaves = select_leaves(compressed, alpha, size_budget, ordered=patch.selection_order)
    if not leaves:
        return index

    old_leaves = set(old_index.landmarks)
    new_leaves = set(leaves)
    dirty_forward = patch.dirty_forward
    dirty_backward = patch.dirty_backward
    added_leaves = [leaf for leaf in leaves if leaf not in old_leaves]
    removed_leaves = old_leaves - new_leaves
    fully_dirty = {
        leaf
        for leaf in leaves
        if leaf not in old_leaves or leaf in dirty_forward or leaf in dirty_backward
    }
    if len(fully_dirty) + len(removed_leaves) > REBUILD_DIRTY_FRACTION * len(leaves):
        return build_index(
            compressed,
            alpha,
            reference_size=reference_size,
            max_parents_per_landmark=max_parents_per_landmark,
            max_levels=max_levels,
            ordered=patch.selection_order,
        )

    mirror = compressed.dag_csr
    probe_mask = np.zeros(mirror.num_nodes(), dtype=bool)
    probe_mask[[mirror.index_of(leaf) for leaf in leaves]] = True

    # --- per-landmark cover statistics -------------------------------- #
    # Clean directions reuse the stored counts/sets; dirty directions and
    # new landmarks sweep afresh.  Clean reach sets are then patched for
    # landmarks that entered the selection, using the newcomers' full
    # ancestor/descendant sets.
    # Per-leaf patch sets: which newcomers each (clean) leaf reaches/is
    # reached by — indexed newcomer-major so the per-leaf loop below stays
    # O(|reach sets|) instead of O(leaves × newcomers).
    gained_forward: Dict[NodeId, Set[NodeId]] = {}
    gained_backward: Dict[NodeId, Set[NodeId]] = {}
    newcomer_up = _reach_mask_sets(mirror, added_leaves, forward=False)
    newcomer_down = _reach_mask_sets(mirror, added_leaves, forward=True)
    for newcomer in added_leaves:
        for leaf in newcomer_up[newcomer] & new_leaves:
            gained_forward.setdefault(leaf, set()).add(newcomer)
        for leaf in newcomer_down[newcomer] & new_leaves:
            gained_backward.setdefault(leaf, set()).add(newcomer)

    cover_parts: Dict[NodeId, Tuple[int, int]] = {}
    forward_reach: Dict[NodeId, Set[NodeId]] = {}
    backward_reach: Dict[NodeId, Set[NodeId]] = {}
    for leaf in leaves:
        old_parts = old_index.cover_parts.get(leaf)
        forward_clean = (
            old_parts is not None and leaf not in dirty_forward and leaf in old_index.forward_reach
        )
        backward_clean = (
            old_parts is not None and leaf not in dirty_backward and leaf in old_index.backward_reach
        )
        if forward_clean:
            descendants = old_parts[0]
            reached = old_index.forward_reach[leaf] & new_leaves
            gained = gained_forward.get(leaf)
            if gained:
                reached = reached | gained
            forward_reach[leaf] = reached
        else:
            descendants, reached = sweep_landmark(
                mirror, leaf, new_leaves, forward=True, probe_mask=probe_mask
            )
            forward_reach[leaf] = reached
        if backward_clean:
            ancestors = old_parts[1]
            reaching = old_index.backward_reach[leaf] & new_leaves
            gained = gained_backward.get(leaf)
            if gained:
                reaching = reaching | gained
            backward_reach[leaf] = reaching
        else:
            ancestors, reaching = sweep_landmark(
                mirror, leaf, new_leaves, forward=False, probe_mask=probe_mask
            )
            backward_reach[leaf] = reaching
        cover_parts[leaf] = (descendants, ancestors)

    assemble_index(
        index,
        leaves,
        cover_parts,
        forward_reach,
        backward_reach,
        max_parents_per_landmark=max_parents_per_landmark,
        max_levels=max_levels,
    )

    # --- out-of-index labels ------------------------------------------- #
    label_cap = max(1, size_budget // 2)
    index.label_cap = label_cap
    index.forward_labels, index.backward_labels = _repair_labels(
        old_index, dag, mirror, probe_mask, new_leaves, added_leaves, removed_leaves,
        dirty_forward, dirty_backward, label_cap,
    )
    return index


def _repair_labels(
    old_index: HierarchicalLandmarkIndex,
    dag: GraphLike,
    mirror: GraphLike,
    stop_mask: np.ndarray,
    new_leaves: Set[NodeId],
    added_leaves,
    removed_leaves: Set[NodeId],
    dirty_forward: Set[NodeId],
    dirty_backward: Set[NodeId],
    label_cap: int,
) -> Tuple[Dict[NodeId, Set[NodeId]], Dict[NodeId, Set[NodeId]]]:
    """Patch the out-of-index label tables ``v.E``.

    A node's labels for one direction change only if (a) its landmark-free
    region in that direction is inside the dirty closure, (b) a landmark
    appeared inside that region (the newcomer's absorbing region), (c) a
    landmark it was absorbed by disappeared (it carried that landmark), or
    (d) the truncation cap moved across its stored size.  Those nodes are
    recomputed one by one with ``first_landmarks_hit``, which defines the
    labels; everyone else keeps their entry verbatim.  ``stop_mask`` marks
    ``new_leaves`` over the rows of the CSR DAG ``mirror``.
    """
    old_cap = old_index.label_cap or label_cap
    results = []
    for forward_labels, old_table, dirty in (
        (True, old_index.forward_labels, dirty_forward),
        (False, old_index.backward_labels, dirty_backward),
    ):
        affected: Set[NodeId] = set(node for node in dirty if node in dag and node not in new_leaves)
        affected.update(_absorbing_regions(mirror, added_leaves, stop_mask, forward_labels))
        for node, labels in old_table.items():
            if labels & removed_leaves:
                affected.add(node)
        for gone in removed_leaves:
            if gone in dag:
                affected.add(gone)
        if label_cap != old_cap:
            floor = min(label_cap, old_cap)
            for node, labels in old_table.items():
                if len(labels) >= floor:
                    affected.add(node)

        table: Dict[NodeId, Set[NodeId]] = {
            node: labels
            for node, labels in old_table.items()
            if node not in affected and node in dag and node not in new_leaves
        }
        for node in affected:
            if node not in dag or node in new_leaves:
                continue
            found = first_landmarks_hit(
                dag, node, new_leaves, forward=forward_labels, max_labels=label_cap
            )
            if found:
                table[node] = found
        results.append(table)
    return results[0], results[1]


def index_equivalent(
    left: HierarchicalLandmarkIndex, right: HierarchicalLandmarkIndex
) -> bool:
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


__all__ = ["index_equivalent", "repair_index"]
