"""Incremental maintenance of the SCC condensation under graph deltas.

``compress`` (Section 5's reachability-preserving compression) is one of the
two big costs of preparing a graph for serving; recomputing it from scratch
for every small delta wastes almost all of that work.  This module patches a
:class:`~repro.graph.components.Condensation` — membership, the condensed
DAG, the inter-component edge multiplicities and the topological ranks — by
recomputing **only the affected condensed components**:

* an *intra-component* edge deletion may split its component → a local
  Tarjan pass over just that component's members;
* an *inter-component* edge insertion may create a cycle → a reachability
  probe on the DAG, contracting the components on the new cycle when it does;
* everything else (inter-component deletions, intra-component insertions,
  appended nodes) is pure bookkeeping on the edge multiplicities.

Correctness leans on the *canonical* component ids of
:func:`repro.graph.components.condensation`: an id is the node-iteration
position of the component's earliest member, a function of the partition and
node order alone.  Patching therefore lands on exactly the ids (and, because
DAG adjacency is kept sorted, exactly the iteration orders) that a fresh
condensation of the mutated graph would produce — which is what makes
incrementally maintained answers bit-identical to a rebuild.

Node *removals* shift the positions of later nodes and would renumber
components globally; the maintainer refuses those (``apply`` returns
``None``) and the caller falls back to a full re-prepare.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.graph.components import Condensation, strongly_connected_components
from repro.graph.csr import CSRGraph
from repro.graph.digraph import NodeId
from repro.graph.protocol import GraphLike
from repro.graph.topology import TopologicalRankIndex
from repro.reachability.landmarks import selection_sort_key
from repro.updates.delta import AppliedDelta

DagEdge = Tuple[int, int]


class PatchResult:
    """What changed at the DAG level, for downstream index repair."""

    __slots__ = (
        "condensation",
        "rank_index",
        "changed_components",
        "added_components",
        "removed_components",
        "dirty_forward",
        "dirty_backward",
        "ranks_changed",
        "dag_degrees",
        "selection_order",
    )

    def __init__(
        self,
        condensation: Condensation,
        rank_index: TopologicalRankIndex,
        changed_components: Set[int],
        added_components: Set[int],
        removed_components: Set[int],
        dirty_forward: Set[int],
        dirty_backward: Set[int],
        ranks_changed: bool,
        dag_degrees: Optional[Dict[int, int]] = None,
        selection_order: Optional[List[int]] = None,
    ) -> None:
        self.condensation = condensation
        self.rank_index = rank_index
        #: Components whose member set changed (splits/merges), new ids.
        self.changed_components = changed_components
        #: Components that did not exist before the delta.
        self.added_components = added_components
        #: Old component ids that no longer exist.
        self.removed_components = removed_components
        #: DAG nodes whose *descendant* set or count may have changed.
        self.dirty_forward = dirty_forward
        #: DAG nodes whose *ancestor* set or count may have changed.
        self.dirty_backward = dirty_backward
        #: Whether any pre-existing component's topological rank changed
        #: (cached answers rely on rank guards; see engine invalidation).
        self.ranks_changed = ranks_changed
        #: Maintained per-component ``d(v)`` on the DAG — equal to
        #: ``dag.degree(v)``; the repair's selection rerun consumes it.
        self.dag_degrees = dag_degrees or {}
        #: All candidates sorted by the greedy-selection key (descending),
        #: identical to the order a fresh ``greedy_landmarks`` sort yields.
        self.selection_order = selection_order


def _sorted_insert(adjacency: Dict[NodeId, None], key: int) -> Dict[NodeId, None]:
    """Insert ``key`` into a sorted ordered-dict adjacency, keeping it sorted."""
    if not adjacency:
        return {key: None}
    rebuilt: Dict[NodeId, None] = {}
    placed = False
    for existing in adjacency:
        if not placed and key < existing:
            rebuilt[key] = None
            placed = True
        rebuilt[existing] = None
    if not placed:
        rebuilt[key] = None
    return rebuilt


def _sorted_insert_many(adjacency: Dict[NodeId, None], keys: List[int]) -> Dict[NodeId, None]:
    """Merge several new keys into a sorted adjacency in one rebuild.

    Hub components collect hundreds of new edges per delta; splicing them
    one by one would rebuild the hub's adjacency dict once per edge.
    """
    merged = sorted(keys)
    rebuilt: Dict[NodeId, None] = {}
    position = 0
    for existing in adjacency:
        while position < len(merged) and merged[position] < existing:
            rebuilt[merged[position]] = None
            position += 1
        rebuilt[existing] = None
    for key in merged[position:]:
        rebuilt[key] = None
    return rebuilt


class CondensationMaintainer:
    """Owns a condensation plus the bookkeeping needed to patch it in place.

    Built from a freshly compressed graph (:meth:`from_fresh`); thereafter
    :meth:`apply` absorbs one :class:`AppliedDelta` at a time.  The
    maintainer mutates the condensation's ``dag``/``membership``/``members``
    structures directly — callers treat the previous :class:`Condensation`
    object as consumed.
    """

    def __init__(
        self,
        condensation: Condensation,
        rank_index: TopologicalRankIndex,
        multiplicity: Dict[DagEdge, int],
        dag_degrees: Dict[int, int],
    ) -> None:
        self._condensation = condensation
        self._ranks: Dict[int, int] = rank_index.ranks()
        self._multiplicity = multiplicity
        self._dag_degrees = dag_degrees
        # Components whose *child set* changed during the current apply —
        # every one of them needs its rank re-derived (a changed child set
        # can change a rank without any rank change propagating to it).
        self._rank_seeds: Set[int] = set()
        # Components incident to any DAG edge change (degree recompute set).
        self._degree_seeds: Set[int] = set()
        # Incrementally maintained greedy-selection order: candidates sorted
        # descending by ``selection_sort_key`` (built on first apply, then
        # patched for the components whose key inputs changed).
        self._selection_order: Optional[List[int]] = None
        self._selection_keys: Dict[int, tuple] = {}
        self._selection_dirty: Set[int] = set()

    @classmethod
    def from_fresh(
        cls,
        graph: GraphLike,
        condensation: Condensation,
        rank_index: TopologicalRankIndex,
        dag_csr: CSRGraph,
    ) -> "CondensationMaintainer":
        """Bootstrap the maintainer from a just-computed compression.

        An array-backed condensation is thawed first: the maintainer owns
        (and mutates) containers, never the columns.  ``rank_index`` and
        ``dag_csr`` hand over the fresh compression's ranks and DAG mirror;
        the rank and degree maps are read off their columns.
        """
        condensation = condensation.thaw()
        membership = condensation.membership
        multiplicity: Dict[DagEdge, int] = {}
        for source, target in graph.edges():
            edge = (membership[source], membership[target])
            if edge[0] != edge[1]:
                multiplicity[edge] = multiplicity.get(edge, 0) + 1
        degrees = dict(zip(dag_csr.nodes(), dag_csr.degrees().tolist()))
        return cls(condensation, rank_index, multiplicity, degrees)

    def dag_mirror(self) -> CSRGraph:
        """A CSR mirror of the current DAG, adjacency in the DAG's order.

        Built straight from the maintained edge multiset: component ids are
        ints, so the index mapping vectorises with ``searchsorted`` instead
        of a Python dict pass — the mirror costs a few milliseconds even on
        five-figure DAGs.  The edges are sorted first, so every slice is
        sorted like the canonical DAG's adjacency: the greedy selection's
        exclusion walk over the mirror visits neighbours as over ``dag``.
        """
        ids = sorted(self._condensation.members)
        id_array = np.asarray(ids, dtype=np.int64)
        if self._multiplicity:
            pairs = np.asarray(list(self._multiplicity), dtype=np.int64)
            pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
            sources = np.searchsorted(id_array, pairs[:, 0])
            targets = np.searchsorted(id_array, pairs[:, 1])
        else:
            sources = np.empty(0, dtype=np.int64)
            targets = np.empty(0, dtype=np.int64)
        # The mirror only feeds the reachability kernels; its labels are
        # never consulted, so skip the per-node label interning pass.  Its
        # ids stay a column (with a dense inverse), not a list and a dict.
        return CSRGraph.from_index_arrays(
            id_array, [""], np.zeros(len(ids), dtype=np.int64), sources, targets
        )

    # ------------------------------------------------------------------ #
    # DAG surgery helpers
    # ------------------------------------------------------------------ #
    def _dag_add_edge(self, source: int, target: int) -> None:
        # Raw sorted splice instead of ``add_edge`` + rebuild: the edge is
        # known absent, so one O(deg) insertion per side keeps the canonical
        # sorted adjacency order.
        dag = self._condensation.dag
        dag._succ[source] = _sorted_insert(dag._succ[source], target)
        dag._pred[target] = _sorted_insert(dag._pred[target], source)
        dag._edge_count += 1
        self._rank_seeds.add(source)
        self._degree_seeds.add(source)
        self._degree_seeds.add(target)

    def _dag_remove_edge(self, source: int, target: int) -> None:
        self._condensation.dag.remove_edge(source, target)
        self._rank_seeds.add(source)
        self._degree_seeds.add(source)
        self._degree_seeds.add(target)

    def _dag_remove_node(self, component: int) -> None:
        dag = self._condensation.dag
        for target in list(dag.successors(component)):
            self._multiplicity.pop((component, target), None)
        for source in list(dag.predecessors(component)):
            self._multiplicity.pop((source, component), None)
            self._rank_seeds.add(source)
            self._degree_seeds.add(source)
        for target in dag.successors(component):
            self._degree_seeds.add(target)
        dag.remove_node(component)
        self._ranks.pop(component, None)
        self._dag_degrees.pop(component, None)

    def _dag_reachable(self, source: int, target: int) -> bool:
        """BFS reachability on the (possibly momentarily cyclic) DAG."""
        if source == target:
            return True
        dag = self._condensation.dag
        seen = {source}
        queue: deque = deque([source])
        while queue:
            node = queue.popleft()
            for child in dag.successors(node):
                if child == target:
                    return True
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
        return False

    def _rescan_component_edges(self, component: int, graph: GraphLike) -> None:
        """Recompute every DAG edge and multiplicity incident to ``component``."""
        condensation = self._condensation
        dag = condensation.dag
        membership = condensation.membership
        for target in list(dag.successors(component)):
            self._multiplicity.pop((component, target), None)
            self._dag_remove_edge(component, target)
        for source in list(dag.predecessors(component)):
            self._multiplicity.pop((source, component), None)
            self._dag_remove_edge(source, component)
        out_counts: Dict[int, int] = {}
        in_counts: Dict[int, int] = {}
        for member in condensation.members[component]:
            for child in graph.successors(member):
                other = membership[child]
                if other != component:
                    out_counts[other] = out_counts.get(other, 0) + 1
            for parent in graph.predecessors(member):
                other = membership[parent]
                if other != component:
                    in_counts[other] = in_counts.get(other, 0) + 1
        # Batch-rebuild the component's own adjacency (one sorted pass), and
        # splice the component into each neighbour's adjacency once — a hub
        # component re-inserted edge by edge would cost O(deg²).
        for target, count in out_counts.items():
            self._multiplicity[(component, target)] = count
            dag._pred[target] = _sorted_insert(dag._pred[target], component)
            self._rank_seeds.add(component)
            self._degree_seeds.add(target)
        for source, count in in_counts.items():
            self._multiplicity[(source, component)] = count
            dag._succ[source] = _sorted_insert(dag._succ[source], component)
            self._rank_seeds.add(source)
            self._degree_seeds.add(source)
        dag._succ[component] = {target: None for target in sorted(out_counts)}
        dag._pred[component] = {source: None for source in sorted(in_counts)}
        dag._edge_count += len(out_counts) + len(in_counts)
        self._rank_seeds.add(component)
        self._degree_seeds.add(component)

    # ------------------------------------------------------------------ #
    # The patch
    # ------------------------------------------------------------------ #
    def apply(self, graph: GraphLike, applied: AppliedDelta) -> Optional[PatchResult]:
        """Patch the condensation for one applied delta.

        ``graph`` is the substrate *after* the delta.  Returns ``None`` when
        the delta cannot be patched (node removals, see module docstring);
        the caller must then rebuild from scratch.  On success the owned
        condensation/rank structures are updated in place and summarised in
        the returned :class:`PatchResult`.
        """
        if applied.nodes_removed:
            return None

        self._rank_seeds = set()
        self._degree_seeds = set()
        self._selection_dirty = set()
        condensation = self._condensation
        dag = condensation.dag
        membership: Dict[NodeId, int] = condensation.membership  # type: ignore[assignment]
        members: Dict[int, Set[NodeId]] = condensation.members  # type: ignore[assignment]

        changed: Set[int] = set()
        added: Set[int] = set()
        removed: Set[int] = set()
        seed_sources: Set[int] = set()
        seed_targets: Set[int] = set()
        position: Optional[Dict[NodeId, int]] = None

        def positions() -> Dict[NodeId, int]:
            nonlocal position
            if position is None:
                position = {node: i for i, node in enumerate(graph.nodes())}
            return position

        # Appended nodes become singleton components; their canonical id is
        # their node position, which (no removals) is simply |V_before| + i.
        if applied.nodes_added:
            next_position = graph.num_nodes() - len(applied.nodes_added)
            for node in applied.nodes_added:
                component = next_position
                next_position += 1
                membership[node] = component
                members[component] = {node}
                dag.add_node(component, graph.label(node))
                self._ranks[component] = 0
                self._dag_degrees[component] = 0
                added.add(component)

        # --- net effect per distinct graph edge --------------------------- #
        # The same edge may appear several times across the add/remove logs
        # (removed then re-inserted, ...).  Effective ops strictly alternate
        # the edge's presence, so parity recovers the pre-delta state and the
        # net structural change is -1, 0 or +1.
        op_counts: Dict[Tuple[NodeId, NodeId], int] = {}
        for edge in applied.edges_added:
            op_counts[edge] = op_counts.get(edge, 0) + 1
        for edge in applied.edges_removed:
            op_counts[edge] = op_counts.get(edge, 0) + 1
        net_removed: List[Tuple[int, int, NodeId, NodeId]] = []
        net_added: List[Tuple[NodeId, NodeId]] = []
        for (source, target), count in op_counts.items():
            present = graph.has_edge(source, target)
            before = present if count % 2 == 0 else not present
            if before == present:
                continue
            source_component = membership[source]
            target_component = membership[target]
            if present:
                net_added.append((source, target))
            else:
                net_removed.append((source_component, target_component, source, target))

        # --- deletions: multiplicity bookkeeping, plus split checks ------- #
        needs_split_check: Set[int] = set()
        for source_component, target_component, source, target in net_removed:
            if source_component == target_component:
                if source != target:  # a self-loop never binds a component
                    needs_split_check.add(source_component)
                continue
            edge = (source_component, target_component)
            count = self._multiplicity.get(edge, 0) - 1
            if count > 0:
                self._multiplicity[edge] = count
            else:
                self._multiplicity.pop(edge, None)
                if dag.has_edge(*edge):
                    self._dag_remove_edge(*edge)
                seed_sources.add(source_component)
                seed_targets.add(target_component)

        # Splits: local Tarjan over just the affected component's members,
        # against the *final* adjacency.
        rescanned: Set[int] = set()
        for component in needs_split_check:
            if len(members[component]) == 1:
                continue
            parts = strongly_connected_components(graph, restrict=members[component])
            if len(parts) == 1:
                continue
            self._dag_remove_node(component)
            del members[component]
            removed.add(component)
            new_ids = []
            for part in parts:
                representative = min(part, key=positions().__getitem__)
                new_id = positions()[representative]
                members[new_id] = part
                for node in part:
                    membership[node] = new_id
                dag.add_node(new_id, graph.label(representative))
                self._ranks[new_id] = 0
                new_ids.append(new_id)
            for new_id in new_ids:
                self._rescan_component_edges(new_id, graph)
            rescanned.update(new_ids)
            # The old id survives as the sub-component keeping the earliest
            # member, so it is changed rather than removed.
            removed -= set(new_ids)
            changed.update(new_ids)

        # --- insertions: multiplicities (skipping rescanned components,
        # whose incident edges were already recounted), then contraction --- #
        merge_probes: List[Tuple[NodeId, NodeId]] = []
        batch_succ: Dict[int, List[int]] = {}
        batch_pred: Dict[int, List[int]] = {}
        for source, target in net_added:
            source_component = membership[source]
            target_component = membership[target]
            if source_component == target_component:
                continue
            merge_probes.append((source, target))
            if source_component in rescanned or target_component in rescanned:
                seed_sources.add(source_component)
                seed_targets.add(target_component)
                continue
            edge = (source_component, target_component)
            count = self._multiplicity.get(edge)
            if count is not None:
                self._multiplicity[edge] = count + 1
            else:
                self._multiplicity[edge] = 1
                batch_succ.setdefault(source_component, []).append(target_component)
                batch_pred.setdefault(target_component, []).append(source_component)
                seed_sources.add(source_component)
                seed_targets.add(target_component)
        # One sorted rebuild per touched adjacency (hub components receive
        # many edges per delta; per-edge splicing would be quadratic).
        for source_component, targets in batch_succ.items():
            dag._succ[source_component] = _sorted_insert_many(dag._succ[source_component], targets)
            self._rank_seeds.add(source_component)
            self._degree_seeds.add(source_component)
        for target_component, sources in batch_pred.items():
            dag._pred[target_component] = _sorted_insert_many(dag._pred[target_component], sources)
            self._degree_seeds.add(target_component)
        dag._edge_count += sum(len(targets) for targets in batch_succ.values())

        merged_any = True
        while merged_any:
            merged_any = False
            for source, target in merge_probes:
                source_component = membership[source]
                target_component = membership[target]
                if source_component == target_component:
                    continue
                if not self._dag_reachable(target_component, source_component):
                    continue
                cycle = self._cycle_components(target_component, source_component)
                self._contract(cycle, graph, positions(), changed, removed)
                merged_any = True

        changed -= removed
        added -= removed

        # --- relabels: refresh DAG labels whose representative changed ---- #
        for node in applied.relabeled:
            component = membership[node]
            representative = min(members[component], key=positions().__getitem__)
            if representative == node:
                dag.add_node(component, graph.label(node))

        # --- ranks: worklist recompute from the disturbed region ---------- #
        rank_seeds = set(changed) | set(added) | (self._rank_seeds & set(members))
        ranks_changed = self._recompute_ranks(rank_seeds, fresh=set(changed) | set(added))
        max_rank = max(self._ranks.values()) if self._ranks else 0

        # Degrees of every component whose DAG adjacency may have changed.
        for component in (set(changed) | set(added) | self._degree_seeds) & set(members):
            degree = dag.degree(component)
            if self._dag_degrees.get(component) != degree:
                self._dag_degrees[component] = degree
                self._selection_dirty.add(component)
        for component in list(self._dag_degrees):
            if component not in members:
                del self._dag_degrees[component]
        max_degree = max(self._dag_degrees.values()) if self._dag_degrees else 0

        rank_index = TopologicalRankIndex.from_parts(dag, dict(self._ranks), max_rank, max_degree)

        # --- greedy-selection order, patched for disturbed keys ----------- #
        self._selection_dirty |= changed | added | removed
        selection_order = self._refresh_selection_order()

        # --- dirty closures for index repair ------------------------------ #
        all_seed_sources = (seed_sources & set(members)) | changed | added
        all_seed_targets = (seed_targets & set(members)) | changed | added
        dirty_forward = self._closure(all_seed_sources, forward=False)
        dirty_backward = self._closure(all_seed_targets, forward=True)

        return PatchResult(
            condensation=condensation,
            rank_index=rank_index,
            changed_components=changed,
            added_components=added,
            removed_components=removed,
            dirty_forward=dirty_forward,
            dirty_backward=dirty_backward,
            ranks_changed=ranks_changed,
            dag_degrees=dict(self._dag_degrees),
            selection_order=selection_order,
        )

    # ------------------------------------------------------------------ #
    # Merge machinery
    # ------------------------------------------------------------------ #
    def _cycle_components(self, start: int, goal: int) -> Set[int]:
        """Components on some ``start`` → ``goal`` DAG path (both inclusive)."""
        descendants = self._closure({start}, forward=True)
        ancestors = self._closure({goal}, forward=False)
        cycle = descendants & ancestors
        cycle.add(start)
        cycle.add(goal)
        return cycle

    def _closure(self, seeds: Set[int], forward: bool) -> Set[int]:
        """Multi-source closure over the DAG (seeds included)."""
        dag = self._condensation.dag
        seen = set(seeds)
        queue: deque = deque(seeds)
        step = dag.successors if forward else dag.predecessors
        while queue:
            node = queue.popleft()
            for neighbor in step(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        return seen

    def _contract(
        self,
        cycle: Set[int],
        graph: GraphLike,
        position: Dict[NodeId, int],
        changed: Set[int],
        removed: Set[int],
    ) -> None:
        """Contract a set of mutually reachable components into one."""
        condensation = self._condensation
        membership: Dict[NodeId, int] = condensation.membership  # type: ignore[assignment]
        members: Dict[int, Set[NodeId]] = condensation.members  # type: ignore[assignment]
        dag = condensation.dag

        merged_id = min(cycle)
        union: Set[NodeId] = set()
        for component in cycle:
            union.update(members[component])
        for component in cycle:
            self._dag_remove_node(component)
            del members[component]
            if component != merged_id:
                removed.add(component)
        members[merged_id] = union
        for node in union:
            membership[node] = merged_id
        representative = min(union, key=position.__getitem__)
        dag.add_node(merged_id, graph.label(representative))
        self._ranks[merged_id] = 0
        self._rescan_component_edges(merged_id, graph)
        self._dag_degrees[merged_id] = dag.degree(merged_id)
        changed.add(merged_id)

    # ------------------------------------------------------------------ #
    # Selection order
    # ------------------------------------------------------------------ #
    def _selection_key(self, component: int) -> tuple:
        return selection_sort_key(
            component,
            self._dag_degrees[component],
            self._ranks[component],
            float(len(self._condensation.members[component])),
        )

    def _refresh_selection_order(self) -> List[int]:
        """The greedy candidate order after this apply (see PatchResult).

        Built once with a full sort, then maintained by extracting the
        components whose key inputs (degree, rank, SCC size, existence)
        changed and merging their re-sorted keys back in — O(K) per apply
        instead of O(K log K), with cached key tuples making the merge
        comparisons free.
        """
        members = self._condensation.members
        if self._selection_order is None:
            self._selection_keys = {component: self._selection_key(component) for component in members}
            self._selection_order = sorted(members, key=self._selection_keys.__getitem__)
            return list(self._selection_order)
        dirty = self._selection_dirty
        if dirty:
            keys = self._selection_keys
            for component in dirty:
                if component in members:
                    keys[component] = self._selection_key(component)
                else:
                    keys.pop(component, None)
            survivors = [component for component in self._selection_order if component not in dirty]
            refreshed = sorted(
                (component for component in dirty if component in members),
                key=keys.__getitem__,
            )
            merged: List[int] = []
            i = j = 0
            while i < len(survivors) and j < len(refreshed):
                if keys[survivors[i]] <= keys[refreshed[j]]:
                    merged.append(survivors[i])
                    i += 1
                else:
                    merged.append(refreshed[j])
                    j += 1
            merged.extend(survivors[i:])
            merged.extend(refreshed[j:])
            self._selection_order = merged
        return list(self._selection_order)

    # ------------------------------------------------------------------ #
    # Ranks
    # ------------------------------------------------------------------ #
    def _recompute_ranks(self, seeds: Set[int], fresh: Set[int]) -> bool:
        """Fixpoint recomputation of ``v.r`` from the disturbed components.

        Returns whether any component that already existed before the delta
        ended up with a different rank (``fresh`` components — just created
        by the patch — don't count: they had no previous rank to preserve).
        """
        dag = self._condensation.dag
        ranks = self._ranks
        queue: deque = deque(component for component in seeds if component in self._condensation.members)
        queued = set(queue)
        changed_existing = False
        while queue:
            component = queue.popleft()
            queued.discard(component)
            children = dag.successors(component)
            new_rank = 0 if not children else 1 + max(ranks[child] for child in children)
            if ranks.get(component) == new_rank:
                continue
            if component not in fresh:
                changed_existing = True
            self._selection_dirty.add(component)
            ranks[component] = new_rank
            for parent in dag.predecessors(component):
                if parent not in queued:
                    queued.add(parent)
                    queue.append(parent)
        return changed_existing


__all__ = ["CondensationMaintainer", "PatchResult"]
