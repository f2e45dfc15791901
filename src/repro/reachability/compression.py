"""Reachability-preserving compression (preprocessing step of Section 5).

The paper first reduces a possibly cyclic graph ``G`` to a DAG using the
query-preserving compression of [12]; for reachability queries the essential
(and dominant) part of that compression is SCC condensation, which is exactly
reachability preserving.  :class:`CompressedGraph` bundles the condensation
with the node → component mapping and the topological-rank index that the
landmark machinery needs, so the rest of the reachability stack can treat it
as "the DAG ``G``" of Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.components import Condensation, condensation_with_mirror
from repro.graph.csr import CSRGraph, freeze
from repro.graph.digraph import DiGraph, NodeId
from repro.graph.protocol import GraphLike
from repro.graph.topology import TopologicalRankIndex
from repro.graph.traversal import bidirectional_reachable


@dataclass
class CompressedGraph:
    """A data graph together with its reachability-preserving DAG view.

    ``dag_csr`` is a compressed-sparse-row mirror of the condensed DAG; the
    index builder, the exact oracle and query answering read it, and the
    condensation and the ranks beside it are columns over its rows.  ``dag``
    is a ``DiGraph`` of the same DAG, materialised on first access, which
    prepare and query answering never ask for.
    """

    original: GraphLike
    condensation: Condensation
    ranks: TopologicalRankIndex
    dag_csr: CSRGraph

    @property
    def dag(self) -> DiGraph:
        """The condensed DAG as a mutable ``DiGraph`` (built on first access)."""
        return self.condensation.dag

    def columns(self) -> Dict[str, np.ndarray]:
        """Every backing column by name, for publication beside ``dag_csr``."""
        return {**self.condensation.columns(), **self.ranks.columns()}

    def component_of(self, node: NodeId) -> int:
        """Component id hosting an original node."""
        return self.condensation.component_of(node)

    def locate(self, node: NodeId) -> Optional[Tuple[int, int]]:
        """``(component, rank)`` of an original node, ``None`` when ``G`` lacks it.

        RBReach's one lookup per endpoint: both sit at the node's mirror row
        (the rank column is built on the mirror's rows).
        """
        condensed = self.condensation
        row = condensed.row_of(node)
        if row is None:
            return None
        return condensed._component_ids[row], self.ranks._column_view[row]

    def rank_rows(self) -> Sequence[int]:
        """``v.r`` by row of ``dag_csr``: the rank column itself, as :meth:`locate` reads it."""
        return self.ranks._column_view

    def rank_of(self, node: NodeId) -> int:
        """Topological rank of the component hosting ``node``."""
        return self.ranks.rank(self.component_of(node))

    def compression_ratio(self) -> float:
        """|DAG| / |G| — reported by the experiments (cf. [12]'s 5% for reachability)."""
        return self.condensation.compression_ratio(self.original)

    def same_component(self, source: NodeId, target: NodeId) -> bool:
        """Whether two original nodes share an SCC (trivially reachable both ways)."""
        return self.component_of(source) == self.component_of(target)

    def exact_reachable(self, source: NodeId, target: NodeId) -> bool:
        """Exact reachability oracle on the DAG (used for ground truth)."""
        source_component = self.component_of(source)
        target_component = self.component_of(target)
        if source_component == target_component:
            return True
        return bidirectional_reachable(self.dag_csr, source_component, target_component)


def compress(graph: GraphLike) -> CompressedGraph:
    """Condense ``graph`` and precompute topological ranks on the DAG.

    One path for every input: a graph that is not a :class:`CSRGraph` (a
    ``DiGraph``, an overlay) is frozen first — order-exact, so the canonical
    component ids are those of the graph as given — then condensed and
    mirrored by whole-array passes.  The condensation is its columns and
    the ranks are a level peel over the mirror, kept as one column.  The
    paper-figure drivers, the serving engine and the re-prepare after
    every update all take this path; ``tests/prepare_oracle.py``
    holds it to the element-by-element definition.
    """
    condensed, dag_csr = condensation_with_mirror(freeze(graph))
    ranks = TopologicalRankIndex.from_mirror(dag_csr)
    return CompressedGraph(original=graph, condensation=condensed, ranks=ranks, dag_csr=dag_csr)


def component_changes(
    old: CompressedGraph, fresh: CompressedGraph, touched: Iterable[NodeId]
) -> Tuple[Set[NodeId], bool]:
    """What a delta that removed no node did to the condensation.

    ``old`` and ``fresh`` are the compressions of the graph before and
    after; with no node removed, every old node keeps its row, so a
    component keeps its id (its earliest member's row) unless its members
    change.  Only a component hosting a touched node, before or after, can
    split or merge.  Returns the nodes of every such component whose member
    set changed (old and new members alike), and whether any component
    present in both with the same members moved topological rank.
    """
    old_condensed, new_condensed = old.condensation, fresh.condensation
    graph = fresh.original
    old_rows = old.original.num_nodes()
    dirty_rows: List[np.ndarray] = []
    changed_ids: List[int] = []
    for row in sorted({graph.index_of(node) for node in touched if node in graph}):
        members = new_condensed.member_rows(row)
        if row < old_rows:
            before = old_condensed.member_rows(row)
            if np.array_equal(before, members):
                continue
            dirty_rows.append(before)
            changed_ids.append(int(before[0]))
        dirty_rows.append(members)
        changed_ids.append(int(members[0]))
    dirty = set(graph.ids_of(np.concatenate(dirty_rows))) if dirty_rows else set()

    old_ids, new_ids = old_condensed.component_ids(), new_condensed.component_ids()
    at = np.minimum(np.searchsorted(new_ids, old_ids), max(new_ids.shape[0] - 1, 0))
    shared = (new_ids[at] == old_ids) & ~np.isin(old_ids, np.array(changed_ids, dtype=np.int64))
    old_ranks, new_ranks = old.ranks.columns()["ranks"], fresh.ranks.columns()["ranks"]
    moved = bool((old_ranks[shared] != new_ranks[at[shared]]).any())
    return dirty, moved


def verify_reachability_preserved(
    compressed: CompressedGraph,
    sample_pairs: Optional[Dict[NodeId, NodeId]] = None,
) -> bool:
    """Spot-check that compression preserves reachability (test helper).

    ``sample_pairs`` maps source → target; when omitted, nothing is checked
    and True is returned (full verification is quadratic).
    """
    if not sample_pairs:
        return True
    for source, target in sample_pairs.items():
        direct = bidirectional_reachable(compressed.original, source, target)
        via_dag = compressed.exact_reachable(source, target)
        if direct != via_dag:
            return False
    return True
