"""The global boundary graph: cross-shard reachability without the full graph.

Any path between shards decomposes into maximal shard-local segments joined
by cut edges, and every segment endpoint is a *boundary node* (a core node
with a cross-shard edge).  The boundary graph condenses exactly that
structure into one small quotient:

* **supernodes** ``(shard, component)`` — boundary nodes quotiented by their
  shard-local SCC membership (reaching a component means reaching every
  member, so node-level resolution adds nothing);
* **intra-shard edges** ``(s, a) → (s, b)`` whenever component ``a`` reaches
  ``b`` inside shard ``s``'s serving graph — one budgetless batched sweep
  from every boundary component over the shard's condensation DAG, computed
  at preparation time;
* **direction-tagged cross-shard edges** — every cut edge ``u → v`` mapped
  to its component pair and tagged ``(shard(u), shard(v))`` for the
  per-route statistics the CLI reports.

Every edge asserts *true* reachability in ``G`` (intra edges are exact local
sweeps; cross edges are concrete graph edges), so any path found in the
quotient certifies a real path — composition can produce false negatives
(budgets) but never false positives, matching ``RBReach``'s own guarantee.

Two kinds of *boundary landmark labels* make composition cheap:

* every shard-local component gets precomputed **first-hit labels** — the
  boundary components it reaches (forward) or is reached from (backward) by
  a boundary-free local path, the exact analogue of the paper's
  out-of-index labels ``v.E`` with the boundary as the landmark set.  A
  query's exit/entry sets are then O(1) label-column lookups at serve time,
  and the quotient's intra-shard edges recover everything beyond the first
  hit (any locally reachable boundary component lies behind a first-hit
  one);
* the quotient itself carries a hierarchical landmark index (`RBReach` over
  the boundary graph), and :meth:`BoundaryGraph.compose` spends at most the
  caller's share of the ``α·|G|`` budget on exit → entry probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.graph.digraph import DiGraph, NodeId
from repro.reachability.hierarchy import sweep_landmarks
from repro.reachability.landmarks import out_of_index_labels
from repro.reachability.rbreach import RBReach
from repro.shard.partition import Partition
from repro.shard.shards import GraphShard

DEFAULT_LABEL_CAP = 16
"""First-hit labels kept per component; truncation only loses recall."""

DEFAULT_BOUNDARY_ALPHA = 1.0
"""Resource ratio of the boundary landmark index.  The quotient is orders of
magnitude smaller than ``G``, so by default it gets a full-budget index;
composition is still capped by the per-query budget share."""

Supernode = Tuple[int, NodeId]
"""A boundary supernode: ``(shard id, shard-local component id)``."""


@dataclass
class ShardContribution:
    """One shard's slice of the boundary graph."""

    shard_id: int
    #: boundary core node → its shard-local component id.
    comp_of: Dict[NodeId, NodeId] = field(default_factory=dict)
    #: shard-local component ids containing at least one boundary node.
    boundary_comps: FrozenSet[NodeId] = frozenset()
    #: exact local reachability between boundary components (a → b, a ≠ b).
    intra_edges: List[Tuple[NodeId, NodeId]] = field(default_factory=list)
    #: concrete cut edges leaving this shard, in stored adjacency order.
    cross_edges: List[Tuple[NodeId, NodeId]] = field(default_factory=list)
    #: first-hit boundary labels per local component (see module docstring):
    #: ``forward_labels[c]`` = boundary comps reached boundary-free from c.
    forward_labels: Mapping[NodeId, Set[NodeId]] = field(default_factory=dict)
    backward_labels: Mapping[NodeId, Set[NodeId]] = field(default_factory=dict)


def build_contribution(
    shard: GraphShard, partition: Partition, label_cap: int = DEFAULT_LABEL_CAP
) -> ShardContribution:
    """Compute one shard's boundary comps, sweeps, labels and cut edges."""
    contribution = ShardContribution(shard_id=shard.shard_id)
    boundary_nodes = [
        node
        for node in shard.core_list
        if node in partition.boundary.get(shard.shard_id, ())
    ]
    if not boundary_nodes:
        return contribution
    compressed = shard.prepared.compressed()
    contribution.comp_of = {
        node: compressed.component_of(node) for node in boundary_nodes
    }
    boundary_comps = set(contribution.comp_of.values())
    contribution.boundary_comps = frozenset(boundary_comps)

    # The DAG mirror: no container is built, and the label tables come back
    # as columns over the mirror's rows.
    ordered_comps = sorted(boundary_comps, key=repr)
    _, reached = sweep_landmarks(compressed.dag_csr, ordered_comps, forward=True)
    for comp in ordered_comps:
        for other in sorted(reached[comp], key=repr):
            contribution.intra_edges.append((comp, other))

    contribution.forward_labels, contribution.backward_labels = out_of_index_labels(
        compressed.dag_csr, boundary_comps, max_labels=label_cap
    )

    for node in boundary_nodes:
        for target in shard.graph.successors(node):
            owner = partition.shard_of(target)
            if owner is not None and owner != shard.shard_id:
                contribution.cross_edges.append((node, target))
    return contribution


class BoundaryGraph:
    """The assembled quotient plus its landmark-label matcher."""

    def __init__(
        self,
        boundary_alpha: float = DEFAULT_BOUNDARY_ALPHA,
        label_cap: int = DEFAULT_LABEL_CAP,
    ):
        self._alpha = boundary_alpha
        self._label_cap = label_cap
        self._contributions: Dict[int, ShardContribution] = {}
        self.quotient = DiGraph()
        #: cut-edge counts per direction tag ``(source shard, target shard)``.
        self.cross_counts: Dict[Tuple[int, int], int] = {}
        self._matcher: Optional[RBReach] = None
        # Composition memo: batches repeat (exit set, entry set) pairs many
        # times (probe label sets collapse whole regions onto the same key),
        # and compose is a pure function of the assembled quotient.
        self._compose_memo: Dict[Tuple, Tuple[bool, int, Optional[Supernode], bool]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        shards: Dict[int, GraphShard],
        partition: Partition,
        boundary_alpha: float = DEFAULT_BOUNDARY_ALPHA,
    ) -> "BoundaryGraph":
        """Build the boundary graph from every shard's contribution."""
        boundary = cls(boundary_alpha=boundary_alpha)
        for shard_id in sorted(shards):
            boundary._contributions[shard_id] = build_contribution(
                shards[shard_id], partition, label_cap=boundary._label_cap
            )
        boundary._assemble(partition)
        return boundary

    def _assemble(self, partition: Partition) -> None:
        """Assemble the quotient ``DiGraph`` from the per-shard contributions."""
        quotient = self.quotient
        for shard_id in sorted(self._contributions):
            contribution = self._contributions[shard_id]
            for comp in sorted(contribution.boundary_comps, key=repr):
                quotient.add_node((shard_id, comp))
        for shard_id in sorted(self._contributions):
            contribution = self._contributions[shard_id]
            for comp, other in contribution.intra_edges:
                quotient.add_edge((shard_id, comp), (shard_id, other))
            for source, target in contribution.cross_edges:
                owner = partition.shard_of(target)
                other_contribution = self._contributions.get(owner)
                if other_contribution is None:
                    continue
                target_comp = other_contribution.comp_of.get(target)
                if target_comp is None:  # pragma: no cover - cut targets are boundary
                    continue
                source_node = (shard_id, contribution.comp_of[source])
                target_node = (owner, target_comp)
                if source_node != target_node:
                    quotient.add_edge(source_node, target_node)
                tag = (shard_id, owner)
                self.cross_counts[tag] = self.cross_counts.get(tag, 0) + 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def boundary_comps(self, shard_id: int) -> FrozenSet[NodeId]:
        """The shard-local component ids that are boundary supernodes."""
        contribution = self._contributions.get(shard_id)
        return contribution.boundary_comps if contribution else frozenset()

    def contribution(self, shard_id: int) -> Optional[ShardContribution]:
        """The cached per-shard contribution (labels included)."""
        return self._contributions.get(shard_id)

    def num_supernodes(self) -> int:
        """Supernode count of the quotient."""
        return self.quotient.num_nodes()

    def num_edges(self) -> int:
        """Edge count of the quotient (intra + condensed cross edges)."""
        return self.quotient.num_edges()

    def is_empty(self) -> bool:
        """True when no shard has a boundary (e.g. ``k = 1``)."""
        return self.quotient.num_nodes() == 0

    def matcher(self) -> RBReach:
        """The boundary landmark matcher, built on first use."""
        if self._matcher is None:
            self._matcher = RBReach.from_graph(self.quotient, self._alpha)
        return self._matcher

    # ------------------------------------------------------------------ #
    # Composition
    # ------------------------------------------------------------------ #
    def compose(
        self,
        exit_comps: FrozenSet[NodeId],
        entry_comps: FrozenSet[NodeId],
        exit_shard: int,
        entry_shard: int,
        budget: int,
    ) -> Tuple[bool, int, Optional[Supernode], bool]:
        """Is any exit supernode connected to any entry supernode?

        Probes ``(exit, entry)`` pairs through the boundary landmark index
        in deterministic order, spending at most ``budget`` visited items in
        total.  Returns ``(reachable, visited, meeting supernode, budget
        exhausted)``; a ``True`` answer always certifies a real path.
        """
        if not exit_comps or not entry_comps:
            return False, 0, None, False
        memo_key = (exit_comps, entry_comps, exit_shard, entry_shard, budget)
        cached = self._compose_memo.get(memo_key)
        if cached is not None:
            return cached
        result = self._compose(exit_comps, entry_comps, exit_shard, entry_shard, budget)
        self._compose_memo[memo_key] = result
        return result

    def _compose(
        self,
        exit_comps: FrozenSet[NodeId],
        entry_comps: FrozenSet[NodeId],
        exit_shard: int,
        entry_shard: int,
        budget: int,
    ) -> Tuple[bool, int, Optional[Supernode], bool]:
        exits = [(exit_shard, comp) for comp in sorted(exit_comps, key=repr)]
        entries = [(entry_shard, comp) for comp in sorted(entry_comps, key=repr)]
        entry_set = set(entries)
        for supernode in exits:
            if supernode in entry_set:
                return True, 1, supernode, False
        matcher = self.matcher()
        visited = 0
        for exit_node in exits:
            for entry_node in entries:
                answer = matcher.query(exit_node, entry_node)
                visited += max(1, answer.visited)
                if answer.reachable:
                    return True, visited, entry_node, False
                if visited >= budget:
                    return False, visited, None, True
        return False, visited, None, False


__all__ = [
    "DEFAULT_BOUNDARY_ALPHA",
    "DEFAULT_LABEL_CAP",
    "BoundaryGraph",
    "ShardContribution",
    "Supernode",
    "build_contribution",
]
