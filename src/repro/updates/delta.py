"""``GraphDelta`` — a batched, ordered log of graph mutations.

The dynamic-graph story (Berkholz et al., *"Answering FO+MOD queries under
updates"*, and the streaming-graph systems it inspired) separates *what*
changed from *how* the change is absorbed: a delta is a value object listing
node/edge insertions and deletions, and every substrate (a mutable
:class:`~repro.graph.digraph.DiGraph`, a
:class:`~repro.updates.overlay.MutableOverlay` over a frozen CSR base)
absorbs the same delta with identical semantics.

Semantics are exactly those of the ``DiGraph`` mutation API, applied op by
op in order:

* ``add_node`` on an existing node relabels it in place;
* ``add_edge`` on an existing edge is a no-op (position preserved);
* ``remove_edge`` / ``remove_node`` on missing items raise, like the graph
  methods do — a delta is a statement about a concrete graph state;
* ``remove_node`` drops the node's incident edges first;
* removing and re-adding an item moves it to the *end* of the iteration
  order, exactly like deleting and re-inserting a dict key.

Because both substrates replay the same op sequence, an overlay and a
mutated ``DiGraph`` do not merely agree on the node/edge *sets* — they agree
on iteration *order*, which is what makes answers over them bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Set

from repro.graph.digraph import DiGraph, Edge, Label, NodeId

ADD_NODE = "add_node"
REMOVE_NODE = "remove_node"
ADD_EDGE = "add_edge"
REMOVE_EDGE = "remove_edge"


@dataclass(frozen=True)
class DeltaOp:
    """One mutation: ``kind`` plus its operands.

    ``target`` and ``label`` are unused for the op kinds that do not need
    them (``label`` only applies to ``add_node``; ``target`` only to the
    edge ops).
    """

    kind: str
    node: NodeId
    target: NodeId = None
    label: Label = ""


class GraphDelta:
    """An ordered batch of node/edge insertions and deletions.

    Build one with the fluent mutators (each returns ``self``)::

        delta = (
            GraphDelta()
            .add_node("w", label="user")
            .add_edge("w", "v1")
            .remove_edge("v2", "v3")
        )

    Apply it to a mutable graph with :meth:`apply_to`, or hand it to
    ``GraphService.update``, which re-prepares the served state on the
    updated graph.
    """

    __slots__ = ("ops",)

    def __init__(self, ops: Iterable[DeltaOp] = ()):
        self.ops: List[DeltaOp] = list(ops)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: NodeId, label: Label = "") -> "GraphDelta":
        """Insert ``node`` (or relabel it if it already exists)."""
        self.ops.append(DeltaOp(ADD_NODE, node, label=label))
        return self

    def remove_node(self, node: NodeId) -> "GraphDelta":
        """Remove ``node`` together with its incident edges."""
        self.ops.append(DeltaOp(REMOVE_NODE, node))
        return self

    def add_edge(self, source: NodeId, target: NodeId) -> "GraphDelta":
        """Insert the directed edge ``(source, target)``."""
        self.ops.append(DeltaOp(ADD_EDGE, source, target=target))
        return self

    def remove_edge(self, source: NodeId, target: NodeId) -> "GraphDelta":
        """Remove the directed edge ``(source, target)``."""
        self.ops.append(DeltaOp(REMOVE_EDGE, source, target=target))
        return self

    @classmethod
    def inserting_edges(cls, edges: Iterable[Edge]) -> "GraphDelta":
        """A delta that inserts every edge in ``edges``, in order."""
        delta = cls()
        for source, target in edges:
            delta.add_edge(source, target)
        return delta

    @classmethod
    def removing_edges(cls, edges: Iterable[Edge]) -> "GraphDelta":
        """A delta that removes every edge in ``edges``, in order."""
        delta = cls()
        for source, target in edges:
            delta.remove_edge(source, target)
        return delta

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[DeltaOp]:
        return iter(self.ops)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.ops_by_kind().items())
        )
        return f"GraphDelta({inner or 'empty'})"

    def ops_by_kind(self) -> dict:
        """Op counts per kind — the shape of a churn batch at a glance."""
        kinds: dict = {}
        for op in self.ops:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        return kinds

    def size(self) -> int:
        """Number of operations — the ``|delta|``."""
        return len(self.ops)

    def touched_nodes(self) -> Set[NodeId]:
        """Every node named by an operation (either endpoint for edge ops)."""
        touched: Set[NodeId] = set()
        for op in self.ops:
            touched.add(op.node)
            if op.kind in (ADD_EDGE, REMOVE_EDGE):
                touched.add(op.target)
        return touched

    def has_node_removals(self) -> bool:
        """Whether any op removes a node."""
        return any(op.kind == REMOVE_NODE for op in self.ops)

    # ------------------------------------------------------------------ #
    # Application
    # ------------------------------------------------------------------ #
    def apply_to(self, graph: DiGraph, applied: Optional["AppliedDelta"] = None) -> "AppliedDelta":
        """Apply every op in order to any substrate with ``DiGraph`` mutators.

        Mutates ``graph`` (a ``DiGraph`` or a
        :class:`~repro.updates.overlay.MutableOverlay` — both expose the
        same mutation API with the same semantics) and returns the
        :class:`AppliedDelta` record of *effective* changes (no-op inserts
        excluded, implicit incident-edge removals included).  This is the
        single op-dispatch implementation; having exactly one is what keeps
        the two substrates bit-identical under the same delta.
        """
        applied = applied if applied is not None else AppliedDelta()
        for op in self.ops:
            if op.kind == ADD_EDGE:
                if graph.add_edge(op.node, op.target):
                    applied.record_edge_added(op.node, op.target)
            elif op.kind == REMOVE_EDGE:
                graph.remove_edge(op.node, op.target)
                applied.record_edge_removed(op.node, op.target)
            elif op.kind == ADD_NODE:
                if op.node in graph:
                    if graph.label(op.node) != op.label:
                        applied.record_relabel(op.node)
                    graph.add_node(op.node, op.label)
                else:
                    graph.add_node(op.node, op.label)
                    applied.record_node_added(op.node)
            elif op.kind == REMOVE_NODE:
                for target in list(graph.successors(op.node)):
                    applied.record_edge_removed(op.node, target)
                for source in list(graph.predecessors(op.node)):
                    if source != op.node:
                        applied.record_edge_removed(source, op.node)
                graph.remove_node(op.node)
                applied.record_node_removed(op.node)
            else:  # pragma: no cover - the builders only emit known kinds
                raise ValueError(f"unknown delta op kind {op.kind!r}")
        return applied


class AppliedDelta:
    """The *effective* changes one delta made to one concrete graph.

    A delta is an op log; which ops had an effect depends on the graph it is
    applied to (a re-inserted edge is a no-op, a node removal implies edge
    removals).  Substrates record the net outcome here so the update
    downstream works from facts, not from the op log.

    ``edges_added``/``edges_removed`` are kept as ordered lists: the same
    edge can legitimately appear in both (removed then re-inserted — its
    iteration position changed even though the edge set did not).
    """

    __slots__ = (
        "edges_added",
        "edges_removed",
        "nodes_added",
        "nodes_removed",
        "relabeled",
    )

    def __init__(self) -> None:
        self.edges_added: List[Edge] = []
        self.edges_removed: List[Edge] = []
        self.nodes_added: List[NodeId] = []
        self.nodes_removed: List[NodeId] = []
        self.relabeled: List[NodeId] = []

    def record_edge_added(self, source: NodeId, target: NodeId) -> None:
        self.edges_added.append((source, target))

    def record_edge_removed(self, source: NodeId, target: NodeId) -> None:
        self.edges_removed.append((source, target))

    def record_node_added(self, node: NodeId) -> None:
        self.nodes_added.append(node)

    def record_node_removed(self, node: NodeId) -> None:
        self.nodes_removed.append(node)

    def record_relabel(self, node: NodeId) -> None:
        self.relabeled.append(node)

    def is_empty(self) -> bool:
        """Whether the delta had no effect at all."""
        return not (
            self.edges_added
            or self.edges_removed
            or self.nodes_added
            or self.nodes_removed
            or self.relabeled
        )

    def touched_nodes(self) -> Set[NodeId]:
        """Every node structurally involved in an effective change."""
        touched: Set[NodeId] = set(self.nodes_added)
        touched.update(self.nodes_removed)
        touched.update(self.relabeled)
        for source, target in self.edges_added:
            touched.add(source)
            touched.add(target)
        for source, target in self.edges_removed:
            touched.add(source)
            touched.add(target)
        return touched


__all__ = [
    "ADD_EDGE",
    "ADD_NODE",
    "AppliedDelta",
    "DeltaOp",
    "GraphDelta",
    "REMOVE_EDGE",
    "REMOVE_NODE",
]
