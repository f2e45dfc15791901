"""Directed, node-labeled graph — the data-graph substrate of the paper.

The paper — Fan, Wang & Wu, *"Querying Big Graphs within Bounded Resources"*
(SIGMOD 2014), Section 2 — defines a data graph as ``G = (V, E, L)`` where ``V``
is a finite set of nodes, ``E`` a set of directed edges, and ``L`` a function
assigning a label to every node.  :class:`DiGraph` implements exactly this
model with adjacency sets for O(1) edge tests and O(deg) neighbourhood scans,
which is what every algorithm in the reproduction relies on.

The class is intentionally free of any query logic: neighbourhood extraction,
traversal, components, statistics and generators live in sibling modules so
that each algorithm only pulls in what it needs.

Adjacency is stored in *insertion-ordered* dicts rather than sets: the
neighbour iteration order of a graph is exactly the order its edges were
added (re-adding an existing edge does not move it; removing and re-adding
one moves it to the end, like any dict key).  Determinism of that order is
what lets the incremental-update machinery (``repro.updates``) reproduce a
freshly built graph bit-for-bit — an overlay that appends inserted edges
behind the base adjacency iterates in the same order as a ``DiGraph`` that
applied the same operations, so every order-sensitive heuristic downstream
makes identical decisions on either substrate.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    KeysView,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError

NodeId = Hashable
Label = Hashable
Edge = Tuple[NodeId, NodeId]


class DiGraph:
    """A directed graph with one label per node.

    Nodes may be any hashable value.  Labels may be any hashable value; by
    convention the workload generators use short strings.

    The size of a graph, ``len(g)`` / :meth:`size`, follows the paper's
    definition: number of nodes plus number of edges.
    """

    __slots__ = ("_labels", "_succ", "_pred", "_edge_count")

    def __init__(self) -> None:
        self._labels: Dict[NodeId, Label] = {}
        # Insertion-ordered adjacency: the inner dicts are used as ordered
        # sets (values are always None); see the module docstring.
        self._succ: Dict[NodeId, Dict[NodeId, None]] = {}
        self._pred: Dict[NodeId, Dict[NodeId, None]] = {}
        self._edge_count: int = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        labels: Optional[Mapping[NodeId, Label]] = None,
        default_label: Label = "",
    ) -> "DiGraph":
        """Build a graph from an edge iterable and an optional label map.

        Nodes appearing only in ``labels`` (isolated nodes) are also added.
        """
        graph = cls()
        labels = dict(labels or {})
        for source, target in edges:
            if source not in graph:
                graph.add_node(source, labels.get(source, default_label))
            if target not in graph:
                graph.add_node(target, labels.get(target, default_label))
            graph.add_edge(source, target)
        for node, label in labels.items():
            if node not in graph:
                graph.add_node(node, label)
        return graph

    @classmethod
    def from_adjacency(
        cls,
        nodes: Sequence[NodeId],
        labels: Iterable[Label],
        successors: Iterable[Iterable[NodeId]],
        predecessors: Iterable[Iterable[NodeId]],
    ) -> "DiGraph":
        """Bulk constructor: adopt whole adjacency lists, order as given.

        The ``k``-th items of ``successors`` and ``predecessors`` are the
        children and parents of ``nodes[k]`` in the iteration order the
        graph should have; each iterable is consumed once, so generators
        keep only one list alive at a time.  The caller vouches that both
        sides describe one edge set over ``nodes`` without duplicates
        (:meth:`validate` checks); in return nothing is checked or inserted
        edge by edge.  Lists sorted on both sides give exactly the graph
        that ``add_edge`` over the sorted edge list builds — how the
        condensation DAG is made.
        """
        graph = cls()
        graph._labels = dict(zip(nodes, labels))
        graph._succ = dict(zip(nodes, map(dict.fromkeys, successors)))
        graph._pred = dict(zip(nodes, map(dict.fromkeys, predecessors)))
        graph._edge_count = sum(map(len, graph._succ.values()))
        return graph

    def copy(self) -> "DiGraph":
        """Return a deep structural copy of this graph (orders preserved)."""
        clone = DiGraph()
        clone._labels = dict(self._labels)
        clone._succ = {node: dict(succ) for node, succ in self._succ.items()}
        clone._pred = {node: dict(pred) for node, pred in self._pred.items()}
        clone._edge_count = self._edge_count
        return clone

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_node(self, node: NodeId, label: Label = "") -> None:
        """Add ``node`` with ``label``; relabels the node if it already exists."""
        if node not in self._labels:
            self._succ[node] = {}
            self._pred[node] = {}
        self._labels[node] = label

    def add_edge(self, source: NodeId, target: NodeId) -> bool:
        """Add the directed edge ``(source, target)``.

        Both endpoints must already exist.  Returns ``True`` if the edge was
        new, ``False`` if it was already present (parallel edges collapse).
        """
        if source not in self._labels:
            raise NodeNotFoundError(source)
        if target not in self._labels:
            raise NodeNotFoundError(target)
        if target in self._succ[source]:
            return False
        self._succ[source][target] = None
        self._pred[target][source] = None
        self._edge_count += 1
        return True

    def remove_edge(self, source: NodeId, target: NodeId) -> None:
        """Remove edge ``(source, target)``; raises if it does not exist."""
        if source not in self._labels or target not in self._succ.get(source, ()):
            raise EdgeNotFoundError(source, target)
        del self._succ[source][target]
        del self._pred[target][source]
        self._edge_count -= 1

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` together with all incident edges."""
        if node not in self._labels:
            raise NodeNotFoundError(node)
        for target in list(self._succ[node]):
            self.remove_edge(node, target)
        for source in list(self._pred[node]):
            self.remove_edge(source, node)
        del self._succ[node]
        del self._pred[node]
        del self._labels[node]

    def relabel(self, node: NodeId, label: Label) -> None:
        """Change the label of an existing node."""
        if node not in self._labels:
            raise NodeNotFoundError(node)
        self._labels[node] = label

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def __contains__(self, node: NodeId) -> bool:
        return node in self._labels

    def __len__(self) -> int:
        """Number of nodes (use :meth:`size` for the paper's |G| = |V| + |E|)."""
        return len(self._labels)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._labels)

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__name__}(nodes={self.num_nodes()}, "
            f"edges={self.num_edges()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self._labels == other._labels and self._succ == other._succ

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("DiGraph objects are mutable and unhashable")

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over all node identifiers."""
        return iter(self._labels)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as ``(source, target)`` pairs."""
        for source, targets in self._succ.items():
            for target in targets:
                yield (source, target)

    def num_nodes(self) -> int:
        """Number of nodes |V|."""
        return len(self._labels)

    def num_edges(self) -> int:
        """Number of edges |E|."""
        return self._edge_count

    def size(self) -> int:
        """The paper's |G|: total number of nodes and edges."""
        return self.num_nodes() + self.num_edges()

    def label(self, node: NodeId) -> Label:
        """Return the label ``L(node)``."""
        try:
            return self._labels[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def labels(self) -> Mapping[NodeId, Label]:
        """Read-only view of the node → label mapping."""
        return dict(self._labels)

    def distinct_labels(self) -> Set[Label]:
        """The set of labels used by at least one node."""
        return set(self._labels.values())

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        """Whether the directed edge ``(source, target)`` exists."""
        return target in self._succ.get(source, ())

    def successors(self, node: NodeId) -> KeysView[NodeId]:
        """The children of ``node``, in edge-insertion order (set-like view)."""
        try:
            return self._succ[node].keys()
        except KeyError:
            raise NodeNotFoundError(node) from None

    def predecessors(self, node: NodeId) -> KeysView[NodeId]:
        """The parents of ``node``, in edge-insertion order (set-like view)."""
        try:
            return self._pred[node].keys()
        except KeyError:
            raise NodeNotFoundError(node) from None

    def neighbors(self, node: NodeId) -> KeysView[NodeId]:
        """The 1-hop neighbourhood N(v): children then unseen parents.

        Deterministic order (successor insertion order followed by the
        predecessors not already listed), unlike a set union — landmark
        selection iterates this during its exclusion step, so the order is
        answer-relevant for the incremental-update equivalence guarantees.
        """
        if node not in self._labels:
            raise NodeNotFoundError(node)
        return {**self._succ[node], **self._pred[node]}.keys()

    def out_degree(self, node: NodeId) -> int:
        """Number of out-edges of ``node``."""
        return len(self.successors(node))

    def in_degree(self, node: NodeId) -> int:
        """Number of in-edges of ``node``."""
        return len(self.predecessors(node))

    def degree(self, node: NodeId) -> int:
        """The paper's d(v): cardinality of the 1-hop neighbourhood N(v)."""
        return len(self.neighbors(node))

    def max_degree(self) -> int:
        """Maximum node degree d_G over the whole graph (0 for empty graphs)."""
        if not self._labels:
            return 0
        return max(self.degree(node) for node in self._labels)

    def nodes_with_label(self, label: Label) -> Set[NodeId]:
        """All nodes carrying ``label`` (linear scan; see LabelIndex for O(1))."""
        return {node for node, node_label in self._labels.items() if node_label == label}

    def validate(self) -> None:
        """Check internal consistency; raises :class:`GraphError` on corruption.

        Intended for tests and for loaders of externally produced files.
        """
        edge_total = 0
        for source, targets in self._succ.items():
            if source not in self._labels:
                raise GraphError(f"successor table references unknown node {source!r}")
            for target in targets:
                if target not in self._labels:
                    raise GraphError(f"edge ({source!r}, {target!r}) targets unknown node")
                if source not in self._pred[target]:
                    raise GraphError(
                        f"edge ({source!r}, {target!r}) missing from predecessor table"
                    )
                edge_total += 1
        for target, sources in self._pred.items():
            for source in sources:
                if target not in self._succ.get(source, ()):
                    raise GraphError(
                        f"predecessor table has ({source!r}, {target!r}) "
                        "not present in successor table"
                    )
        if edge_total != self._edge_count:
            raise GraphError(
                f"edge count {self._edge_count} does not match adjacency ({edge_total})"
            )
