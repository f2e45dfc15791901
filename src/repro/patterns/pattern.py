"""Graph pattern queries ``Q = (Vp, Ep, fv, up, uo)`` (paper Section 2).

A pattern is a small directed graph whose nodes carry label constraints, a
*personalized* node ``up`` (the node issuing the query, with a unique match
``vp`` in the data graph) and an *output* node ``uo`` (the search intent —
the answer ``Q(G)`` is the set of data nodes that match ``uo``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.exceptions import PatternError
from repro.graph.digraph import DiGraph, Label

QueryNodeId = Hashable
QueryEdge = Tuple[QueryNodeId, QueryNodeId]


@dataclass(frozen=True)
class GraphPattern:
    """An immutable graph pattern query.

    Parameters
    ----------
    labels:
        ``fv`` — maps every query node to the label its matches must carry.
    edges:
        The directed query edges over the keys of ``labels``.
    personalized:
        ``up`` — the personalized node (must be a key of ``labels``).
    output:
        ``uo`` — the output node (must be a key of ``labels``).
    """

    labels: Mapping[QueryNodeId, Label]
    edges: Tuple[QueryEdge, ...]
    personalized: QueryNodeId
    output: QueryNodeId
    _succ: Mapping[QueryNodeId, Tuple[QueryNodeId, ...]] = field(
        default=None, repr=False, compare=False
    )
    _pred: Mapping[QueryNodeId, Tuple[QueryNodeId, ...]] = field(
        default=None, repr=False, compare=False
    )
    # Derived once per frozen pattern: N(u) eagerly, d_Q and connectivity on first use.
    _neighbors: Mapping[QueryNodeId, Tuple[QueryNodeId, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _diameter: Optional[int] = field(default=None, init=False, repr=False, compare=False)
    _connected: Optional[bool] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = dict(self.labels)
        edges = tuple(dict.fromkeys(tuple(edge) for edge in self.edges))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", edges)
        if not labels:
            raise PatternError("a pattern must have at least one query node")
        if self.personalized not in labels:
            raise PatternError(f"personalized node {self.personalized!r} is not a query node")
        if self.output not in labels:
            raise PatternError(f"output node {self.output!r} is not a query node")
        succ: Dict[QueryNodeId, List[QueryNodeId]] = {node: [] for node in labels}
        pred: Dict[QueryNodeId, List[QueryNodeId]] = {node: [] for node in labels}
        for source, target in edges:
            if source not in labels:
                raise PatternError(f"edge source {source!r} is not a query node")
            if target not in labels:
                raise PatternError(f"edge target {target!r} is not a query node")
            if source == target:
                raise PatternError("self-loops are not allowed in patterns")
            succ[source].append(target)
            pred[target].append(source)
        object.__setattr__(self, "_succ", {node: tuple(values) for node, values in succ.items()})
        object.__setattr__(self, "_pred", {node: tuple(values) for node, values in pred.items()})
        object.__setattr__(
            self,
            "_neighbors",
            {node: tuple(dict.fromkeys(succ[node] + pred[node])) for node in labels},
        )

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def nodes(self) -> Iterator[QueryNodeId]:
        """Iterate over the query nodes ``Vp``."""
        return iter(self.labels)

    def num_nodes(self) -> int:
        """|Vp|."""
        return len(self.labels)

    def num_edges(self) -> int:
        """|Ep|."""
        return len(self.edges)

    def size(self) -> int:
        """|Q| = |Vp| + |Ep| (used for the paper's (|Vp|, |Ep|) query sizes)."""
        return self.num_nodes() + self.num_edges()

    def shape(self) -> Tuple[int, int]:
        """The paper's query-size notation ``(|Vp|, |Ep|)``."""
        return (self.num_nodes(), self.num_edges())

    def label_of(self, node: QueryNodeId) -> Label:
        """``fv(u)`` — label constraint of a query node."""
        try:
            return self.labels[node]
        except KeyError:
            raise PatternError(f"{node!r} is not a query node") from None

    def children(self, node: QueryNodeId) -> Tuple[QueryNodeId, ...]:
        """Query nodes ``u'`` with an edge ``(node, u')``."""
        try:
            return self._succ[node]
        except KeyError:
            raise PatternError(f"{node!r} is not a query node") from None

    def parents(self, node: QueryNodeId) -> Tuple[QueryNodeId, ...]:
        """Query nodes ``u'`` with an edge ``(u', node)``."""
        try:
            return self._pred[node]
        except KeyError:
            raise PatternError(f"{node!r} is not a query node") from None

    def neighbors(self, node: QueryNodeId) -> Tuple[QueryNodeId, ...]:
        """Parents and children of ``node`` (the pattern's ``N(u)``)."""
        try:
            return self._neighbors[node]
        except KeyError:
            raise PatternError(f"{node!r} is not a query node") from None

    def degree(self, node: QueryNodeId) -> int:
        """Number of distinct neighbours of ``node`` in the pattern."""
        return len(self.neighbors(node))

    def has_edge(self, source: QueryNodeId, target: QueryNodeId) -> bool:
        """Whether the directed query edge ``(source, target)`` exists."""
        return target in self._succ.get(source, ())

    def distinct_labels(self) -> Set[Label]:
        """The paper's ``l``: distinct labels mentioned by the pattern."""
        return set(self.labels.values())

    def num_distinct_labels(self) -> int:
        """``l`` as a count."""
        return len(self.distinct_labels())

    # ------------------------------------------------------------------ #
    # Diameters
    # ------------------------------------------------------------------ #
    def to_digraph(self) -> DiGraph:
        """A :class:`DiGraph` view of the pattern (labels become node labels)."""
        graph = DiGraph()
        for node, label in self.labels.items():
            graph.add_node(node, label)
        for source, target in self.edges:
            graph.add_edge(source, target)
        return graph

    def diameter(self) -> int:
        """``d_Q`` — the undirected diameter used to size the ball ``G_dQ(vp)``.

        The paper's strong-simulation semantics restricts matching to the
        ``d_Q``-neighbourhood of ``vp``; when the pattern is disconnected the
        unreachable pairs are ignored, and patterns with a single node have
        diameter 0.  Returns at least 1 when there is any edge, so the ball
        never degenerates to just ``vp``.
        """
        if self._diameter is None:
            self._derive_hops()
        return self._diameter

    def _derive_hops(self) -> None:
        """``d_Q`` and whether every query node is reached from ``up``, from one
        breadth-first sweep per query node over neighbour bit masks."""
        position = {node: index for index, node in enumerate(self.labels)}
        adjacency = [0] * len(position)
        for source, target in self.edges:
            adjacency[position[source]] |= 1 << position[target]
            adjacency[position[target]] |= 1 << position[source]
        longest, connected = 0, False
        for index in range(len(adjacency)):
            reached = frontier = 1 << index
            hops = 0
            while True:
                grown = 0
                while frontier:
                    low = frontier & -frontier
                    grown |= adjacency[low.bit_length() - 1]
                    frontier ^= low
                grown &= ~reached
                if not grown:
                    break
                hops += 1
                reached |= grown
                frontier = grown
            longest = max(longest, hops)
            if index == position[self.personalized]:
                connected = reached == (1 << len(adjacency)) - 1
        object.__setattr__(self, "_diameter", max(1, longest) if self.edges else 0)
        object.__setattr__(self, "_connected", connected)

    def undirected_diameter(self) -> int:
        """Alias for :meth:`diameter` (the paper's parameter ``d``)."""
        return self.diameter()

    def is_connected(self) -> bool:
        """Whether the pattern is weakly connected."""
        if self._connected is None:
            self._derive_hops()
        return self._connected

    def validate(self) -> None:
        """Raise :class:`PatternError` when the pattern is not usable.

        Dynamic reduction traverses the pattern from the personalized node,
        so every query node must be weakly connected to ``up``.
        """
        if not self.is_connected():
            raise PatternError("pattern must be weakly connected to the personalized node")


def make_pattern(
    node_labels: Mapping[QueryNodeId, Label],
    edges: Iterable[QueryEdge],
    personalized: QueryNodeId,
    output: Optional[QueryNodeId] = None,
) -> GraphPattern:
    """Convenience constructor; ``output`` defaults to the personalized node."""
    return GraphPattern(
        labels=dict(node_labels),
        edges=tuple(edges),
        personalized=personalized,
        output=output if output is not None else personalized,
    )


def example1_pattern() -> GraphPattern:
    """The pattern of the paper's Example 1 / Figure 1.

    Michael looks for cycling lovers (CL) who know both his friends in the LA
    cycling club (CC) and his friends in the hiking group (HG).
    """
    return make_pattern(
        node_labels={"Michael": "Michael", "HG": "HG", "CC": "CC", "CL": "CL"},
        edges=[("Michael", "HG"), ("Michael", "CC"), ("CC", "CL"), ("HG", "CL")],
        personalized="Michael",
        output="CL",
    )
