"""r-hop neighbourhoods and balls ``G_r(v)`` (Fan, Wang & Wu, SIGMOD 2014,
Section 2, Table 1).

* ``N_r(v)`` — the set of nodes within ``r`` hops of ``v``, where "within r
  hops" means connected by a path of at most ``r`` edges *in either
  direction* (the paper's definition).
* ``G_r(v)`` — the subgraph of ``G`` induced by ``N_r(v)``; strong simulation
  is defined on the ``d_Q``-ball of the personalized match ``v_p``.

The module also provides the per-node neighbourhood summaries (degree and
neighbour-label multiset ``Sl``) that the paper precomputes offline and that
the dynamic-reduction procedures consult to evaluate guarded conditions
without touching the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.graph.digraph import DiGraph, Label, NodeId
from repro.graph.protocol import GraphLike
from repro.graph.subgraph import induced_subgraph
from repro.graph.traversal import bfs_levels


def nodes_within_hops(graph: GraphLike, center: NodeId, radius: int) -> Set[NodeId]:
    """The paper's ``N_r(v)``: nodes within ``radius`` undirected hops of ``center``."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return set(bfs_levels(graph, center, max_hops=radius, direction="both"))


def ball(graph: GraphLike, center: NodeId, radius: int) -> DiGraph:
    """The paper's ``G_r(v)``: the subgraph induced by ``N_r(v)``."""
    return induced_subgraph(graph, nodes_within_hops(graph, center, radius))


def ball_size(graph: GraphLike, center: NodeId, radius: int) -> int:
    """``|G_r(v)|`` (nodes + edges) without materialising the ball twice."""
    return ball(graph, center, radius).size()


@dataclass(frozen=True)
class NeighborhoodSummary:
    """Offline per-node summary used by the dynamic reduction (Section 4.1).

    Attributes
    ----------
    degree:
        ``d(v)`` — cardinality of the 1-hop neighbourhood ``N(v)``.
    label_counts:
        The paper's ``Sl``: for each distinct label ``l`` occurring in
        ``N(v)``, the number of neighbours carrying ``l``.
    child_label_counts / parent_label_counts:
        The same statistic split by edge direction; the guarded condition of
        RBSim requires a parent (resp. child) with a given label, so the
        direction-aware counts let it be evaluated exactly from the summary.
    """

    degree: int
    label_counts: Mapping[Label, int] = field(default_factory=dict)
    child_label_counts: Mapping[Label, int] = field(default_factory=dict)
    parent_label_counts: Mapping[Label, int] = field(default_factory=dict)

    def count(self, label: Label) -> int:
        """Occurrences of ``label`` among all neighbours."""
        return self.label_counts.get(label, 0)

    def child_count(self, label: Label) -> int:
        """Occurrences of ``label`` among children."""
        return self.child_label_counts.get(label, 0)

    def parent_count(self, label: Label) -> int:
        """Occurrences of ``label`` among parents."""
        return self.parent_label_counts.get(label, 0)


def summarize_node(graph: GraphLike, node: NodeId) -> NeighborhoodSummary:
    """Compute the :class:`NeighborhoodSummary` of one node."""
    child_counts: Dict[Label, int] = {}
    parent_counts: Dict[Label, int] = {}
    for child in graph.successors(node):
        label = graph.label(child)
        child_counts[label] = child_counts.get(label, 0) + 1
    for parent in graph.predecessors(node):
        label = graph.label(parent)
        parent_counts[label] = parent_counts.get(label, 0) + 1
    label_counts: Dict[Label, int] = {}
    for neighbor in graph.neighbors(node):
        label = graph.label(neighbor)
        label_counts[label] = label_counts.get(label, 0) + 1
    return NeighborhoodSummary(
        degree=graph.degree(node),
        label_counts=label_counts,
        child_label_counts=child_counts,
        parent_label_counts=parent_counts,
    )


class LabelRequirement(NamedTuple):
    """A set of neighbour labels compiled once for repeated guard tests.

    Built by :meth:`NeighborhoodIndex.requirement`.  ``words`` holds the
    ``(word, mask)`` pairs to test against a row of the presence arrays, or
    ``None`` when no row can satisfy it: the index has no arrays, or some
    label is absent from their label table.
    """

    labels: Tuple[Label, ...]
    words: Optional[Tuple[Tuple[int, int], ...]]


_NO_LABELS = LabelRequirement((), ())


class NeighborhoodIndex:
    """The ``Sl`` summaries the dynamic reduction consults (Section 4.1).

    The paper builds them in a single offline pass over ``G`` ("once-for-all
    offline preprocessing").  On a :class:`~repro.graph.csr.CSRGraph` that
    pass is :meth:`CSRGraph.label_presence`: two packed bit arrays answering
    "does ``v`` have a parent/child labelled ``l``?" for every node, built by
    one vectorised sweep and inherited copy-on-write by the forked daemon
    workers.  On a
    :class:`~repro.updates.overlay.MutableOverlay` over a CSR base the
    arrays keep serving every node whose neighbourhood no delta touched;
    the :meth:`invalidate`-d nodes, like every node of a ``DiGraph``, go
    through :func:`summarize_node` on first use and are cached.  That
    per-node path is the reference the arrays are tested against.
    """

    def __init__(self, graph: GraphLike):
        self._source: Optional[GraphLike] = None
        self.rebind(graph)

    @property
    def graph(self) -> GraphLike:
        """The indexed graph."""
        return self._graph

    def rebind(self, graph: GraphLike) -> None:
        """Point the index at a new substrate carrying the same content.

        Wrapping the substrate in an overlay keeps everything (the base
        underneath is the same object).  An overlay compacting into a fresh
        CSR snapshot renumbers nodes and labels, so the arrays are taken
        from the new snapshot and every node is array-backed again.
        """
        self._graph = graph
        source = getattr(graph, "base", graph)  # the graph under an overlay
        if source is self._source:
            return
        self._source = source
        self._summaries: Dict[NodeId, NeighborhoodSummary] = {}
        self._bind_arrays()
        # Nodes the arrays describe wrongly: an overlay met with churn
        # already on it names them itself, later ones arrive via invalidate().
        self._stale: Set[NodeId] = set()
        if self._label_bit is not None and graph is not source:
            self._stale.update(graph.touched_neighborhoods())

    def _bind_arrays(self) -> None:
        """Resolve the source graph's presence arrays to flat word views."""
        source = self._source
        if not hasattr(source, "label_presence"):
            self._rows: Mapping[NodeId, int] = {}
            self._label_bit: Optional[Dict[Label, Tuple[int, int]]] = None
            return
        child_bits, parent_bits = self._bits = source.label_presence()
        self._rows = source._index
        self._words = child_bits.shape[1]
        self._child_words = memoryview(child_bits.reshape(-1))
        self._parent_words = memoryview(parent_bits.reshape(-1))
        self._label_bit = {
            label: (lid >> 6, 1 << (lid & 63)) for lid, label in enumerate(source._label_table)
        }

    def __getstate__(self):
        # The word views are memoryviews over (possibly shared) arrays of the
        # source graph: rebuilt from the graph on load, never serialised.
        return (self._graph, self._source, self._stale, self._summaries)

    def __setstate__(self, state) -> None:
        self._graph, self._source, self._stale, self._summaries = state
        self._bind_arrays()

    def _row(self, node: NodeId) -> Optional[int]:
        """Array row of ``node``, or ``None`` when the per-node path serves it."""
        if node in self._stale:
            return None
        return self._rows.get(node)

    def precompute(self) -> None:
        """Eagerly summarise every node (the paper's offline pass).

        Array-backed nodes are complete from construction; only the others
        are summarised here.
        """
        for node in self._graph.nodes():
            if self._row(node) is None:
                self.summary(node)

    def invalidate(self, nodes) -> int:
        """Drop what is known about ``nodes``; returns how many were known.

        Incremental updates call this for every node whose 1-hop
        neighbourhood changed.  Those nodes rebuild lazily through
        :func:`summarize_node`; every other node stays valid because its
        summary only describes untouched adjacency.
        """
        evicted = 0
        for node in nodes:
            known = self._summaries.pop(node, None) is not None
            if self._row(node) is not None:
                self._stale.add(node)
                known = True
            evicted += known
        return evicted

    def __len__(self) -> int:
        return len(self._summaries)

    def summary(self, node: NodeId) -> NeighborhoodSummary:
        """Summary of ``node``, computing and caching it on first use."""
        cached = self._summaries.get(node)
        if cached is None:
            cached = summarize_node(self._graph, node)
            self._summaries[node] = cached
        return cached

    def degree(self, node: NodeId) -> int:
        """``d(v)`` from the summary cache."""
        return self.summary(node).degree

    def has_child_label(self, node: NodeId, label: Label) -> bool:
        """Whether ``node`` has at least one child labelled ``label``."""
        return self.has_labels(node, _NO_LABELS, self.requirement((label,)))

    def has_parent_label(self, node: NodeId, label: Label) -> bool:
        """Whether ``node`` has at least one parent labelled ``label``."""
        return self.has_labels(node, self.requirement((label,)), _NO_LABELS)

    def requirement(self, labels: Iterable[Label]) -> LabelRequirement:
        """Compile ``labels`` for :meth:`has_labels` and its one-sided forms."""
        labels = tuple(dict.fromkeys(labels))
        if self._label_bit is None:
            return LabelRequirement(labels, None)
        masks: Dict[int, int] = {}
        for label in labels:
            bit = self._label_bit.get(label)
            if bit is None:
                return LabelRequirement(labels, None)
            masks[bit[0]] = masks.get(bit[0], 0) | bit[1]
        return LabelRequirement(labels, tuple(masks.items()))

    def has_child_labels(self, node: NodeId, need: LabelRequirement) -> bool:
        """Whether ``node`` has a child of every label in ``need``."""
        return self.has_labels(node, _NO_LABELS, need)

    def has_parent_labels(self, node: NodeId, need: LabelRequirement) -> bool:
        """Whether ``node`` has a parent of every label in ``need``."""
        return self.has_labels(node, need, _NO_LABELS)

    def has_labels(self, node: NodeId, parents: LabelRequirement, children: LabelRequirement) -> bool:
        """Whether ``node`` has a parent of every label in ``parents`` and a
        child of every label in ``children`` (its row is looked up once)."""
        row = None if node in self._stale else self._rows.get(node)  # _row(), inlined
        if row is None:
            summary = self.summary(node)
            return all(label in summary.parent_label_counts for label in parents.labels) and all(
                label in summary.child_label_counts for label in children.labels
            )
        base = row * self._words
        for need, words in ((parents, self._parent_words), (children, self._child_words)):
            if need.words is None:
                return False
            for word, mask in need.words:
                if words[base + word] & mask != mask:
                    return False
        return True

    def rows_have_labels(self, rows: np.ndarray, need: LabelRequirement, children: bool) -> np.ndarray:
        """:meth:`has_child_labels` (or :meth:`has_parent_labels`) of each of
        ``rows`` of the indexed ``CSRGraph``, as one boolean array: one gather
        and one mask test per word of the presence arrays."""
        if need.words is None:
            have = np.zeros(rows.shape[0], dtype=bool)
        else:
            bits = self._bits[0 if children else 1]
            have = np.ones(rows.shape[0], dtype=bool)
            for word, mask in need.words:
                mask = np.uint64(mask)
                have &= (bits[rows, word] & mask) == mask
        if self._stale:  # the arrays describe these rows wrongly
            one_side = self.has_child_labels if children else self.has_parent_labels
            for position, node in enumerate(self._source.ids_of(rows)):
                if node in self._stale:
                    have[position] = one_side(node, need)
        return have


def max_label_fanout(graph: GraphLike, center: NodeId, radius: int) -> int:
    """The paper's parameter ``f`` for a ball.

    ``f`` is the maximum number of nodes in ``G_dQ(v_p)`` that share the same
    label and a common parent or child.  It appears in the accuracy bound of
    Theorem 3(b); the experiment harness reports it alongside measured
    accuracy.
    """
    the_ball = ball(graph, center, radius)
    best = 0
    for node in the_ball.nodes():
        per_label_children: Dict[Label, int] = {}
        for child in the_ball.successors(node):
            label = the_ball.label(child)
            per_label_children[label] = per_label_children.get(label, 0) + 1
        per_label_parents: Dict[Label, int] = {}
        for parent in the_ball.predecessors(node):
            label = the_ball.label(parent)
            per_label_parents[label] = per_label_parents.get(label, 0) + 1
        for count in per_label_children.values():
            best = max(best, count)
        for count in per_label_parents.values():
            best = max(best, count)
    return best


def theoretical_alpha_bound(
    graph: GraphLike,
    center: NodeId,
    radius: int,
    num_labels: int,
    fanout: Optional[int] = None,
) -> float:
    """Theorem 3(b)'s sufficient resource ratio ``2((l*f)^d - 1) / ((l*f - 1)|G|)``.

    ``num_labels`` is ``l`` (distinct labels in the query), ``radius`` is the
    undirected query diameter ``d`` and ``fanout`` defaults to the measured
    ``f`` of the ball around ``center``.  Returns 1.0 when the bound exceeds
    the whole graph (i.e. no guarantee below reading everything).
    """
    size = graph.size()
    if size == 0:
        return 1.0
    f = max_label_fanout(graph, center, radius) if fanout is None else fanout
    branching = num_labels * max(f, 1)
    if branching <= 1:
        needed = 2.0 * radius
    else:
        needed = 2.0 * (branching**radius - 1) / (branching - 1)
    return min(1.0, needed / size)
