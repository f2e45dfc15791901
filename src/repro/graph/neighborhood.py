"""r-hop neighbourhoods and balls ``G_r(v)`` (Fan, Wang & Wu, SIGMOD 2014,
Section 2, Table 1).

* ``N_r(v)`` — the set of nodes within ``r`` hops of ``v``, where "within r
  hops" means connected by a path of at most ``r`` edges *in either
  direction* (the paper's definition).
* ``G_r(v)`` — the subgraph of ``G`` induced by ``N_r(v)``; strong simulation
  is defined on the ``d_Q``-ball of the personalized match ``v_p``.

The module also provides the neighbourhood summaries ``Sl`` that the paper
precomputes offline and that the dynamic-reduction procedures consult to
evaluate guarded conditions without touching the graph.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

import numpy as np

from repro.graph.csr import CSRGraph, freeze
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


#: A set of neighbour labels compiled once for repeated guard tests
#: (:meth:`NeighborhoodIndex.requirement`): the ``(word, mask)`` pairs to test
#: against a row of the presence arrays, or ``None`` when no row can satisfy
#: it (some label is absent from their label table).
LabelRequirement = Optional[Tuple[Tuple[int, int], ...]]


#: How many compiled label tuples an index keeps before it starts over.
_REQUIREMENT_MEMO = 4096


class NeighborhoodIndex:
    """The ``Sl`` summaries the dynamic reduction consults (Section 4.1).

    The paper builds them in a single offline pass over ``G`` ("once-for-all
    offline preprocessing").  That pass is :meth:`CSRGraph.label_presence`:
    two packed bit arrays answering "does ``v`` have a parent/child labelled
    ``l``?" for every node, built by one vectorised sweep and inherited
    copy-on-write by the forked daemon workers.  Any other graph (a
    ``DiGraph``, a ``MutableOverlay``) is frozen on entry
    (:func:`repro.graph.csr.freeze`, node and neighbour order exact).  An
    update re-prepares on a new ``CSRGraph``, so an index never outlives its
    graph.
    """

    def __init__(self, graph: GraphLike):
        self._graph = freeze(graph)
        self._bind_arrays()

    @property
    def graph(self) -> CSRGraph:
        """The indexed graph (the ``CSRGraph`` frozen from the one given)."""
        return self._graph

    def _bind_arrays(self) -> None:
        """Resolve the graph's presence arrays to flat word views."""
        source = self._graph
        self._requirements: Dict[Tuple[Label, ...], LabelRequirement] = {}
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
        # graph: rebuilt from the graph on load, never serialised.
        return self._graph

    def __setstate__(self, graph) -> None:
        self._graph = graph
        self._bind_arrays()

    def requirement(self, labels: Iterable[Label]) -> LabelRequirement:
        """Compile ``labels`` for :meth:`has_labels` and :meth:`rows_have_labels`,
        once per label tuple: every query of a log asks for a few of them."""
        labels = tuple(dict.fromkeys(labels))
        requirements = self._requirements
        if labels not in requirements:
            if len(requirements) >= _REQUIREMENT_MEMO:
                requirements.clear()
            requirements[labels] = self._compile(labels)
        return requirements[labels]

    def _compile(self, labels: Tuple[Label, ...]) -> LabelRequirement:
        masks: Dict[int, int] = {}
        for label in labels:
            bit = self._label_bit.get(label)
            if bit is None:
                return None
            masks[bit[0]] = masks.get(bit[0], 0) | bit[1]
        return tuple(masks.items())

    def has_labels(self, node: NodeId, parents: LabelRequirement, children: LabelRequirement) -> bool:
        """Whether ``node`` (a node of the indexed graph) has a parent of every
        label in ``parents`` and a child of every label in ``children`` (its
        row is looked up once)."""
        base = self._rows.get(node) * self._words
        for need, words in ((parents, self._parent_words), (children, self._child_words)):
            if need is None:
                return False
            for word, mask in need:
                if words[base + word] & mask != mask:
                    return False
        return True

    def rows_have_labels(self, rows: np.ndarray, need: LabelRequirement, children: bool) -> np.ndarray:
        """Whether each of ``rows`` of the indexed graph has a child (or a
        parent) of every label in ``need``, as one boolean array: one gather
        and one mask test per word of the presence arrays."""
        if need is None:
            have = np.zeros(rows.shape[0], dtype=bool)
        else:
            bits = self._bits[0 if children else 1]
            have = np.ones(rows.shape[0], dtype=bool)
            for word, mask in need:
                mask = np.uint64(mask)
                have &= (bits[rows, word] & mask) == mask
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
    """Theorem 3(b)'s sufficient resource ratio for a ball bounded by ``l`` and ``f``.

    ``num_labels`` is ``l`` (distinct labels in the query), ``radius`` is the
    undirected query diameter ``d`` and ``fanout`` defaults to the measured
    ``f`` of the ball around ``center``.  A node has at most ``l*f``
    neighbours on each side carrying a query label, so the part of the
    ``d``-ball a search can admit holds at most
    ``N = 1 + l*f + ... + (l*f)^d`` nodes and ``l*f`` edges out of each: the
    ratio is ``N * (1 + l*f) / |G|``.  Returns 1.0 when that exceeds the whole
    graph (i.e. no guarantee below reading everything).
    """
    size = graph.size()
    if size == 0:
        return 1.0
    f = max_label_fanout(graph, center, radius) if fanout is None else fanout
    branching = num_labels * max(f, 1)
    nodes = sum(branching**level for level in range(radius + 1))
    return min(1.0, nodes * (1 + branching) / size)
