"""Topological ranks on DAGs.

Section 5.1 of the paper defines, for a DAG, the *topological rank* ``v.r``
of a node: 0 for sinks (no children), otherwise one more than the largest
rank among its children.  Ranks drive both the greedy landmark selection
(``(deg * rank) / (L * D)``) and the rank window of ``RBReach`` (a
landmark whose rank lies outside ``[vo.r, vp.r]`` cannot be on a path
between the query endpoints and is pruned, Lemma 5(2)).

Ranks are computed on the CSR mirror of the condensed DAG by a level peel
from the sinks (:func:`csr_topological_ranks`) and kept as one column by
mirror row (:class:`TopologicalRankIndex`); the recurrence written out node
by node is the test oracle's.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.exceptions import GraphError
from repro.graph.csr import _unique
from repro.graph.digraph import NodeId


def csr_topological_ranks(graph) -> np.ndarray:
    """The paper's ``v.r`` of every node of a :class:`CSRGraph` DAG, by row.

    ``v.r`` is 0 for sinks, else 1 + the largest rank among the children:
    the length of the longest path from ``v`` to a sink.

    A level peel from the sinks: level ``r`` is every node whose last child
    left at level ``r - 1``, which is the defining recurrence read bottom-up.
    One gather, one ``bincount`` and one sort-based dedup of the parents
    (``csr._unique``) per level, since the longest path is short on real
    graphs, instead of a Kahn pass node by node.  Raises
    :class:`GraphError` on a cycle.
    """
    n = graph.num_nodes()
    ranks = np.zeros(n, dtype=np.int64)
    pending = np.diff(graph._succ_indptr)
    frontier = np.flatnonzero(pending == 0)
    ranked = int(frontier.shape[0])
    level = 0
    while frontier.shape[0]:
        parents = graph._expand(frontier, graph._pred_indptr, graph._pred_indices)
        if parents.shape[0] == 0:
            break
        level += 1
        pending = pending - np.bincount(parents, minlength=n)
        parents = _unique(parents)
        frontier = parents[pending[parents] == 0]
        ranks[frontier] = level
        ranked += int(frontier.shape[0])
    if ranked != n:
        raise GraphError("graph contains a cycle; topological ranks are undefined")
    return ranks


class TopologicalRankIndex:
    """Precomputed topological ranks plus the normalisation constants.

    The greedy landmark selection of Section 5.1 scores a node by
    ``(v.d * v.r) / (L * D)`` where ``L`` is the maximum rank and ``D`` the
    maximum degree in the graph.  This index bundles the three quantities so
    callers cannot accidentally mix ranks computed on different graphs.

    The ranks are one column aligned with the rows of a CSR mirror of the
    DAG, read through a flat ``memoryview``; the dict behind :meth:`ranks`
    is made per call, and the column is what pickles and what publication
    places in shared memory.
    """

    def __init__(self, mirror, column: np.ndarray, max_rank: int, max_degree: int) -> None:
        self._graph = mirror
        self._column = column
        self._max_rank = max_rank
        self._max_degree = max_degree
        self._rows: Dict[NodeId, int] = mirror._index
        self._column_view = memoryview(column)

    @classmethod
    def from_mirror(cls, mirror) -> "TopologicalRankIndex":
        """The index of the DAG that the :class:`CSRGraph` ``mirror`` holds.

        Ranks come from :func:`csr_topological_ranks` and ``D`` from the
        mirror's degree column; nothing is walked node by node.
        """
        column = csr_topological_ranks(mirror)
        max_rank = int(column.max()) if column.shape[0] else 0
        return cls(mirror, column, max_rank, mirror.max_degree())

    def __reduce__(self):
        return TopologicalRankIndex, (self._graph, self._column, self._max_rank, self._max_degree)

    def columns(self) -> Dict[str, np.ndarray]:
        """The rank column by name."""
        return {"ranks": self._column}

    @property
    def graph(self):
        """The DAG this index was built for: its CSR mirror."""
        return self._graph

    @property
    def max_rank(self) -> int:
        """``L`` — the largest topological rank in the graph."""
        return self._max_rank

    @property
    def max_degree(self) -> int:
        """``D`` — the largest node degree in the graph."""
        return self._max_degree

    def rank(self, node: NodeId) -> int:
        """``v.r`` of a node."""
        return self._column_view[self._rows[node]]

    def ranks(self) -> Dict[NodeId, int]:
        """A copy of the full node → rank map."""
        return dict(zip(self._graph.nodes(), self._column.tolist()))

    def selection_score(self, node: NodeId) -> float:
        """The greedy landmark score ``(v.d * v.r) / (L * D)``.

        Falls back to the unnormalised product when the graph has rank or
        degree 0 everywhere (e.g. single-node graphs), where the paper's
        normalisation would divide by zero.
        """
        degree = self._graph.degree(node)
        rank = self.rank(node)
        denominator = self._max_rank * self._max_degree
        if denominator == 0:
            return float(degree * rank)
        return (degree * rank) / denominator
