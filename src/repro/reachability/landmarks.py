"""Greedy landmark selection (Fan, Wang & Wu, SIGMOD 2014, Section 5.1,
"Landmark selection").

A *landmark* for a pair ``(v1, v2)`` is a node on a path from ``v1`` to
``v2``.  Finding a minimum landmark set covering all connected pairs is
NP-hard, so the paper selects landmarks greedily:

1. pick the node with the maximum ``(v.d * v.r) / (L * D)`` — degree times
   topological rank, normalised by the graph maxima; high-rank, high-degree
   nodes tend to lie on many paths;
2. remove the selected node and ``a = floor(2 / alpha)`` of the nodes
   connected to it, so subsequent picks spread across the graph;
3. repeat until the requested number of landmarks is selected.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.graph.digraph import NodeId
from repro.graph import kernels
from repro.graph.protocol import GraphLike


def selection_sort_key(node: NodeId, degree: int, rank: int, weight: float = 1.0):
    """The (descending) greedy-selection sort key of one candidate.

    :func:`selection_rows` sorts a prepare's rows by the same three keys,
    so the float expression here and there must stay the same or the two
    orders diverge.
    """
    return (-((degree * (rank + 1)) * weight), -degree, repr(node))


_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def selection_rows(ids: np.ndarray, degrees: np.ndarray, ranks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Rows sorted by :func:`selection_sort_key`, with one ``np.lexsort``.

    The arguments are columns over the rows of a CSR DAG mirror: its ids
    (non-negative ints, the component ids), its degree column, ``v.r`` and
    the float64 weight of every row.  The score is the key's expression in
    the key's order: an int64 product times a float64 is the float Python's
    int × float gives (both round the int product to the nearest float64,
    then multiply).  The ``repr`` of a non-negative int sorts like its
    digits padded to a common width, the shorter first among equal
    paddings, so the tie-break needs no strings (on ``youtube`` a string
    sort of the ids takes ≈5 ms, the padded digits ≈0.4 ms).
    """
    score = -((degrees * (ranks + 1)) * weights)
    digits = np.searchsorted(_POWERS_OF_TEN, ids, side="right") + 1
    padded = ids * 10 ** (digits.max(initial=1) - digits)
    return np.lexsort((digits, padded, -degrees, score))


def greedy_landmarks(mirror, order: np.ndarray, count: int, exclusion_radius: int) -> List[NodeId]:
    """Select up to ``count`` landmarks greedily from the CSR DAG ``mirror``.

    ``order`` holds the mirror's rows by decreasing greedy score (what
    :func:`selection_rows` returns).  ``exclusion_radius`` is the paper's
    ``a = floor(2 / alpha)``: after a landmark is chosen, up to ``a`` of its
    not-yet-excluded neighbours are removed from the candidate pool, which
    spreads landmarks across the graph instead of clustering them inside
    one dense region.  The walk runs over the mirror's rows, children then
    parents in stored order, and the chosen rows become ids once, at the end.

    The returned list is ordered by decreasing greedy score.
    """
    excluded = bytearray(mirror.num_nodes())
    selected: List[int] = []
    for row in order.tolist():
        if len(selected) >= count:
            break
        if excluded[row]:
            continue
        selected.append(row)
        excluded[row] = 1
        removed = 0
        for neighbor in mirror.neighbor_indices(row).tolist():
            if removed >= exclusion_radius:
                break
            if not excluded[neighbor]:
                excluded[neighbor] = 1
                removed += 1
    return mirror.ids_of(np.asarray(selected, dtype=np.int64))


def landmark_rows(
    mirror, landmarks, row_of: Optional[Mapping[NodeId, int]] = None
) -> np.ndarray:
    """The rows of ``landmarks`` in ``mirror``, in iteration order.

    ``row_of`` is a build's one id-to-row map, so its sweeps look each
    landmark up once in all; without it, each landmark costs an ``index_of``.
    """
    lookup = mirror.index_of if row_of is None else row_of.__getitem__
    return np.fromiter(map(lookup, landmarks), dtype=np.int64, count=len(landmarks))


def first_landmarks_hit(
    graph: GraphLike,
    start: NodeId,
    landmarks: Set[NodeId],
    forward: bool,
    max_labels: Optional[int] = None,
) -> Set[NodeId]:
    """Landmarks reachable from ``start`` by a path containing no other landmark.

    This computes the paper's out-of-index labels ``v.E``: a BFS from ``start``
    that *stops at landmarks* — the first landmark encountered on each branch
    is recorded and the search does not continue past it.  ``forward=True``
    follows out-edges (landmarks reachable from ``start``); ``forward=False``
    follows in-edges (landmarks that can reach ``start``).  ``max_labels``
    truncates the label set, matching the ``|v.E| <= alpha|G|/2`` bound.
    """
    return set(_first_hits(graph, start, landmarks, forward, max_labels))


def _first_hits(
    graph: GraphLike, start: NodeId, landmarks: Set[NodeId], forward: bool, max_labels: Optional[int]
) -> List[NodeId]:
    """:func:`first_landmarks_hit` in discovery order (its set's insertion order)."""
    found: List[NodeId] = []
    if start in landmarks:
        return found
    seen: Set[NodeId] = {start}
    queue: deque = deque([start])
    step = graph.successors if forward else graph.predecessors
    while queue:
        node = queue.popleft()
        for neighbor in step(node):
            if neighbor in seen:
                continue
            seen.add(neighbor)
            if neighbor in landmarks:
                found.append(neighbor)
                if max_labels is not None and len(found) >= max_labels:
                    return found
                continue
            queue.append(neighbor)
    return found


class LabelTable(Mapping):
    """One direction of ``v.E`` as two int columns over a CSR DAG mirror's rows.

    Row ``r`` holds the landmark ids ``ids[offsets[r]:offsets[r + 1]]`` in
    sweep order; a row ``max_labels`` truncated is empty there and keeps its
    :func:`first_landmarks_hit` ids, in discovery order, in ``spill``.  Those
    are the insertion orders of the replaced dict's sets, so a lookup (a
    fresh set the caller owns) iterates as they did.  Read-only.
    """

    __slots__ = ("mirror", "offsets", "ids", "spill", "_offsets", "_ids")

    def __init__(self, mirror, offsets, ids, spill: Dict[int, Tuple[NodeId, ...]]) -> None:
        self.mirror, self.offsets, self.ids, self.spill = mirror, offsets, ids, spill
        self._offsets, self._ids = memoryview(offsets), memoryview(ids)

    def __reduce__(self):
        return (LabelTable, (self.mirror, self.offsets, self.ids, self.spill))

    def get(self, node: NodeId, default=None):
        row = self.mirror._index.get(node)
        if row is None:
            return default
        low, high = self._offsets[row], self._offsets[row + 1]
        if high - low == 1:
            return {self._ids[low]}
        if high > low:
            return set(self._ids[low:high])
        spilled = self.spill.get(row)
        return default if spilled is None else set(spilled)

    def __getitem__(self, node: NodeId) -> Set[NodeId]:
        labels = self.get(node)
        if labels is None:
            raise KeyError(node)
        return labels

    def _rows(self):
        spilled = np.fromiter(self.spill, dtype=np.int64, count=len(self.spill))
        return np.union1d(np.flatnonzero(np.diff(self.offsets)), spilled)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.mirror.ids_of(self._rows()))

    def __len__(self) -> int:
        return int(self._rows().shape[0])

    def __eq__(self, other: object) -> bool:
        """Equal label sets under equal ids, compared column-wise when both are tables."""
        if not isinstance(other, LabelTable):
            return super().__eq__(other)
        return self._canonical() == other._canonical()

    __hash__ = None  # type: ignore[assignment]

    def _canonical(self) -> Tuple[bytes, bytes, bytes, Dict[NodeId, FrozenSet[NodeId]]]:
        """Ids of the labelled rows, their label counts, the labels sorted per row, and the spill."""
        counts = np.diff(self.offsets)
        rows = np.flatnonzero(counts)
        ids = self.mirror._index.ids if not self.mirror._identity else np.arange(counts.shape[0])
        order = np.lexsort((self.ids, np.repeat(np.arange(counts.shape[0]), counts)))
        spill = {self.mirror.node_at(row): frozenset(labels) for row, labels in self.spill.items()}
        return ids[rows].tobytes(), counts[rows].tobytes(), self.ids[order].tobytes(), spill


def out_of_index_labels(
    mirror,
    landmarks: Set[NodeId],
    max_labels: Optional[int],
    row_of: Optional[Mapping[NodeId, int]] = None,
) -> Tuple[LabelTable, LabelTable]:
    """The out-of-index labels ``v.E`` of every non-landmark node of the CSR DAG ``mirror``.

    Returns ``(forward, backward)`` mappings from each node with a
    non-empty label set to its labels: ``forward[v]`` holds the landmarks
    reachable from ``v`` by a landmark-free path, ``backward[v]`` the
    landmarks that reach ``v`` by one.

    Landmark-major: instead of one BFS per *node*, one absorbing BFS per
    *landmark* sweeps the region the landmark is the first hit for —
    ``O(k · region)`` work instead of ``O(n · region)``, and each sweep is
    vectorised.  The sweep computes the exact full label sets; nodes whose
    set exceeds ``max_labels`` take :func:`first_landmarks_hit` over
    ``mirror`` instead, which is what the truncation is defined by.  The
    ids are ints (component ids); ``row_of`` maps them to ``mirror`` rows
    when the caller did so already.
    """
    n = mirror.num_nodes()
    stop_mask = np.zeros(n, dtype=bool)
    landmark_list = list(landmarks)
    landmark_ids = np.array(landmark_list, dtype=np.int64)
    marks = landmark_rows(mirror, landmark_list, row_of)
    stop_mask[marks] = True

    # v has `landmark` as a forward label iff v reaches it landmark-free:
    # sweep the *predecessor* side, absorbing at other landmarks (and
    # symmetrically the successor side for backward labels).  All landmarks
    # of one direction ride in a single multi-source bitset sweep, and one
    # ``pairs()`` call reads every (node, landmark) hit out of it — frontiers
    # absorb at landmarks, so most words of the matrix are empty.  Pairs
    # arrive grouped by row with sources ascending, so each row's values
    # fill in ``landmark_list`` order.
    tables = []
    for is_forward in (True, False):
        batch = kernels.reach_batch(
            mirror, landmark_list, forward=not is_forward, stop=stop_mask, rows=marks
        )
        rows, sources = batch.pairs()
        kept = ~stop_mask[rows]  # landmarks themselves carry no labels
        counts = np.bincount(rows[kept], minlength=n)
        spill: Dict[int, Tuple[NodeId, ...]] = {}
        if max_labels is not None and n and counts.max() > max_labels:
            truncated = np.flatnonzero(counts > max_labels)
            for row, node in zip(truncated.tolist(), mirror.ids_of(truncated)):
                spill[row] = tuple(_first_hits(mirror, node, landmarks, is_forward, max_labels))
            kept &= counts[rows] <= max_labels
            counts[truncated] = 0
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        tables.append(LabelTable(mirror, offsets, landmark_ids[sources[kept]], spill))
    return tables[0], tables[1]
