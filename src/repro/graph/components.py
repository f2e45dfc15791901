"""Strongly connected components and DAG condensation.

The non-localized part of the paper (Section 5) first reduces a possibly
cyclic graph ``G`` to a DAG using a reachability-preserving compression.  The
canonical such compression is the SCC condensation: contract every strongly
connected component to a single node.  Two nodes are reachability-equivalent
with their component representatives, so every reachability query on ``G``
has the same answer on the condensation — exactly the property ``RBReach``
needs.  The paper cites the query-preserving compression of its reference
[12]; for reachability alone the SCC contraction is the part of it that
preserves answers exactly, so it is what this module implements.

The condensation runs in index space over a
:class:`~repro.graph.csr.CSRGraph` (any other graph is frozen first).  It
first peels, with whole-array ``bincount`` passes, every row that has no
in-edge or no out-edge among the rows still left: such a row lies on no
cycle, so it is a component of its own.  Tarjan's algorithm, iterative to
cope with deep graphs, then runs only on the cyclic core that remains.  The
peel changes the order in which components are found, and nothing depends
on that order: a component's canonical id is its smallest member index.
The rest is assembled from whole-array passes, and
``tests/test_prepare_differential.py`` pins it to the frozen
element-by-element prepare.  :func:`strongly_connected_components` runs
the same Tarjan over every row of the freeze, without the peel, so its list
keeps Tarjan's emission order.  :class:`Condensation` is those columns
alone; its ``DiGraph`` DAG and member containers are views built on demand.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import NodeNotFoundError
from repro.graph.csr import CSRGraph, _unique, freeze
from repro.graph.digraph import DiGraph, NodeId
from repro.graph.protocol import GraphLike


def _cyclic_core(graph: CSRGraph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peel the rows no cycle can pass through; the rest as a CSR of its own.

    A row with no in-edge or no out-edge among the surviving rows lies on
    no cycle of them, so it is a singleton component (a self-loop counts as
    both, so a self-loop row stays — and Tarjan makes it a singleton).
    Each round is two ``bincount``s over the surviving edges.  Peeling stops
    when a round peels under 1/16 of the rows left (none, at the latest): a
    long chain peels two rows per round, and such rounds cost more than
    Tarjan saves on the rows.  Stopping early only hands Tarjan rows it
    emits as singletons anyway.

    Returns the core as a row mask and its ``indptr``/``indices`` in
    core-local numbering (rows in order).  When under 1/16 of all rows
    peeled (``community``: 23 of 4 860) the core is every row, and the
    arrays are the graph's own, uncopied.
    """
    n = graph.num_nodes()
    indptr, indices = graph._succ_indptr, graph._succ_indices
    sources, targets = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)), indices
    alive = np.ones(n, dtype=bool)
    left = n
    while left:
        alive &= np.bincount(sources, minlength=n) > 0
        alive &= np.bincount(targets, minlength=n) > 0
        survivors = int(np.count_nonzero(alive))
        peeled, left = left - survivors, survivors
        kept = alive[sources] & alive[targets]
        sources, targets = sources[kept], targets[kept]
        if peeled * 16 < left + peeled:
            break
    if (n - left) * 16 < n:  # too few rows left the core to pay for copying it
        return np.ones(n, dtype=bool), indptr, indices
    local = np.cumsum(alive) - 1  # a surviving row's position in the core
    core_indptr = np.zeros(left + 1, dtype=np.int64)
    np.cumsum(np.bincount(local[sources], minlength=left), out=core_indptr[1:])
    return alive, core_indptr, local[targets]


def _csr_components(graph: CSRGraph) -> Tuple[np.ndarray, int]:
    """Index-space SCCs: a component number per node and the component count.

    Tarjan runs only on the core :func:`_cyclic_core` leaves (on ``youtube``
    5 390 of 20 000 rows); the peeled rows are numbered after its
    components, one each.  The numbering is therefore not Tarjan's emission
    order over the whole graph — and need not be: the condensation's
    canonical ids are the smallest member index of each component, a
    function of the partition alone.
    """
    core, core_indptr, core_indices = _cyclic_core(graph)
    emitted, count = _tarjan(core_indptr.tolist(), memoryview(core_indices))
    peeled = ~core
    singletons = int(np.count_nonzero(peeled))
    component = np.empty(graph.num_nodes(), dtype=np.int64)
    component[core] = emitted
    component[peeled] = np.arange(count, count + singletons, dtype=np.int64)
    return component, count + singletons


def _tarjan(indptr: List[int], indices: memoryview) -> Tuple[List[int], int]:
    """Tarjan over one CSR in index space: a component number per row, and the count.

    Iterative, to cope with deep graphs: roots in row order, children in
    stored order, components numbered in emission order, over
    ``indptr.tolist()`` and a ``memoryview`` of the indices with list state.
    A discovered node with no component yet is exactly a node on Tarjan's
    stack, so ``emitted`` doubles as the on-stack test.  (The indices are
    not copied into a list: as fast to read, and a rebuild under load would
    pay an edge-length list of ints at its peak.)
    """
    n = len(indptr) - 1
    discovered = [-1] * n
    lowlink = [0] * n
    emitted = [-1] * n
    stack: List[int] = []
    counter = 0
    count = 0
    for root in range(n):
        if discovered[root] >= 0:
            continue
        discovered[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        work_nodes = [root]
        work_cursor = [indptr[root]]
        while work_nodes:
            node = work_nodes[-1]
            cursor = work_cursor[-1]
            end = indptr[node + 1]
            low = lowlink[node]
            descended = False
            while cursor < end:
                child = indices[cursor]
                cursor += 1
                seen_at = discovered[child]
                if seen_at < 0:
                    lowlink[node] = low
                    work_cursor[-1] = cursor
                    discovered[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    work_nodes.append(child)
                    work_cursor.append(indptr[child])
                    descended = True
                    break
                if emitted[child] < 0 and seen_at < low:
                    low = seen_at
            if descended:
                continue
            lowlink[node] = low
            work_nodes.pop()
            work_cursor.pop()
            if low == discovered[node]:
                while True:
                    member = stack.pop()
                    emitted[member] = count
                    if member == node:
                        break
                count += 1
            if work_nodes:
                parent = work_nodes[-1]
                if low < lowlink[parent]:
                    lowlink[parent] = low
    return emitted, count


def _group_order(group_of: np.ndarray, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Node indices grouped by group number, and each group's offsets into them."""
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(group_of, minlength=count), out=offsets[1:])
    return np.argsort(group_of, kind="stable"), offsets


def _group_nodes(graph: CSRGraph, order: np.ndarray, offsets: np.ndarray) -> List[Set[NodeId]]:
    """The nodes of a :class:`CSRGraph` by group: group ``k`` at position ``k``."""
    grouped = graph.ids_of(order)
    bounds = offsets.tolist()
    return [set(grouped[low:high]) for low, high in zip(bounds, bounds[1:])]


def strongly_connected_components(graph: GraphLike) -> List[Set[NodeId]]:
    """Return the strongly connected components of ``graph``.

    :func:`_tarjan` over every row of the freeze, so components are returned
    in Tarjan's emission order: reverse topological order of the
    condensation (a component appears after all components it can reach),
    which is a convenient order for DP over DAGs.
    """
    frozen = freeze(graph)
    emitted, count = _tarjan(frozen._succ_indptr.tolist(), memoryview(frozen._succ_indices))
    return _group_nodes(frozen, *_group_order(np.asarray(emitted, dtype=np.int64), count))


def is_dag(graph: GraphLike) -> bool:
    """Whether ``graph`` contains no directed cycle (self-loops count as cycles)."""
    for source, target in graph.edges():
        if source == target:
            return False
    return all(len(component) == 1 for component in strongly_connected_components(graph))


class Condensation:
    """The reachability-preserving DAG condensation of a :class:`CSRGraph`.

    Component ids are *canonical*: the id of a component is the position (in
    the graph's node iteration order) of its earliest member, and the DAG's
    adjacency is built in sorted id order.  Canonical ids are a function of
    the partition and the node order alone — not of the traversal that
    discovered the partition — which is what lets an update compare the
    condensations before and after component by component.

    The state is the columns :func:`condensation_with_mirror` computed:
    ``compact`` (node index → component row), the member order grouped by
    component with its offsets, and the CSR mirror of the DAG, whose ids are
    the component ids in row order.  :meth:`component_of` and
    :meth:`size_of` read them through flat ``memoryview``s.  A component id
    is the node index of its representative, so ``compact[id]`` is its row:
    the mirror resolves its ids through ``compact`` and keeps them as a
    column, and no id → row dict or id list exists.

    ``dag`` (labelled by each component's representative; labels play no
    role in reachability), ``membership`` (node → component id) and
    ``members`` (component id → node set) are views materialised on first
    access (the DAG through :meth:`DiGraph.from_adjacency` off the mirror,
    whose adjacency order is the DAG's); a read-only service never asks for
    them, and they are neither pickled nor published.  Their iteration
    order is not part of the contract: they fill in node order and
    component-id order.  Readers look entries up or sort the keys.
    """

    def __init__(
        self,
        graph,
        mirror,
        compact: np.ndarray,
        member_order: np.ndarray,
        member_offsets: np.ndarray,
    ) -> None:
        """The condensation of the :class:`CSRGraph` ``graph``.

        ``mirror`` is the DAG as a ``CSRGraph`` (ids: the component ids,
        ascending); ``compact[i]`` is the mirror row of node ``i``'s
        component; ``member_order[member_offsets[k]:member_offsets[k + 1]]``
        are the node indices of row ``k``'s members.
        """
        self._graph, self._mirror = graph, mirror
        self._compact, self._member_order, self._member_offsets = compact, member_order, member_offsets
        self._rows: Mapping[NodeId, int] = graph._index
        self._component_ids: Sequence[int] = mirror._ids  # a column or a range
        self._id_objects: Optional[List[int]] = None
        self._compact_view = memoryview(compact)
        self._offsets_view = memoryview(member_offsets)
        self._dag: Optional[DiGraph] = None
        self._membership: Optional[Mapping[NodeId, int]] = None
        self._members: Optional[Mapping[int, Set[NodeId]]] = None

    def __reduce__(self):
        # A condensation travels as its columns: the word views are rebuilt
        # on load and the containers re-materialise on demand.
        columns = (self._compact, self._member_order, self._member_offsets)
        return Condensation, (self._graph, self._mirror, *columns)

    def _own_ids(self) -> List[int]:
        """The component ids by row, one int object each, shared by every container."""
        if self._id_objects is None:
            self._id_objects = list(self._component_ids)
        return self._id_objects

    def columns(self) -> Dict[str, np.ndarray]:
        """The backing columns by name: what publication copies into the DAG mirror's shared segment."""
        return {
            "compact": self._compact,
            "member_order": self._member_order,
            "member_offsets": self._member_offsets,
        }

    @property
    def dag(self) -> DiGraph:
        if self._dag is None:
            mirror = self._mirror
            own_id = self._own_ids().__getitem__

            def adjacency(indptr: np.ndarray, indices: np.ndarray) -> Iterator[List[int]]:
                offsets = indptr.tolist()
                neighbours = list(map(own_id, indices.tolist()))
                return (neighbours[low:high] for low, high in zip(offsets, offsets[1:]))

            self._dag = DiGraph.from_adjacency(
                self._own_ids(),
                map(mirror._label_table.__getitem__, mirror._label_ids.tolist()),
                adjacency(mirror._succ_indptr, mirror._succ_indices),
                adjacency(mirror._pred_indptr, mirror._pred_indices),
            )
        return self._dag

    # Every container holds the *same* int object per component id
    # (``_own_ids``; minting one per occurrence would retain megabytes of
    # duplicates on a big graph).
    @property
    def membership(self) -> Mapping[NodeId, int]:
        if self._membership is None:
            own_id = self._own_ids().__getitem__
            self._membership = dict(zip(self._graph._ids, map(own_id, self._compact.tolist())))
        return self._membership

    @property
    def members(self) -> Mapping[int, Set[NodeId]]:
        if self._members is None:
            groups = _group_nodes(self._graph, self._member_order, self._member_offsets)
            self._members = dict(zip(self._own_ids(), groups))
        return self._members

    def member_rows(self, row: int) -> np.ndarray:
        """Graph rows of the members of node row ``row``'s component, ascending."""
        component = self._compact_view[row]
        return self._member_order[self._offsets_view[component] : self._offsets_view[component + 1]]

    def component_ids(self) -> np.ndarray:
        """The component ids by mirror row, ascending."""
        return np.asarray(self._component_ids, dtype=np.int64)

    def component_of(self, node: NodeId) -> int:
        """Component id of an original node."""
        try:
            return self._component_ids[self._compact_view[self._rows[node]]]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def row_of(self, node: NodeId) -> Optional[int]:
        """Mirror row of ``node``'s component, ``None`` if ``G`` lacks it."""
        row = self._rows.get(node)
        return None if row is None else self._compact_view[row]

    def size_of(self, component: int) -> int:
        """How many original nodes ``component`` contains."""
        row = self._compact_view[component]
        return self._offsets_view[row + 1] - self._offsets_view[row]

    def compression_ratio(self, original: GraphLike) -> float:
        """|condensation| / |G| — how much the compression shrank the graph."""
        original_size = original.size()
        if original_size == 0:
            return 1.0
        return self._mirror.size() / original_size


def condensation(graph: GraphLike) -> Condensation:
    """Contract every SCC of ``graph`` to a node, preserving reachability.

    For any two original nodes ``u`` and ``v``, ``u`` reaches ``v`` in ``G``
    if and only if ``component_of(u)`` reaches ``component_of(v)`` in the
    returned DAG (with equality counting as reachable).  A graph that is
    not a :class:`CSRGraph` is frozen first (order-exact, so the canonical
    ids are those of the graph as given).
    """
    return condensation_with_mirror(freeze(graph))[0]


def condensation_with_mirror(graph: CSRGraph) -> Tuple[Condensation, CSRGraph]:
    """:func:`condensation` of a :class:`CSRGraph`, plus a CSR mirror of its DAG.

    Whole-array passes end to end: index-space Tarjan, canonical ids as the
    minimum member index, the DAG edge list from the sorted distinct codes
    ``comp[src]·k + comp[dst]`` (one sort and a neighbour compare,
    ``csr._unique``) and the mirror from those edge arrays
    (:meth:`CSRGraph.from_index_arrays`: each slice sorted, which on a DAG is
    what sorted ``add_edge`` gives, so the mirror's adjacency order *is* the
    DAG's), labelled like the DAG.  The condensation keeps those columns:
    no ``DiGraph``, membership dict or member set is built here.
    """
    n = graph.num_nodes()
    emitted, count = _csr_components(graph)
    # Canonical id = smallest member index; ``compact`` renumbers the ids
    # 0..k-1 in ascending id order, which is the DAG's node order.
    _, first_member = np.unique(emitted, return_index=True)
    component_ids = np.sort(first_member)
    compact = np.searchsorted(component_ids, first_member)[emitted]

    sources = compact[np.repeat(np.arange(n, dtype=np.int64), np.diff(graph._succ_indptr))]
    targets = compact[graph._succ_indices]
    crossing = sources != targets
    width = np.int64(max(count, 1))
    sources, targets = np.divmod(_unique(sources[crossing] * width + targets[crossing]), width)

    # The DAG carries each representative's label; the mirror re-interns
    # them in DAG node order, like a freeze of the DAG would.
    table = graph._label_table
    kept, first_seen = np.unique(graph._label_ids[component_ids], return_index=True)
    kept = kept[np.argsort(first_seen)]
    renumber = np.zeros(len(table), dtype=np.int64)
    renumber[kept] = np.arange(kept.shape[0], dtype=np.int64)
    label_table = [table[row] for row in kept.tolist()]
    label_ids = renumber[graph._label_ids[component_ids]]
    # Ids as a column, rows through ``compact``: the mirror keeps no per-node object.
    mirror = CSRGraph.from_index_arrays(
        component_ids, label_table, label_ids, sources, targets, _index=compact
    )

    condensed = Condensation(graph, mirror, compact, *_group_order(compact, count))
    return condensed, mirror
