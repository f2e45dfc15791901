"""``MutableOverlay`` — a delta layered over an immutable base graph.

The serving substrate of the engine is an immutable
:class:`~repro.graph.csr.CSRGraph`; real graphs mutate under traffic.  The
overlay keeps the base frozen and absorbs a :class:`~repro.updates.delta
.GraphDelta` on top, op by op with ``DiGraph`` semantics (so every op is
validated as a ``DiGraph`` would validate it), while still satisfying the
full :class:`~repro.graph.protocol.GraphLike` protocol.

The load-bearing property is **order equivalence**: the overlay iterates
nodes and neighbours in exactly the order a mutable
:class:`~repro.graph.digraph.DiGraph` would after applying the same ops —
base order with deletions masked, insertions appended.  :meth:`freeze`
turns the overlay into the next serving ``CSRGraph`` in that order, read
off the base columns, the tombstones and the append region; nothing serves
from the overlay itself.
"""

from __future__ import annotations

from typing import Dict, Iterator, KeysView, List, Mapping, Optional, Set

import numpy as np

from repro.exceptions import EdgeNotFoundError, NodeNotFoundError
from repro.graph.csr import CSRGraph, _indptr, _union_degrees
from repro.graph.digraph import Edge, Label, NodeId
from repro.graph.protocol import GraphLike
from repro.updates.delta import AppliedDelta, GraphDelta


class _OverlayNeighbors:
    """Sized, iterable, membership-testable neighbour view (protocol shape)."""

    __slots__ = ("_items", "_membership")

    def __init__(self, items: List[NodeId], membership: Set[NodeId]):
        self._items = items
        self._membership = membership

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._items)

    def __contains__(self, node: object) -> bool:
        return node in self._membership

    def __or__(self, other) -> Set[NodeId]:
        return self._membership | set(other)

    __ror__ = __or__

    def __and__(self, other) -> Set[NodeId]:
        return self._membership & set(other)

    __rand__ = __and__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (set, frozenset)):
            return self._membership == other
        if isinstance(other, _OverlayNeighbors):
            return self._membership == other._membership
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - views are transient
        raise TypeError("_OverlayNeighbors is unhashable; wrap it in frozenset(...)")

    def __repr__(self) -> str:
        return f"OverlayNeighbors({self._items!r})"


class MutableOverlay:
    """A :class:`GraphLike` view of ``base`` plus an accumulated delta.

    Mutations go through :meth:`apply` (a whole delta) or the individual
    ``add_node``/``add_edge``/``remove_node``/``remove_edge`` methods, which
    follow ``DiGraph`` semantics exactly (same errors, same no-op rules,
    same iteration-order effects).
    """

    def __init__(self, base: GraphLike):
        self._base = base
        self._removed_nodes: Set[NodeId] = set()
        self._added_nodes: Dict[NodeId, None] = {}
        self._label_overrides: Dict[NodeId, Label] = {}
        # Removed base edges, per endpoint (used both as masks over the base
        # slices and for O(1) degree arithmetic).
        self._removed_out: Dict[NodeId, Set[NodeId]] = {}
        self._removed_in: Dict[NodeId, Set[NodeId]] = {}
        # Added edges, insertion-ordered per endpoint.
        self._added_succ: Dict[NodeId, Dict[NodeId, None]] = {}
        self._added_pred: Dict[NodeId, Dict[NodeId, None]] = {}
        self._num_nodes = base.num_nodes()
        self._num_edges = base.num_edges()
        self._removed_edge_count = 0
        self._added_edge_count = 0

    # ------------------------------------------------------------------ #
    # Delta bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def base(self) -> GraphLike:
        """The immutable graph underneath the overlay."""
        return self._base

    def overlay_size(self) -> int:
        """Accumulated churn: added/removed edges plus added/removed nodes."""
        return (
            self._added_edge_count
            + self._removed_edge_count
            + len(self._added_nodes)
            + len(self._removed_nodes)
        )

    def freeze(self) -> CSRGraph:
        """The overlay as a fresh :class:`CSRGraph`, node and neighbour order exact.

        Equal, array for array, to ``CSRGraph.from_digraph(self)``: base rows
        with the removed nodes masked, then the added nodes; each neighbour
        slice is the base slice less its tombstoned edges, then the edges
        appended to it in insertion order; labels are re-interned in
        first-appearance order.  The base columns are read whole; only the
        churn (tombstones, appended nodes and edges, relabels) is walked.
        A base that is not a ``CSRGraph`` is frozen node by node.
        """
        base = self._base
        if not isinstance(base, CSRGraph):
            return CSRGraph.from_digraph(self)  # type: ignore[arg-type]
        removed_nodes = self._removed_nodes
        alive = np.ones(base.num_nodes(), dtype=bool)
        alive[[base.index_of(node) for node in removed_nodes]] = False
        kept = np.flatnonzero(alive)
        added = list(self._added_nodes)
        n = kept.shape[0] + len(added)
        renumber = np.full(alive.shape[0], -1, dtype=np.int64)
        renumber[kept] = np.arange(kept.shape[0], dtype=np.int64)
        appended = {node: kept.shape[0] + i for i, node in enumerate(added)}

        def row(node: NodeId) -> int:
            found = appended.get(node)
            return int(renumber[base.index_of(node)]) if found is None else found

        sides = []
        for indptr, indices, tombstones, extra in (
            (base._succ_indptr, base._succ_indices, self._removed_out, self._added_succ),
            (base._pred_indptr, base._pred_indices, self._removed_in, self._added_pred),
        ):
            owners = np.repeat(np.arange(alive.shape[0], dtype=np.int64), np.diff(indptr))
            keep = alive[owners] & alive[indices]
            for node, others in tombstones.items():
                if node in removed_nodes:
                    continue  # every edge of a removed node is masked already
                owner = base.index_of(node)
                low, high = int(indptr[owner]), int(indptr[owner + 1])
                for other in others:
                    if other not in removed_nodes:
                        at = np.flatnonzero(indices[low:high] == base.index_of(other))
                        keep[low + int(at[0])] = False
            tail_owners = [row(node) for node, others in extra.items() for _ in others]
            tail_others = [row(other) for others in extra.values() for other in others]
            owners = np.concatenate((renumber[owners[keep]], np.array(tail_owners, dtype=np.int64)))
            others = np.concatenate((renumber[indices[keep]], np.array(tail_others, dtype=np.int64)))
            # Stable: each node's base slice first, then what was appended to it.
            order = np.argsort(owners, kind="stable")
            sides.append((_indptr(np.bincount(owners, minlength=n)), others[order]))
        (succ_indptr, succ_indices), (pred_indptr, pred_indices) = sides

        table = list(base._label_table)
        row_of_label = dict(base._label_rows)
        label_ids = np.empty(n, dtype=np.int64)
        label_ids[: kept.shape[0]] = base._label_ids[kept]
        for node, label in self._label_overrides.items():
            if label not in row_of_label:
                row_of_label[label] = len(table)
                table.append(label)
            label_ids[row(node)] = row_of_label[label]
        # Re-interned in first-appearance order over the rows, as a freeze does.
        first = np.full(len(table), n, dtype=np.int64)
        np.minimum.at(first, label_ids, np.arange(n, dtype=np.int64))
        used = np.flatnonzero(first < n)
        used = used[np.argsort(first[used])]
        interned = np.zeros(len(table), dtype=np.int64)
        interned[used] = np.arange(used.shape[0], dtype=np.int64)

        sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(succ_indptr))
        return CSRGraph(
            base.ids_of(kept) + added,
            [table[label] for label in used.tolist()],
            interned[label_ids],
            succ_indptr,
            succ_indices,
            pred_indptr,
            pred_indices,
            _union_degrees(n, sources, succ_indices),
        )

    # ------------------------------------------------------------------ #
    # Mutation (DiGraph semantics)
    # ------------------------------------------------------------------ #
    def apply(self, delta: GraphDelta, applied: Optional[AppliedDelta] = None) -> AppliedDelta:
        """Apply a delta op by op; returns the effective-change record.

        Delegates to :meth:`GraphDelta.apply_to` — the overlay implements
        the ``DiGraph`` mutation API, so both substrates share one
        op-dispatch implementation by construction.
        """
        return delta.apply_to(self, applied=applied)  # type: ignore[arg-type]

    def add_node(self, node: NodeId, label: Label = "") -> None:
        """Add ``node`` with ``label``; relabels it if already present."""
        if node in self:
            self._label_overrides[node] = label
            return
        # A base node that was removed and is re-added lands at the *end* of
        # the node order (it stays masked in the base and joins the appended
        # set), matching dict re-insertion semantics.
        self._added_nodes[node] = None
        self._label_overrides[node] = label
        self._num_nodes += 1

    def add_edge(self, source: NodeId, target: NodeId) -> bool:
        """Add edge ``(source, target)``; ``False`` if it already exists."""
        if source not in self:
            raise NodeNotFoundError(source)
        if target not in self:
            raise NodeNotFoundError(target)
        if self.has_edge(source, target):
            return False
        self._added_succ.setdefault(source, {})[target] = None
        self._added_pred.setdefault(target, {})[source] = None
        self._added_edge_count += 1
        self._num_edges += 1
        return True

    def remove_edge(self, source: NodeId, target: NodeId) -> None:
        """Remove edge ``(source, target)``; raises if it does not exist."""
        if not self.has_edge(source, target):
            raise EdgeNotFoundError(source, target)
        added = self._added_succ.get(source)
        if added is not None and target in added:
            del added[target]
            del self._added_pred[target][source]
            self._added_edge_count -= 1
        else:
            self._removed_out.setdefault(source, set()).add(target)
            self._removed_in.setdefault(target, set()).add(source)
            self._removed_edge_count += 1
        self._num_edges -= 1

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` together with all incident edges."""
        if node not in self:
            raise NodeNotFoundError(node)
        for target in list(self.successors(node)):
            self.remove_edge(node, target)
        for source in list(self.predecessors(node)):
            self.remove_edge(source, node)
        if node in self._added_nodes:
            del self._added_nodes[node]
        else:
            self._removed_nodes.add(node)
        self._label_overrides.pop(node, None)
        self._num_nodes -= 1

    # ------------------------------------------------------------------ #
    # GraphLike: nodes and labels
    # ------------------------------------------------------------------ #
    def _in_base(self, node: NodeId) -> bool:
        return node not in self._removed_nodes and node in self._base

    def __contains__(self, node: NodeId) -> bool:
        return node in self._added_nodes or self._in_base(node)

    def __len__(self) -> int:
        return self._num_nodes

    def __iter__(self) -> Iterator[NodeId]:
        return self.nodes()

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__name__}(nodes={self.num_nodes()}, "
            f"edges={self.num_edges()}, overlay={self.overlay_size()})"
        )

    def nodes(self) -> Iterator[NodeId]:
        """Base node order with removals masked, then added nodes."""
        removed = self._removed_nodes
        if removed:
            for node in self._base.nodes():
                if node not in removed:
                    yield node
        else:
            yield from self._base.nodes()
        yield from self._added_nodes

    def num_nodes(self) -> int:
        """``|V|``."""
        return self._num_nodes

    def num_edges(self) -> int:
        """``|E|``."""
        return self._num_edges

    def size(self) -> int:
        """The paper's ``|G| = |V| + |E|``."""
        return self._num_nodes + self._num_edges

    def label(self, node: NodeId) -> Label:
        """The label ``L(node)`` (overrides shadow the base)."""
        override = self._label_overrides.get(node, _MISSING)
        if override is not _MISSING:
            return override
        if not self._in_base(node):
            raise NodeNotFoundError(node)
        return self._base.label(node)

    def labels(self) -> Mapping[NodeId, Label]:
        """Node → label mapping (a fresh dict)."""
        return {node: self.label(node) for node in self.nodes()}

    def distinct_labels(self) -> Set[Label]:
        """The set of labels used by at least one node."""
        return {self.label(node) for node in self.nodes()}

    def nodes_with_label(self, label: Label) -> Set[NodeId]:
        """All nodes carrying ``label``."""
        found = {
            node
            for node in self._base.nodes_with_label(label)
            if self._in_base(node) and node not in self._label_overrides
        }
        for node, node_label in self._label_overrides.items():
            if node_label == label and node in self:
                found.add(node)
        return found

    # ------------------------------------------------------------------ #
    # GraphLike: edges and adjacency
    # ------------------------------------------------------------------ #
    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as ``(source, target)`` pairs."""
        for node in self.nodes():
            for target in self.successors(node):
                yield (node, target)

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        """Whether the directed edge ``(source, target)`` exists."""
        added = self._added_succ.get(source)
        if added is not None and target in added:
            return True
        if target in self._removed_out.get(source, ()):
            return False
        if not (self._in_base(source) and self._in_base(target)):
            return False
        return self._base.has_edge(source, target)

    def _neighbor_view(
        self,
        node: NodeId,
        removed: Dict[NodeId, Set[NodeId]],
        added: Dict[NodeId, Dict[NodeId, None]],
        base_neighbors,
    ) -> _OverlayNeighbors:
        if node not in self:
            raise NodeNotFoundError(node)
        items: List[NodeId] = []
        if self._in_base(node):
            masked = removed.get(node)
            if masked:
                items.extend(x for x in base_neighbors(node) if x not in masked)
            else:
                items.extend(base_neighbors(node))
        extra = added.get(node)
        if extra:
            items.extend(extra)
        return _OverlayNeighbors(items, set(items))

    def successors(self, node: NodeId) -> _OverlayNeighbors:
        """Children of ``node``: base order (masked) then appended inserts."""
        return self._neighbor_view(
            node, self._removed_out, self._added_succ, self._base.successors
        )

    def predecessors(self, node: NodeId) -> _OverlayNeighbors:
        """Parents of ``node``: base order (masked) then appended inserts."""
        return self._neighbor_view(
            node, self._removed_in, self._added_pred, self._base.predecessors
        )

    def neighbors(self, node: NodeId) -> KeysView[NodeId]:
        """``N(v)``: children then unseen parents (DiGraph-identical order)."""
        merged: Dict[NodeId, None] = {}
        for target in self.successors(node):
            merged[target] = None
        for source in self.predecessors(node):
            merged[source] = None
        return merged.keys()

    # ------------------------------------------------------------------ #
    # GraphLike: degrees
    # ------------------------------------------------------------------ #
    def out_degree(self, node: NodeId) -> int:
        """Number of out-edges of ``node`` (O(1) from the counters)."""
        if node not in self:
            raise NodeNotFoundError(node)
        total = len(self._added_succ.get(node, ()))
        if self._in_base(node):
            total += self._base.out_degree(node) - len(self._removed_out.get(node, ()))
        return total

    def in_degree(self, node: NodeId) -> int:
        """Number of in-edges of ``node`` (O(1) from the counters)."""
        if node not in self:
            raise NodeNotFoundError(node)
        total = len(self._added_pred.get(node, ()))
        if self._in_base(node):
            total += self._base.in_degree(node) - len(self._removed_in.get(node, ()))
        return total

    def degree(self, node: NodeId) -> int:
        """The paper's ``d(v)``: ``|N(v)|`` (union of parents and children)."""
        return len(self.neighbors(node))

    def max_degree(self) -> int:
        """Maximum ``d(v)`` over the whole graph (0 for empty graphs)."""
        return max((self.degree(node) for node in self.nodes()), default=0)


_MISSING = object()


def overlay_digraph_equal(overlay: MutableOverlay, graph) -> bool:
    """Structural *and* order equality between an overlay and a ``DiGraph``.

    Test helper: checks node order, per-node successor/predecessor order and
    labels all coincide — the property the bit-identical answer contract
    rests on.
    """
    if list(overlay.nodes()) != list(graph.nodes()):
        return False
    for node in overlay.nodes():
        if overlay.label(node) != graph.label(node):
            return False
        if list(overlay.successors(node)) != list(graph.successors(node)):
            return False
        if list(overlay.predecessors(node)) != list(graph.predecessors(node)):
            return False
    return True


__all__ = ["MutableOverlay", "overlay_digraph_equal"]
