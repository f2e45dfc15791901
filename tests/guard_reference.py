"""Node-by-node references for the guarded conditions and the ``Sl`` summaries.

The guards of :mod:`repro.core.weights` and :class:`NeighborhoodIndex` read
one substrate, a ``CSRGraph``, in row space.  What they are held to lives
here, written through the ``GraphLike`` views one node at a time, so it runs
on any graph (a ``DiGraph`` above all):

* :func:`summarize_node` — a node's ``Sl`` (degree and neighbour labels,
  split by direction), counted off its neighbours;
* :func:`simulation_condition` and :func:`isomorphism_condition` — ``C(v, u)``
  of Sections 4.1 and 4.2 from scratch;
* :func:`checked` — a guard class with the memoised ``check(node, u)`` that
  ``tests/reduction_oracle.py`` asks, one node at a time: the label test
  (``up`` by identity), then the guard's own per-node test.
"""

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.core.weights import IsomorphismGuard, SimulationGuard
from repro.graph.digraph import Label

__all__ = [
    "CheckedIsomorphismGuard",
    "CheckedSimulationGuard",
    "NeighborhoodSummary",
    "checked",
    "has_child_label",
    "has_parent_label",
    "isomorphism_condition",
    "simulation_condition",
    "summarize_node",
]


@dataclass(frozen=True)
class NeighborhoodSummary:
    """A node's summary: ``d(v)``, and the paper's ``Sl`` (per label, how many
    neighbours carry it) over all neighbours, the children and the parents."""

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


def _label_counts(graph, nodes) -> Dict[Label, int]:
    counts: Dict[Label, int] = {}
    for node in nodes:
        label = graph.label(node)
        counts[label] = counts.get(label, 0) + 1
    return counts


def summarize_node(graph, node) -> NeighborhoodSummary:
    """The :class:`NeighborhoodSummary` of ``node``, read off its neighbours."""
    return NeighborhoodSummary(
        degree=graph.degree(node),
        label_counts=_label_counts(graph, graph.neighbors(node)),
        child_label_counts=_label_counts(graph, graph.successors(node)),
        parent_label_counts=_label_counts(graph, graph.predecessors(node)),
    )


def has_child_label(index, node, label) -> bool:
    """Whether ``index`` says ``node`` has a child labelled ``label``."""
    return index.has_labels(node, index.requirement(()), index.requirement((label,)))


def has_parent_label(index, node, label) -> bool:
    """Whether ``index`` says ``node`` has a parent labelled ``label``."""
    return index.has_labels(node, index.requirement((label,)), index.requirement(()))


def _label_test(graph, pattern, vp, node, u) -> bool:
    """``fv(u) = L(node)``; ``up`` is matched by identity, not by label."""
    return node == vp if u == pattern.personalized else graph.label(node) == pattern.label_of(u)


def simulation_condition(graph, pattern, vp, node, u) -> bool:
    """Section 4.1's ``C(node, u)`` from scratch: the label, then per side
    ``vp`` where ``up`` is a query neighbour on it, and a neighbour of every
    label the other query neighbours on that side ask for (off the node's
    :func:`summarize_node`)."""
    if not _label_test(graph, pattern, vp, node, u):
        return False
    up, summary = pattern.personalized, summarize_node(graph, node)
    for query_side, data_side, counts in (
        (pattern.parents(u), graph.predecessors(node), summary.parent_label_counts),
        (pattern.children(u), graph.successors(node), summary.child_label_counts),
    ):
        if up in query_side and vp not in set(data_side):
            return False
        if any(pattern.label_of(w) not in counts for w in query_side if w != up):
            return False
    return True


def isomorphism_condition(graph, pattern, vp, node, u) -> bool:
    """Section 4.2's ``C(node, u)`` from scratch: the label, then per side the
    degree, ``vp`` where ``up`` is a query neighbour on it, and per label the
    greedy distinct assignment, largest degree needed first against the
    largest degrees available."""
    if not _label_test(graph, pattern, vp, node, u):
        return False
    up = pattern.personalized
    for query_side, data_side in (
        (pattern.children(u), list(graph.successors(node))),
        (pattern.parents(u), list(graph.predecessors(node))),
    ):
        if len(data_side) < len(query_side) or (up in query_side and vp not in data_side):
            return False
        needs: Dict[Label, list] = {}
        for neighbor in query_side:
            if neighbor != up:
                needs.setdefault(pattern.label_of(neighbor), []).append(pattern.degree(neighbor))
        for label, needed in needs.items():
            available = sorted((graph.degree(w) for w in data_side if graph.label(w) == label), reverse=True)
            needed = sorted(needed, reverse=True)
            if len(available) < len(needed) or any(have < need for have, need in zip(available, needed)):
                return False
    return True


class _Checked:
    """``check(node, u)``: the label test, then ``check_asked``, memoised per pair."""

    def __init__(self, *arguments) -> None:
        super().__init__(*arguments)
        self._checked: Dict[tuple, bool] = {}

    def check(self, node, query_node) -> bool:
        passed = self._checked.get((node, query_node))
        if passed is None:
            passed = self._checked[(node, query_node)] = _label_test(
                self._graph, self._pattern, self._vp, node, query_node
            ) and self.check_asked(node, query_node)
        return passed


class CheckedSimulationGuard(_Checked, SimulationGuard):
    """:class:`SimulationGuard` with the oracle's ``check``."""


class CheckedIsomorphismGuard(_Checked, IsomorphismGuard):
    """:class:`IsomorphismGuard` with the oracle's ``check``."""


_CHECKED = {SimulationGuard: CheckedSimulationGuard, IsomorphismGuard: CheckedIsomorphismGuard}


def checked(guard_class: type) -> type:
    """``guard_class`` with the node-by-node ``check`` the frozen oracle asks
    (a subclass, so ``isinstance`` still names the guard)."""
    return _CHECKED[guard_class]
