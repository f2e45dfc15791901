"""Resource budgets and visit accounting (paper Section 3).

A resource-bounded algorithm, given a resource ratio ``alpha`` and a graph
``G``, must (a) extract a fraction ``G_Q`` with ``|G_Q| <= alpha * |G|`` and
(b) do so while *visiting* at most ``c * alpha * |G|`` data items, where ``c``
is a small constant (``d_G`` for the pattern algorithms, 1 for reachability).

:class:`ResourceBudget` makes both limits explicit objects so that the
algorithms charge every node/edge they touch and the tests can assert the
invariants instead of trusting the implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exceptions import BudgetError


@dataclass
class ResourceBudget:
    """Tracks the two bounds of resource-bounded query answering.

    Parameters
    ----------
    alpha:
        The resource ratio ``alpha ∈ (0, 1]``.  (The paper requires
        ``alpha < 1``; ``alpha = 1`` is accepted for baselines and tests.)
    graph_size:
        ``|G|`` = nodes + edges of the queried graph.
    visit_coefficient:
        The coefficient ``c``: visits are capped at ``c * alpha * |G|``.

    Nothing assigns the three after construction, so the two limits derived
    from them are computed once: ``size_limit``, the maximum allowed
    ``|G_Q|`` (at least 1 so a non-empty answer is possible), and
    ``visit_limit``, the maximum number of data items that may be visited.
    """

    alpha: float
    graph_size: int
    visit_coefficient: float = 1.0
    size_limit: int = field(init=False)
    visit_limit: int = field(init=False)
    _visited: int = field(default=0, init=False)
    _stored: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise BudgetError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.graph_size < 0:
            raise BudgetError("graph_size must be non-negative")
        if self.visit_coefficient <= 0:
            raise BudgetError("visit_coefficient must be positive")
        self.size_limit = max(1, math.floor(self.alpha * self.graph_size))
        self.visit_limit = max(
            1, math.floor(self.visit_coefficient * self.alpha * self.graph_size)
        )

    # ------------------------------------------------------------------ #
    # Charging
    # ------------------------------------------------------------------ #
    @property
    def visited(self) -> int:
        """Data items (nodes + edges) visited so far."""
        return self._visited

    @property
    def stored(self) -> int:
        """Items currently counted towards ``|G_Q|``."""
        return self._stored

    def charge_visit(self, amount: int = 1) -> None:
        """Record that ``amount`` data items were inspected."""
        if amount < 0:
            raise BudgetError("cannot charge a negative number of visits")
        self._visited += amount

    def charge_storage(self, amount: int = 1) -> None:
        """Record that ``amount`` items were added to ``G_Q``."""
        if amount < 0:
            raise BudgetError("cannot charge negative storage")
        self._stored += amount

    def release_storage(self, amount: int) -> None:
        """Record that ``amount`` items left ``G_Q`` (a storage reclamation)."""
        if not 0 <= amount <= self._stored:
            raise BudgetError("cannot release more storage than is charged")
        self._stored -= amount

    def visits_exhausted(self) -> bool:
        """Whether the visit allowance has been used up."""
        return self._visited >= self.visit_limit

    def storage_exhausted(self) -> bool:
        """Whether ``G_Q`` has reached ``alpha * |G|``."""
        return self._stored >= self.size_limit

    def storage_remaining(self) -> int:
        """How many more items ``G_Q`` may still absorb."""
        return max(0, self.size_limit - self._stored)

    def can_store(self, amount: int = 1) -> bool:
        """Whether ``amount`` more items fit in ``G_Q``."""
        return self._stored + amount <= self.size_limit

    def reset(self) -> None:
        """Forget all charges (budgets are reusable across queries)."""
        self._visited = 0
        self._stored = 0

    def utilisation(self) -> float:
        """Fraction of the storage budget consumed (0.0 when the limit is 0)."""
        if self.size_limit == 0:
            return 0.0
        return self._stored / self.size_limit


@dataclass(frozen=True)
class BudgetReport:
    """Immutable snapshot of budget usage attached to algorithm results."""

    alpha: float
    graph_size: int
    size_limit: int
    visit_limit: int
    stored: int
    visited: int

    @property
    def within_size_bound(self) -> bool:
        """Whether ``|G_Q| <= alpha |G|`` held."""
        return self.stored <= self.size_limit

    @property
    def within_visit_bound(self) -> bool:
        """Whether the visit cap held."""
        return self.visited <= self.visit_limit

    @property
    def fraction_of_graph_visited(self) -> float:
        """Visited items as a fraction of |G|."""
        if self.graph_size == 0:
            return 0.0
        return self.visited / self.graph_size


def snapshot(budget: ResourceBudget) -> BudgetReport:
    """Create a :class:`BudgetReport` from the current state of ``budget``."""
    return BudgetReport(
        alpha=budget.alpha,
        graph_size=budget.graph_size,
        size_limit=budget.size_limit,
        visit_limit=budget.visit_limit,
        stored=budget.stored,
        visited=budget.visited,
    )
