"""Deterministic graph partitioners for the sharded serving layer.

FanWW14's resource-bounded queries are *local*: a pattern query touches only
the ``d_Q``-ball around its personalized match and ``RBReach`` touches only
``α·|G|`` of a per-graph index.  Partitioned serving exploits that locality —
most queries resolve inside one shard — so the quality of a partition is
measured by its *edge cut* (cross-shard edges force scatter–gather) and its
*balance* (the largest shard bounds tail latency).

Two partitioners are provided, both fully deterministic:

* :func:`hash_partition` — the baseline: shard = ``sha1(repr(node)) mod k``.
  Hash-randomisation-proof and independent of the graph's structure, so new
  nodes can be placed without coordination, at the price of an edge cut near
  the random-cut expectation ``(k-1)/k``.
* :func:`greedy_partition` — a seeded BFS-grown greedy edge-cut minimiser:
  ``k`` seed nodes grow breadth-first regions round-robin under a balance
  cap, each region claiming the frontier candidate with the strongest pull
  (most neighbours already inside, fewest outside), followed by boundary
  refinement passes that move a node to a neighbouring shard when that
  strictly reduces the cut without breaking balance.

Every iteration order is derived from the graph's stored orders and explicit
``random.Random(seed)`` draws, so the same ``(graph, k, seed)`` yields the
identical :class:`Partition` on every machine and in every worker process —
the property ``tests/test_determinism.py`` pins down.

Both run on the rows of the graph's CSR freeze (a no-op on a ``CSRGraph``);
``tests/test_prepare_differential.py`` holds them to the node-by-node
bodies they replaced.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from repro.exceptions import ShardError
from repro.graph.csr import CSRGraph, freeze
from repro.graph.digraph import NodeId
from repro.graph.protocol import GraphLike

HASH = "hash"
GREEDY = "greedy"
METHODS = (HASH, GREEDY)

REFINEMENT_PASSES = 2
"""Boundary-refinement sweeps after BFS growth (diminishing returns beyond)."""

BALANCE_SLACK = 0.10
"""Shards may exceed the ideal ``|V|/k`` size by this fraction."""


def hash_shard(node: NodeId, num_shards: int) -> int:
    """Stable home shard of ``node``: ``sha1(repr(node)) mod k``.

    Uses sha1 over the canonical ``repr`` (like the query fingerprints)
    rather than Python's randomised ``hash``, so placement agrees across
    machines and worker processes.
    """
    digest = hashlib.sha1(repr(node).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


@dataclass
class Partition:
    """A node → shard assignment plus its boundary and cut statistics.

    ``boundary[s]`` holds shard ``s``'s *boundary nodes*: core nodes with at
    least one edge (either direction) crossing into another shard.  These
    are the only nodes through which a path can leave a shard, which is what
    the boundary graph condenses.  ``cut_edges`` counts directed edges whose
    endpoints live in different shards.
    """

    num_shards: int
    method: str
    seed: int
    assignment: Dict[NodeId, int] = field(default_factory=dict)
    boundary: Dict[int, Set[NodeId]] = field(default_factory=dict)
    cut_edges: int = 0
    total_edges: int = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def shard_of(self, node: NodeId) -> Optional[int]:
        """Home shard of ``node`` (``None`` for unknown nodes)."""
        return self.assignment.get(node)

    def owners(self, graph: GraphLike) -> np.ndarray:
        """The home shard of each of ``graph``'s nodes, in node order (-1: unassigned)."""
        get = self.assignment.get
        return np.fromiter((get(node, -1) for node in graph.nodes()), dtype=np.int64, count=graph.num_nodes())

    def shard_sizes(self) -> List[int]:
        """Core node count per shard."""
        sizes = [0] * self.num_shards
        for owner in self.assignment.values():
            sizes[owner] += 1
        return sizes

    def cut_fraction(self) -> float:
        """Cut edges as a fraction of all edges (0.0 on edgeless graphs)."""
        if self.total_edges == 0:
            return 0.0
        return self.cut_edges / self.total_edges

    def boundary_fraction(self) -> float:
        """Boundary nodes as a fraction of all assigned nodes."""
        if not self.assignment:
            return 0.0
        return sum(len(members) for members in self.boundary.values()) / len(self.assignment)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_payload(self) -> dict:
        """A JSON-serialisable form (node ids must be JSON scalars).

        The assignment is stored as ``[node, shard]`` pairs in iteration
        order, so a round trip preserves the order the shard builders rely
        on.  Boundary/cut statistics are derived data but kept so a loaded
        partition reports without re-touching the graph.
        """
        return {
            "num_shards": self.num_shards,
            "method": self.method,
            "seed": self.seed,
            "assignment": [[node, owner] for node, owner in self.assignment.items()],
            "boundary": {
                str(shard): sorted(members, key=repr)
                for shard, members in self.boundary.items()
            },
            "cut_edges": self.cut_edges,
            "total_edges": self.total_edges,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Partition":
        """Rebuild a partition from :meth:`to_payload` output."""
        try:
            partition = cls(
                num_shards=int(payload["num_shards"]),
                method=str(payload["method"]),
                seed=int(payload["seed"]),
                assignment={node: int(owner) for node, owner in payload["assignment"]},
                boundary={
                    int(shard): set(members)
                    for shard, members in payload.get("boundary", {}).items()
                },
                cut_edges=int(payload.get("cut_edges", 0)),
                total_edges=int(payload.get("total_edges", 0)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ShardError(f"malformed partition payload: {error}") from error
        return partition

    def to_json(self) -> str:
        """Serialise to a JSON string (see :meth:`to_payload` for caveats)."""
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Partition":
        """Parse a partition previously produced by :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ShardError(f"partition JSON is malformed: {error}") from error
        return cls.from_payload(payload)


def _finalize(graph: CSRGraph, owner: np.ndarray, num_shards: int, method: str, seed: int) -> Partition:
    """The partition an owner column describes, in one pass over the edge arrays.

    Both endpoints of a cut edge are boundary nodes of their own shards.
    """
    sources, targets = graph.edge_rows()
    crossing = owner[sources] != owner[targets]
    on_cut = np.zeros(owner.shape[0], dtype=bool)
    on_cut[sources[crossing]] = True
    on_cut[targets[crossing]] = True
    partition = Partition(num_shards, method, seed, dict(zip(graph.nodes(), owner.tolist())))
    partition.boundary = {
        shard: set(graph.ids_of(np.flatnonzero(on_cut & (owner == shard)))) for shard in range(num_shards)
    }
    partition.cut_edges = int(np.count_nonzero(crossing))
    partition.total_edges = int(sources.shape[0])
    return partition


def hash_partition(graph: GraphLike, num_shards: int, seed: int = 0) -> Partition:
    """The deterministic hash baseline (structure-oblivious placement)."""
    if num_shards < 1:
        raise ShardError(f"num_shards must be >= 1, got {num_shards}")
    graph = freeze(graph)
    owner = np.fromiter(
        (hash_shard(node, num_shards) for node in graph.nodes()), dtype=np.int64, count=graph.num_nodes()
    )
    return _finalize(graph, owner, num_shards, HASH, seed)


def _pick_seeds(graph: CSRGraph, k: int, rng: random.Random) -> List[int]:
    """``k`` growth seed rows: the top-degree node plus spread random picks.

    The first seed anchors the densest region (the degree column's maximum,
    ties to the largest ``repr``); the rest are uniform draws (deduplicated
    deterministically) so regions start in distinct parts of the graph
    without paying an all-pairs distance computation.
    """
    degrees = graph.degrees()
    top = np.flatnonzero(degrees == degrees.max()).tolist()
    best = max(top, key=lambda row: repr(graph.node_at(row)))
    seeds: List[int] = [best]
    chosen = {best}
    rows = range(graph.num_nodes())
    attempts = 0
    while len(seeds) < k and attempts < 50 * k:
        attempts += 1
        candidate = rng.choice(rows)
        if candidate not in chosen:
            chosen.add(candidate)
            seeds.append(candidate)
    for row in rows:  # fallback when the graph is tiny relative to k
        if len(seeds) >= k:
            break
        if row not in chosen:
            chosen.add(row)
            seeds.append(row)
    return seeds


def greedy_partition(graph: GraphLike, num_shards: int, seed: int = 0) -> Partition:
    """Seeded BFS-grown greedy edge-cut minimiser.

    Phase 1 grows ``k`` breadth-first regions round-robin from seed nodes
    under a ``(1 + slack)·|V|/k`` balance cap; each turn the shard claims,
    from a bounded window of its frontier, the candidate with the highest
    ``(neighbours already in this shard) - (neighbours in other shards)``
    pull — the classic greedy cut heuristic.  Unreached nodes (other weak
    components) fall to the smallest shard.  Phase 2 runs
    ``REFINEMENT_PASSES`` boundary sweeps moving a node to the neighbouring
    shard with the largest strict cut gain that keeps balance.

    The state is flat int lists over rows, as in the Tarjan pass of
    ``graph/components.py`` (``_tarjan``): ``inside[row * k + s]`` counts
    the distinct neighbours of ``row`` shard ``s`` owns, ``assigned[row]``
    those any shard owns.  Claims (and moves) update them, so a pull
    ``inside - (assigned - inside)`` is two reads.
    """
    if num_shards < 1:
        raise ShardError(f"num_shards must be >= 1, got {num_shards}")
    graph = freeze(graph)
    n = graph.num_nodes()
    if not n:
        raise ShardError("cannot partition an empty graph")
    if num_shards == 1:
        return _finalize(graph, np.zeros(n, dtype=np.int64), 1, GREEDY, seed)
    if num_shards > n:
        raise ShardError(f"num_shards={num_shards} exceeds the graph's {n} nodes")

    k = num_shards
    rng = random.Random(seed)
    capacity = math.ceil(n / k * (1.0 + BALANCE_SLACK))
    seeds = _pick_seeds(graph, k, rng)
    succ_ptr, succ = memoryview(graph._succ_indptr), memoryview(graph._succ_indices)
    pred_ptr, pred = memoryview(graph._pred_indptr), memoryview(graph._pred_indices)

    def adjacent(row: int) -> List[int]:  # children then parents, in stored order
        return succ[succ_ptr[row] : succ_ptr[row + 1]].tolist() + pred[pred_ptr[row] : pred_ptr[row + 1]].tolist()

    owner = [-1] * n
    inside = [0] * (n * k)
    assigned = [0] * n
    frontiers: List[deque] = [deque() for _ in range(k)]
    sizes = [0] * k

    def claim(row: int, shard: int) -> None:
        owner[row] = shard
        sizes[shard] += 1
        rows = adjacent(row)
        frontiers[shard].extend([other for other in rows if owner[other] < 0])
        for other in dict.fromkeys(rows):
            inside[other * k + shard] += 1
            assigned[other] += 1

    for shard, row in enumerate(seeds):
        claim(row, shard)

    # Window of frontier candidates scored per turn: wide enough to find a
    # well-connected claim, narrow enough to keep each turn cheap.
    window = 8
    active = True
    while active:
        active = False
        for shard in range(k):
            if sizes[shard] >= capacity:
                continue
            frontier = frontiers[shard]
            popleft = frontier.popleft
            candidates: List[int] = []
            while frontier:
                row = popleft()
                if owner[row] < 0 and row not in candidates:
                    candidates.append(row)
                    if len(candidates) == window:
                        break
            if not candidates:
                continue
            active = True
            best, best_pull = -1, -n - 1  # every pull is above -|V|
            for row in candidates:  # the strongest pull, the earliest on ties
                pull = 2 * inside[row * k + shard] - assigned[row]
                if pull > best_pull:
                    best, best_pull = row, pull
            for row in candidates:
                if row != best:
                    frontier.append(row)  # back of the queue, BFS-ish order kept
            claim(best, shard)

    for row in range(n):  # disconnected leftovers: smallest shard first
        if owner[row] < 0:
            claim(row, sizes.index(min(sizes)))

    _refine(adjacent, owner, inside, sizes, capacity)
    return _finalize(graph, np.array(owner, dtype=np.int64), k, GREEDY, seed)


def _refine(
    adjacent: Callable[[int], List[int]], owner: List[int], inside: List[int], sizes: List[int], capacity: int
) -> None:
    """Greedy boundary refinement: strict-gain moves under the balance cap.

    A row's gains are read off its shard counts ``inside``, which each move
    keeps current for the mover's neighbours.
    """
    k, n = len(sizes), len(owner)
    shards = range(k)
    for _ in range(REFINEMENT_PASSES):
        moved = 0
        for row in range(n):
            home_shard = owner[row]
            if sizes[home_shard] <= 1:
                continue
            base = row * k
            home = inside[base + home_shard]
            best, best_gain = home_shard, 0
            for shard in shards:
                if shard == home_shard or sizes[shard] >= capacity:
                    continue
                gain = inside[base + shard] - home
                if gain > best_gain:
                    best, best_gain = shard, gain
            if best != home_shard:
                owner[row] = best
                sizes[home_shard] -= 1
                sizes[best] += 1
                moved += 1
                for other in dict.fromkeys(adjacent(row)):
                    inside[other * k + home_shard] -= 1
                    inside[other * k + best] += 1
        if not moved:
            break


def partition_graph(
    graph: GraphLike, num_shards: int, method: str = GREEDY, seed: int = 0
) -> Partition:
    """Partition ``graph`` into ``num_shards`` shards with the chosen method."""
    if method == HASH:
        return hash_partition(graph, num_shards, seed=seed)
    if method == GREEDY:
        return greedy_partition(graph, num_shards, seed=seed)
    raise ShardError(f"unknown partition method {method!r}; available: {', '.join(METHODS)}")


__all__ = [
    "BALANCE_SLACK",
    "GREEDY",
    "HASH",
    "METHODS",
    "Partition",
    "greedy_partition",
    "hash_partition",
    "hash_shard",
    "partition_graph",
]
