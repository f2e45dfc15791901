"""Delta-stream workloads: seeded churn for the dynamic-graph scenario.

A *delta stream* is a sequence of :class:`~repro.updates.GraphDelta`
batches simulating a graph mutating under traffic.  Two mixes model the
churn patterns streaming-graph systems distinguish:

* ``"growth"`` — new nodes attach to existing ones and recently added
  attachments occasionally disappear; the pre-existing core is never
  rewired.  This is the append-mostly social/recommendation-graph pattern:
  no delta can merge or split an old strongly connected component, so the
  incremental machinery keeps almost everything.
* ``"uniform"`` — edges are inserted between, and removed from, uniformly
  random endpoints; node insertion/removal is rare.  This is the
  adversarial pattern: deletions can split strongly connected components
  and insertions can merge them, and hub-adjacent changes dirty large
  reachability cones.

Generation is driven entirely by one ``random.Random(seed)`` and a working
copy of the graph, so the same seed yields the identical stream on every
machine — the property the update benchmark and CI gate rely on.

``confine_nodes`` restricts every sampled endpoint (attachment targets,
rewired edges, removal victims) to the given node set — newcomers join it —
which confines the churn to one region of the graph, for locality
experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Collection, Iterator, List, Optional

from repro.exceptions import WorkloadError
from repro.graph.digraph import DiGraph, NodeId
from repro.graph.protocol import GraphLike
from repro.updates.delta import GraphDelta

MIXES = ("growth", "uniform")


@dataclass
class DeltaStream:
    """A replayable sequence of deltas plus the graph state they end on."""

    mix: str
    deltas: List[GraphDelta] = field(default_factory=list)
    #: The mutated graph after every delta (a working DiGraph copy).
    final_graph: DiGraph = field(default_factory=DiGraph)

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self) -> Iterator[GraphDelta]:
        return iter(self.deltas)

    def total_ops(self) -> int:
        """Total mutation count across every batch."""
        return sum(delta.size() for delta in self.deltas)


def _working_copy(graph: GraphLike) -> DiGraph:
    if isinstance(graph, DiGraph):
        return graph.copy()
    copy = DiGraph()
    for node in graph.nodes():
        copy.add_node(node, graph.label(node))
    for source, target in graph.edges():
        copy.add_edge(source, target)
    return copy


def generate_delta_stream(
    graph: GraphLike,
    batches: int = 10,
    ops_per_batch: int = 50,
    mix: str = "growth",
    seed: int = 0,
    node_removal_rate: float = 0.0,
    confine_nodes: Optional[Collection[NodeId]] = None,
) -> DeltaStream:
    """Generate ``batches`` deltas of ``ops_per_batch`` ops each.

    Every op is valid at the point it appears (the generator maintains a
    working copy), so replaying the stream through ``GraphService.update``
    or ``GraphDelta.apply_to`` never raises.  ``node_removal_rate`` mixes in
    node removals (which force the engine onto its full-rebuild path); the
    default stream is removal-free, matching edge-churn workloads.
    ``confine_nodes`` restricts all endpoint sampling to the given subset of
    the graph (see the module docstring) — the same seed still yields the
    identical stream for the identical confinement set.
    """
    if mix not in MIXES:
        raise WorkloadError(f"unknown delta mix {mix!r}; available: {', '.join(MIXES)}")
    if batches <= 0 or ops_per_batch <= 0:
        raise WorkloadError("batches and ops_per_batch must be positive")
    if not 0 <= node_removal_rate < 1:
        raise WorkloadError("node_removal_rate must be in [0, 1)")

    rng = random.Random(seed)
    working = _working_copy(graph)
    if working.num_nodes() < 2:
        raise WorkloadError("graph too small for a delta stream")
    nodes: List[NodeId] = list(working.nodes())
    confined: Optional[set] = None
    if confine_nodes is not None:
        confined = set(confine_nodes)
        present = [node for node in nodes if node in confined]
        if len(present) < 2:
            raise WorkloadError("confine_nodes must name at least 2 graph nodes")
        unknown = confined - set(nodes)
        if unknown:
            raise WorkloadError(
                f"confine_nodes references {len(unknown)} node(s) not in the graph"
            )
        # Keep the pool in graph iteration order so the stream is a pure
        # function of (graph, confinement set, seed).
        nodes = present
    newcomers: List[NodeId] = []
    recent_edges: List = []
    fresh_serial = 0
    stream = DeltaStream(mix=mix)
    # Preferential attachment for the growth mix: most new links land on a
    # small trending pool of high-degree nodes (the viral-content pattern),
    # the rest are uniform.  Sampled once per stream, deterministically.
    trending: List[NodeId] = sorted(
        rng.sample(nodes, min(len(nodes), 200)),
        key=lambda node: (-working.degree(node), repr(node)),
    )[:50]

    def growth_target() -> NodeId:
        if trending and rng.random() < 0.8:
            return rng.choice(trending)
        return rng.choice(nodes)

    for _ in range(batches):
        delta = GraphDelta()
        attempts = 0
        # ``ops_per_batch`` bounds the *emitted* delta size (a growth
        # node-attach emits two ops: add_node + add_edge), so downstream
        # "delta ≤ x% of |E|" claims hold for delta.size(), not a proxy.
        while delta.size() < ops_per_batch and attempts < ops_per_batch * 20:
            attempts += 1
            remaining = ops_per_batch - delta.size()
            roll = rng.random()
            if node_removal_rate and roll < node_removal_rate:
                victim = rng.choice(nodes)
                if working.num_nodes() > 2 and victim in working:
                    delta.remove_node(victim)
                    working.remove_node(victim)
                    # Purge the victim from *every* sampling pool, or later
                    # ops would target a deleted node and raise.
                    nodes = [node for node in nodes if node != victim]
                    newcomers = [node for node in newcomers if node != victim]
                    trending = [node for node in trending if node != victim]
                    recent_edges = [edge for edge in recent_edges if victim not in edge]
                continue
            roll = rng.random()
            if mix == "growth":
                # Edges only ever leave *newcomers*, so the pre-existing
                # core is never rewired: no old component can merge or
                # split, which is exactly the append-mostly churn shape.
                if (roll < 0.5 or not newcomers) and remaining >= 2:
                    fresh_serial += 1
                    newcomer = f"u{seed}-{fresh_serial}"
                    label = rng.choice("ABCDE")
                    delta.add_node(newcomer, label=label)
                    working.add_node(newcomer, label)
                    target = growth_target()
                    delta.add_edge(newcomer, target)
                    working.add_edge(newcomer, target)
                    recent_edges.append((newcomer, target))
                    newcomers.append(newcomer)
                    nodes.append(newcomer)
                    if confined is not None:
                        confined.add(newcomer)
                elif newcomers and roll < 0.85:
                    source = rng.choice(newcomers)
                    target = growth_target()
                    if source != target and not working.has_edge(source, target):
                        delta.add_edge(source, target)
                        working.add_edge(source, target)
                        recent_edges.append((source, target))
                elif recent_edges:
                    source, target = recent_edges.pop(rng.randrange(len(recent_edges)))
                    if working.has_edge(source, target):
                        delta.remove_edge(source, target)
                        working.remove_edge(source, target)
            else:  # uniform
                if roll < 0.5:
                    source, target = rng.choice(nodes), rng.choice(nodes)
                    if source != target and not working.has_edge(source, target):
                        delta.add_edge(source, target)
                        working.add_edge(source, target)
                else:
                    # Sample an existing edge without materialising the edge
                    # list: a few node probes, deterministic under the seed.
                    for _ in range(16):
                        source = rng.choice(nodes)
                        successors = list(working.successors(source))
                        if confined is not None:
                            # Both endpoints must stay inside the pool, or the
                            # removal would name a node outside the confinement.
                            successors = [
                                target for target in successors if target in confined
                            ]
                        if successors:
                            target = rng.choice(successors)
                            delta.remove_edge(source, target)
                            working.remove_edge(source, target)
                            break
        if delta.size():
            stream.deltas.append(delta)
    if not stream.deltas:
        raise WorkloadError("generated an empty delta stream; raise ops_per_batch")
    stream.final_graph = working
    return stream


__all__ = ["DeltaStream", "MIXES", "generate_delta_stream"]
