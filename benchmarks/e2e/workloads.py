"""Workload definitions and seeded input generators for the e2e benchmark.

Everything the program under test receives is built here, from the seed the
harness passes in; the service itself never sees the seed.

Two kinds of input are kept apart on purpose:

* **the dataset** — the graph and the *pattern query log* over it — is fixed
  (``DATASET_SEED``).  Pattern queries cost ~1 ms at the median and ~50 ms at
  p99, so the mean cost of a freshly drawn 256-pattern pool moves by ±10%
  from draw to draw — more than any regression bound worth having.  The log
  is therefore part of the dataset, like the graph;
* **the traffic** — which reachability pairs are asked, the order requests
  arrive in, Zipf popularity draws, the Poisson arrival schedule, and the
  delta stream — is drawn from ``--seed``.

The accuracy sample is fixed too: ``accuracy_f1`` is a count that must repeat
exactly from run to run, whatever the seed.

Generators are pure functions of ``(graph, sizes, seed)`` and use one
``random.Random`` each, so the same seed yields byte-identical inputs on
every machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.graph.digraph import DiGraph, NodeId
from repro.graph.generators import community_graph
from repro.service import PatternRequest, ReachRequest
from repro.updates.delta import GraphDelta
from repro.workloads.datasets import load_dataset
from repro.workloads.queries import generate_pattern_workload, sample_mixed_pairs

DATASET_SEED = 7
"""Seed of the fixed part of every workload: graphs and pattern logs."""

PATTERN_SHAPE = (4, 8)


# --------------------------------------------------------------------------- #
# Workload table
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Workload:
    """One named traffic mix: which graph, which service config, what load."""

    name: str
    why: str
    graph: str  # "youtube" | "community"
    driver: str  # "closed" | "open" | "churn"
    alpha: float
    config: Dict[str, Any] = field(default_factory=dict)


# Order matters to the all-workloads run: mixed_open's latency is thread and
# timer wake-ups, which stay slow for about a minute after pattern_daemon has
# kept both cores busy (first run after it: 1.8-2.3 ms against 1.1), so it
# goes early and a CPU-bound workload follows the daemon instead.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="reach_serial",
            why="RBReach drill-down plus per-query facade/engine overhead do all the work; "
            "a pattern-side change must show nothing here",
            graph="youtube",
            driver="closed",
            alpha=0.02,
            config={"executor": "serial", "cache_size": 0},
        ),
        Workload(
            name="mixed_open",
            why="open-loop Poisson arrivals then 2 closed-loop submit callers, Zipf 90/10 "
            "reach/pattern, working set larger than the cache: the only path through "
            "service.aio admission and a partial cache hit rate",
            graph="youtube",
            driver="open",
            alpha=0.02,
            config={"executor": "serial"},
        ),
        Workload(
            name="pattern_serial",
            why="core.reduction Search/Pick plus matching do ~95% of the work, heavy-tailed; "
            "RBReach is idle",
            graph="youtube",
            driver="closed",
            alpha=0.02,
            config={"executor": "serial", "cache_size": 0},
        ),
        Workload(
            name="pattern_daemon",
            why="the byte-identical request sequence of pattern_serial through engine.daemons, "
            "graph.shm and pickle transit; its ratio to pattern_serial is the parallel tier's worth",
            graph="youtube",
            driver="closed",
            alpha=0.02,
            config={"executor": "daemon", "workers": 2, "cache_size": 0},
        ),
        Workload(
            name="churn_subscribed",
            why="update(delta) alternating with cached read batches under standing subscriptions: "
            "writes beside reads on one cache, invalidation and maintenance; one node-removal "
            "rebuild per round",
            graph="community",
            driver="churn",
            alpha=0.01,
            config={},
        ),
        Workload(
            name="community_sharded",
            why="num_shards=2 scatter policy: the only workload in which shard/ runs "
            "(home-shard routing, boundary composition, spill assembly)",
            graph="community",
            driver="closed",
            alpha=0.01,
            config={
                "executor": "serial",
                "cache_size": 0,
                "num_shards": 2,
                "shard_policy": "scatter",
            },
        ),
    )
}


@dataclass(frozen=True)
class Scale:
    """Every size knob of the benchmark, so ``--smoke`` is one swap."""

    youtube: str
    communities: Tuple[int, ...]
    confined_communities: int
    reach_pool: int
    reach_batch: int
    pattern_pool: int
    pattern_batch: int
    open_patterns: int  # mixed_open's slice of the pattern log
    open_rate: float  # Poisson arrivals per second (phase A)
    open_window: float  # seconds of the arrival schedule in one round
    open_warmup: int  # Zipf requests run before timing so the LRU is in steady state
    open_block: int  # requests the 2 closed-loop callers answer in one round (phase B)
    churn_reach: int  # read pool of churn_subscribed
    churn_patterns: int
    churn_sub_reach: int  # standing subscriptions
    churn_sub_patterns: int
    churn_rounds: int  # delta rounds generated (an upper bound on rounds run)
    churn_round_deltas: int  # deltas per round; the last removes a node
    churn_delta_ops: int
    shard_reach: int  # community_sharded pools; one batch is 1/shard_batches of each
    shard_patterns: int
    shard_batches: int
    accuracy_reach: int  # oracle sample sizes
    accuracy_patterns: int
    probe_reach: int  # inputs of the direct layer probes (the log alternates
    probe_patterns: int  # semantics, so half of these are simulation queries)
    setup_repeats: int
    #: pattern_serial: how far ``answer`` may sit from ``reduce`` + exact match before
    #: the outside-in layer split counts as not adding up (``layers.split_error``).
    split_error_limit: float


FULL = Scale(
    youtube="youtube",
    communities=(120,) + (60,) * 79,
    confined_communities=4,
    reach_pool=16_384,
    reach_batch=512,
    pattern_pool=128,
    pattern_batch=32,
    open_patterns=128,
    open_rate=1200.0,
    open_window=1.0,
    open_warmup=1_024,
    open_block=2_000,
    churn_reach=180,
    churn_patterns=12,
    churn_sub_reach=4,
    churn_sub_patterns=8,
    churn_rounds=48,
    churn_round_deltas=8,
    churn_delta_ops=12,
    shard_reach=1_792,
    shard_patterns=64,
    shard_batches=8,
    accuracy_reach=512,
    accuracy_patterns=64,
    probe_reach=256,
    probe_patterns=64,
    setup_repeats=5,
    split_error_limit=0.05,
)

SMOKE = Scale(
    youtube="youtube-small",
    communities=(40,) + (20,) * 11,
    confined_communities=3,
    reach_pool=256,
    reach_batch=64,
    pattern_pool=8,
    pattern_batch=4,
    open_patterns=8,
    open_rate=1200.0,
    open_window=0.1,
    open_warmup=64,
    open_block=32,
    churn_reach=24,
    churn_patterns=4,
    churn_sub_reach=2,
    churn_sub_patterns=2,
    churn_rounds=4,
    churn_round_deltas=3,
    churn_delta_ops=4,
    shard_reach=56,
    shard_patterns=8,
    shard_batches=2,
    accuracy_reach=32,
    accuracy_patterns=4,
    probe_reach=16,
    probe_patterns=8,
    setup_repeats=1,
    split_error_limit=float("inf"),  # the median of 4 gaps per matcher is not evidence
)


# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #
def build_graph(kind: str, scale: Scale) -> DiGraph:
    """The workload's data graph (fixed: part of the dataset, not the traffic)."""
    if kind == "youtube":
        return load_dataset(scale.youtube, seed=DATASET_SEED)
    return community_graph(
        list(scale.communities), intra_probability=0.1, inter_edges=0, seed=DATASET_SEED
    )


def confined_nodes(scale: Scale) -> range:
    """Node ids of the last ``confined_communities`` communities (the churn region)."""
    total = sum(scale.communities)
    tail = sum(scale.communities[-scale.confined_communities :])
    return range(total - tail, total)


def reach_pool(graph: DiGraph, count: int, seed: int) -> List[ReachRequest]:
    """``count`` mixed positive/negative reachability requests drawn from ``seed``.

    Shuffled: the sampler emits its forward-walk positives first and its
    uniform pairs last, and a batch should hold the mix, not one half of it.
    """
    pairs = sample_mixed_pairs(graph, count, seed=seed)
    random.Random(seed).shuffle(pairs)
    return [ReachRequest(source, target) for source, target in pairs]


def pattern_log(graph: DiGraph, count: int) -> List[PatternRequest]:
    """The fixed pattern query log: half simulation, half subgraph, shape (4, 8)."""
    workload = generate_pattern_workload(
        graph, shape=PATTERN_SHAPE, count=count, seed=DATASET_SEED
    )
    return [
        PatternRequest(
            query.pattern,
            query.personalized_match,
            semantics="simulation" if index % 2 == 0 else "subgraph",
        )
        for index, query in enumerate(workload.queries)
    ]


def zipf_indices(rng: random.Random, population: int, count: int, s: float = 1.0) -> List[int]:
    """``count`` draws from ``range(population)`` with P(rank r) ∝ 1/(r+1)^s."""
    cumulative = list(accumulate(1.0 / (rank + 1) ** s for rank in range(population)))
    return rng.choices(range(population), cum_weights=cumulative, k=count)


def poisson_schedule(rng: random.Random, rate: float, duration: float) -> List[float]:
    """Arrival offsets in ``[0, duration)`` with exponential inter-arrival gaps."""
    offsets: List[float] = []
    clock = rng.expovariate(rate)
    while clock < duration:
        offsets.append(clock)
        clock += rng.expovariate(rate)
    return offsets


def zipf_mix(
    rng: random.Random,
    reach: Sequence[ReachRequest],
    patterns: Sequence[PatternRequest],
    count: int,
    pattern_share: float = 0.1,
) -> List[Any]:
    """``count`` requests: ``pattern_share`` patterns, Zipf(1.0) popularity per pool.

    Every draw is a fresh request object, as a server receives them: the
    fingerprint memo lives on the object, so reusing pool objects would
    hide the per-arrival sha1 the cache probe costs.
    """
    kinds = [rng.random() < pattern_share for _ in range(count)]
    reach_draws = iter(zipf_indices(rng, len(reach), count))
    pattern_draws = iter(zipf_indices(rng, len(patterns), count))
    return [
        replace(patterns[next(pattern_draws)] if is_pattern else reach[next(reach_draws)])
        for is_pattern in kinds
    ]


def confined_delta_rounds(
    graph: DiGraph,
    confined: Sequence[NodeId],
    protected: Set[NodeId],
    rounds: int,
    round_deltas: int,
    delta_ops: int,
    seed: int,
) -> List[List[GraphDelta]]:
    """Rounds of deltas confined to one region, each ending in a node removal.

    The first ``round_deltas - 1`` deltas of a round rewire edges between
    confined nodes and are **size-neutral** (as many removals as
    insertions): ``|G|`` — and with it every ``⌊α·|G|⌋`` budget — stays put,
    so whether a cache flush happens does not depend on where a random walk
    of the graph size happens to cross a budget quantum.  The last delta
    removes one unprotected confined node, which forces the rebuild path:
    every round pays that cliff exactly once.  Every op is valid where it
    appears (a working copy is maintained).
    """
    rng = random.Random(seed)
    working = graph.copy()
    pool = [node for node in confined if node in working]
    members = set(pool)
    result: List[List[GraphDelta]] = []
    for _ in range(rounds):
        deltas: List[GraphDelta] = []
        for _ in range(round_deltas - 1):
            delta = GraphDelta()
            for _ in range(delta_ops // 2):
                source, target = _sample_confined_edge(rng, working, pool, members)
                delta.remove_edge(source, target)
                working.remove_edge(source, target)
                while True:
                    source, target = rng.choice(pool), rng.choice(pool)
                    if source != target and not working.has_edge(source, target):
                        break
                delta.add_edge(source, target)
                working.add_edge(source, target)
            deltas.append(delta)
        victim = rng.choice([node for node in pool if node not in protected])
        deltas.append(GraphDelta().remove_node(victim))
        working.remove_node(victim)
        pool.remove(victim)
        members.discard(victim)
        result.append(deltas)
    return result


def _sample_confined_edge(
    rng: random.Random, graph: DiGraph, pool: Sequence[NodeId], members: Set[NodeId]
) -> Tuple[NodeId, NodeId]:
    """An existing edge with both endpoints in the confined region."""
    while True:
        source = rng.choice(pool)
        targets = [target for target in graph.successors(source) if target in members]
        if targets:
            return source, rng.choice(targets)


# --------------------------------------------------------------------------- #
# Per-workload inputs
# --------------------------------------------------------------------------- #
@dataclass
class Inputs:
    """Everything one workload run hands to the service under test."""

    graph: DiGraph
    #: closed-loop and churn reads: one round is one pass over these calls.
    batches: List[List[Any]] = field(default_factory=list)
    #: mixed_open: cache warm-up, then per round one (offset, request) schedule
    #: of ``window_seconds`` (phase A) and one block of closed-loop requests (phase B).
    warmup: List[Any] = field(default_factory=list)
    windows: List[List[Tuple[float, Any]]] = field(default_factory=list)
    window_seconds: float = 0.0
    blocks: List[List[Any]] = field(default_factory=list)
    #: churn_subscribed: standing queries and delta rounds.
    subscriptions: List[Any] = field(default_factory=list)
    rounds: List[List[GraphDelta]] = field(default_factory=list)
    #: the fixed oracle sample and the direct-probe inputs (present in every workload).
    accuracy: List[Any] = field(default_factory=list)
    probe_reach: List[ReachRequest] = field(default_factory=list)
    probe_patterns: List[PatternRequest] = field(default_factory=list)


def _chunks(items: Sequence[Any], count: int) -> List[List[Any]]:
    """``items`` cut into ``count`` equal consecutive chunks (any remainder dropped)."""
    size = len(items) // count
    return [list(items[index * size : (index + 1) * size]) for index in range(count)]


def build_inputs(workload: Workload, scale: Scale, seed: int, seconds: float) -> Inputs:
    """Generate one workload's inputs from ``seed`` (graph, pattern log and
    accuracy sample are fixed).

    Pattern requests keep their log order inside a batch: a batch of 32
    heavy-tailed costs re-dealt per seed would move ``call_p90_ms`` by a
    fifth, so the seed deals the *order of the batches* instead.
    """
    graph = build_graph(workload.graph, scale)
    rng = random.Random(seed)
    inputs = Inputs(graph=graph)
    name = workload.name
    sample = reach_pool(graph, scale.accuracy_reach, DATASET_SEED)

    if name == "reach_serial":
        pool = reach_pool(graph, scale.reach_pool, seed)
        patterns = pattern_log(graph, scale.probe_patterns)
        inputs.batches = _chunks(pool, len(pool) // scale.reach_batch)
        inputs.accuracy = sample
    elif name in ("pattern_serial", "pattern_daemon"):
        pool = reach_pool(graph, scale.probe_reach, seed)
        patterns = pattern_log(graph, scale.pattern_pool)
        batches = _chunks(patterns, len(patterns) // scale.pattern_batch)
        inputs.batches = rng.sample(batches, len(batches))
        inputs.accuracy = patterns[: scale.accuracy_patterns]
    elif name == "mixed_open":
        pool = reach_pool(graph, scale.reach_pool, seed)
        patterns = pattern_log(graph, scale.open_patterns)
        # Every pattern once, most popular last, then Zipf traffic: the LRU
        # starts the run in (close to) its steady state.
        inputs.warmup = patterns[::-1] + zipf_mix(rng, pool, patterns, scale.open_warmup)
        # A round takes longer than its window, so ``seconds`` of them suffice.
        inputs.window_seconds = scale.open_window
        for _ in range(int(seconds / scale.open_window) + 2):
            offsets = poisson_schedule(rng, scale.open_rate, scale.open_window)
            inputs.windows.append(
                list(zip(offsets, zipf_mix(rng, pool, patterns, len(offsets))))
            )
            inputs.blocks.append(zipf_mix(rng, pool, patterns, scale.open_block))
        inputs.accuracy = sample + patterns[: scale.accuracy_patterns]
    elif name == "churn_subscribed":
        pool = reach_pool(graph, scale.churn_reach, seed)
        patterns = pattern_log(graph, scale.churn_patterns)
        inputs.batches = [rng.sample(pool + patterns, len(pool) + len(patterns))]
        # Standing queries are configuration, not traffic: fixed.
        standing = reach_pool(graph, scale.churn_sub_reach, DATASET_SEED)
        inputs.subscriptions = patterns[: scale.churn_sub_patterns] + standing
        inputs.accuracy = sample + patterns
        # No delta removes a node some read or standing request names.
        protected = {request.personalized_match for request in patterns}
        protected.update(
            node for request in pool + standing for node in (request.source, request.target)
        )
        inputs.rounds = confined_delta_rounds(
            graph,
            confined_nodes(scale),
            protected,
            rounds=scale.churn_rounds,
            round_deltas=scale.churn_round_deltas,
            delta_ops=scale.churn_delta_ops,
            seed=seed,
        )
    else:  # community_sharded
        pool = reach_pool(graph, scale.shard_reach, seed)
        patterns = pattern_log(graph, scale.shard_patterns)
        batches = [
            reach + pattern
            for reach, pattern in zip(
                _chunks(pool, scale.shard_batches), _chunks(patterns, scale.shard_batches)
            )
        ]
        inputs.batches = rng.sample(batches, len(batches))
        inputs.accuracy = sample + patterns[: scale.accuracy_patterns]

    inputs.probe_reach = pool[: scale.probe_reach]
    inputs.probe_patterns = patterns[: scale.probe_patterns]
    return inputs
