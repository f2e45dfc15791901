"""``RBReach``'s promises, checked against plain BFS.

* every answer spends at most ``visit_limit`` visits (``α·|G|``);
* a ``True`` answer is never a false positive: BFS finds a path;
* a ``False`` answer below the budget (``exhausted`` unset) is exact: BFS
  finds no path.  Only an exhausted ``False`` may be a false negative.

The first three are checked on the end-to-end benchmark's reachability
pools (``youtube`` at α 0.02, the 80-community graph at α 0.01, built as
``benchmarks/e2e/workloads.py`` builds them), the last two also on
hypothesis-drawn random DAGs, and the first two on every pair of 300
seeded small DAGs at α 0.05 and 0.2, where the seed labels alone may pass
the limit.  A hand-built pair whose only path carries no landmark shows the
second stage: the DAG search answers it ``True`` where the index search
alone runs dry, and at a tiny α the same pair runs out of budget and says
so.
"""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

_E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
if str(_E2E) not in sys.path:
    sys.path.insert(0, str(_E2E))

from workloads import FULL, build_graph, reach_pool  # noqa: E402

from repro import obs  # noqa: E402
from repro.engine.prepared import PreparedGraph  # noqa: E402
from repro.graph import kernels  # noqa: E402
from repro.graph.csr import CSRGraph  # noqa: E402
from repro.graph.digraph import DiGraph  # noqa: E402
from repro.graph.traversal import is_reachable  # noqa: E402
from repro.reachability.rbreach import RBReach  # noqa: E402

POOL_SEED = 11
POOL_SIZE = 2048
#: graph kind -> alpha, as the end-to-end workloads serve them
GRAPHS = {"youtube": 0.02, "community": 0.01}


def bfs_truth(graph, pairs):
    """Whether each pair's target is reachable, by batched BFS on the original graph."""
    csr = CSRGraph.from_digraph(graph)
    sources = sorted({source for source, _ in pairs})
    masks = {}
    for start in range(0, len(sources), 256):
        chunk = sources[start : start + 256]
        batch = kernels.reach_batch(csr, chunk)
        masks.update((source, batch.mask(j)) for j, source in enumerate(chunk))
    return [bool(masks[source][csr.index_of(target)]) for source, target in pairs]


def assert_contract(matcher, pairs, truth):
    limit = matcher.visit_limit
    for (source, target), answer, reachable in zip(pairs, matcher.query_batch(pairs), truth):
        assert answer.visited <= limit, (source, target, answer)
        if answer.reachable:
            assert reachable, f"false positive {(source, target)}: {answer}"
        elif not answer.exhausted:
            assert not reachable, f"unexhausted false negative {(source, target)}: {answer}"


@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_pool_answers_keep_the_contract(kind):
    graph = build_graph(kind, FULL)
    matcher = PreparedGraph(graph).rbreach(GRAPHS[kind])
    pairs = [(request.source, request.target) for request in reach_pool(graph, POOL_SIZE, POOL_SEED)]
    truth = bfs_truth(graph, pairs)
    assert_contract(matcher, pairs, truth)
    # Both kinds of pair are present, so neither half of the contract is vacuous.
    assert 0 < sum(truth) < len(truth)


@st.composite
def dags(draw):
    """A random DAG on ``0..n-1``: every edge runs from a lower id to a higher one."""
    n = draw(st.integers(min_value=2, max_value=14))
    pairs = [(low, high) for low in range(n) for high in range(low + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True))
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node, "A")
    for source, target in edges:
        graph.add_edge(source, target)
    return graph


@settings(max_examples=60, deadline=None)
@given(graph=dags(), alpha=st.sampled_from((0.05, 0.2, 0.5, 1.0)))
def test_random_dag_answers_are_sound_and_exact_below_the_budget(graph, alpha):
    matcher = RBReach.from_graph(graph, alpha)
    nodes = sorted(graph.nodes())
    for source in nodes:
        for target in nodes:
            answer = matcher.query(source, target)
            reachable = is_reachable(graph, source, target)
            if answer.reachable:
                assert reachable, (source, target, answer)
            elif not answer.exhausted:
                assert not reachable, (source, target, answer)


def hub_and_chain() -> DiGraph:
    """Two hubs the landmark pick prefers, beside a three-node chain ``x0 → x1 → x2``."""
    graph = DiGraph()
    for node in ("hub", "bub", "x0", "x1", "x2", *(f"s{i}" for i in range(10)), *(f"t{i}" for i in range(10))):
        graph.add_node(node, "A")
    for i in range(10):
        for hub in ("hub", "bub"):
            graph.add_edge(f"s{i}", hub)
            graph.add_edge(hub, f"t{i}")
    graph.add_edge("x0", "x1")
    graph.add_edge("x1", "x2")
    return graph


def test_landmark_free_path_is_found_by_the_dag_search():
    graph = hub_and_chain()
    matcher = RBReach.from_graph(graph, 0.3)
    compressed = matcher.index.compressed
    chain = [compressed.component_of(node) for node in ("x0", "x1", "x2")]
    assert matcher.index.num_landmarks() and not any(map(matcher.index.is_landmark, chain))
    hits = obs.counter("rbreach.local_hits")
    before = hits.value
    answer = matcher.query("x0", "x2")
    # One seed charge, then x0 expanded, x0 → x1 scanned, x1 expanded, x1 → x2 meets.
    assert (answer.reachable, answer.visited, answer.met_at, answer.exhausted) == (True, 5, chain[2], False)
    # s0 outranks x2 but reaches only the hub side: the DAG search runs its
    # forward side dry below the budget, so the ``False`` is exact.
    apart = matcher.query("s0", "x2")
    assert not apart.reachable and not apart.exhausted and apart.visited > 1
    # A landmark meeting is no local hit.
    assert matcher.query("s0", "t0").reachable
    assert hits.value - before == (1 if obs.enabled() else 0)


def test_landmark_free_path_at_a_tiny_alpha_is_an_exhausted_false():
    graph = hub_and_chain()
    matcher = RBReach.from_graph(graph, 0.05)
    compressed = matcher.index.compressed
    chain = [compressed.component_of(node) for node in ("x0", "x1", "x2")]
    assert not any(map(matcher.index.is_landmark, chain))
    answer = matcher.query("x0", "x2")
    assert (answer.reachable, answer.visited, answer.exhausted) == (False, matcher.visit_limit, True)
    # The DAG search stops mid-row at the limit: the hub has ten children to scan.
    assert matcher.query("hub", "x2").visited == matcher.visit_limit
    assert all(matcher.query(source, target).visited <= matcher.visit_limit for source in graph for target in graph)


def random_dag(seed: int) -> DiGraph:
    """A seeded random DAG of 3 to 14 nodes: every edge runs from a lower id to a higher one."""
    rng = random.Random(seed)
    n = rng.randint(3, 14)
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node, "A")
    pairs = [(low, high) for low in range(n) for high in range(low + 1, n)]
    for source, target in rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n))):
        graph.add_edge(source, target)
    return graph


@pytest.mark.parametrize("alpha", [0.05, 0.2])
def test_no_answer_spends_past_the_limit_on_small_dags(alpha):
    """At a small limit the seed labels alone can cost more than the budget:
    such a pair reads nothing further and is an exhausted ``False``."""
    answers = at_limit = 0
    for seed in range(300):
        graph = random_dag(seed)
        matcher = RBReach.from_graph(graph, alpha)
        limit = matcher.visit_limit
        for source in graph.nodes():
            for target in graph.nodes():
                answer = matcher.query(source, target)
                answers += 1
                assert answer.visited <= limit, (seed, source, target, answer)
                if answer.reachable:
                    assert is_reachable(graph, source, target), (seed, source, target, answer)
                at_limit += answer.exhausted and answer.visited == limit
    assert at_limit, "the limit never bound: the check shows nothing"
    assert answers > 10_000
