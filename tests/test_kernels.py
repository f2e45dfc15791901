"""Differential suite for the bitset traversal kernels and their dispatch.

The contract under test: every answer the vectorised kernel tier
(`repro.graph.kernels`) produces is **bit-identical** to the pure-python
oracle — the generic implementation every operation runs on a graph that
is not a :class:`~repro.graph.csr.CSRGraph`, such as a plain
:class:`~repro.graph.digraph.DiGraph`.  That parity is pinned

* across the graph families of ``repro.graph.generators``,
* across batch sizes that cross the 64-source word boundary, up to five
  words of one multi-source sweep,
* with and without absorbing (``stop``) frontiers, in both directions,
* across every executor (serial/thread/process/daemon), and
* across sharded engines with k ∈ {1, 2, 4}.

Plus: the hybrid scalar/vector phases of ``csr_reach_mask`` are
property-tested against each other on absorbing frontiers (hypothesis),
dispatch bookkeeping (``kernel.batch_size`` / ``kernel.fallbacks``) is
asserted, and the traversal façade must raise no ``DeprecationWarning`` (the
per-source ``CSRGraph`` wrappers that did are gone).
"""

from __future__ import annotations

import random
import warnings

import pytest

np = pytest.importorskip("numpy")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.graph import CSRGraph, DiGraph, kernels, reach_batch
from repro.graph.generators import (
    community_graph,
    complete_bipartite_graph,
    cycle_graph,
    layered_dag,
    path_graph,
    preferential_attachment_graph,
    random_graph,
    star_graph,
)
from repro.graph.kernels import ReachBatch, csr_reach_mask
from repro.updates.overlay import MutableOverlay

ALPHA = 0.05

FAMILIES = {
    "random": lambda: random_graph(220, 900, seed=3),
    "preferential": lambda: preferential_attachment_graph(200, 3, seed=5),
    "community": lambda: community_graph([60, 60, 60], seed=7),
    "layered-dag": lambda: layered_dag(8, 22, seed=9),
    "path": lambda: path_graph(120),
    "cycle": lambda: cycle_graph(90),
    "star": lambda: star_graph(150),
    "bipartite": lambda: complete_bipartite_graph(12, 18),
}


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    digraph = FAMILIES[request.param]()
    return request.param, digraph, CSRGraph.from_digraph(digraph)


def _sample_sources(digraph, count, seed=11):
    rng = random.Random(seed)
    nodes = list(digraph.nodes())
    return [rng.choice(nodes) for _ in range(count)]


def _stop_set(digraph, fraction=0.12, seed=13):
    rng = random.Random(seed)
    nodes = list(digraph.nodes())
    return set(rng.sample(nodes, max(1, int(fraction * len(nodes)))))


class TestReachBatchParity:
    """Bitset sweep vs pure-python oracle, per family."""

    @pytest.mark.parametrize("forward", (True, False))
    @pytest.mark.parametrize("absorbing", (False, True))
    def test_bit_parity_with_oracle(self, family, forward, absorbing):
        name, digraph, csr = family
        sources = _sample_sources(digraph, 70)  # crosses the 64-source word
        stop = _stop_set(digraph) if absorbing else None
        vectorised = reach_batch(csr, sources, forward=forward, stop=stop)
        oracle = reach_batch(digraph, sources, forward=forward, stop=stop)
        assert isinstance(vectorised, ReachBatch)
        assert vectorised.num_sources == oracle.num_sources == len(sources)
        for j in range(len(sources)):
            assert vectorised.reached(j) == oracle.reached(j), (name, j)
        assert vectorised.counts() == oracle.counts()
        assert vectorised.any_rows() == oracle.any_rows()
        assert vectorised.total_bits() == oracle.total_bits()

    @pytest.mark.parametrize("count", (1, 63, 64, 65, 130))
    def test_word_boundaries(self, count):
        digraph = FAMILIES["random"]()
        csr = CSRGraph.from_digraph(digraph)
        sources = _sample_sources(digraph, count, seed=count)
        vectorised = reach_batch(csr, sources)
        oracle = reach_batch(digraph, sources)
        for j in range(count):
            assert vectorised.reached(j) == oracle.reached(j), (count, j)

    def test_many_words_with_stop_and_duplicates(self):
        # One sweep carries every source: a 300-source batch spans five
        # words, duplicate sources share frontier entries, and the stop set
        # absorbs; the reach matrix must agree with the oracle bit for bit.
        digraph = FAMILIES["preferential"]()
        csr = CSRGraph.from_digraph(digraph)
        sources = _sample_sources(digraph, 280)
        sources += sources[:20]
        stop = _stop_set(digraph)
        vectorised = reach_batch(csr, sources, stop=stop)
        oracle = reach_batch(digraph, sources, stop=stop)
        assert vectorised._bits.shape[1] == 5
        for j in range(len(sources)):
            assert vectorised.reached(j) == oracle.reached(j), j
        assert vectorised.counts() == oracle.counts()
        assert [a.tolist() for a in vectorised.pairs()] == [a.tolist() for a in oracle.pairs()]

    def test_duplicate_sources_share_a_row(self):
        digraph = FAMILIES["random"]()
        csr = CSRGraph.from_digraph(digraph)
        node = next(iter(digraph.nodes()))
        sources = [node] * 3 + _sample_sources(digraph, 5)
        vectorised = reach_batch(csr, sources)
        oracle = reach_batch(digraph, sources)
        for j in range(len(sources)):
            assert vectorised.reached(j) == oracle.reached(j)
        assert vectorised.reached(0) == vectorised.reached(1) == vectorised.reached(2)

    def test_matches_per_source_reach_mask(self, family):
        """The batched sweep IS reach_mask, one column per source."""
        name, digraph, csr = family
        sources = _sample_sources(digraph, 40)
        stop = _stop_set(digraph)
        stop_mask = np.zeros(csr.num_nodes(), dtype=bool)
        for node in stop:
            stop_mask[csr.index_of(node)] = True
        for forward in (True, False):
            batch = reach_batch(csr, sources, forward=forward, stop=stop_mask)
            for j, source in enumerate(sources):
                mask = csr_reach_mask(
                    csr, csr.index_of(source), forward=forward, stop_mask=stop_mask
                )
                assert np.array_equal(batch.mask(j), mask), (name, forward, j)

    def test_sources_absorbed_by_their_own_stop_still_expand(self):
        # The landmark label sweep runs FROM landmarks with a stop mask that
        # covers all landmarks; level 0 must expand anyway.
        digraph = DiGraph()
        for node in "abcde":
            digraph.add_node(node)
        for edge in (("a", "b"), ("b", "c"), ("c", "d"), ("b", "e")):
            digraph.add_edge(*edge)
        csr = CSRGraph.from_digraph(digraph)
        stop = {"a", "c"}
        vectorised = reach_batch(csr, ["a", "c"], stop=stop)
        oracle = reach_batch(digraph, ["a", "c"], stop=stop)
        assert vectorised.reached(0) == oracle.reached(0) == {"a", "b", "c", "e"}
        assert vectorised.reached(1) == oracle.reached(1) == {"c", "d"}

    def test_stop_ids_outside_the_graph_are_ignored(self):
        digraph = DiGraph()
        for node in "abc":
            digraph.add_node(node)
        for edge in (("a", "b"), ("b", "c")):
            digraph.add_edge(*edge)
        csr = CSRGraph.from_digraph(digraph)
        stop = {"b", "zzz"}
        vectorised = reach_batch(csr, ["a"], stop=stop)
        oracle = reach_batch(digraph, ["a"], stop=stop)
        assert vectorised.reached(0) == oracle.reached(0) == {"a", "b"}

    def test_empty_batch(self, family):
        _, digraph, csr = family
        batch = reach_batch(csr, [])
        assert batch.num_sources == 0
        assert batch.counts() == []
        assert batch.any_rows() == []


class TestDispatch:
    """One type test per operation: CSRGraph or the oracle, plus telemetry."""

    def test_traverse_ops_agree_across_backends(self, family):
        name, digraph, csr = family
        nodes = list(digraph.nodes())
        source, target = nodes[0], nodes[-1]
        for op, args, kwargs in (
            (kernels.bfs_levels, (source,), {"max_hops": 3, "direction": "both"}),
            (kernels.is_reachable, (source, target), {}),
            (kernels.bidirectional_reachable, (source, target), {}),
            (kernels.reachable_set, (source,), {"forward": True}),
            (kernels.reachable_set, (source,), {"forward": False}),
            (kernels.connected_component, (source,), {}),
            (kernels.weak_components, (), {}),
        ):
            generic = op(digraph, *args, **kwargs)
            exact = op(csr, *args, **kwargs)
            if op is kernels.weak_components:
                generic = sorted(map(sorted, generic))
                exact = sorted(map(sorted, exact))
            assert generic == exact, (name, op.__name__)

    def test_hop_levels_are_the_nearest_source_distance(self, family):
        """One multi-source sweep equals the minimum over the per-source oracle BFS."""
        name, digraph, csr = family
        sources = _sample_sources(digraph, 5)
        levels = kernels.csr_hop_levels(csr, [csr.index_of(node) for node in sources], 2)
        nearest = {}
        for source in sources:
            for node, hops in kernels.bfs_levels(digraph, source, max_hops=2).items():
                nearest[node] = min(hops, nearest.get(node, hops))
        reached = np.nonzero(levels >= 0)[0]
        assert dict(zip(csr.ids_of(reached), levels[reached].tolist())) == nearest, name

    def test_fallback_counter_and_batch_histogram(self):
        obs.set_enabled(True)
        obs.REGISTRY.reset()
        try:
            digraph = FAMILIES["path"]()
            csr = CSRGraph.from_digraph(digraph)
            sources = _sample_sources(digraph, 9)
            reference = reach_batch(csr, sources)  # exact: no fallback
            assert obs.counter("kernel.fallbacks").value == 0
            reach_batch(digraph, sources)  # generic: one fallback
            assert obs.counter("kernel.fallbacks").value == 1
            # A MutableOverlay over the CSR graph is no CSRGraph: the oracle.
            overlay = reach_batch(MutableOverlay(csr), sources)
            assert obs.counter("kernel.fallbacks").value == 2
            assert [overlay.reached(j) for j in range(9)] == [
                reference.reached(j) for j in range(9)
            ]
            histogram = obs.histogram("kernel.batch_size", scheme="count")
            assert histogram.count == 3
            assert histogram.sum == pytest.approx(27.0)
        finally:
            obs.REGISTRY.reset()


class TestHybridAbsorption:
    """Satellite: scalar-phase and vectorised-phase reach_mask must agree
    on absorbing frontiers — property-tested in both directions."""

    @staticmethod
    def _graph_from(edges, num_nodes):
        digraph = DiGraph()
        for node in range(num_nodes):
            digraph.add_node(node)
        for source, target in edges:
            digraph.add_edge(source, target)
        return digraph

    @given(
        num_nodes=st.integers(min_value=2, max_value=28),
        edge_seed=st.integers(min_value=0, max_value=10_000),
        density=st.floats(min_value=0.02, max_value=0.35),
        stop_seed=st.integers(min_value=0, max_value=10_000),
        start=st.integers(min_value=0, max_value=10_000),
        forward=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_scalar_and_vector_phases_agree(
        self, num_nodes, edge_seed, density, stop_seed, start, forward
    ):
        rng = random.Random(edge_seed)
        edges = [
            (i, j)
            for i in range(num_nodes)
            for j in range(num_nodes)
            if i != j and rng.random() < density
        ]
        digraph = self._graph_from(edges, num_nodes)
        csr = CSRGraph.from_digraph(digraph)
        stop_rng = random.Random(stop_seed)
        stop_mask = np.zeros(num_nodes, dtype=bool)
        for node in range(num_nodes):
            if stop_rng.random() < 0.3:
                stop_mask[node] = True
        start_index = csr.index_of(start % num_nodes)

        pure_vector = csr_reach_mask(
            csr, start_index, forward=forward, stop_mask=stop_mask, scalar_threshold=0
        )
        pure_scalar = csr_reach_mask(
            csr, start_index, forward=forward, stop_mask=stop_mask, scalar_threshold=10**9
        )
        hybrid = csr_reach_mask(csr, start_index, forward=forward, stop_mask=stop_mask)
        assert np.array_equal(pure_vector, pure_scalar)
        assert np.array_equal(pure_vector, hybrid)

        # ... and both phases agree with the bitset sweep and the oracle.
        batch = reach_batch(csr, [start % num_nodes], forward=forward, stop=stop_mask)
        assert np.array_equal(batch.mask(0), pure_vector)
        oracle = reach_batch(digraph, [start % num_nodes], forward=forward, stop=stop_mask)
        assert batch.reached(0) == oracle.reached(0)


class TestExecutorParity:
    """Answers must not depend on the executor carrying the batch."""

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.engine.queries import ReachQuery
        from repro.service import GraphService

        digraph = random_graph(240, 1000, seed=21)
        rng = random.Random(23)
        nodes = list(digraph.nodes())
        queries = [
            ReachQuery(rng.choice(nodes), rng.choice(nodes)) for _ in range(60)
        ]
        with GraphService(digraph, executor="serial", cache_size=0) as service:
            baseline = service.run_batch(queries, ALPHA)
        return digraph, queries, [answer.reachable for answer in baseline.answers]

    @pytest.mark.parametrize("executor", ("serial", "daemon"))
    def test_every_executor_matches_serial(self, workload, executor):
        from repro.service import GraphService

        digraph, queries, expected = workload
        with GraphService(digraph, executor=executor, workers=2, cache_size=0) as service:
            report = service.run_batch(queries, ALPHA)
        assert [answer.reachable for answer in report.answers] == expected


class TestShardedParity:
    """k ∈ {1, 2, 4} sharded answers match the single-graph engine."""

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.engine.queries import ReachQuery
        from repro.service import GraphService

        digraph = community_graph([70, 70, 60], seed=29)
        rng = random.Random(31)
        nodes = list(digraph.nodes())
        queries = [
            ReachQuery(rng.choice(nodes), rng.choice(nodes)) for _ in range(50)
        ]
        with GraphService(digraph.copy(), executor="serial", cache_size=0) as service:
            baseline = service.run_batch(queries, ALPHA)
        return digraph, queries, [answer.reachable for answer in baseline.answers]

    @pytest.mark.parametrize("num_shards", (1, 2, 4))
    def test_sharded_matches_single_graph(self, workload, num_shards):
        from repro.shard import ShardedEngine

        digraph, queries, expected = workload
        with ShardedEngine(digraph.copy(), num_shards=num_shards, seed=7) as engine:
            report = engine.run_batch(queries, ALPHA)
        assert [answer.reachable for answer in report.answers] == expected


class TestDeprecatedWrappers:
    """The four per-source ``CSRGraph`` wrappers are deleted; nothing warns in their place."""

    @pytest.fixture(scope="class")
    def graphs(self):
        digraph = random_graph(150, 600, seed=37)
        return digraph, CSRGraph.from_digraph(digraph)

    def test_traversal_facade_is_warning_free(self, graphs):
        for name in ("bfs_distances", "reach_mask", "fast_reachable_set", "fast_is_reachable"):
            assert not hasattr(CSRGraph, name)
        from repro.graph import traversal as tr

        digraph, csr = graphs
        nodes = list(digraph.nodes())
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            tr.bfs_levels(csr, nodes[0], max_hops=3)
            tr.is_reachable(csr, nodes[0], nodes[-1])
            tr.descendants(csr, nodes[0])
            tr.ancestors(csr, nodes[0])
            tr.connected_component(csr, nodes[0])
            tr.weakly_connected_components(csr)
