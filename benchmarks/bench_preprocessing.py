"""Micro-benchmarks for the once-for-all preprocessing steps.

The paper's online bounds exclude the offline preprocessing (Section 3,
"Remarks"), but its cost still matters to adopters.  These benchmarks time
the three preprocessing components on the small surrogates:

* the neighbourhood (``Sl``) summaries used by RBSim / RBSub,
* the reachability-preserving compression (SCC condensation), and
* the hierarchical landmark index construction (RBIndex).
"""


from repro.graph.csr import freeze
from repro.graph.neighborhood import NeighborhoodIndex
from repro.reachability.compression import compress
from repro.reachability.hierarchy import build_index


def test_neighborhood_summaries_precompute(benchmark, youtube_small):
    """Offline Sl summary pass over the whole Youtube surrogate: the
    ``label_presence`` sweep of a fresh freeze (the freeze itself untimed)."""

    def precompute(graph):
        return NeighborhoodIndex(graph).graph.label_presence()

    children, parents = benchmark.pedantic(
        precompute, setup=lambda: ((freeze(youtube_small),), {}), rounds=20, iterations=1
    )
    assert children.shape[0] == parents.shape[0] == youtube_small.num_nodes()


def test_reachability_compression(benchmark, yahoo_small):
    """SCC condensation of the Yahoo surrogate."""
    compressed = benchmark(compress, yahoo_small)
    assert compressed.dag.num_nodes() <= yahoo_small.num_nodes()
    assert compressed.compression_ratio() <= 1.0


def test_hierarchical_index_build(benchmark, youtube_small):
    """RBIndex construction at alpha = 2%."""
    compressed = compress(youtube_small)

    def build():
        return build_index(compressed, 0.02, reference_size=youtube_small.size())

    index = benchmark(build)
    assert index.size() <= max(2, int(0.02 * youtube_small.size()))
    assert index.num_landmarks() >= 1


def test_simulation_preserving_compression(benchmark, youtube_small):
    """Query-preserving (bisimulation) compression of the Youtube surrogate."""
    from repro.graph.bisimulation import compress_for_simulation

    compressed = benchmark.pedantic(compress_for_simulation, args=(youtube_small,), rounds=1, iterations=1)
    assert compressed.compression_ratio() <= 1.0
    assert compressed.quotient.num_nodes() <= youtube_small.num_nodes()
