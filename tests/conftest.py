"""Shared fixtures: the Figure 1 social graph, small surrogates, and patterns.

Also the session-wide shared-memory leak check: every test session asserts,
at teardown, that no ``repro_shm_*`` segment survives in ``/dev/shm`` — the
cleanup contract of :mod:`repro.graph.shm` (owner closes ⇒ name unlinked),
enforced for the whole suite rather than test by test.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.graph.digraph import DiGraph
from repro.graph.generators import preferential_attachment_graph, random_graph
from repro.patterns.pattern import GraphPattern, example1_pattern

SHM_DIR = "/dev/shm"

# The long run of the stateful fuzzer (``tests/test_service_stateful.py``):
# ``pytest --hypothesis-profile=nightly`` loads it before collection, which
# is why it is registered here and not in the test module.
settings.register_profile("nightly", max_examples=300, stateful_step_count=20)


def _repro_segments() -> "list[str]":
    """Live ``repro_shm_*`` names in ``/dev/shm`` (empty off-POSIX)."""
    from repro.graph.shm import SEGMENT_PREFIX

    try:
        entries = os.listdir(SHM_DIR)
    except OSError:  # pragma: no cover - no /dev/shm on this platform
        return []
    return sorted(entry for entry in entries if entry.startswith(SEGMENT_PREFIX))


@pytest.fixture(scope="session", autouse=True)
def shm_leak_check():
    """Fail the session if any test leaks a shared-memory segment.

    Pre-existing segments (a crashed earlier run, a concurrent session) are
    excluded so the check only blames this session's tests.
    """
    before = set(_repro_segments())
    yield
    leaked = [name for name in _repro_segments() if name not in before]
    assert not leaked, (
        f"shared-memory segments leaked by this test session: {leaked}; "
        "every SharedCSRGraph owner must be closed (engines: call close() "
        "or use the context manager)"
    )


def build_example1_graph() -> DiGraph:
    """A small instance of the paper's Figure 1 social graph.

    Michael knows three hiking-group members (HG), three cycling-club members
    (CC) and the graph contains four cycling lovers (CL).  Under both strong
    simulation and subgraph isomorphism the query of Example 1 has answer
    ``{"cl3", "cl4"}``:

    * cc1 and cc3 are CC members with a CL child; cc2 has none;
    * hg3 is the only HG member whose CL child also has a CC parent;
    * cl3 and cl4 have both a qualifying CC parent and the HG parent hg3.
    """
    graph = DiGraph()
    graph.add_node("Michael", "Michael")
    for name in ("hg1", "hg2", "hg3"):
        graph.add_node(name, "HG")
    for name in ("cc1", "cc2", "cc3"):
        graph.add_node(name, "CC")
    for name in ("cl1", "cl2", "cl3", "cl4"):
        graph.add_node(name, "CL")
    for name in ("hg1", "hg2", "hg3", "cc1", "cc2", "cc3"):
        graph.add_edge("Michael", name)
    graph.add_edge("cc1", "cl3")
    graph.add_edge("cc3", "cl3")
    graph.add_edge("cc3", "cl4")
    graph.add_edge("hg3", "cl3")
    graph.add_edge("hg3", "cl4")
    graph.add_edge("hg1", "cl1")
    return graph


@pytest.fixture
def example1_graph() -> DiGraph:
    """The Figure 1 graph."""
    return build_example1_graph()


@pytest.fixture
def example1_query() -> GraphPattern:
    """The Figure 1 pattern query."""
    return example1_pattern()


@pytest.fixture(scope="session")
def small_social_graph() -> DiGraph:
    """A 600-node scale-free graph shared by the heavier tests."""
    return preferential_attachment_graph(
        num_nodes=600, edges_per_node=2, seed=13, back_edge_probability=0.08
    )


@pytest.fixture(scope="session")
def small_random_graph() -> DiGraph:
    """A 400-node uniform random graph (|E| = 2|V|)."""
    return random_graph(num_nodes=400, num_edges=800, seed=21)


@pytest.fixture
def diamond_dag() -> DiGraph:
    """A tiny DAG: a -> b -> d, a -> c -> d, plus a tail d -> e."""
    graph = DiGraph()
    for name, label in [("a", "A"), ("b", "B"), ("c", "C"), ("d", "D"), ("e", "E")]:
        graph.add_node(name, label)
    graph.add_edge("a", "b")
    graph.add_edge("a", "c")
    graph.add_edge("b", "d")
    graph.add_edge("c", "d")
    graph.add_edge("d", "e")
    return graph


@pytest.fixture
def two_cycle_graph() -> DiGraph:
    """Two 3-cycles connected by a single bridge edge."""
    graph = DiGraph()
    for node in range(6):
        graph.add_node(node, "X")
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    graph.add_edge(2, 0)
    graph.add_edge(3, 4)
    graph.add_edge(4, 5)
    graph.add_edge(5, 3)
    graph.add_edge(2, 3)
    return graph
