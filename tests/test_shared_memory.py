"""The shared-memory graph tier (``repro.graph.shm``).

Three contracts under test:

* **round-trip** — ``CSRGraph.to_shared()`` → ``from_shared(name)`` hands
  back a structurally identical graph (nodes, labels, adjacency in order)
  whose arrays are zero-copy read-only views of the segment, for arbitrary
  graphs including empty, edgeless and string-keyed ones;
* **naming/cleanup** — owner close unlinks the ``/dev/shm`` name, attached
  handles only detach, close is idempotent, attachments are refcounted,
  and a process that exits without closing is swept by ``atexit``;
* **prepared-state publication** — ``SharedPreparedGraph.publish`` exports
  every CSR substrate once — and, beside the DAG mirror, the columns behind
  an array-backed condensation, its ranks and the landmark labels — workers
  attach by name and answer bit-identically to the parent's state, within
  a pickled-payload and an attach-allocation budget on the benchmark graph.

The session-scoped ``shm_leak_check`` fixture in ``conftest.py`` backs all
of this up by failing the whole run if any test leaks a segment.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from guard_reference import has_child_label, has_parent_label
from repro.engine.prepared import PreparedGraph, SharedPreparedGraph, publish_state
from repro.engine.queries import REACH, SIMULATION
from repro.exceptions import EngineError
from repro.graph import shm
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_graph
from repro.graph.shm import SEGMENT_PREFIX, SharedCSRGraph, active_segments, attachment_count
from repro.graph.traversal import bfs_order

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def segment_exists(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name))


def assert_same_graph(left: CSRGraph, right: CSRGraph) -> None:
    """Structural equality: nodes, labels, adjacency — all in order."""
    assert list(left.nodes()) == list(right.nodes())
    assert dict(left.labels()) == dict(right.labels())
    for node in left.nodes():
        assert list(left.successors(node)) == list(right.successors(node))
        assert list(left.predecessors(node)) == list(right.predecessors(node))


class TestRoundTrip:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_nodes=st.integers(min_value=1, max_value=120),
        edge_factor=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_round_trip_property(self, num_nodes, edge_factor, seed):
        num_edges = num_nodes * edge_factor if num_nodes > 1 else 0
        num_edges = min(num_edges, num_nodes * (num_nodes - 1))
        graph = CSRGraph.from_digraph(
            random_graph(num_nodes=num_nodes, num_edges=num_edges, seed=seed)
        )
        with graph.to_shared() as handle:
            attached = CSRGraph.from_shared(handle.name)
            try:
                assert_same_graph(graph, attached.graph)
            finally:
                attached.close()

    def test_traversal_parity(self):
        graph = CSRGraph.from_digraph(random_graph(num_nodes=200, num_edges=800, seed=3))
        with graph.to_shared() as handle:
            with CSRGraph.from_shared(handle.name) as attached:
                for start in list(graph.nodes())[:10]:
                    assert list(bfs_order(attached.graph, start)) == list(bfs_order(graph, start))

    def test_string_node_ids_and_labels(self):
        source = DiGraph()
        for name, label in [("alice", "A"), ("bob", "B"), ("carol", "A")]:
            source.add_node(name, label)
        source.add_edge("alice", "bob")
        source.add_edge("bob", "carol")
        graph = CSRGraph.from_digraph(source)
        with graph.to_shared() as handle:
            with SharedCSRGraph.attach(handle.name) as attached:
                assert_same_graph(graph, attached.graph)

    def test_edgeless_graph(self):
        source = DiGraph()
        source.add_node(0, "X")
        source.add_node(1, "Y")
        graph = CSRGraph.from_digraph(source)
        with graph.to_shared() as handle:
            with SharedCSRGraph.attach(handle.name) as attached:
                assert_same_graph(graph, attached.graph)

    def test_attached_arrays_are_read_only_views(self):
        graph = CSRGraph.from_digraph(random_graph(num_nodes=50, num_edges=100, seed=1))
        with graph.to_shared() as handle:
            with SharedCSRGraph.attach(handle.name) as attached:
                import numpy as np

                arr = attached.graph._succ_indices
                assert arr.base is not None  # a view, not a copy
                with pytest.raises((ValueError, RuntimeError)):
                    arr[0] = 99
                assert isinstance(arr, np.ndarray)


    def test_columns_ride_beside_the_graph(self):
        """Named columns publish in the graph's segment and attach as views of it."""
        import numpy as np

        graph = CSRGraph.from_digraph(random_graph(num_nodes=50, num_edges=100, seed=2))
        columns = {
            "wide": np.arange(50, dtype=np.int64) * 3,
            "narrow": np.arange(7, dtype=np.uint8),
            "empty": np.empty(0, dtype=np.int64),
        }
        with graph.to_shared(columns=columns) as handle:
            assert handle.columns.keys() == columns.keys()  # the owner reads them back too
            with SharedCSRGraph.attach(handle.name) as attached:
                assert_same_graph(graph, attached.graph)
                pages = np.frombuffer(attached._segment.buf, dtype=np.uint8)
                assert list(attached.columns) == list(columns)
                for name, column in columns.items():
                    view = attached.columns[name]
                    assert view.dtype == column.dtype and np.array_equal(view, column)
                    assert not view.flags.writeable and not view.flags.owndata
                    assert column.size == 0 or np.shares_memory(view, pages)
                del pages, view
        with graph.to_shared() as handle:
            assert handle.columns == {}


class TestNamingAndCleanup:
    def test_names_carry_prefix_and_pid(self):
        graph = CSRGraph.from_digraph(random_graph(num_nodes=10, num_edges=20, seed=0))
        with graph.to_shared() as handle:
            assert handle.name.startswith(f"{SEGMENT_PREFIX}{os.getpid()}_")
            assert segment_exists(handle.name)

    def test_owner_close_unlinks(self):
        graph = CSRGraph.from_digraph(random_graph(num_nodes=10, num_edges=20, seed=0))
        handle = graph.to_shared()
        name = handle.name
        assert segment_exists(name)
        assert name in active_segments()
        handle.close()
        assert not segment_exists(name)
        assert name not in active_segments()

    def test_attached_close_does_not_unlink(self):
        graph = CSRGraph.from_digraph(random_graph(num_nodes=10, num_edges=20, seed=0))
        with graph.to_shared() as handle:
            attached = SharedCSRGraph.attach(handle.name)
            assert not attached.owner
            attached.close()
            assert segment_exists(handle.name)  # owner still serving

    def test_close_is_idempotent_and_refcounted(self):
        graph = CSRGraph.from_digraph(random_graph(num_nodes=10, num_edges=20, seed=0))
        handle = graph.to_shared()
        name = handle.name
        first = SharedCSRGraph.attach(name)
        second = SharedCSRGraph.attach(name)
        assert attachment_count(name) == 3  # owner + two attachments
        first.close()
        first.close()  # idempotent
        assert attachment_count(name) == 2
        second.close()
        handle.close()
        assert attachment_count(name) == 0

    def test_closed_handle_refuses_materialisation(self):
        graph = CSRGraph.from_digraph(random_graph(num_nodes=10, num_edges=20, seed=0))
        handle = graph.to_shared()
        handle.close()
        with pytest.raises(ValueError):
            handle.graph

    def test_close_with_live_views_still_unlinks(self):
        graph = CSRGraph.from_digraph(random_graph(num_nodes=30, num_edges=60, seed=2))
        handle = graph.to_shared()
        live = handle.graph  # views keep the mapping alive past close()
        name = handle.name
        handle.close()
        assert not segment_exists(name)
        assert live.num_nodes() == graph.num_nodes()  # pages live until GC

    def test_pickle_round_trip_attaches_non_owner(self):
        graph = CSRGraph.from_digraph(random_graph(num_nodes=40, num_edges=80, seed=5))
        with graph.to_shared() as handle:
            clone = pickle.loads(pickle.dumps(handle))
            try:
                assert not clone.owner
                assert_same_graph(graph, clone.graph)
            finally:
                clone.close()
            assert segment_exists(handle.name)

    def test_atexit_sweep_unlinks_leaked_owner(self):
        """A process that exits without closing must not strand its segment."""
        script = (
            "from repro.graph.csr import CSRGraph\n"
            "from repro.graph.generators import random_graph\n"
            "handle = CSRGraph.from_digraph(random_graph(20, 40, seed=1)).to_shared()\n"
            "print(handle.name)\n"  # exit WITHOUT close: atexit must sweep
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": REPO_SRC},
        )
        name = result.stdout.strip().splitlines()[-1]
        assert name.startswith(SEGMENT_PREFIX)
        assert not segment_exists(name)


class TestSharedPreparedGraph:
    def test_publish_attach_parity(self):
        graph = random_graph(num_nodes=150, num_edges=600, seed=11)
        prepared = PreparedGraph(graph)
        prepared.prepare(REACH, 0.2)
        nodes = list(graph.nodes())
        pairs = list(zip(nodes[:20], nodes[5:25]))
        with publish_state(prepared) as handle:
            assert handle.segment_names()
            attached = handle.attach()
            reference = prepared.rbreach(0.2)
            matcher = attached.rbreach(0.2)
            for source, target in pairs:
                assert matcher.query(source, target) == reference.query(source, target)

    def test_attach_after_close_raises(self):
        graph = random_graph(num_nodes=30, num_edges=60, seed=1)
        handle = publish_state(PreparedGraph(graph))
        handle.close()
        with pytest.raises(EngineError):
            handle.attach()

    def test_publish_shares_substrate_not_pickles(self):
        """The CSR substrate rides in segments; the payload holds only indexes."""
        graph = random_graph(num_nodes=400, num_edges=1600, seed=7)
        prepared = PreparedGraph(graph)
        whole = len(pickle.dumps(prepared))
        with publish_state(prepared) as handle:
            assert handle.payload_bytes < whole
            assert len(handle.segment_names()) >= 1

    def test_summaries_attach_as_views_of_the_segment(self):
        """The ``Sl`` presence bits ride in the CSR segment, not in the payload."""
        import numpy as np

        graph = random_graph(num_nodes=300, num_edges=1200, seed=5)
        prepared = PreparedGraph(graph)
        prepared.prepare(SIMULATION, 0.2)
        assert prepared.graph._label_bits is not None  # complete at prepare time
        with publish_state(prepared) as handle:
            assert b"NeighborhoodSummary" not in handle._payload
            segment = next(iter(handle._segments.values()))._segment
            pages = np.frombuffer(segment.buf, dtype=np.uint8)
            attached = handle.attach()
            index = attached.neighborhood_index()
            assert index.graph is attached.graph  # the index reads the attached arrays
            for mine, theirs in zip(attached.graph.label_presence(), prepared.graph.label_presence()):
                assert not mine.flags.writeable and not mine.flags.owndata
                assert np.shares_memory(mine, pages)  # a view of the segment, no private copy
                assert np.array_equal(mine, theirs)
            assert index._child_words.readonly and index._parent_words.readonly
            assert np.shares_memory(np.asarray(index._child_words), pages)
            reference = prepared.neighborhood_index()
            for node in list(graph.nodes())[:40]:
                for label in graph.distinct_labels():
                    assert has_child_label(index, node, label) == has_child_label(reference, node, label)
                    assert has_parent_label(index, node, label) == has_parent_label(reference, node, label)

    def test_compression_attaches_as_views_of_the_mirror_segment(self):
        """A fresh CSR prepare publishes columns: no DAG, membership or members travels."""
        import numpy as np

        graph = random_graph(num_nodes=300, num_edges=700, seed=5)
        prepared = PreparedGraph(graph)
        prepared.prepare(REACH, 0.2)
        compressed = prepared.compressed()
        assert compressed.condensation.array_backed
        with publish_state(prepared) as handle:
            for container in (b"DiGraph", b"digraph", b"membership", b"members"):
                assert container not in handle._payload
            mirror_segment = handle._segments["csr1"]._segment  # csr0 is the substrate
            pages = np.frombuffer(mirror_segment.buf, dtype=np.uint8)
            attached = handle.attach().compressed()
            condensed = attached.condensation
            assert condensed.array_backed and attached.dag_view is attached.dag_csr
            assert (condensed._dag, condensed._membership, condensed._members) == (None, None, None)
            columns = attached.columns()
            assert sorted(columns) == ["compact", "member_offsets", "member_order", "ranks"]
            for name, column in columns.items():
                assert not column.flags.writeable and not column.flags.owndata, name
                assert np.shares_memory(column, pages), name  # a view of the segment
                assert np.array_equal(column, compressed.columns()[name]), name
            assert condensed._compact_view.readonly and attached.ranks._column_view.readonly
            assert np.shares_memory(np.asarray(condensed._compact_view), pages)
            assert np.shares_memory(np.asarray(attached.ranks._column_view), pages)
            for node in graph.nodes():
                assert attached.component_of(node) == compressed.component_of(node)
                assert attached.rank_of(node) == compressed.rank_of(node)
            for component in compressed.dag_csr.nodes():
                assert condensed.size_of(component) == compressed.condensation.size_of(component)
            # A worker that does ask gets the same containers, thawed locally.
            assert condensed.membership == compressed.condensation.membership
            assert condensed.members == compressed.condensation.members
            assert attached.ranks.ranks() == compressed.ranks.ranks()
            del pages, columns, column, attached, condensed

    def test_plain_pickle_keeps_the_columns_not_the_containers(self):
        graph = CSRGraph.from_digraph(random_graph(num_nodes=120, num_edges=300, seed=6))
        prepared = PreparedGraph(graph)
        prepared.prepare(REACH, 0.2)
        compressed = prepared.compressed()
        assert compressed.dag.num_nodes() and compressed.condensation.membership  # thawed here: must not travel
        payload = pickle.dumps(compressed)
        assert b"DiGraph" not in payload
        clone = pickle.loads(payload)
        assert clone.condensation.array_backed and clone.condensation._dag is None
        for node in graph.nodes():
            assert clone.component_of(node) == compressed.component_of(node)
            assert clone.rank_of(node) == compressed.rank_of(node)
        assert clone.condensation.members == compressed.condensation.members

    def test_youtube_payload_is_the_landmark_index_alone(self):
        """The benchmark graph at its α: what is pickled fits 70 kB, what attach builds 1.5 MB.

        The payload was 1.07 MB with the condensation pickled, then 217 kB
        with the label tables pickled as dicts of sets; attaching that
        allocated about 9 MB (label sets, id lists and id → row dicts).
        """
        import tracemalloc

        from repro.engine.queries import SUBGRAPH
        from repro.workloads.datasets import load_dataset

        prepared = PreparedGraph(load_dataset("youtube", seed=7))
        for kind in (REACH, SIMULATION, SUBGRAPH):
            prepared.prepare(kind, 0.02)
        with publish_state(prepared) as handle:
            assert handle.payload_bytes <= 70_000
            assert b"DiGraph" not in handle._payload
            tracemalloc.start()
            try:
                attached = handle.attach()
                allocated = tracemalloc.get_traced_memory()[1]  # the peak
            finally:
                tracemalloc.stop()
            assert allocated < 1_500_000
            del attached

    def test_fresh_csr_prepare_and_reach_batch_build_no_per_node_set(self):
        """Label tables are columns: prepare plus a reach batch leaves no set per DAG node.

        Counted over the garbage collector's live objects (a ``set`` cannot be
        instrumented like ``DiGraph.__init__``): what remains is the index's
        per-landmark edge and reach sets.
        """
        import gc
        import random

        from repro.engine.queries import ReachQuery
        from repro.service import GraphService

        graph = CSRGraph.from_digraph(random_graph(num_nodes=3000, num_edges=6000, seed=3))
        rng = random.Random(5)
        nodes = list(graph.nodes())
        queries = [ReachQuery(rng.choice(nodes), rng.choice(nodes)) for _ in range(200)]

        def live_sets() -> int:
            gc.collect()
            return sum(1 for obj in gc.get_objects() if type(obj) is set)

        before = live_sets()
        with GraphService(graph, executor="serial", cache_size=0) as service:
            service.prepare(reach_alphas=[0.02])
            assert any(answer.reachable for answer in service.run_batch(queries, 0.02).answers)
            index = service.prepared.reachability_index(0.02)
            grown = live_sets() - before
        budget = 4 * index.num_landmarks()
        assert grown <= budget < len(index.forward_labels) + len(index.backward_labels)

    def test_reach_only_state_publishes_no_summaries(self):
        graph = random_graph(num_nodes=100, num_edges=300, seed=5)
        prepared = PreparedGraph(graph)
        prepared.prepare(REACH, 0.2)
        with publish_state(prepared) as handle:
            assert handle.attach().graph._label_bits is None

    def test_mapping_of_states_publishes_every_substrate(self):
        """The sharded engine's ``{shard_id: ShardState}`` table publishes too."""
        from repro.shard.engine import ShardedEngine

        graph = random_graph(num_nodes=200, num_edges=800, seed=13)
        with ShardedEngine(graph, num_shards=2, seed=3) as engine:
            states = {
                shard_id: shard.prepared for shard_id, shard in engine.shards.items()
            }
            # Raw PreparedGraph mappings are not the duck-typed ShardState
            # shape, so exercise the real path through a daemon batch instead.
            del states
            from repro.engine.queries import ReachQuery

            nodes = list(graph.nodes())
            queries = [ReachQuery(nodes[i], nodes[-1 - i]) for i in range(10)]
            serial = engine.answer_batch(queries, 0.2)
            daemon = engine.run_batch(queries, 0.2, executor="daemon", workers=2).answers
            assert [a.reachable for a in daemon] == [a.reachable for a in serial]

    def test_leak_free_after_service_lifecycle(self):
        before = set(shm.active_segments())
        graph = random_graph(num_nodes=100, num_edges=400, seed=17)
        from repro.engine.queries import ReachQuery
        from repro.service import GraphService

        nodes = list(graph.nodes())
        queries = [ReachQuery(nodes[i], nodes[-1 - i]) for i in range(8)]
        on_disk = {name for name in os.listdir("/dev/shm") if name.startswith(shm.SEGMENT_PREFIX)}
        with GraphService(graph, executor="daemon", workers=2, cache_size=0) as service:
            service.run_batch(queries, 0.2)
            # The workers are forks of the prepared state: nothing is exported.
            assert set(shm.active_segments()) == before
            assert {name for name in os.listdir("/dev/shm") if name.startswith(shm.SEGMENT_PREFIX)} == on_disk
        assert set(shm.active_segments()) == before
