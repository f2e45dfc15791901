"""Tests for induced/edge subgraphs and the incremental SubgraphBuilder."""

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graph.digraph import DiGraph
from repro.graph.subgraph import SubgraphBuilder, edge_subgraph, induced_subgraph, is_subgraph


def every_edge_read(host):
    """``roles``, ``child_roles`` and ``parent_roles`` under which a match can
    read every edge: each node plays the one query node, which has a query
    edge to itself."""
    return {node: 1 for node in host.nodes()}, 1, 1


@pytest.fixture
def host() -> DiGraph:
    graph = DiGraph.from_edges(
        [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)],
        labels={1: "A", 2: "B", 3: "C", 4: "D", 5: "E"},
    )
    return graph


class TestInducedSubgraph:
    def test_keeps_all_internal_edges(self, host):
        sub = induced_subgraph(host, [1, 2, 3])
        assert sub.num_nodes() == 3
        assert sub.num_edges() == 3
        assert sub.has_edge(3, 1)
        assert not sub.has_edge(3, 4)

    def test_labels_are_copied(self, host):
        sub = induced_subgraph(host, [3, 4])
        assert sub.label(3) == "C"
        assert sub.label(4) == "D"

    def test_unknown_node_raises(self, host):
        with pytest.raises(NodeNotFoundError):
            induced_subgraph(host, [1, 99])

    def test_empty_selection(self, host):
        sub = induced_subgraph(host, [])
        assert sub.size() == 0


class TestEdgeSubgraph:
    def test_contains_exactly_requested_edges(self, host):
        sub = edge_subgraph(host, [(1, 2), (3, 4)])
        assert sub.num_nodes() == 4
        assert sub.num_edges() == 2
        assert sub.has_edge(1, 2) and sub.has_edge(3, 4)
        assert not sub.has_edge(2, 3)

    def test_unknown_endpoint_raises(self, host):
        with pytest.raises(NodeNotFoundError):
            edge_subgraph(host, [(1, 99)])


class TestIsSubgraph:
    def test_induced_subgraph_is_subgraph(self, host):
        assert is_subgraph(induced_subgraph(host, [1, 2, 3]), host)

    def test_extra_edge_is_not_subgraph(self, host):
        candidate = DiGraph.from_edges([(2, 1)], labels={1: "A", 2: "B"})
        assert not is_subgraph(candidate, host)

    def test_label_mismatch_is_not_subgraph(self, host):
        candidate = DiGraph()
        candidate.add_node(1, "WRONG")
        assert not is_subgraph(candidate, host)


class TestSubgraphBuilder:
    def test_add_node_copies_label_and_reports_new(self, host):
        builder = SubgraphBuilder(host)
        assert builder.add_node(1) is True
        assert builder.add_node(1) is False
        assert builder.build().label(1) == "A"

    def test_add_node_unknown_raises(self, host):
        builder = SubgraphBuilder(host)
        with pytest.raises(NodeNotFoundError):
            builder.add_node(99)

    def test_add_edge_requires_host_edge(self, host):
        builder = SubgraphBuilder(host)
        builder.add_node(1)
        builder.add_node(3)
        with pytest.raises(NodeNotFoundError):
            builder.add_edge(1, 3)  # not an edge of the host

    def test_add_edge_requires_added_nodes(self, host):
        builder = SubgraphBuilder(host)
        builder.add_node(1)
        with pytest.raises(NodeNotFoundError):
            builder.add_edge(1, 2)

    def test_add_row_edges_adds_both_directions(self, host):
        builder = SubgraphBuilder(host)
        builder.add_node(2)
        builder.add_node(3)
        builder.add_node(1)
        added = builder.add_row_edges(
            1, list(host.successors(1)), list(host.predecessors(1)), host.size(), *every_edge_read(host)
        )
        # host edges incident to 1 among {1,2,3}: (1,2) and (3,1)
        assert added == 2
        result = builder.build()
        assert result.has_edge(1, 2)
        assert result.has_edge(3, 1)

    @pytest.mark.parametrize("room", [0, 1, 2, 3])
    def test_add_row_edges_connects_from_the_row_until_room_is_used(self, host, room):
        host.add_edge(3, 3)
        builder = SubgraphBuilder(host)
        for node in (1, 4, 3):
            builder.add_node(node)
        children, parents = list(host.successors(3)), list(host.predecessors(3))
        # Members among the children (1, 4, and 3 itself), then among the
        # parents (3 again, already in: a self-loop is one edge).
        assert builder.add_row_edges(3, children, parents, room, *every_edge_read(host)) == min(room, 3)
        assert list(builder.build().edges()) == [(3, 1), (3, 4), (3, 3)][:room]
        assert is_subgraph(builder.build(), host)

    # Roles for the query path a -> b -> c: node 3 plays b, so a child member
    # must play c and a parent member a for a query edge to map to the edge.
    A, B, C = 1, 2, 4

    def test_a_member_playing_no_role_on_its_side_is_not_connected(self, host):
        builder = SubgraphBuilder(host)
        for node in (1, 2, 4, 3):
            builder.add_node(node)
        # 3 -> 1: 1 plays only a, not c; 3 -> 4: 4 plays c; 2 -> 3: 2 plays a and c.
        roles = {1: self.A, 2: self.A | self.C, 3: self.B, 4: self.C}
        added = builder.add_row_edges(3, [1, 4], [2], host.size(), roles, self.C, self.A)
        assert added == 2
        assert list(builder.build().edges()) == [(2, 3), (3, 4)]
        assert builder.size() == 4 + 2

    @pytest.mark.parametrize("room", [0, 1, 2])
    def test_room_counts_only_the_kept_edges(self, host, room):
        builder = SubgraphBuilder(host)
        for node in (1, 2, 4, 3):
            builder.add_node(node)
        roles = {1: self.A, 2: self.A, 3: self.B, 4: self.C}
        # 3 -> 1 comes first in the row and is not read: it takes no room.
        assert builder.add_row_edges(3, [1, 4], [2], room, roles, self.C, self.A) == room
        assert set(builder.build().edges()) == set([(3, 4), (2, 3)][:room])
        assert builder.size() == 4 + room

    # Playing b and c, 3 is met as its own child (b -> c) and as its own
    # parent; playing b alone, it is neither.
    @pytest.mark.parametrize(
        "plays, child_roles, parent_roles, loops", [(B | C, C, A | B, 1), (B, C, A, 0)]
    )
    def test_a_self_loop_is_met_once(self, host, plays, child_roles, parent_roles, loops):
        host.add_edge(3, 3)
        builder = SubgraphBuilder(host)
        builder.add_node(3)
        added = builder.add_row_edges(3, [1, 4, 3], [2, 3], host.size(), {3: plays}, child_roles, parent_roles)
        assert added == loops
        assert list(builder.build().edges()) == [(3, 3)][:loops]

    def test_retain_edges_drops_exactly_the_edges_not_needed(self, host):
        builder = SubgraphBuilder(host)
        for node in (1, 2, 3, 4):
            builder.add_node(node)
            builder.add_row_edges(
                node, list(host.successors(node)), list(host.predecessors(node)), host.size(),
                *every_edge_read(host),
            )
        assert list(builder.partial.edges()) == [(1, 2), (2, 3), (3, 1), (3, 4)]
        # An edge not in G_Q among the needed ones changes nothing.
        assert builder.retain_edges({(3, 4), (1, 2), (4, 5)}) == 2
        assert list(builder.partial.edges()) == [(1, 2), (3, 4)]
        assert (builder.num_nodes(), builder.size()) == (4, 6)
        assert builder.retain_edges({(3, 4), (1, 2)}) == 0

    def test_size_tracks_nodes_plus_edges(self, host):
        builder = SubgraphBuilder(host)
        builder.add_node(1)
        builder.add_node(2)
        builder.add_edge(1, 2)
        assert builder.size() == 3
        assert builder.num_nodes() == 2
        assert builder.num_edges() == 1

    def test_build_returns_copy(self, host):
        builder = SubgraphBuilder(host)
        builder.add_node(1)
        snapshot = builder.build()
        builder.add_node(2)
        assert 2 not in snapshot

    def test_result_is_subgraph_of_host(self, host):
        builder = SubgraphBuilder(host)
        for node in (1, 2, 3):
            builder.add_node(node)
            builder.add_row_edges(
                node, list(host.successors(node)), list(host.predecessors(node)), host.size(),
                *every_edge_read(host),
            )
        assert is_subgraph(builder.build(), host)
