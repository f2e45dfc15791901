"""Tests for the dynamic reduction (Search / Pick) machinery."""

from unittest.mock import patch

import pytest

from repro.core import reduction
from repro.core.budget import ResourceBudget
from repro.core.rbsim import RBSim, RBSimConfig
from repro.core.rbsub import RBSub, RBSubConfig
from repro.core.reduction import DynamicReducer
from repro.matching.strong_simulation import simulation_witnesses
from repro.core.weights import Remainder, SimulationGuard, WeightEstimator
from repro.graph.digraph import DiGraph
from repro.graph.neighborhood import NeighborhoodIndex
from repro.graph.subgraph import SubgraphBuilder, is_subgraph
from repro.matching.strong_simulation import match_opt
from repro.matching.vf2 import subgraph_isomorphism
from repro.patterns.pattern import make_pattern


def make_reducer(graph, pattern, vp, alpha, visit_coefficient=None, **kwargs):
    index = NeighborhoodIndex(graph)
    guard = SimulationGuard(pattern, graph, vp, index)
    budget = ResourceBudget(
        alpha=alpha, graph_size=graph.size(), visit_coefficient=visit_coefficient or graph.max_degree() or 1
    )
    return DynamicReducer(
        pattern=pattern,
        graph=graph,
        personalized_match=vp,
        guard=guard,
        budget=budget,
        witnesses=simulation_witnesses,
        **kwargs,
    ), budget


class TestSearch:
    def test_subgraph_respects_size_budget(self, example1_graph, example1_query):
        reducer, budget = make_reducer(example1_graph, example1_query, "Michael", alpha=0.5)
        result = reducer.search()
        assert result.subgraph.size() <= budget.size_limit
        assert result.budget.within_size_bound

    def test_result_is_subgraph_of_host(self, example1_graph, example1_query):
        reducer, _ = make_reducer(example1_graph, example1_query, "Michael", alpha=0.9)
        result = reducer.search()
        assert is_subgraph(result.subgraph, example1_graph)

    def test_contains_personalized_match(self, example1_graph, example1_query):
        reducer, _ = make_reducer(example1_graph, example1_query, "Michael", alpha=0.9)
        assert "Michael" in reducer.search().subgraph

    def test_excludes_guard_failures(self, example1_graph, example1_query):
        reducer, _ = make_reducer(example1_graph, example1_query, "Michael", alpha=0.9)
        subgraph = reducer.search().subgraph
        assert "cc2" not in subgraph  # no CL child
        assert "cl2" not in subgraph  # no parents

    def test_captures_the_match_region(self, example1_graph, example1_query):
        reducer, _ = make_reducer(example1_graph, example1_query, "Michael", alpha=0.9)
        subgraph = reducer.search().subgraph
        for node in ("cc1", "cc3", "hg3", "cl3", "cl4"):
            assert node in subgraph

    def test_missing_personalized_match_returns_empty(self, example1_graph, example1_query):
        reducer, _ = make_reducer(example1_graph, example1_query, "nobody", alpha=0.5)
        result = reducer.search()
        assert result.subgraph.size() == 0
        assert result.passes == 0

    def test_tiny_budget_still_bounded(self, example1_graph, example1_query):
        reducer, budget = make_reducer(example1_graph, example1_query, "Michael", alpha=0.1)
        result = reducer.search()
        assert result.subgraph.size() <= budget.size_limit

    @pytest.mark.parametrize("alpha", [0.9, 0.7])
    def test_bound_grows_over_passes(self, example1_graph, example1_query, alpha):
        reducer, _ = make_reducer(
            example1_graph, example1_query, "Michael", alpha=alpha, initial_bound=1
        )
        result = reducer.search()
        assert result.passes >= 1
        # One pass at b = 1, then one more per resume at b + 1.
        assert result.final_bound == 1 + result.passes - 1
        # alpha 0.7 binds: the weighted search restarts after the unweighted
        # pass, and resumes.
        assert result.restarted == (result.passes >= 2) == (alpha < 0.9)

    def test_candidate_counts_track_added_nodes(self, example1_graph, example1_query):
        reducer, _ = make_reducer(example1_graph, example1_query, "Michael", alpha=0.9)
        result = reducer.search()
        assert result.candidate_counts["Michael"] == 1
        assert sum(result.candidate_counts.values()) == result.subgraph.num_nodes()

    def test_depth_restriction_keeps_gq_in_ball(self, small_social_graph):
        from repro.graph.neighborhood import nodes_within_hops
        from repro.patterns.generator import embedded_pattern

        pattern, vp = embedded_pattern(small_social_graph, 4, 5, seed=3)
        reducer, _ = make_reducer(small_social_graph, pattern, vp, alpha=0.3)
        subgraph = reducer.search().subgraph
        ball_nodes = nodes_within_hops(small_social_graph, vp, pattern.diameter())
        assert set(subgraph.nodes()) <= ball_nodes

    def test_visit_accounting_is_positive(self, example1_graph, example1_query):
        reducer, budget = make_reducer(example1_graph, example1_query, "Michael", alpha=0.9)
        reducer.search()
        assert budget.visited > 0


class TestAblationModes:
    def test_fifo_mode_still_bounded(self, example1_graph, example1_query):
        reducer, budget = make_reducer(
            example1_graph, example1_query, "Michael", alpha=0.5, use_weights=False
        )
        result = reducer.search()
        assert result.subgraph.size() <= budget.size_limit
        assert "Michael" in result.subgraph

    def test_guardless_mode_admits_label_matches_only(self, example1_graph, example1_query):
        reducer, _ = make_reducer(
            example1_graph, example1_query, "Michael", alpha=0.9, use_guard=False
        )
        subgraph = reducer.search().subgraph
        # Without the guard, cc2 (a CC-labelled child of Michael) may enter GQ.
        assert "Michael" in subgraph
        for node in subgraph.nodes():
            assert example1_graph.label(node) in {"Michael", "HG", "CC", "CL"}


class TestStopReason:
    """Why a search stopped, and the spend it reports beside it."""

    @staticmethod
    def fan(spokes: int):
        """``vp`` (label P) with ``spokes`` children labelled A; the pattern is ``p -> a``."""
        graph = DiGraph()
        graph.add_node("vp", "P")
        for position in range(spokes):
            graph.add_node(f"a{position}", "A")
            graph.add_edge("vp", f"a{position}")
        pattern = make_pattern({"p": "P", "a": "A"}, [("p", "a")], personalized="p", output="a")
        return graph, pattern

    def test_storage(self):
        graph, pattern = self.fan(5)  # |G| = 11, so alpha 0.3 allows 3 items
        reducer, budget = make_reducer(graph, pattern, "vp", alpha=0.3)
        result = reducer.search()
        # vp, then its best A and the edge between them: G_Q is full in pass 1,
        # with the Pick at vp (5 eligible, b = 2) still cut and holding three.
        assert (result.stop, result.passes, result.budget.stored) == ("storage", 1, 3)
        # The unweighted pass filled G_Q with the same items first and was
        # abandoned after 8 visits: vp, the Pick at vp (|N(vp)| = 5), a0 and
        # the edge.  The weighted search was charged vp, a0 and the edge (the
        # Pick at vp is the one the pass paid for) and the read of G_Q (3),
        # which frees nothing, as the answer needs vp -> a0.  The allowance
        # is c * alpha * |G| with c = d_G = 5.
        assert (result.budget.visited, budget.visit_limit) == (8 + 3 + 3, 16)
        assert result.spend() == {
            "passes": 1,
            "stop": "storage",
            "cut": 1,
            "ungiven": 3,
            "reclaimed": 0,
            "restarted": True,
            "abandoned_visits": 8,
            "stored": 3,
            "size_limit": 3,
            "visited": result.budget.visited,
            "visit_limit": budget.visit_limit,
        }

    def test_fixpoint_of_the_unweighted_pass(self):
        graph, pattern = self.fan(3)
        graph.add_node("b", "B")  # a child no query node asks for: G_Q never fills
        graph.add_edge("vp", "b")
        reducer, budget = make_reducer(graph, pattern, "vp", alpha=1.0)
        result = reducer.search()
        # The unweighted pass gives all three spokes at once and drains with
        # room left: no limit met it, so it is the answer, in one pass.
        assert (result.stop, result.passes, result.final_bound, result.cut, result.ungiven) == (
            "fixpoint", 1, 2, 0, 0
        )
        assert (result.restarted, result.abandoned_visits, result.repicks) == (False, 0, 0)
        assert result.subgraph.num_nodes() == 4
        # vp, three spokes and three edges (7 items) and the Pick at vp
        # charged |N(vp)| = 4.  The allowance is c * alpha * |G| with c = d_G
        # = 4 and |G| = 9.
        assert (result.budget.visited, result.budget.visit_limit) == (11, 36)
        assert result.spend()["visit_limit"] == budget.visit_limit == 36

    def test_fixpoint(self):
        # The reclamation grid's ball (19 items) does not fit alpha 0.9 (17):
        # the unweighted pass fills G_Q and is abandoned after 36 visits.  The
        # weighted search then takes two A's in pass 1 (b = 2) and cuts the
        # Pick at vp; reclaiming frees the spare witnesses, and pass 2 (b = 3)
        # makes that Pick again, which gives a2 and leaves nothing cut.
        reducer, _ = make_reducer(
            TestReclamation.grid(), TestReclamation.PATTERN, "vp", alpha=0.9, visit_coefficient=20
        )
        result = reducer.search()
        assert (result.stop, result.passes, result.final_bound, result.cut, result.ungiven) == (
            "fixpoint", 2, 3, 0, 0
        )
        assert (result.restarted, result.reclaimed, result.subgraph.num_nodes()) == (True, 4, 7)
        # The abandoned pass's visits count in the search's.
        assert (result.abandoned_visits, result.budget.visited, result.budget.visit_limit) == (36, 100, 342)

    def test_visits(self):
        graph, pattern = self.fan(5)  # |G| = 11: alpha 0.455 allows 5 items, c = 3 15 visits
        reducer, budget = make_reducer(graph, pattern, "vp", alpha=0.455, visit_coefficient=3.0)
        result = reducer.search()
        # The unweighted pass fills G_Q at a1 (10 visits: vp, the Pick at vp,
        # two spokes and their edges), and its read (5) fits.  The weighted
        # search is charged vp and its two best spokes with their edges (the
        # Pick at vp is the one the pass paid for): G_Q is full again, and
        # reading it would pass the cap, with the cut Pick at vp holding three.
        assert (result.stop, result.passes, result.cut, result.ungiven) == ("visits", 1, 1, 3)
        assert (result.abandoned_visits, result.budget.visited, budget.visit_limit, result.budget.stored) == (
            10, 15, 15, 5
        )
        assert result.subgraph.num_nodes() == 3

    def test_visits_of_the_unweighted_pass(self):
        graph, pattern = self.fan(5)  # |G| = 11: c = 0.75 allows 8 visits
        reducer, budget = make_reducer(graph, pattern, "vp", alpha=1.0, visit_coefficient=0.75)
        result = reducer.search()
        # vp (1), the Pick at vp (|N(vp)| = 5), the first spoke and its edge
        # (2): the next spoke's visit would pass the cap long before storage
        # (11) fills.  A restart could only spend less, so the pass, which
        # holds no cut Pick, is the search.
        assert (result.stop, result.passes, result.restarted, result.cut, result.ungiven) == (
            "visits", 1, False, 0, 0
        )
        assert (result.budget.visited, budget.visit_limit, result.budget.stored) == (8, 8, 3)
        assert result.subgraph.num_nodes() == 2

    def test_a_remainder_holds_what_its_pick_has_not_given(self):
        graph, pattern = self.fan(5)
        guard = SimulationGuard(pattern, graph, "vp", NeighborhoodIndex(graph))
        state = WeightEstimator(pattern, graph, "vp", guard)
        eligible = state.eligible("vp", "a")
        remainder = Remainder(state, eligible, "a", weighted=False)  # scan order
        assert remainder.take(2) == eligible[:2]
        assert (len(remainder), list(remainder)) == (3, eligible[2:])

    def test_missing_personalized_match(self, example1_graph, example1_query):
        reducer, _ = make_reducer(example1_graph, example1_query, "nobody", alpha=0.5)
        assert reducer.search().stop == "fixpoint"


class TestRePickCharge:
    """A re-Pick reads no row: it is charged the candidates it gives.

    The hub is ``vp`` with six A spokes and a B child no query node asks for
    (``|G| = 15``) under ``p -> a``; alpha 0.7 allows 10 items, ``vp``, five
    spokes and four edges.  The unweighted pass fills ``G_Q`` at the fifth
    spoke, is charged 17 visits (``vp``, the Pick at ``vp`` (``|N(vp)| = 7``),
    four spokes with their edges and the fifth) and is abandoned, since the
    read of ``G_Q`` fits.  In the weighted search that restarts, the Pick at
    ``vp`` is cut at ``b = 2`` and each later pass re-Picks it for one more
    spoke.  Its pass 1 costs 5 visits: ``vp`` (1) and two spokes with their
    edges (2 each); the Pick reads the row the pass paid for.
    """

    ABANDONED = 17

    @staticmethod
    def hub(visit_limit=None):
        graph, pattern = TestStopReason.fan(6)
        graph.add_node("b", "B")
        graph.add_edge("vp", "b")
        alpha = 0.7
        coefficient = None if visit_limit is None else (visit_limit + 0.5) / (alpha * graph.size())
        reducer, budget = make_reducer(graph, pattern, "vp", alpha=alpha, visit_coefficient=coefficient)
        assert budget.size_limit == 10
        assert visit_limit in (None, budget.visit_limit)
        return reducer

    def test_visited_is_the_row_the_admissions_and_what_each_re_pick_gave(self):
        gives = []

        class RecordedRemainder(Remainder):
            def take(self, count, waiting=()):
                taken = super().take(count, waiting)
                gives.append(len(taken))
                return taken

        reducer = self.hub()
        with patch.object(reduction, "Remainder", RecordedRemainder):
            result = reducer.search()
        first, *repicks = gives
        # The fifth spoke fills G_Q again, and its answer needs every edge.
        assert (result.stop, first, len(repicks), result.repicks) == ("storage", 2, 3, 3)
        assert (result.restarted, result.abandoned_visits) == (True, self.ABANDONED)
        # The abandoned pass (|N(vp)| once among its 17), 1 per admitted node
        # and edge (vp, five spokes, four edges), the three re-Picks' single
        # spokes, and the read of the full G_Q (10) that frees nothing.
        assert result.budget.stored == 10
        assert result.budget.visited == self.ABANDONED + 10 + sum(repicks) + 10 == 40

    def test_a_limit_that_fits_the_give_but_not_the_row_lets_the_search_go_on(self):
        # After pass 1 (17 + 5 visits) the re-Pick's give (1) fits a limit of
        # 27 and |N(vp)| (7) would not: two re-Picks admit spokes 3 and 4 (the
        # last without its edge, which the limit leaves no room for).
        result = self.hub(27).search()
        assert (result.stop, result.repicks, result.subgraph.num_nodes()) == ("visits", 2, 5)
        assert (result.budget.visited, result.cut, result.ungiven) == (27, 1, 2)
        # The exact cost of the whole search is enough to reach its storage stop.
        result = self.hub(40).search()
        assert (result.stop, result.budget.visited, result.subgraph.num_nodes()) == ("storage", 40, 6)

    def test_a_limit_below_the_give_stops_on_visits_with_the_pick_cut(self):
        # A limit of 28 pays for pass 1 and two re-Picks with their spokes and
        # edges, and leaves nothing for the third re-Pick's give.
        result = self.hub(28).search()
        assert (result.stop, result.repicks, result.cut, result.ungiven) == ("visits", 2, 1, 2)
        assert (result.budget.visited, result.budget.stored, result.subgraph.num_nodes()) == (28, 9, 5)


class TestReclamation:
    """A full ``G_Q`` keeps the edges its answer needs and the search goes on.

    The graph is ``vp -> a0, a1, a2`` and every ``ai -> bj`` (3 x 3), |G| = 19;
    the pattern is ``p -> a -> b`` with output ``b``, so every edge is
    readable, and every pair ``(ai, bj)`` but the first one an ``a`` or a ``b``
    is met by is a spare witness.
    """

    PATTERN = make_pattern({"p": "P", "a": "A", "b": "B"}, [("p", "a"), ("a", "b")], personalized="p", output="b")

    @staticmethod
    def grid() -> DiGraph:
        graph = DiGraph()
        graph.add_node("vp", "P")
        for i in range(3):
            graph.add_node(f"a{i}", "A")
            graph.add_edge("vp", f"a{i}")
        for j in range(3):
            graph.add_node(f"b{j}", "B")
        for i in range(3):
            for j in range(3):
                graph.add_edge(f"a{i}", f"b{j}")
        return graph

    @staticmethod
    def recorded(monkeypatch):
        """Every reclamation as ``(G_Q before, edges needed, edges after)``,
        and ``|G_Q|`` after every admission and every reclamation."""
        reclamations, sizes = [], []
        retain, add_row_edges = SubgraphBuilder.retain_edges, SubgraphBuilder.add_row_edges

        def recording_retain(builder, needed):
            before = builder.partial.copy()
            freed = retain(builder, needed)
            reclamations.append((before, set(needed), list(builder.partial.edges())))
            sizes.append(builder.size())
            return freed

        def recording_add(builder, *arguments):
            added = add_row_edges(builder, *arguments)
            sizes.append(builder.size())
            return added

        monkeypatch.setattr(SubgraphBuilder, "retain_edges", recording_retain)
        monkeypatch.setattr(SubgraphBuilder, "add_row_edges", recording_add)
        return reclamations, sizes

    def reduce(self, matcher_class, alpha, visit_coefficient=20.0):
        config = (RBSubConfig if matcher_class is RBSub else RBSimConfig)(visit_coefficient=visit_coefficient)
        return matcher_class(self.grid(), alpha, config=config).reduce(self.PATTERN, "vp")

    def test_exactly_the_non_witness_edges_are_freed(self, monkeypatch):
        reclamations, _ = self.recorded(monkeypatch)
        result = self.reduce(RBSim, 0.6)  # 11 items
        (gq, needed, after), *_ = reclamations
        before = list(gq.edges())
        # vp, a0, b0, b1, a1 and the six edges among them fill G_Q.  a1 -> b1
        # is the one spare: a1's child is witnessed by a1 -> b0 (first in its
        # row) and b1's parent by a0 -> b1 (first in its).
        assert before == [("vp", "a0"), ("vp", "a1"), ("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b1")]
        assert needed == set(before) - {("a1", "b1")}
        assert after == [edge for edge in before if edge in needed]
        for gq, needed, after in reclamations:
            assert after == [edge for edge in gq.edges() if edge in needed]
        # a2 then fills G_Q with an answer that needs every edge: storage.
        assert (result.stop, result.reclaimed, result.budget.stored) == ("storage", 1, 11)
        assert result.spend()["reclaimed"] == 1

    def test_the_search_resumes_and_ends_with_the_full_answer(self):
        graph = self.grid()
        result = self.reduce(RBSim, 0.9)  # 17 items: the 19 of G do not fit
        assert result.reclaimed == 4
        assert result.stop == "fixpoint"
        assert result.subgraph.num_nodes() == graph.num_nodes()
        assert result.budget.stored == result.subgraph.size() < result.budget.size_limit
        assert match_opt(self.PATTERN, graph, "vp").answer == {"b0", "b1", "b2"}
        assert RBSim(graph, 0.9)._match(self.PATTERN, result.subgraph, "vp") == {"b0", "b1", "b2"}

    def test_an_empty_answer_at_the_stop_reclaims_nothing(self, monkeypatch):
        reclamations, _ = self.recorded(monkeypatch)
        result = self.reduce(RBSim, 0.16)  # 3 items: vp, a0 and vp -> a0, no b yet
        assert (result.stop, result.reclaimed, result.budget.stored) == ("storage", 0, 3)
        assert reclamations == []
        # The abandoned pass, filled by the same three items, was charged 6:
        # vp (1), the Pick at vp (3), a0 and its edge (2).  The weighted
        # search was charged vp, a0 and its edge (the Pick at vp is the one
        # the pass paid for) and the read of G_Q (3).
        assert (result.restarted, result.abandoned_visits, result.budget.visited) == (True, 6, 6 + 3 + 3)

    def test_a_read_of_gq_past_the_visit_limit_stops_on_visits(self):
        # At 31 visits G_Q fills at 22 visited, and reading its 11 items would
        # pass the limit.  The unweighted pass fills it so: the weighted search
        # could not reclaim either, so the pass is the search.
        tight = self.reduce(RBSim, 0.6, visit_coefficient=2.75)
        assert tight.budget.visit_limit == 31
        assert (tight.stop, tight.reclaimed, tight.budget.visited) == ("visits", 0, 22)
        assert tight.budget.stored == tight.budget.size_limit == 11
        assert not tight.restarted
        # At 34 visits the pass's read fits, so it is abandoned (22 visits),
        # but the weighted search fills G_Q at 33 visited and cannot read it:
        # the two runs are charged within the one limit.
        mid = self.reduce(RBSim, 0.6, visit_coefficient=3.0)
        assert mid.budget.visit_limit == 34
        assert (mid.stop, mid.restarted, mid.reclaimed, mid.budget.visited) == ("visits", True, 0, 33)
        # At 45 visits the read fits: the pass is abandoned (22 visits), and the
        # weighted search (the Picks the pass made charged nothing) fills G_Q
        # at 33 visited; its read (11) frees the spare edge.
        loose = self.reduce(RBSim, 0.6, visit_coefficient=4.0)
        assert loose.budget.visit_limit == 45
        assert (loose.restarted, loose.abandoned_visits, loose.reclaimed, loose.budget.visited) == (True, 22, 1, 44)

    def test_rbsub_keeps_one_embeddings_edges_per_output_match(self, monkeypatch):
        reclamations, _ = self.recorded(monkeypatch)
        result = self.reduce(RBSub, 0.6)
        (gq, needed, after), *_ = reclamations
        assert list(gq.edges()) == [("vp", "a0"), ("vp", "a1"), ("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b1")]
        # b0 and b1 each keep the two edges of the first embedding found (which
        # one that is follows the matcher's set order): 3 edges when both go
        # through one a, 4 otherwise, where strong simulation keeps 5.
        assert len(needed) in (3, 4) and {("vp", "a0"), ("vp", "a1")} & needed
        assert after == [edge for edge in gq.edges() if edge in needed]
        for gq, needed, _ in reclamations:
            first = {}
            for embedding in subgraph_isomorphism(self.PATTERN, gq, "vp", RBSubConfig().max_embeddings).embeddings:
                first.setdefault(embedding["b"], embedding)
            assert needed == {(e[u], e[w]) for e in first.values() for u, w in self.PATTERN.edges}
        assert result.reclaimed == sum(gq.num_edges() - len(after) for gq, _, after in reclamations)

    @pytest.mark.parametrize("matcher_class", [RBSim, RBSub])
    @pytest.mark.parametrize("alpha", [0.16, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0])
    def test_gq_keeps_its_size_limit_after_every_admission_and_reclamation(
        self, monkeypatch, matcher_class, alpha
    ):
        _, sizes = self.recorded(monkeypatch)
        result = self.reduce(matcher_class, alpha)
        assert sizes and max(sizes) <= result.budget.size_limit
        assert result.budget.visited <= result.budget.visit_limit
        assert result.budget.stored == result.subgraph.size()
