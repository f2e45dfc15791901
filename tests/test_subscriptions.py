"""Standing queries (``repro.subscribe``): oracle, envelopes, maintenance.

The contracts under test:

* **one oracle** — ``partition_entries`` is the single answer-unchanged
  predicate: ``noop`` retains everything, ``rebuilt`` retains nothing,
  reachability retention needs the preserved α index *and* untouched
  endpoints, pattern retention needs a far-enough ball and either the caps
  the search ran under or a saturated spend that fits strictly under the
  fresh ones;
* **envelope integrity** — ``replay`` folds a pushed delta log back into
  the final answer and rejects gaps, mixed logs and broken old→new chains;
* **maintenance parity** (the tentpole property) — after any churn stream,
  over several graph families, executors and shard counts, every
  subscription's materialised answer is bit-identical to a fresh query on a
  freshly prepared engine, and the replayed delta log reconstructs exactly
  that answer.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.invalidation import anchor_of, partition_entries
from repro.engine.prepared import PreparedGraph, UpdateSummary
from repro.engine.queries import REACH
from repro.exceptions import ServiceError
from repro.graph.digraph import DiGraph
from repro.graph.generators import community_graph
from repro.service import (
    GraphService,
    PatternRequest,
    ReachRequest,
    ServiceConfig,
    replay,
)
from repro.subscribe import INITIAL, UPDATE, AnswerDelta, answer_signature
from repro.workloads.deltas import generate_delta_stream
from repro.workloads.queries import generate_pattern_workload
from repro.workloads import youtube_like

ALPHA = 0.05


def line_graph(n=12, label="A"):
    graph = DiGraph()
    for i in range(n):
        graph.add_node(i, label)
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    return graph


def summary_for(mode="patched", **kwargs) -> UpdateSummary:
    return UpdateSummary(mode=mode, delta_ops=1, **kwargs)


def pattern_entry(caps, spend=None, match=5, radius=2):
    """A pattern entry anchored at ``match`` whose search ran under ``caps``."""
    return ("p", ALPHA, ("pattern", match, radius, caps, spend))


def with_hub_edges(count, n=40):
    """``line_graph(n)`` plus two nodes ``h0``, ``h1``, the first ``count``
    of them hung off its last node, the unique ``d_G`` holder at ``count`` 2."""
    graph = line_graph(n)
    for leaf in range(2):
        graph.add_node(f"h{leaf}", "A")
    for leaf in range(count):
        graph.add_edge(n - 1, f"h{leaf}")
    return graph


def decide(entries, summary, graph):
    """The decision over one population, on the prepared ``graph``."""
    (decision,) = partition_entries([entries], summary, PreparedGraph(graph))
    return decision


# --------------------------------------------------------------------------- #
# The shared oracle
# --------------------------------------------------------------------------- #
class TestPartitionEntries:
    REACH_ENTRY = ("r", ALPHA, (REACH, 0, 9))

    def _graph(self):
        return line_graph()

    def _pattern(self, **kwargs):
        """A bounded pattern entry whose caps are the line graph's own."""
        return pattern_entry(PreparedGraph(self._graph()).pattern_caps(ALPHA), **kwargs)

    def test_noop_retains_everything(self):
        decision = decide([self.REACH_ENTRY, self._pattern()], summary_for("noop"), self._graph())
        assert set(decision.retained) == {"r", "p"}
        assert decision.stale == []

    def test_rebuilt_marks_everything_stale(self):
        decision = decide([self.REACH_ENTRY, self._pattern()], summary_for("rebuilt"), self._graph())
        assert set(decision.stale) == {"r", "p"}

    def test_one_call_decides_every_population(self):
        cached, standing = partition_entries(
            [[self.REACH_ENTRY], [self._pattern(), ("q", ALPHA, None)]],
            summary_for(touched_nodes={11}, reach_alphas_preserved={ALPHA: True}),
            PreparedGraph(self._graph()),
        )
        assert (cached.retained, cached.stale) == (["r"], [])
        assert (standing.retained, standing.stale) == (["p"], ["q"])

    def test_anchorless_entry_is_always_stale(self):
        decision = decide(
            [("mystery", ALPHA, None)],
            summary_for(reach_alphas_preserved={ALPHA: True}),
            self._graph(),
        )
        assert decision.stale == ["mystery"]

    def test_reach_needs_preserved_index_and_untouched_endpoints(self):
        preserved = {ALPHA: True}
        for touched, kept in (({5}, True), ({0}, False), ({9}, False)):
            decision = decide(
                [self.REACH_ENTRY],
                summary_for(touched_nodes=touched, reach_alphas_preserved=preserved),
                self._graph(),
            )
            assert ("r" in decision.retained) is kept
        decision = decide(
            [self.REACH_ENTRY],
            summary_for(touched_nodes={5}, reach_alphas_preserved={ALPHA: False}),
            self._graph(),
        )
        assert decision.stale == ["r"]

    def test_pattern_ball_distance_decides(self):
        # Pattern anchored at node 5 with radius 2: touching node 8 (3 hops
        # away) retains it, touching node 7 (2 hops) does not; the sweep
        # runs against the edge direction too (node 3 is 2 hops upstream).
        for touched, kept in (({8}, True), ({7}, False), ({5}, False), ({3}, False), ({2}, True)):
            decision = decide([self._pattern()], summary_for(touched_nodes=touched), self._graph())
            assert ("p" in decision.retained) is kept, touched

    def test_bounded_pattern_needs_the_caps_it_ran_under(self):
        size_cap, visit_cap = PreparedGraph(self._graph()).pattern_caps(ALPHA)
        for caps, kept in (
            ((size_cap, visit_cap), True),
            ((size_cap, visit_cap + 1), False),
            ((size_cap + 1, visit_cap), False),
        ):
            decision = decide([pattern_entry(caps)], summary_for(touched_nodes={11}), self._graph())
            assert ("p" in decision.retained) is kept, caps

    def test_a_visit_cap_move_within_the_size_quantum(self):
        # An isolated node keeps ⌊α·|G|⌋ but moves ⌊d_G·α·|G|⌋ (|G| 89 →
        # 90): a search that stopped on its visits may read further now,
        # one that settled under both caps reads the same.
        before, after = line_graph(45), line_graph(45)
        after.add_node("x", "A")
        (size_cap, visit_cap), fresh = (
            PreparedGraph(before).pattern_caps(ALPHA),
            PreparedGraph(after).pattern_caps(ALPHA),
        )
        assert fresh == (size_cap, visit_cap + 1)
        summary = summary_for(touched_nodes={"x"})
        assert decide([pattern_entry((size_cap, visit_cap))], summary, after).stale == ["p"]
        saturated = pattern_entry((size_cap, visit_cap), spend=(size_cap - 1, visit_cap - 1))
        assert decide([saturated], summary, after).retained == ["p"]

    def test_fresh_caps_are_per_alpha(self):
        # The same drift moves α=0.05's visit cap but not α=0.01's.
        before, after = line_graph(45), line_graph(45)
        after.add_node("x", "A")
        caps = PreparedGraph(before).pattern_caps
        entries = [(alpha, alpha, ("pattern", 5, 2, caps(alpha), None)) for alpha in (0.05, 0.01)]
        decision = decide(entries, summary_for(touched_nodes={"x"}), after)
        assert (decision.stale, decision.retained) == ([0.05], [0.01])

    def test_a_raised_d_G_keeps_only_saturated_answers(self):
        before, after = with_hub_edges(1), with_hub_edges(2)
        (size_cap, visit_cap), fresh = (
            PreparedGraph(before).pattern_caps(ALPHA),
            PreparedGraph(after).pattern_caps(ALPHA),
        )
        assert fresh[0] == size_cap and fresh[1] > visit_cap
        summary = summary_for(touched_nodes={39, "h1"})
        assert decide([pattern_entry((size_cap, visit_cap), match=20)], summary, after).stale == ["p"]
        saturated = pattern_entry((size_cap, visit_cap), spend=(1, visit_cap - 1), match=20)
        assert decide([saturated], summary, after).retained == ["p"]

    def test_a_lowered_unique_d_G_holder_lowers_the_visit_cap(self):
        before, after = with_hub_edges(2), with_hub_edges(1)
        (size_cap, visit_cap), (_, fresh_visits) = (
            PreparedGraph(before).pattern_caps(ALPHA),
            PreparedGraph(after).pattern_caps(ALPHA),
        )
        assert fresh_visits < visit_cap
        summary = summary_for(touched_nodes={39, "h1"})
        assert decide([pattern_entry((size_cap, visit_cap), match=20)], summary, after).stale == ["p"]
        for visited, kept in ((fresh_visits - 1, True), (fresh_visits, False)):
            saturated = pattern_entry((size_cap, visit_cap), spend=(1, visited), match=20)
            assert ("p" in decide([saturated], summary, after).retained) is kept, visited

    def test_saturated_spend_must_fit_strictly_under_the_fresh_caps(self):
        size_cap, visit_cap = PreparedGraph(self._graph()).pattern_caps(ALPHA)
        moved = (size_cap + 1, visit_cap + 1)
        summary = summary_for(touched_nodes={11})
        for spend, kept in (
            ((size_cap - 1, visit_cap - 1), True),
            ((size_cap, visit_cap - 1), False),
            ((size_cap - 1, visit_cap), False),
        ):
            decision = decide([pattern_entry(moved, spend=spend)], summary, self._graph())
            assert ("p" in decision.retained) is kept, spend

    def test_anchor_of_both_query_classes(self):
        assert anchor_of(ReachRequest(3, 8), None) == (REACH, 3, 8)
        graph = youtube_like(seed=0)
        query = next(iter(generate_pattern_workload(graph, shape=(3, 3), count=1, seed=1)))
        request = PatternRequest(query.pattern, query.personalized_match)
        with GraphService(graph, ServiceConfig(alpha=ALPHA)) as service:
            answer = service.run_batch([request]).answers[0]
            missing = service.run_batch([PatternRequest(query.pattern, "absent")]).answers[0]
        budget = answer.reduction.budget
        assert answer.reduction.saturated
        assert anchor_of(request, answer) == (
            "pattern",
            query.personalized_match,
            3,
            (budget.size_limit, budget.visit_limit),
            (budget.stored, budget.visited),
        )
        assert anchor_of(PatternRequest(query.pattern, "absent"), missing) == (
            "pattern", "absent", 3, None, (0, 0)
        )


# --------------------------------------------------------------------------- #
# Envelope chains
# --------------------------------------------------------------------------- #
def _reach_answer(marker):
    """A minimal reach-answer stand-in with a distinguishing signature."""
    from types import SimpleNamespace

    return SimpleNamespace(reachable=True, visited=marker, met_at=None, exhausted=False)


class TestReplay:
    A, B, C, X = (_reach_answer(marker) for marker in "abcx")

    def _chain(self):
        return [
            AnswerDelta(1, 0, REACH, None, self.A, reason=INITIAL),
            AnswerDelta(1, 1, REACH, self.A, self.B),
            AnswerDelta(1, 2, REACH, self.B, self.C),
        ]

    def test_replay_folds_to_the_final_answer(self):
        assert replay(self._chain()) is self.C
        assert replay(self._chain()[:1]) is self.A

    def test_replay_rejects_empty_and_mixed_logs(self):
        with pytest.raises(ServiceError):
            replay([])
        mixed = self._chain()
        mixed.append(AnswerDelta(2, 0, REACH, None, self.X, reason=INITIAL))
        with pytest.raises(ServiceError):
            replay(mixed)

    def test_replay_rejects_a_missing_snapshot_and_epoch_gaps(self):
        with pytest.raises(ServiceError):
            replay(self._chain()[1:])
        gapped = self._chain()
        gapped[2] = AnswerDelta(1, 3, REACH, self.B, self.C)
        with pytest.raises(ServiceError):
            replay(gapped)

    def test_replay_rejects_a_broken_old_new_chain(self):
        broken = self._chain()
        broken[2] = AnswerDelta(1, 2, REACH, self.X, self.C)
        with pytest.raises(ServiceError):
            replay(broken)


# --------------------------------------------------------------------------- #
# The service API
# --------------------------------------------------------------------------- #
class TestSubscribeAPI:
    def _service(self, **overrides):
        return GraphService(youtube_like(seed=2), ServiceConfig(alpha=ALPHA, **overrides))

    def test_registration_materialises_and_pushes_the_snapshot(self):
        with self._service() as service:
            log = []
            sub = service.subscribe(ReachRequest(0, 17), sink=log.append)
            fresh = service.query(ReachRequest(0, 17)).value
            assert sub.signature() == answer_signature(REACH, fresh)
            assert [d.reason for d in log] == [INITIAL]
            assert log[0].epoch == 0 and log[0].old_value is None
            assert len(service.subscriptions()) == 1
            assert service.stats().subscribed == 1

    def test_unsubscribe_accepts_object_or_id_and_rejects_unknown(self):
        with self._service() as service:
            sub = service.subscribe(ReachRequest(0, 1))
            other = service.subscribe(ReachRequest(1, 2))
            service.unsubscribe(sub)
            service.unsubscribe(other.id)
            assert service.subscriptions() == []
            with pytest.raises(ServiceError):
                service.unsubscribe(sub.id)

    def test_subscription_limit_is_enforced(self):
        with self._service(max_subscriptions=2) as service:
            service.subscribe(ReachRequest(0, 1))
            service.subscribe(ReachRequest(1, 2))
            with pytest.raises(ServiceError):
                service.subscribe(ReachRequest(2, 3))

    def test_update_without_subscriptions_reports_no_maintenance(self):
        with self._service() as service:
            report = service.update(GraphDeltaFactory.single_edge(service))
            assert report.maintenance is None

    def test_a_failed_delta_re_evaluates_every_standing_query(self):
        """The prefix of a delta that raises is served, so no standing answer
        may stay on the pre-delta graph."""
        from repro.exceptions import EdgeNotFoundError
        from repro.updates.delta import GraphDelta

        graph = line_graph(12)
        with GraphService(graph, ServiceConfig(alpha=0.5)) as service:
            log = []
            sub = service.subscribe(ReachRequest(0, 11), sink=log.append)
            assert sub.signature()[1] is True
            with pytest.raises(EdgeNotFoundError):
                service.update(GraphDelta().remove_edge(5, 6).remove_edge(6, 5))
            assert sub.signature()[1] is False
            with GraphService(service.graph, ServiceConfig(alpha=0.5)) as fresh:
                again = fresh.run_batch([sub.request], sub.alpha).answers[0]
            assert sub.signature() == answer_signature(sub.kind, again)
            assert answer_signature(sub.kind, replay(log)) == sub.signature()

    def test_maintenance_report_partitions_the_table(self):
        with self._service() as service:
            service.subscribe(ReachRequest(0, 9))
            wl = generate_pattern_workload(service.graph, shape=(3, 3), count=2, seed=4)
            for query in wl:
                service.subscribe(PatternRequest(query.pattern, query.personalized_match))
            report = service.update(GraphDeltaFactory.single_edge(service))
            maintenance = report.maintenance
            assert maintenance is not None
            assert maintenance.subscriptions == 3
            assert maintenance.affected + maintenance.skipped == 3
            assert 0.0 <= maintenance.affected_fraction <= 1.0
            stats = service.stats()
            assert stats.sub_affected == maintenance.affected
            assert stats.sub_skipped == maintenance.skipped


    def test_patched_update_takes_d_G_from_the_fresh_csr(self, monkeypatch):
        """Rebuilt matchers take ``d_G`` off the re-prepared ``CSRGraph``'s degree
        column; the overlay that applied the delta is never scanned."""
        from repro.updates.delta import GraphDelta
        from repro.updates.overlay import MutableOverlay

        scans = []
        original = MutableOverlay.max_degree

        def counted(overlay):
            scans.append(overlay)
            return original(overlay)

        monkeypatch.setattr(MutableOverlay, "max_degree", counted)
        with self._service() as service:
            service.prepare()  # a condensation to compare against
            query = next(
                iter(generate_pattern_workload(service.graph, shape=(3, 3), count=1, seed=4))
            )
            sub = service.subscribe(PatternRequest(query.pattern, query.personalized_match))
            anchor = query.personalized_match
            stranger = next(
                node
                for node in service.graph.nodes()
                if node != anchor and node not in service.graph.neighbors(anchor)
            )
            report = service.update(GraphDelta().add_edge(stranger, anchor))
            assert report.mode == "patched"
            assert report.maintenance.affected == 1
            assert scans == []
            assert service.prepared.max_degree() == service.graph.degrees().max()
            with GraphService(service.graph, ServiceConfig(alpha=ALPHA)) as fresh:
                again = fresh.run_batch([sub.request], sub.alpha).answers[0]
            assert sub.signature() == answer_signature(sub.kind, again)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_confined_churn_affects_at_most_a_fifth(self, seed):
        """Growth confined to two communities re-evaluates ≤20% of pattern
        subscriptions spread over all of them, and none goes stale.

        Growth moves both caps, so only the saturated answers (whose spend
        fits the fresh caps) outlive a delta away from their balls.
        """
        alpha, hub, community, communities = 0.008, 60, 30, 40
        graph = community_graph(
            [hub] + [community] * (communities - 1), intra_probability=0.2, inter_edges=0, seed=seed
        )
        total = hub + community * (communities - 1)
        stream = generate_delta_stream(
            graph,
            batches=8,
            ops_per_batch=6,
            mix="growth",
            seed=seed,
            confine_nodes=range(total - 2 * community, total),
        )
        with GraphService(graph.copy(), ServiceConfig(alpha=alpha)) as service:
            for query in generate_pattern_workload(graph, shape=(3, 3), count=48, seed=seed):
                service.subscribe(PatternRequest(query.pattern, query.personalized_match))
            affected = evaluations = 0
            for delta in stream:
                maintenance = service.update(delta).maintenance
                affected += maintenance.affected
                evaluations += maintenance.subscriptions
            assert affected <= 0.20 * evaluations, f"{affected}/{evaluations} affected"
            with GraphService(service.graph, ServiceConfig(alpha=alpha)) as fresh:
                for sub in service.subscriptions():
                    again = fresh.run_batch([sub.request], sub.alpha).answers[0]
                    assert sub.signature() == answer_signature(sub.kind, again)


class GraphDeltaFactory:
    @staticmethod
    def single_edge(service):
        from repro.updates.delta import GraphDelta

        nodes = list(service.graph.nodes())
        return GraphDelta().add_edge(nodes[0], nodes[len(nodes) // 2])


# --------------------------------------------------------------------------- #
# The tentpole property: maintained ≡ fresh ≡ replayed, everywhere
# --------------------------------------------------------------------------- #
def _families():
    return [
        ("youtube", youtube_like(seed=3), "growth"),
        (
            "community",
            community_graph([18] * 6, intra_probability=0.2, inter_edges=1, seed=5),
            "uniform",
        ),
        ("line", line_graph(80), "growth"),
    ]


@pytest.mark.parametrize("executor", ["serial", "daemon"])
@pytest.mark.parametrize("shards", [1, 2])
def test_maintained_answers_match_fresh_engines_and_replayed_logs(executor, shards):
    for name, graph, mix in _families():
        config = ServiceConfig(
            alpha=ALPHA,
            executor=executor,
            workers=2,
            num_shards=shards,
            cache_size=256,
        )
        with GraphService(graph.copy() if hasattr(graph, "copy") else graph, config) as service:
            logs = {}
            rng = random.Random(11)
            nodes = list(service.graph.nodes())
            for _ in range(4):
                request = ReachRequest(rng.choice(nodes), rng.choice(nodes))
                log = []
                sub = service.subscribe(request, sink=log.append)
                logs[sub.id] = log
            for query in generate_pattern_workload(
                service.graph, shape=(3, 3), count=4, seed=7
            ):
                log = []
                sub = service.subscribe(
                    PatternRequest(query.pattern, query.personalized_match),
                    sink=log.append,
                )
                logs[sub.id] = log

            for delta in generate_delta_stream(
                service.graph, batches=4, ops_per_batch=6, mix=mix, seed=13
            ):
                report = service.update(delta)
                assert report.maintenance is not None

            with GraphService(service.graph, ServiceConfig(alpha=ALPHA)) as fresh:
                for sub in service.subscriptions():
                    fresh_value = fresh.run_batch([sub.request], sub.alpha).answers[0]
                    assert sub.signature() == answer_signature(sub.kind, fresh_value), (
                        f"{name}/{executor}/k={shards}: subscription {sub.id} "
                        "diverged from a fresh engine"
                    )
                    replayed = replay(logs[sub.id])
                    assert answer_signature(sub.kind, replayed) == sub.signature(), (
                        f"{name}/{executor}/k={shards}: delta log of {sub.id} "
                        "does not replay to the maintained answer"
                    )
