"""Standing queries (``repro.subscribe``): oracle, envelopes, maintenance.

The contracts under test:

* **one oracle** — ``partition_entries`` is the single answer-unchanged
  predicate: ``noop`` retains everything, ``rebuilt`` retains nothing,
  reachability retention needs the preserved α index *and* untouched
  endpoints, pattern retention needs an unmoved budget quantum, an intact
  max-degree guard and a far-enough ball — and the guard never outlives the
  pattern entries it described;
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

from repro.engine.invalidation import (
    anchor_of,
    hops_from,
    partition_entries,
    pattern_budget_changed,
)
from repro.engine.prepared import UpdateSummary
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
    defaults = dict(
        delta_ops=1,
        size_before=100,
        size_after=100,
        touched_degrees_before={},
        touched_degrees_after={},
    )
    defaults.update(kwargs)
    return UpdateSummary(mode=mode, **defaults)


# --------------------------------------------------------------------------- #
# The shared oracle
# --------------------------------------------------------------------------- #
class TestPartitionEntries:
    REACH_ENTRY = ("r", ALPHA, (REACH, 0, 9))
    PATTERN_ENTRY = ("p", ALPHA, ("pattern", 5, 2))

    def _graph(self):
        return line_graph()

    def test_noop_retains_everything_and_keeps_the_guard(self):
        decision = partition_entries(
            [self.REACH_ENTRY, self.PATTERN_ENTRY],
            summary_for("noop"),
            pattern_guard=7,
            graph=self._graph(),
            max_degree=lambda: 7,
        )
        assert set(decision.retained) == {"r", "p"}
        assert decision.stale == []
        assert decision.pattern_guard == 7

    def test_rebuilt_marks_everything_stale(self):
        decision = partition_entries(
            [self.REACH_ENTRY, self.PATTERN_ENTRY],
            summary_for("rebuilt"),
            pattern_guard=7,
            graph=self._graph(),
            max_degree=lambda: 7,
        )
        assert set(decision.stale) == {"r", "p"}
        assert decision.pattern_guard is None

    def test_anchorless_entry_is_always_stale(self):
        decision = partition_entries(
            [("mystery", ALPHA, None)],
            summary_for(reach_alphas_preserved={ALPHA: True}),
            pattern_guard=None,
            graph=self._graph(),
            max_degree=lambda: 2,
        )
        assert decision.stale == ["mystery"]

    def test_reach_needs_preserved_index_and_untouched_endpoints(self):
        preserved = {ALPHA: True}
        for touched, kept in (({5}, True), ({0}, False), ({9}, False)):
            decision = partition_entries(
                [self.REACH_ENTRY],
                summary_for(touched_nodes=touched, reach_alphas_preserved=preserved),
                pattern_guard=None,
                graph=self._graph(),
                max_degree=lambda: 2,
            )
            assert ("r" in decision.retained) is kept
        decision = partition_entries(
            [self.REACH_ENTRY],
            summary_for(touched_nodes={5}, reach_alphas_preserved={ALPHA: False}),
            pattern_guard=None,
            graph=self._graph(),
            max_degree=lambda: 2,
        )
        assert decision.stale == ["r"]

    def test_pattern_without_guard_is_stale(self):
        decision = partition_entries(
            [self.PATTERN_ENTRY],
            summary_for(touched_nodes={11}),
            pattern_guard=None,
            graph=self._graph(),
            max_degree=lambda: 2,
        )
        assert decision.stale == ["p"]

    def test_pattern_ball_distance_decides(self):
        # Pattern anchored at node 5 with radius 2: touching node 8 (3 hops
        # away) retains it, touching node 7 (2 hops) does not.
        for touched, kept in (({8}, True), ({7}, False), ({5}, False)):
            decision = partition_entries(
                [self.PATTERN_ENTRY],
                summary_for(touched_nodes=touched),
                pattern_guard=2,
                graph=self._graph(),
                max_degree=lambda: 2,
            )
            assert ("p" in decision.retained) is kept, touched

    def test_budget_quantum_crossing_evicts_within_quantum_retains(self):
        # α=0.05: ⌊0.05·100⌋ = 5 = ⌊0.05·119⌋, but ⌊0.05·120⌋ = 6.
        within = summary_for(touched_nodes={11}, size_before=100, size_after=119)
        crossing = summary_for(touched_nodes={11}, size_before=100, size_after=120)
        assert not pattern_budget_changed(ALPHA, within)
        assert pattern_budget_changed(ALPHA, crossing)
        for summary, kept in ((within, True), (crossing, False)):
            decision = partition_entries(
                [self.PATTERN_ENTRY],
                summary,
                pattern_guard=2,
                graph=self._graph(),
                max_degree=lambda: 2,
            )
            assert ("p" in decision.retained) is kept

    def test_budget_quantum_is_per_alpha(self):
        # The same drift moves α=0.05's budget but not α=0.01's.
        summary = summary_for(touched_nodes={11}, size_before=100, size_after=120)
        assert pattern_budget_changed(0.05, summary)
        assert not pattern_budget_changed(0.01, summary)

    def test_degree_above_guard_evicts_all_patterns(self):
        decision = partition_entries(
            [self.PATTERN_ENTRY],
            summary_for(touched_nodes={11}, touched_degrees_after={11: 3}),
            pattern_guard=2,
            graph=self._graph(),
            max_degree=lambda: 3,
        )
        assert decision.stale == ["p"]
        assert decision.pattern_guard is None

    def test_shrunk_guard_holder_rechecks_the_live_max(self):
        summary = summary_for(
            touched_nodes={11},
            touched_degrees_before={11: 2},
            touched_degrees_after={11: 1},
        )
        kept = partition_entries(
            [self.PATTERN_ENTRY], summary, pattern_guard=2,
            graph=self._graph(), max_degree=lambda: 2,
        )
        assert kept.retained == ["p"]
        dropped = partition_entries(
            [self.PATTERN_ENTRY], summary, pattern_guard=2,
            graph=self._graph(), max_degree=lambda: 1,
        )
        assert dropped.stale == ["p"]

    def test_guard_never_outlives_the_pattern_entries(self):
        # Every pattern entry goes stale -> the guard must come back None,
        # even though it was valid coming in (the stale-guard healing rule).
        decision = partition_entries(
            [self.PATTERN_ENTRY, self.REACH_ENTRY],
            summary_for(
                touched_nodes={5}, reach_alphas_preserved={ALPHA: True}
            ),
            pattern_guard=2,
            graph=self._graph(),
            max_degree=lambda: 2,
        )
        assert decision.stale == ["p"]
        assert decision.retained == ["r"]
        assert decision.pattern_guard is None

    def test_hops_from_is_undirected_and_bounded(self):
        graph = line_graph(6)
        hops = hops_from(graph, {3}, max_hops=2)
        assert hops == {3: 0, 2: 1, 4: 1, 1: 2, 5: 2}

    def test_anchor_of_both_query_classes(self):
        assert anchor_of(ReachRequest(3, 8)) == (REACH, 3, 8)
        graph = youtube_like(seed=0)
        query = next(iter(generate_pattern_workload(graph, shape=(3, 3), count=1, seed=1)))
        anchor = anchor_of(
            PatternRequest(query.pattern, query.personalized_match)
        )
        assert anchor == ("pattern", query.personalized_match, 3)


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


    def test_patched_update_reads_the_maintained_max_degree(self, monkeypatch):
        """Rebuilt matchers take ``d_G`` from ``PreparedGraph.max_degree``, which
        ``apply_delta`` keeps current, instead of rescanning the overlay."""
        from repro.updates.delta import GraphDelta
        from repro.updates.overlay import MutableOverlay

        scans = []
        original = MutableOverlay.max_degree

        def counted(overlay):
            scans.append(overlay)
            return original(overlay)

        monkeypatch.setattr(MutableOverlay, "max_degree", counted)
        with self._service() as service:
            service.prepare()  # a condensation to patch
            query = next(
                iter(generate_pattern_workload(service.graph, shape=(3, 3), count=1, seed=4))
            )
            sub = service.subscribe(PatternRequest(query.pattern, query.personalized_match))
            anchor = query.personalized_match
            strangers = [
                node
                for node in service.graph.nodes()
                if node != anchor and node not in service.graph.neighbors(anchor)
            ]
            warm = service.update(GraphDelta().add_edge(anchor, strangers[0]))
            assert warm.mode == "patched"
            del scans[:]
            report = service.update(GraphDelta().add_edge(strangers[1], anchor))
            assert report.mode == "patched"
            assert report.maintenance.affected == 1
            assert scans == []
            with GraphService(service.graph, ServiceConfig(alpha=ALPHA)) as fresh:
                again = fresh.run_batch([sub.request], sub.alpha).answers[0]
            assert sub.signature() == answer_signature(sub.kind, again)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_confined_churn_affects_at_most_a_fifth(self, seed):
        """Growth confined to two communities re-evaluates ≤20% of pattern
        subscriptions spread over all of them, and none goes stale.

        A double-size hub community owns the max degree, so churn never trips
        the guard; the stream's size drift stays inside one α-budget quantum.
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
