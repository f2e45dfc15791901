"""A stateful differential fuzzer over one serial ``GraphService`` with its cache on.

One seeded, shrinkable hypothesis :class:`RuleBasedStateMachine` interleaves
updates (edge inserts and deletes, node adds and removals, a delta that
raises partway, a delta larger than 5% of ``|G|``, and the deltas that move
a pattern search's caps: isolated nodes inside one ``⌊α·|G|⌋`` quantum, an
edge that raises ``d_G``, one off its unique holder), cached ``run_batch``
calls of reachability and pattern requests at two per-request α values, and
subscribe / unsubscribe.  Two standing pattern queries stop on their visits
at the smaller α, so a visit cap that moves must reach them.  After every
step it checks two contracts:

* **(c) fresh parity** — every answer the service gives (a batch's, and
  every subscription's live answer) equals the answer of a fresh, cache-less
  serial service prepared on ``CSRGraph.from_digraph(service.graph)``;
* **(d) replay parity** — every subscription's pushed delta log replays to
  its live answer.

A model ``DiGraph`` takes every delta beside the service, so the drawn ops
are valid (or, for the raising delta, invalid exactly where intended) and
the served graph keeps the model's node order.

Tier-1 runs 30 examples of 12 steps; ``pytest --hypothesis-profile=nightly``
(``make fuzz-nightly``) runs the longer profile ``tests/conftest.py``
registers.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    multiple,
    precondition,
    rule,
)

from repro.exceptions import EdgeNotFoundError
from repro.graph.csr import CSRGraph
from repro.graph.generators import preferential_attachment_graph
from repro.service import GraphService, PatternRequest, ReachRequest, replay
from repro.subscribe import answer_signature
from repro.updates import GraphDelta
from repro.workloads.queries import generate_pattern_workload

ALPHAS = (0.05, 0.2)
#: Tier-1's run length (the ``nightly`` profile replaces it).
TIER1 = settings(max_examples=30, stateful_step_count=12)
LABELS = "ABCD"
#: The share of ``|G|`` one oversized delta must exceed.
LARGE_DELTA_FRACTION = 0.05
#: How many recent requests ``reread`` runs again.
REREAD = 12
#: Reach pairs subscribed at both α when the machine starts.
STANDING_PAIRS = ((30, 2), (25, 0), (39, 5), (12, 1))


def _base_graph():
    """Mostly acyclic, so an edge far from a pair still moves its reach answer."""
    return preferential_attachment_graph(
        num_nodes=40, edges_per_node=2, seed=1, back_edge_probability=0.1
    )


QUERIES = list(generate_pattern_workload(_base_graph(), shape=(3, 3), count=3, seed=1))
#: A 5-node pattern whose search from nodes 1 and 2 of the base graph stops
#: on its visits at ``ALPHAS[0]``, not on its fixpoint.
BOUNDED = list(generate_pattern_workload(_base_graph(), shape=(5, 6), count=3, seed=1))[2].pattern
PATTERNS = [query.pattern for query in QUERIES] + [BOUNDED]


def _kind(request) -> str:
    return request.to_query().kind


class ServiceMachine(RuleBasedStateMachine):
    """One cached serial service, a model graph, and the standing queries."""

    subscriptions = Bundle("subscriptions")

    @initialize(target=subscriptions)
    def open_service(self):
        """A prepared service with reach subscriptions at both α and a pattern one."""
        graph = _base_graph()
        self.model = graph.copy()
        self.service = GraphService(graph, executor="serial", cache_size=64)
        self.service.prepare(reach_alphas=ALPHAS, pattern_alphas=ALPHAS[:1])
        self.logs = {}
        self.requests = []
        self.fresh_service = None
        self.added = 0
        standing = [ReachRequest(*pair, alpha=alpha) for pair in STANDING_PAIRS for alpha in ALPHAS]
        standing.append(PatternRequest(PATTERNS[0], QUERIES[0].personalized_match, alpha=ALPHAS[0]))
        standing += [PatternRequest(BOUNDED, match, alpha=ALPHAS[0]) for match in (1, 2)]
        ids = []
        for request in standing:
            log = []
            ids.append(self.service.subscribe(request, sink=log.append).id)
            self.logs[ids[-1]] = log
        return multiple(*ids)

    def teardown(self):
        for service in (getattr(self, "service", None), getattr(self, "fresh_service", None)):
            if service is not None:
                service.close()

    # ------------------------------------------------------------------ #
    # Drawing
    # ------------------------------------------------------------------ #
    def _node(self, data):
        return data.draw(st.sampled_from(list(self.model.nodes())))

    def _request(self, data):
        alpha = data.draw(st.sampled_from(ALPHAS))
        if data.draw(st.booleans()):
            return ReachRequest(self._node(data), self._node(data), alpha=alpha)
        pattern = data.draw(st.sampled_from(PATTERNS))
        return PatternRequest(pattern, self._node(data), alpha=alpha)

    def _edge_ops(self, data, delta: GraphDelta, count: int) -> None:
        """``count`` edge inserts and deletes, valid in order on the model."""
        for _ in range(count):
            edges = list(self.model.edges())
            if edges and data.draw(st.booleans()):
                source, target = data.draw(st.sampled_from(edges))
                delta.remove_edge(source, target)
                self.model.remove_edge(source, target)
            else:
                source, target = self._node(data), self._node(data)
                delta.add_edge(source, target)
                self.model.add_edge(source, target)

    def _update(self, delta: GraphDelta) -> None:
        self.service.update(delta)
        self._drop_fresh()

    def _drop_fresh(self) -> None:
        if self.fresh_service is not None:
            self.fresh_service.close()
            self.fresh_service = None

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    @rule(data=st.data(), count=st.integers(1, 4))
    def churn_edges(self, data, count):
        delta = GraphDelta()
        self._edge_ops(data, delta, count)
        self._update(delta)

    @rule(data=st.data(), label=st.sampled_from(LABELS))
    def add_node(self, data, label):
        node = f"n{self.model.num_nodes()}-{len(self.logs)}-{data.draw(st.integers(0, 999))}"
        delta = GraphDelta().add_node(node, label=label)
        self.model.add_node(node, label)
        target = self._node(data)
        delta.add_edge(node, target).add_edge(target, node)
        self.model.add_edge(node, target)
        self.model.add_edge(target, node)
        self._update(delta)

    @rule(data=st.data(), label=st.sampled_from(LABELS))
    def add_isolated_nodes(self, data, label):
        """Grow ``|G|`` inside one ``⌊α·|G|⌋`` quantum at ``ALPHAS[0]`` (one
        node when none is left): of that α's caps, only ``⌊d_G·α·|G|⌋`` moves."""
        size, alpha = self.model.size(), ALPHAS[0]
        room = 0
        while math.floor(alpha * (size + room + 1)) == math.floor(alpha * size):
            room += 1
        delta = GraphDelta()
        for _ in range(data.draw(st.integers(1, max(1, room)))):
            self.added += 1
            delta.add_node(f"i{self.added}", label=label)
            self.model.add_node(f"i{self.added}", label)
        self._update(delta)

    def _holder(self):
        """A node of degree ``d_G`` in the model (the first in node order)."""
        return max(self.model.nodes(), key=self.model.degree)

    @rule(data=st.data())
    def raise_max_degree(self, data):
        holder = self._holder()
        targets = [node for node in self.model.nodes() if node != holder and not self.model.has_edge(holder, node)]
        if targets:
            target = data.draw(st.sampled_from(targets))
            self.model.add_edge(holder, target)
            self._update(GraphDelta().add_edge(holder, target))

    @precondition(
        lambda self: [self.model.degree(node) for node in self.model.nodes()].count(self.model.max_degree()) == 1
    )
    @rule(data=st.data())
    def lower_max_degree_holder(self, data):
        holder = self._holder()
        edges = [(holder, node) for node in self.model.successors(holder)]
        edges += [(node, holder) for node in self.model.predecessors(holder)]
        source, target = data.draw(st.sampled_from(edges))
        self.model.remove_edge(source, target)
        self._update(GraphDelta().remove_edge(source, target))

    @rule(data=st.data(), label=st.sampled_from(LABELS))
    def relabel(self, data, label):
        node = self._node(data)
        self.model.add_node(node, label)
        self._update(GraphDelta().add_node(node, label=label))

    @precondition(lambda self: self.model.num_nodes() > 12)
    @rule(data=st.data())
    def remove_node(self, data):
        node = self._node(data)
        self.model.remove_node(node)
        self._update(GraphDelta().remove_node(node))

    @rule(data=st.data(), count=st.integers(1, 3))
    def failing_delta(self, data, count):
        """A valid prefix, then the removal of an edge to a node that is not there."""
        delta = GraphDelta()
        self._edge_ops(data, delta, count)
        delta.remove_edge(self._node(data), "absent")
        with pytest.raises(EdgeNotFoundError):
            self.service.update(delta)
        self._drop_fresh()

    @rule(data=st.data())
    def large_delta(self, data):
        count = int(LARGE_DELTA_FRACTION * self.model.size()) + 2
        delta = GraphDelta()
        self._edge_ops(data, delta, count)
        assert delta.size() > LARGE_DELTA_FRACTION * self.model.size()
        self._update(delta)

    # ------------------------------------------------------------------ #
    # Reads and standing queries
    # ------------------------------------------------------------------ #
    def _check_batch(self, requests) -> None:
        answers = self.service.run_batch(requests).answers
        expected = self._fresh().run_batch(requests).answers
        for request, answer, reference in zip(requests, answers, expected):
            kind = _kind(request)
            assert answer_signature(kind, answer) == answer_signature(kind, reference), request

    @rule(data=st.data(), count=st.integers(1, 4))
    def run_batch(self, data, count):
        requests = [self._request(data) for _ in range(count)]
        self._check_batch(requests)
        self.requests = (self.requests + requests)[-REREAD:]

    @precondition(lambda self: self.requests)
    @rule()
    def reread(self):
        """Every recent request again: what the cache kept must still be exact."""
        self._check_batch(self.requests)

    @rule(target=subscriptions, data=st.data())
    def subscribe(self, data):
        log = []
        subscription = self.service.subscribe(self._request(data), sink=log.append)
        self.logs[subscription.id] = log
        return subscription.id

    @rule(subscription=consumes(subscriptions))
    def unsubscribe(self, subscription):
        self.service.unsubscribe(subscription)
        del self.logs[subscription]

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #
    def _fresh(self) -> GraphService:
        if self.fresh_service is None:
            self.fresh_service = GraphService(
                CSRGraph.from_digraph(self.service.graph), executor="serial", cache_size=0
            )
        return self.fresh_service

    @invariant()
    def served_graph_is_the_model(self):
        assert list(self.service.graph.nodes()) == list(self.model.nodes())
        assert self.service.graph.num_edges() == self.model.num_edges()

    @invariant()
    def subscriptions_equal_fresh_answers_and_their_replayed_logs(self):
        subscriptions = self.service.subscriptions()
        references = self._fresh().run_batch([sub.request for sub in subscriptions]).answers
        for subscription, reference in zip(subscriptions, references):
            live = subscription.signature()
            assert live == answer_signature(subscription.kind, reference), subscription.request
            replayed = replay(self.logs[subscription.id])
            assert answer_signature(subscription.kind, replayed) == live, subscription.request


TestServiceMachine = ServiceMachine.TestCase
TestServiceMachine.settings = settings(
    settings.default if settings.get_current_profile_name() == "nightly" else TIER1,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
