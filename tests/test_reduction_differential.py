"""Differential and work-count tests for the flat ``Search``/``Pick``.

``tests/reduction_oracle.py`` keeps the per-neighbour implementation that
``DynamicReducer`` replaced, with the resume rule written out and no caches.
Both must produce the same ``ReductionResult`` — ``G_Q`` node order, edge
order, labels, every budget charge, the final bound, the pass count, the
per-query-node candidate counts, the stop, the cut and re-Pick counts,
whether the unweighted pass settled or the weighted search restarted, and
the visits the abandoned pass was charged — for a ``DiGraph``, a
``CSRGraph`` and a churned ``MutableOverlay`` handed in, for both guarded
conditions, with the ablation flags on and off, with the scan cap small
enough to bite, and with a visit cap tight enough to stop the search
mid-pass.  The flat reducer searches the ``CSRGraph`` freeze of what it is
handed, as the matchers do on entry; the oracle walks the substrate as
given, neighbour by neighbour, so a freeze that moved a node or a
neighbour shows as a difference.  The random sweep counts 150 draws the
unweighted pass made alone and, on the same draws narrowed to a small
alpha, 150 whose weighted search restarted.  Searches that fill
``G_Q`` and reclaim it are compared on layered graphs dense with spare
witnesses and on the end-to-end ``community`` log, where the oracle's
witness rules (per pair, per embedding) are its own.
The step test holds the incrementally maintained ``c(v, u)`` and ``p(v, u)``
to the oracle's from-scratch values after every single ``G_Q`` insertion.
A ``DiGraph`` or a ``MutableOverlay`` handed to ``RBSim``/``RBSub`` answers
as its ``CSRGraph`` freeze, search for search.

The count gates at the bottom are the deterministic stand-in for a timing
floor: what the search state promises is that no ``(node, query node)`` guard
evaluation (one by one or a row at a time) and no row load is repeated within
one search, however many passes it takes, that a search never snapshots
``G_Q``, and that on a ``CSRGraph`` it probes no edge and reads no label node
by node.
"""

import random
from collections import Counter
from itertools import chain

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from guard_reference import checked
from reduction_oracle import OracleReducer, OracleWeightEstimator, build_reducer, fingerprint
from repro.core.budget import ResourceBudget
from repro.core.rbsim import RBSim
from repro.core.rbsub import RBSub
from repro.core.reduction import DynamicReducer
from repro.core.weights import IsomorphismGuard, SimulationGuard, WeightEstimator
from repro.exceptions import WorkloadError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import community_graph
from repro.graph.neighborhood import NeighborhoodIndex
from repro.graph.subgraph import SubgraphBuilder
from repro.patterns.generator import embedded_pattern, random_pattern
from repro.patterns.pattern import make_pattern
from repro.updates.overlay import MutableOverlay
from repro.workloads.datasets import load_dataset
from repro.workloads.queries import generate_pattern_workload

GUARDS = {"simulation": SimulationGuard, "isomorphism": IsomorphismGuard}
LABELS = ["A", "B", "C"]


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
@st.composite
def labeled_graphs(draw, self_loops=False):
    """Weakly connected random digraphs, dense enough for reciprocal edges
    (a neighbour on both sides of a node is what the de-duplication and the
    scan cap treat differently); with ``self_loops`` a node may be its own."""
    num_nodes = draw(st.integers(min_value=5, max_value=18))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    graph = DiGraph()
    for node in range(num_nodes):
        graph.add_node(node, rng.choice(LABELS))
    for node in range(1, num_nodes):
        anchor = rng.randrange(node)
        graph.add_edge(*((anchor, node) if rng.random() < 0.5 else (node, anchor)))
    for _ in range(draw(st.integers(min_value=0, max_value=3 * num_nodes))):
        source, target = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if source != target or self_loops:
            graph.add_edge(source, target)
            if rng.random() < 0.3:
                graph.add_edge(target, source)
    return graph


def churned_overlay(graph: DiGraph, seed: int):
    """``graph`` as a CSR base under an overlay that has absorbed a few edits;
    returns the overlay and the ``DiGraph`` with the same content."""
    overlay = MutableOverlay(CSRGraph.from_digraph(graph))
    mirror = graph.copy()
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    for source, target in rng.sample(list(graph.edges()), min(3, graph.num_edges())):
        overlay.remove_edge(source, target)
        mirror.remove_edge(source, target)
    newcomer = len(nodes)
    overlay.add_node(newcomer, rng.choice(LABELS))
    mirror.add_node(newcomer, overlay.label(newcomer))
    for _ in range(4):
        source, target = rng.choice(nodes + [newcomer]), rng.choice(nodes + [newcomer])
        if source != target and not mirror.has_edge(source, target):
            overlay.add_edge(source, target)
            mirror.add_edge(source, target)
    return overlay, mirror


def substrate_of(kind: str, graph: DiGraph, seed: int):
    """The substrate handed in and a ``DiGraph`` with the same content."""
    if kind == "digraph":
        return graph, graph
    if kind == "csr":
        return CSRGraph.from_digraph(graph), graph
    return churned_overlay(graph, seed)


def draw_query(content: DiGraph, seed: int, embedded: bool):
    """A pattern and its personalized match: embedded in the graph, or drawn
    from the alphabet (plus a label no node carries) around an arbitrary node."""
    rng = random.Random(seed)
    shape = rng.choice([(2, 1), (3, 3), (4, 4), (4, 6)])
    if embedded:
        try:
            return embedded_pattern(content, *shape, seed=seed)
        except WorkloadError:
            pass  # too sparse around every seed: fall through to a random pattern
    num_nodes, num_edges = shape
    num_edges = max(num_nodes - 1, min(num_edges, num_nodes * (num_nodes - 1)))
    return random_pattern(num_nodes, num_edges, LABELS + ["Z"], seed=seed), rng.choice(list(content.nodes()))


def visit_coefficient(graph, pattern, cap: str) -> float:
    """The ``c`` of the visit cap ``c * alpha * |G|``.

    ``paper`` is ``RBSim``'s default, ``d_G``.  ``tight`` (a quarter of an
    item per item of ``G``) stops most searches on their visits early, so
    the stop lands mid-pass and mid-insertion.  ``loose`` allows every
    ``Pick`` of every query edge at every node to be made ``d_G`` times over,
    so storage or a fixpoint ends the search instead.
    """
    max_degree = max(1, graph.max_degree())
    if cap == "paper":
        return max_degree
    if cap == "tight":
        return 0.25
    return 8 * pattern.num_edges() * max_degree * max_degree + 8


def build(reducer_class, graph, pattern, vp, guard_class, alpha, max_scan, visit_cap="loose", **flags):
    """One reducer over its own index, guard and budget (nothing memoised is
    shared).  The flat reducer searches the freeze of ``graph`` (what the
    matchers do on entry); the oracle walks ``graph`` as given, and its guard
    answers its node-by-node ``check``."""
    index = NeighborhoodIndex(graph)
    if reducer_class is OracleReducer:
        guard_class = checked(guard_class)
    else:
        graph = index.graph
    guard = guard_class(pattern, index.graph, vp, index)
    budget = ResourceBudget(
        alpha=alpha,
        graph_size=graph.size(),
        visit_coefficient=visit_coefficient(graph, pattern, visit_cap),
    )
    return build_reducer(
        reducer_class, max_scan, pattern=pattern, graph=graph, personalized_match=vp, guard=guard,
        budget=budget, **flags
    )


def reduce_both(graph, pattern, vp, guard_kind, alpha, max_scan, **flags):
    """Results of the flat reducer and of the frozen oracle on one input."""
    return tuple(
        build(reducer_class, graph, pattern, vp, GUARDS[guard_kind], alpha, max_scan, **flags).search()
        for reducer_class in (DynamicReducer, OracleReducer)
    )


# --------------------------------------------------------------------------- #
# The sweep
# --------------------------------------------------------------------------- #
#: What the sweeps draw besides alpha and the visit cap.
SWEEP = dict(
    graph=labeled_graphs(),
    seed=st.integers(min_value=0, max_value=10_000),
    embedded=st.booleans(),
    substrate=st.sampled_from(["digraph", "csr", "overlay"]),
    guard_kind=st.sampled_from(sorted(GUARDS)),
    use_weights=st.booleans(),
    use_guard=st.booleans(),
    max_scan=st.sampled_from([1, 3, 64]),
)


def sweep_case(graph, seed, embedded, substrate, guard_kind, use_weights, use_guard, max_scan, alpha, visit_cap):
    """One drawn search, held to the oracle; returns its result."""
    host, content = substrate_of(substrate, graph, seed)
    pattern, vp = draw_query(content, seed, embedded)
    result, expected = reduce_both(
        host, pattern, vp, guard_kind, alpha, max_scan,
        visit_cap=visit_cap, use_weights=use_weights, use_guard=use_guard,
    )
    assert fingerprint(result) == fingerprint(expected)
    assert result.budget.within_size_bound
    assert result.budget.within_visit_bound
    return result


@settings(max_examples=150, deadline=None)
@given(**SWEEP, alpha=st.sampled_from([0.15, 0.4, 1.0]), visit_cap=st.sampled_from(["tight", "paper", "loose"]))
def test_table_backed_search_equals_the_frozen_oracle(**drawn):
    """Every draw is compared; the 150 that count are those the unweighted
    pass made alone (about nine in ten draws)."""
    assume(not sweep_case(**drawn).restarted)


@settings(max_examples=150, deadline=None)
@given(**SWEEP, alpha=st.just(0.15), visit_cap=st.just("loose"))
def test_a_restarted_search_equals_the_frozen_oracle(**drawn):
    """The same draws where ``G_Q`` fills most (a small alpha, visits to read
    it): the 150 that count are those whose unweighted pass was abandoned
    and whose weighted search restarted (about half the draws)."""
    assume(sweep_case(**drawn).restarted)


@settings(max_examples=60, deadline=None)
@given(
    graph=labeled_graphs(),
    seed=st.integers(min_value=0, max_value=10_000),
    embedded=st.booleans(),
    alpha=st.sampled_from([0.15, 0.4, 1.0]),
)
def test_a_digraph_or_an_overlay_answers_as_its_csr_freeze(graph, seed, embedded, alpha):
    """The matchers freeze what they are given: a ``DiGraph`` and a churned
    ``MutableOverlay`` give the answer, ``G_Q`` node and edge lists and spend
    of their ``CSRGraph`` freeze."""
    overlay, content = churned_overlay(graph, seed)
    pattern, vp = draw_query(content, seed, embedded)
    for host in (graph, content, overlay):
        frozen = CSRGraph.from_digraph(host)
        for matcher_class in (RBSim, RBSub):
            given, expected = (matcher_class(g, alpha).answer(pattern, vp) for g in (host, frozen))
            assert given.answer == expected.answer
            if vp in host:  # else neither searches
                assert fingerprint(given.reduction) == fingerprint(expected.reduction)
                assert given.reduction.spend() == expected.reduction.spend()


@pytest.mark.parametrize("backend", ["digraph", "csr"])
@pytest.mark.parametrize("guard_kind", sorted(GUARDS))
def test_hub_personalized_match_on_youtube(backend, guard_kind):
    """A hub ``vp``: reciprocal edges put neighbours on both of its sides, and
    its adjacency is far past the first-64 cap of ``p(v, u)``."""
    content = load_dataset("youtube")
    hub = max(content.nodes(), key=content.degree)
    assert set(content.successors(hub)) & set(content.predecessors(hub))
    assert content.out_degree(hub) + content.in_degree(hub) > 64
    graph = content if backend == "digraph" else CSRGraph.from_digraph(content)
    pattern, vp = embedded_pattern(content, 4, 8, seed=7, personalized_node=hub)
    result, expected = reduce_both(graph, pattern, vp, guard_kind, 0.02, 64, visit_cap="paper")
    assert fingerprint(result) == fingerprint(expected)
    assert result.subgraph.num_nodes() > 1
    assert result.budget.within_size_bound
    assert result.budget.within_visit_bound


@pytest.fixture(scope="module")
def youtube_log():
    """The 64-query (4, 8) pattern log of the ``youtube`` surrogate, and its CSR freeze."""
    content = load_dataset("youtube")
    workload = generate_pattern_workload(content, shape=(4, 8), count=64, seed=7)
    return CSRGraph.from_digraph(content), workload.queries


@pytest.mark.parametrize("guard_kind", sorted(GUARDS))
def test_youtube_pattern_log_equals_the_frozen_oracle(youtube_log, guard_kind):
    """Every query of a real log, on the backend whose wide rows are decided
    in row space: hubs are common there, not one hand-picked case."""
    graph, queries = youtube_log
    for query in queries:
        result, expected = reduce_both(
            graph, query.pattern, query.personalized_match, guard_kind, 0.02, 64, visit_cap="paper"
        )
        assert fingerprint(result) == fingerprint(expected)
        assert result.budget.within_size_bound
        assert result.budget.within_visit_bound


# --------------------------------------------------------------------------- #
# Reclamation: G_Q fills with spare witnesses
# --------------------------------------------------------------------------- #
@st.composite
def layered_graphs(draw):
    """``vp`` (label P) over 2-5 A nodes over 2-5 B nodes: every A is a child
    of ``vp``, and A -> B edges are dense (some B -> A come back), so a ``G_Q``
    that fills holds more witnesses than its answer needs."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    graph = DiGraph()
    graph.add_node("vp", "P")
    layers = [[f"{label.lower()}{i}" for i in range(draw(st.integers(min_value=2, max_value=5)))] for label in "AB"]
    for label, layer in zip("AB", layers):
        for node in layer:
            graph.add_node(node, label)
    for upper in layers[0]:
        graph.add_edge("vp", upper)
        for lower in layers[1]:
            if rng.random() < 0.7:
                graph.add_edge(upper, lower)
            if rng.random() < 0.2:
                graph.add_edge(lower, upper)
    return graph


LAYERED_PATTERNS = [
    make_pattern({"p": "P", "a": "A", "b": "B"}, [("p", "a"), ("a", "b")], personalized="p", output="b"),
    make_pattern({"p": "P", "a": "A", "b": "B"}, [("p", "a"), ("a", "b"), ("b", "a")], personalized="p", output="a"),
]


@settings(max_examples=150, deadline=None)
@given(
    graph=layered_graphs(),
    seed=st.integers(min_value=0, max_value=10_000),
    shape=st.sampled_from(range(len(LAYERED_PATTERNS))),
    substrate=st.sampled_from(["digraph", "csr", "overlay"]),
    guard_kind=st.sampled_from(sorted(GUARDS)),
    alpha=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    visit_cap=st.sampled_from(["tight", "paper", "loose"]),
)
def test_a_reclaiming_search_equals_the_frozen_oracle(graph, seed, shape, substrate, guard_kind, alpha, visit_cap):
    """Every draw is compared; the 150 that count are those whose unweighted
    pass met a limit, so the weighted search restarted and could reclaim."""
    host, _ = substrate_of(substrate, graph, seed)
    result, expected = reduce_both(
        host, LAYERED_PATTERNS[shape], "vp", guard_kind, alpha, 64, visit_cap=visit_cap
    )
    assert fingerprint(result) == fingerprint(expected)
    assert result.budget.within_size_bound
    assert result.budget.within_visit_bound
    assume(result.restarted)


def test_the_community_pattern_log_equals_the_frozen_oracle():
    """The e2e ``community`` log at alpha 0.01, simulation and subgraph
    queries alternating: the log on which searches fill ``G_Q`` and reclaim."""
    content = community_graph([120] + [60] * 79, intra_probability=0.1, inter_edges=0, seed=7)
    graph = CSRGraph.from_digraph(content)
    queries = generate_pattern_workload(content, shape=(4, 8), count=64, seed=7).queries
    reclaimed = 0
    for position, query in enumerate(queries):
        guard_kind = sorted(GUARDS)[1 - position % 2]  # simulation first
        result, expected = reduce_both(
            graph, query.pattern, query.personalized_match, guard_kind, 0.01, 64, visit_cap="paper"
        )
        assert fingerprint(result) == fingerprint(expected), position
        reclaimed += result.reclaimed > 0
    assert reclaimed >= 5, "too few searches reclaimed: the check shows little"


# --------------------------------------------------------------------------- #
# Hubs: the capped scan, the wide member, the set-ordered edge insertion
# --------------------------------------------------------------------------- #
SPOKES = 80


def hub_graph() -> DiGraph:
    """``vp`` (with a self-loop) fans out to 80 spokes; every spoke is tied to
    two far hubs by reciprocal edges, and every fourth one back to ``vp``.

    The whole ball is 483 of the 505 items of ``G``, so at ``alpha`` 0.9 or
    less the unweighted pass fills ``G_Q`` and the weighted search restarts.
    With the bound past 80 the spokes all join ``G_Q`` in one of its passes,
    so each far hub is re-ranked while ever more of its row (each spoke in it
    twice) is in ``G_Q``: past ``max_scan`` members the capped scan decides
    ``c(v, u)``.
    ``vp`` and the far hubs are too wide to push.  Node ids are strings, so
    the iteration order of the ``G_Q`` set that the hub branch inserts edges
    in is the set's own, not the insertion order.
    """
    graph = DiGraph()
    graph.add_node("vp", "P")
    graph.add_edge("vp", "vp")
    for far in ("far-0", "far-1"):
        graph.add_node(far, "B")
    for position in range(SPOKES):
        spoke = f"spoke-{position}"
        graph.add_node(spoke, "A")
        graph.add_edge("vp", spoke)
        if position % 4 == 0:
            graph.add_edge(spoke, "vp")
        for far in ("far-0", "far-1"):
            graph.add_edge(spoke, far)
            graph.add_edge(far, spoke)
    graph.add_edge("spoke-5", "spoke-5")
    return graph


def members_around(graph, node, in_gq) -> int:
    """How many entries of the row of ``node`` are members of ``G_Q``."""
    return sum(n in in_gq for n in chain(graph.successors(node), graph.predecessors(node)))


@pytest.mark.parametrize("substrate", ["digraph", "csr", "overlay"])
@pytest.mark.parametrize("guard_kind", sorted(GUARDS))
@pytest.mark.parametrize("max_scan", [1, 3, 64])
@pytest.mark.parametrize("alpha", [0.25, 0.9])
def test_hub_candidate_with_more_members_around_it_than_the_scan_cap(
    substrate, guard_kind, max_scan, alpha
):
    host, content = substrate_of(substrate, hub_graph(), seed=11)
    pattern = make_pattern(
        {"p": "P", "a": "A", "b": "B"}, [("p", "a"), ("a", "b"), ("b", "a")],
        personalized="p", output="b",
    )
    reducers = [
        build(cls, host, pattern, "vp", GUARDS[guard_kind], alpha, max_scan, initial_bound=SPOKES + 20)
        for cls in (DynamicReducer, OracleReducer)
    ]
    result, expected = (reducer.search() for reducer in reducers)
    assert fingerprint(result) == fingerprint(expected)
    assert result.budget.within_size_bound

    # The paths the case exists for did run: a wide member was kept aside, a
    # ranked candidate had more members around it than the cap (the tight
    # budget is there to stop mid-way through an edge insertion instead), and
    # what the search state says of every ranked pair is what the oracle recomputes.
    assert result.restarted, "the budget must bind, or no weight is asked"
    state = reducers[0]._estimator
    assert state._wide
    ranked = set(state._usable)
    crowded = [node for node, _ in ranked if members_around(content, node, state.in_gq) > max_scan]
    assert crowded or alpha < 0.9
    index = NeighborhoodIndex(host)
    guard = checked(GUARDS[guard_kind])(pattern, index.graph, "vp", index)
    oracle = OracleWeightEstimator(pattern, host, guard, max_scan)
    for node, query_node in ranked:
        assert state.cost(node, query_node) == oracle.cost(node, query_node, state.in_gq)
        assert state.potential(node, query_node) == oracle.potential(node, query_node, state.in_gq)


# --------------------------------------------------------------------------- #
# The incremental c(v, u) and p(v, u), one insertion at a time
# --------------------------------------------------------------------------- #
@settings(max_examples=150, deadline=None)
@given(
    graph=labeled_graphs(self_loops=True),
    seed=st.integers(min_value=0, max_value=10_000),
    substrate=st.sampled_from(["digraph", "csr", "overlay"]),
    guard_kind=st.sampled_from(sorted(GUARDS)),
    max_scan=st.sampled_from([1, 2, 3, 64]),
)
def test_costs_and_potentials_track_the_oracle_after_every_insertion(
    graph, seed, substrate, guard_kind, max_scan
):
    """The search state reads the freeze; the oracle walks the substrate."""
    host, content = substrate_of(substrate, graph, seed)
    pattern, vp = draw_query(content, seed, embedded=False)
    index = NeighborhoodIndex(host)
    frozen = index.graph
    state = WeightEstimator(pattern, frozen, vp, GUARDS[guard_kind](pattern, frozen, vp, index), max_scan)
    oracle = OracleWeightEstimator(pattern, host, checked(GUARDS[guard_kind])(pattern, frozen, vp, index), max_scan)
    nodes = list(content.nodes())
    rng = random.Random(seed)
    rng.shuffle(nodes)
    in_gq = set()
    for member in [None] + nodes:  # the empty G_Q first, then one node at a time
        if member is not None:
            state.admit(member)
            in_gq.add(member)
        # Pairs ranked before the insertion are read again after it, as a
        # later ``Pick`` does: only some have been touched when it lands.
        for node in rng.sample(nodes, max(1, len(nodes) // 2)):
            for query_node in pattern.nodes():
                assert state.cost(node, query_node) == oracle.cost(node, query_node, in_gq)
                assert state.potential(node, query_node) == oracle.potential(node, query_node, in_gq)
    assert state.in_gq == in_gq


@pytest.mark.parametrize("substrate", ["digraph", "csr", "overlay"])
def test_a_member_on_both_sides_counts_twice_towards_the_cap(substrate):
    """The row of ``v`` reads ``x | x, y, vp``; with ``x`` and ``y`` in ``G_Q``
    and ``max_scan = 2`` the cap keeps ``x, x`` and never sees what ``y`` plays."""
    graph = DiGraph()
    for node, label in {"vp": "P", "v": "B", "x": "A", "y": "C"}.items():
        graph.add_node(node, label)
    for edge in [("v", "x"), ("x", "v"), ("y", "v"), ("vp", "v")]:
        graph.add_edge(*edge)
    host = {
        "digraph": graph,
        "csr": CSRGraph.from_digraph(graph),
        "overlay": MutableOverlay(CSRGraph.from_digraph(graph)),
    }[substrate]
    pattern = make_pattern(
        {"p": "P", "b": "B", "a": "A", "c": "C"},
        [("p", "b"), ("b", "a"), ("a", "b"), ("c", "b")],
        personalized="p", output="a",
    )
    index = NeighborhoodIndex(host)
    guard = checked(SimulationGuard)(pattern, index.graph, "vp", index)
    oracle = OracleWeightEstimator(pattern, host, guard, max_scan=2)
    state = WeightEstimator(pattern, index.graph, "vp", guard, max_scan=2)
    assert state.cost("v", "b") == oracle.cost("v", "b", set()) == 3
    state.admit("x")
    state.admit("y")
    assert state.cost("v", "b") == oracle.cost("v", "b", {"x", "y"}) == 2  # p and c
    uncapped = WeightEstimator(pattern, index.graph, "vp", guard, max_scan=3)
    uncapped.admit("x")
    uncapped.admit("y")
    assert uncapped.cost("v", "b") == 1  # only p is missing once y is seen


# --------------------------------------------------------------------------- #
# The work gate (counts, not seconds)
# --------------------------------------------------------------------------- #
def counting(guard_class, evaluations: Counter, row_calls: Counter, owner: list):
    """``guard_class`` with every ``(node, query node)`` it evaluates tallied,
    one by one (``check_asked``) or a row at a time (``check_rows``), and
    every ``check_rows`` call tallied per (row owner, query node)."""

    class Counting(guard_class):
        def check_asked(self, node, query_node, row=None):
            evaluations[(node, query_node)] += 1
            return super().check_asked(node, query_node, row)

        def check_rows(self, rows, query_node):
            row_calls[(owner[-1], query_node)] += 1
            evaluations.update((node, query_node) for node in self._graph.ids_of(rows))
            return super().check_rows(rows, query_node)

    return Counting


@pytest.mark.parametrize("backend", ["digraph", "csr"])
@pytest.mark.parametrize("guard_kind", sorted(GUARDS))
@pytest.mark.parametrize("alpha", [0.05, 0.02])
def test_one_search_repeats_no_guard_evaluation_and_no_adjacency_scan(
    backend, guard_kind, alpha, monkeypatch
):
    """The gates hold on the freeze a ``DiGraph`` handed in gets, as on a
    ``CSRGraph`` handed in as it is."""
    content = load_dataset("youtube-small")
    graph = content if backend == "digraph" else CSRGraph.from_digraph(content)
    hub = max(content.nodes(), key=content.degree)
    pattern, vp = embedded_pattern(content, 4, 8, seed=3, personalized_node=hub)

    evaluations: Counter = Counter()
    loads: Counter = Counter()
    load = WeightEstimator._load

    def tallied_load(state, node, limit):
        loads[(node, limit is None)] += 1
        return load(state, node, limit)

    monkeypatch.setattr(WeightEstimator, "_load", tallied_load)

    # ``SubgraphBuilder.nodes()`` calls made while a search runs (``Pick``
    # is inline, so this covers every ``Pick`` and more).
    searching, snapshots = [], []
    search, snapshot_nodes = DynamicReducer.search, SubgraphBuilder.nodes

    def flagged_search(reducer):
        searching.append(True)
        try:
            return search(reducer)
        finally:
            searching.pop()

    def tallied_nodes(builder):
        snapshots.extend(searching)
        return snapshot_nodes(builder)

    # The nodes an abandoned unweighted pass admitted to its own G_Q.
    admitted, abandoned = [], set()
    add_node, weighted = SubgraphBuilder.add_node, DynamicReducer._weighted

    def tallied_add_node(builder, node, *label):
        admitted.append(node)
        return add_node(builder, node, *label)

    def restarting(reducer, *arguments):
        abandoned.update(admitted)
        return weighted(reducer, *arguments)

    monkeypatch.setattr(DynamicReducer, "search", flagged_search)
    monkeypatch.setattr(DynamicReducer, "_weighted", restarting)
    monkeypatch.setattr(SubgraphBuilder, "nodes", tallied_nodes)
    monkeypatch.setattr(SubgraphBuilder, "add_node", tallied_add_node)
    guard_class = counting(GUARDS[guard_kind], evaluations, Counter(), [None])
    reducer = build(DynamicReducer, graph, pattern, vp, guard_class, alpha, 64)
    result = reducer.search()
    # At 0.05 the unweighted pass settles the search; at 0.02 it fills G_Q,
    # and the weighted search restarts and resumes.
    assert result.restarted == (alpha < 0.05) == bool(abandoned)
    if result.restarted:
        assert result.passes >= 3, "the case must restart, or it shows nothing about passes"

    # Guard: no (node, query node) pair is evaluated twice, whatever the pass
    # count, across an abandoned pass and the search that restarted.
    assert set(evaluations.values()) == {1}

    # Rows: at most one whole and one head load per node, and whole rows only
    # of nodes the search put in G_Q (candidates are read through their head),
    # or an abandoned pass put in its own.
    assert set(loads.values()) == {1}
    assert {node for node, whole in loads if whole} <= set(result.subgraph.nodes()) | abandoned

    # G_Q: the search reads its state's own set, never a snapshot.
    assert not snapshots


@pytest.mark.parametrize("guard_kind", sorted(GUARDS))
@pytest.mark.parametrize("alpha", [0.05, 0.02])
def test_a_csr_search_reads_rows_not_nodes(guard_kind, alpha, monkeypatch):
    """On a ``CSRGraph`` the search reads the host in row space: no edge probe
    (``G_Q`` edges come from the admitted node's own row), no per-node label
    read (labels arrive with the row gathers), and one ``check_rows`` call per
    (wide row, query node) decides every untried entry of that row."""
    content = load_dataset("youtube-small")
    graph = CSRGraph.from_digraph(content)
    hub = max(content.nodes(), key=content.degree)
    pattern, vp = embedded_pattern(content, 4, 8, seed=3, personalized_node=hub)

    probes: Counter = Counter()
    for name in ("has_edge", "label"):
        method = getattr(CSRGraph, name)

        def tallied(host, *arguments, _name=name, _method=method):
            probes[_name] += 1
            return _method(host, *arguments)

        monkeypatch.setattr(CSRGraph, name, tallied)

    # Which row's eligibility is being decided when ``check_rows`` is called.
    owner = [None]
    eligible = WeightEstimator.eligible

    def owned_eligible(state, node, query_node):
        owner.append(node)
        try:
            return eligible(state, node, query_node)
        finally:
            owner.pop()

    monkeypatch.setattr(WeightEstimator, "eligible", owned_eligible)
    evaluations: Counter = Counter()
    row_calls: Counter = Counter()
    guard_class = counting(GUARDS[guard_kind], evaluations, row_calls, owner)
    reducer = build(DynamicReducer, graph, pattern, vp, guard_class, alpha, 64)
    result = reducer.search()
    # The unweighted pass settles at 0.05; at 0.02 the weighted search restarts.
    assert result.restarted == (alpha < 0.05)
    assert probes == Counter(), "the search probed the host node by node"
    expected = build(OracleReducer, graph, pattern, vp, GUARDS[guard_kind], alpha, 64).search()
    assert fingerprint(result) == fingerprint(expected)

    assert row_calls, "the hub's row must be decided in row space"
    assert set(row_calls.values()) == {1}
    state = reducer._estimator
    assert all(len(state.row(node)) > state.max_scan for node, _ in row_calls)
    assert set(evaluations.values()) == {1}


@pytest.mark.parametrize("alpha", [0.05, 0.02])
def test_a_csr_rbsub_answer_reads_each_row_once_and_builds_no_view(alpha, monkeypatch):
    """On youtube-small's hub, a cold ``RBSub`` answer on a ``CSRGraph`` builds
    no ``successors``/``predecessors`` view (the guard reads ``vp``'s sides
    and every row as index slices), loads each whole row at most once, and
    never reads again the row of a node whose whole row it loaded (the
    guard's test of that node reads the loaded record), but for the one
    read of ``vp``'s sides the guard makes for its pinned neighbours."""
    content = load_dataset("youtube-small")
    graph = CSRGraph.from_digraph(content)
    hub = max(content.nodes(), key=content.degree)
    pattern, vp = embedded_pattern(content, 4, 8, seed=3, personalized_node=hub)

    views: Counter = Counter()
    for name in ("successors", "predecessors"):
        method = getattr(CSRGraph, name)

        def tallied(host, node, _name=name, _method=method):
            views[_name] += 1
            return _method(host, node)

        monkeypatch.setattr(CSRGraph, name, tallied)
    loads: Counter = Counter()
    loaded, reread = set(), []
    load, sides = WeightEstimator._load, CSRGraph.neighbor_sides

    def tallied_load(state, node, limit):
        row = load(state, node, limit)
        if limit is None:
            loads[node] += 1
            loaded.add(graph.index_of(node))
        return row

    def tallied_sides(host, index, limit=None):
        if host is graph and index in loaded:
            reread.append(index)
        return sides(host, index, limit)

    monkeypatch.setattr(WeightEstimator, "_load", tallied_load)
    monkeypatch.setattr(CSRGraph, "neighbor_sides", tallied_sides)
    answer = RBSub(graph, alpha).answer(pattern, vp)
    assert answer.subgraph.num_nodes() > 1 and loads, "the case must admit and load rows"
    assert views == Counter(), "the search built a neighbour view"
    assert set(loads.values()) == {1}
    assert reread in ([], [graph.index_of(vp)]), "a loaded row was read again"


@pytest.mark.parametrize("guard_kind", sorted(GUARDS))
def test_the_weighted_search_restarts_on_g_and_q_alone(guard_kind, monkeypatch):
    """When the unweighted pass is abandoned, the weighted search finds what
    depends on ``G`` and ``Q`` loaded (rows, roles, eligible lists) and
    nothing that moves with ``G_Q``: the pass admits without a push."""
    content = load_dataset("youtube-small")
    graph = CSRGraph.from_digraph(content)
    hub = max(content.nodes(), key=content.degree)
    pattern, vp = embedded_pattern(content, 4, 8, seed=3, personalized_node=hub)
    at_restart = []
    weighted = DynamicReducer._weighted

    def restarting(reducer, *arguments):
        state = reducer._estimator
        moving = [state.in_gq, state._covered, state._hits, state._wide, state.touched, state._wide_seen]
        moving += [kept for pair in state._kept.values() for kept in pair]
        loaded = [state._rows, state.roles, state._tried, state._eligible]
        at_restart.append(([len(part) for part in moving], [len(part) for part in loaded]))
        return weighted(reducer, *arguments)

    monkeypatch.setattr(DynamicReducer, "_weighted", restarting)
    result = build(DynamicReducer, graph, pattern, vp, GUARDS[guard_kind], 0.02, 64).search()
    assert result.restarted and result.abandoned_visits > 0
    ((moving, loaded),) = at_restart
    assert not any(moving) and all(loaded)
