"""What ``Search`` promises about its budget, checked on real logs.

* **The two limits.**  On the end-to-end pattern logs (``youtube``, 128
  patterns at alpha 0.02; ``community``, 64 patterns at alpha 0.01, built the
  way ``benchmarks/e2e/workloads.py`` builds them), every ``ReductionResult``
  stays within ``alpha * |G|`` stored and ``c * alpha * |G|`` visited, and
  says it stopped on one of the paper's stops; a ``fixpoint`` stop leaves
  no ``Pick`` cut and no candidate ungiven.  A tiny ``c`` makes the visit
  stop the one that fires.
* **The unweighted pass settles where alpha does not bind.**  A search whose
  unweighted pass drains with room left (all but 10 community searches) has
  the ``G_Q`` node and edge sets and the answer of the oracle's weighted
  search alone; the answers of both whole logs equal a digest frozen from
  the weighted search; and a search that restarted was charged the visits
  of the pass it abandoned, within the same limit, and no Pick the pass
  paid for.  At ``c = 1``, a pass that runs out of visits is the search:
  what its answer and the weighted search's each miss is frozen.
* **alpha nests ``G_Q`` and its answer.**  A search at a smaller alpha is the
  same search cut off earlier: its ``G_Q`` nodes are a prefix of those at a
  larger alpha, and its answer is contained in theirs.  Where the weighted
  search restarted at the smaller alpha and the pass settled at the larger
  one, the pass admitted the same ``G_Q`` as the weighted search there, but
  in scan order, so the smaller run is held to that weighted search.  The
  edges need not nest: a reclamation at the larger alpha may drop an edge
  the smaller one never had to.
* **Theorem 3.**  On small generated graphs, a query whose alpha is at least
  ``theoretical_alpha_bound`` is answered exactly by ``RBSim``.
* **``G_Q`` holds the edges a match reads.**  ``G_Q`` is not induced on its
  nodes: an edge ``(v, w)`` is in it only when some query edge ``(u, u')``
  has ``C(v, u)`` and ``C(w, u')``.  ``C`` is necessary for a match in ``G``,
  so the edges left out change no answer: on both logs, a search that never
  reclaimed answers (by strong simulation, or by the ``RBSub`` step) the
  same on ``G_Q`` as on the subgraph of ``G`` induced on
  ``G_Q``'s nodes (less the readable edges of the last node admitted that
  the storage room cut off).  A search that reclaimed dropped edges the
  answer did not need, so there the answer on ``G_Q`` is only contained in
  the induced one.
"""

import hashlib
import random
from functools import lru_cache

import pytest

from guard_reference import checked
from reduction_oracle import OracleReducer, build_reducer
from repro.core.accuracy import pattern_accuracy
from repro.core.budget import ResourceBudget
from repro.core.rbsim import RBSim, RBSimConfig
from repro.core.rbsub import RBSub
from repro.graph.csr import CSRGraph
from repro.graph.generators import community_graph, random_graph, star_graph
from repro.graph.neighborhood import NeighborhoodIndex, theoretical_alpha_bound
from repro.graph.subgraph import induced_subgraph
from repro.matching.strong_simulation import match_opt
from repro.patterns.generator import embedded_pattern
from repro.patterns.pattern import make_pattern
from repro.workloads.datasets import load_dataset
from repro.workloads.queries import generate_pattern_workload

STOPS = {"storage", "visits", "fixpoint"}
DATASET_SEED = 7
#: name -> (graph builder, alpha, patterns): the e2e benchmark's pattern logs.
LOGS = {
    "youtube": (lambda: load_dataset("youtube", seed=DATASET_SEED), 0.02, 128),
    "community": (
        lambda: community_graph(
            [120] + [60] * 79, intra_probability=0.1, inter_edges=0, seed=DATASET_SEED
        ),
        0.01,
        64,
    ),
}


#: name -> the digest of the answers on ``G_Q`` over the log at its alpha
#: (:func:`answers_digest`), frozen from the weighted search run alone.
ANSWERS = {"youtube": "425dd943aef9600e", "community": "7739db835189f3d9"}


class PatternLog:
    """One log over the ``CSRGraph`` a service serves it on, half simulation
    and half subgraph queries, with the matchers a service builds (``c = d_G``)."""

    def __init__(self, name: str) -> None:
        self.name = name
        build, self.alpha, count = LOGS[name]
        content = build()
        self.graph = CSRGraph.from_digraph(content)
        self.index = NeighborhoodIndex(self.graph)
        workload = generate_pattern_workload(content, shape=(4, 8), count=count, seed=DATASET_SEED)
        self.queries = [(query.pattern, query.personalized_match) for query in workload.queries]

    def matchers(self, alpha: float, visit_coefficient=None):
        """``RBSim`` for the even positions of the log, ``RBSub`` for the odd ones."""
        config = RBSimConfig(visit_coefficient=visit_coefficient)
        return [
            matcher_class(self.graph, alpha, config=config, neighborhood_index=self.index)
            for matcher_class in (RBSim, RBSub)
        ]

    def reductions(self, alpha: float, queries=None, visit_coefficient=None):
        matchers = self.matchers(alpha, visit_coefficient)
        return [
            matchers[position % 2].reduce(pattern, vp)
            for position, (pattern, vp) in enumerate(self.queries if queries is None else queries)
        ]

    def answers(self, results, alpha: float):
        """Each matcher's answer on the ``G_Q`` of each of ``results``."""
        matchers = self.matchers(alpha)
        return [
            matchers[position % 2]._match(pattern, result.subgraph, vp)
            for position, ((pattern, vp), result) in enumerate(zip(self.queries, results))
        ]

    def weighted_alone(self, alpha=None, positions=None, visit_coefficient=None):
        """The oracle's weighted search, with no unweighted pass before it, on
        the queries at ``positions`` (all by default) at ``alpha`` (the log's
        by default) and ``c`` (``d_G`` by default)."""
        alpha = self.alpha if alpha is None else alpha
        if visit_coefficient is None:
            visit_coefficient = max(1, self.graph.max_degree())
        results, matchers = [], self.matchers(alpha)
        for position in range(len(self.queries)) if positions is None else positions:
            pattern, vp = self.queries[position]
            budget = ResourceBudget(alpha=alpha, graph_size=self.graph.size(), visit_coefficient=visit_coefficient)
            guard = checked(matchers[position % 2].guard_class)(pattern, self.graph, vp, self.index)
            reducer = build_reducer(
                OracleReducer, pattern=pattern, graph=self.graph, personalized_match=vp, guard=guard,
                budget=budget, max_depth=pattern.diameter(),
            )
            results.append(reducer.weighted_search())
        return results


@lru_cache(maxsize=None)
def pattern_log_named(name: str) -> PatternLog:
    return PatternLog(name)


def answers_digest(answers) -> str:
    """A short digest of a log's answers, each sorted."""
    return hashlib.sha256(repr([sorted(answer) for answer in answers]).encode()).hexdigest()[:16]


@pytest.fixture(params=sorted(LOGS))
def pattern_log(request):
    return pattern_log_named(request.param)


def test_every_search_on_the_e2e_pattern_logs_keeps_both_limits(pattern_log):
    results = pattern_log.reductions(pattern_log.alpha)
    for result in results:
        budget = result.budget
        assert budget.visited <= budget.visit_limit
        assert budget.stored <= budget.size_limit
        assert result.stop in STOPS
        assert result.final_bound == 2 + result.passes - 1
        # A fixpoint is the graph running out: no cut Pick holds a candidate.
        if result.stop == "fixpoint":
            assert (result.cut, result.ungiven) == (0, 0)
        assert (result.cut == 0) == (result.ungiven == 0)
        if not result.restarted:
            # The unweighted pass was the search: one pass, nothing cut, nothing reclaimed.
            assert (result.passes, result.cut, result.repicks, result.reclaimed) == (1, 0, 0, 0)
            assert result.abandoned_visits == 0
    if any(result.restarted for result in results):
        assert any(result.passes > 1 for result in results), "no search resumed"
    assert any(result.stop == "fixpoint" for result in results), "no search reached its fixpoint"


def test_the_unweighted_pass_settles_exactly_the_searches_alpha_does_not_bind(pattern_log):
    """A search the pass settles (it drains with room left, on every search
    of these logs that it does not abandon) has the ``G_Q`` node and edge sets
    and the answer of the oracle's weighted search alone, and so does a
    restarted search that stops where that search does; the answers of the
    whole log are the frozen ones; a restarted search was charged the pass it
    abandoned, and the weighted search after it no more than alone."""
    alpha = pattern_log.alpha
    results = pattern_log.reductions(alpha)
    alone = pattern_log.weighted_alone()
    answers, expected = pattern_log.answers(results, alpha), pattern_log.answers(alone, alpha)
    assert answers_digest(answers) == ANSWERS[pattern_log.name]
    for position, (result, weighted) in enumerate(zip(results, alone)):
        budget = result.budget
        if result.restarted:
            # Both runs are charged within the one limit.  The weighted search
            # is not charged the Picks the pass paid for (the one at vp among
            # them), so it costs less than it does alone.
            assert 0 < result.abandoned_visits and budget.visited <= budget.visit_limit, position
            assert budget.visited - result.abandoned_visits < weighted.budget.visited, position
        else:
            # No limit met the pass: it drained with room left in G_Q and in the visits.
            assert result.stop == "fixpoint", position
            assert budget.stored < budget.size_limit, position
            assert budget.visited < budget.visit_limit, position
        if result.stop != weighted.stop:
            assert result.restarted and result.stop == "visits", position
            continue
        assert set(result.subgraph.nodes()) == set(weighted.subgraph.nodes()), position
        assert set(result.subgraph.edges()) == set(weighted.subgraph.edges()), position
        assert answers[position] == expected[position], position


#: name -> at ``c = 1``: how many searches end in an unweighted pass that ran
#: out of visits, and over those, the matches of the weighted search alone
#: that the pass's ``G_Q`` misses and the matches it finds that the weighted
#: search's ``G_Q`` misses.
VISIT_BOUND = {"youtube": (22, 8, 0), "community": (49, 71, 205)}


def test_a_pass_that_runs_out_of_visits_is_the_search(pattern_log):
    """At ``c = 1`` the visit cap binds first on many searches.  A pass that
    runs out of visits is the search (a restart would have less than the
    pass was refused), so its ``G_Q`` holds what the pass reached in scan
    order where the weighted search alone ranks.  Neither answer contains
    the other; what each finds that the other misses is frozen here."""
    alpha = pattern_log.alpha
    results = pattern_log.reductions(alpha, visit_coefficient=1.0)
    bound = [position for position, result in enumerate(results) if result.stop == "visits" and not result.restarted]
    alone = pattern_log.weighted_alone(positions=bound, visit_coefficient=1.0)
    answers, matchers = pattern_log.answers(results, alpha), pattern_log.matchers(alpha)
    lost = gained = 0
    for position, weighted in zip(bound, alone):
        result = results[position]
        assert (result.passes, result.cut, result.repicks, result.abandoned_visits) == (1, 0, 0, 0), position
        assert result.budget.visited <= result.budget.visit_limit, position
        assert weighted.stop == "visits", position
        pattern, vp = pattern_log.queries[position]
        expected = matchers[position % 2]._match(pattern, weighted.subgraph, vp)
        lost += len(expected - answers[position])
        gained += len(answers[position] - expected)
    assert (len(bound), lost, gained) == VISIT_BOUND[pattern_log.name]


def test_gq_answers_as_its_induced_subgraph_and_keeps_only_readable_edges(pattern_log):
    graph, alpha = pattern_log.graph, pattern_log.alpha
    matchers = pattern_log.matchers(alpha)
    left_out = 0
    for position, ((pattern, vp), result) in enumerate(zip(pattern_log.queries, pattern_log.reductions(alpha))):
        # The matcher's own step on G_Q: strong simulation, or subgraph isomorphism.
        matcher = matchers[position % 2]
        subgraph = result.subgraph
        guard = checked(matcher.guard_class)(pattern, graph, vp, pattern_log.index)

        def readable(source, target):
            return any(guard.check(source, u) and guard.check(target, child) for u, child in pattern.edges)

        assert all(readable(*edge) for edge in subgraph.edges()), position
        induced = induced_subgraph(graph, subgraph.nodes())
        answer = matcher._match(pattern, subgraph, vp)
        if result.reclaimed:
            # Only edges the answer did not need went: G_Q answers no more than its nodes do.
            assert answer <= matcher._match(pattern, induced, vp), position
            continue
        # The induced subgraph, less the readable edges the storage room cut
        # off the last node admitted.
        cut = [edge for edge in induced.edges() if not subgraph.has_edge(*edge) and readable(*edge)]
        if cut:
            last = list(subgraph.nodes())[-1]
            assert result.stop in {"storage", "visits"} and all(last in edge for edge in cut), position
        for edge in cut:
            induced.remove_edge(*edge)
        left_out += induced.num_edges() - subgraph.num_edges()
        assert answer == matcher._match(pattern, induced, vp), position
    assert left_out, "G_Q left no edge out: the check shows nothing"


def test_a_tiny_visit_coefficient_stops_on_visits_first():
    graph = star_graph(12)  # |G| = 25
    pattern = make_pattern({0: "HUB", 1: "LEAF"}, [(0, 1)], personalized=0, output=1)
    loose = RBSim(graph, 1.0).reduce(pattern, 0)
    tight = RBSim(graph, 1.0, config=RBSimConfig(visit_coefficient=1.0)).reduce(pattern, 0)
    restarted = RBSim(graph, 1.0, config=RBSimConfig(visit_coefficient=2.5)).reduce(pattern, 0)
    # Loose, the cut Pick at the hub resumes until G_Q holds the whole star
    # (after the unweighted pass filled G_Q with it at 37 visits and was
    # abandoned).
    assert (loose.stop, loose.budget.stored, loose.cut, loose.abandoned_visits) == ("storage", 25, 0, 37)
    # With c = 1 (25 visits) the unweighted pass is the search: the hub's
    # Pick is charged its 12 leaves and each leaf 2 (itself and its edge),
    # and the seventh leaf's visit would pass the cap, with storage left and
    # no Pick cut.
    assert (tight.stop, tight.restarted, tight.cut, tight.repicks) == ("visits", False, 0, 0)
    assert tight.budget.visited <= tight.budget.visit_limit == 25
    # With c = 2.5 (62 visits) the pass's read of the full G_Q fits, so it is
    # abandoned.  The weighted search has 25 visits: the hub's Pick is the
    # one the pass paid for, each re-Pick is charged the one leaf it gives
    # and each leaf 2 (the last gets no edge, for want of visits): after
    # seven re-Picks the cap ends the search with that Pick still cut.
    assert (restarted.stop, restarted.cut, restarted.repicks, restarted.abandoned_visits) == ("visits", 1, 7, 37)
    assert restarted.budget.visited <= restarted.budget.visit_limit == 62
    for result in (tight, restarted):
        assert result.budget.stored < result.budget.size_limit
        nodes = list(result.subgraph.nodes())
        assert nodes == list(loose.subgraph.nodes())[: len(nodes)]


#: name -> the alphas the nesting test runs the first 48 queries of the log at.
NESTING_ALPHAS = {"youtube": (0.002, 0.005, 0.01, 0.02), "community": (0.002, 0.005, 0.01)}


@pytest.mark.parametrize("name", sorted(NESTING_ALPHAS))
def test_alpha_nests_the_extracted_subgraph(name):
    """The run at a smaller alpha is a prefix of the run at a larger one, and answers no more."""
    log = pattern_log_named(name)
    queries = log.queries[:48]
    alphas = NESTING_ALPHAS[name]
    runs = [log.reductions(alpha, queries) for alpha in alphas]
    answers = [
        [
            matcher._match(pattern, result.subgraph, vp)
            for matcher, (pattern, vp), result in zip(log.matchers(alpha) * len(queries), queries, run)
        ]
        for alpha, run in zip(alphas, runs)
    ]
    nested = crossed = 0
    for larger_alpha, smaller, larger, fewer, more in zip(alphas[1:], runs, runs[1:], answers, answers[1:]):
        for position, (before, after, answer, grown) in enumerate(zip(smaller, larger, fewer, more)):
            if before.restarted and not after.restarted:
                # alpha binds at the smaller alpha only.  The pass that settled
                # at the larger one admitted the weighted search's G_Q there
                # (node and edge sets) in scan order: the run at the smaller
                # alpha is held to that weighted search.
                (weighted,) = log.weighted_alone(larger_alpha, [position])
                assert set(after.subgraph.nodes()) == set(weighted.subgraph.nodes())
                assert set(after.subgraph.edges()) == set(weighted.subgraph.edges())
                after = weighted
                crossed += 1
            nodes = list(before.subgraph.nodes())
            assert nodes == list(after.subgraph.nodes())[: len(nodes)]
            assert answer <= grown
            assert before.passes <= after.passes
            nested += len(nodes) < after.subgraph.num_nodes()
    assert nested, "alpha never bound: the check shows nothing"
    assert crossed, "no search restarted at one alpha and settled at the next: the check shows nothing"


def test_rbsim_is_exact_inside_the_theorem_3_ratio():
    inside = checked = 0
    for seed in range(80):
        rng = random.Random(seed)
        num_nodes = rng.randint(30, 300)
        graph = random_graph(
            num_nodes, rng.randint(num_nodes, 3 * num_nodes), alphabet="ABCDEFGH"[: rng.randint(2, 8)], seed=seed
        )
        pattern, vp = embedded_pattern(graph, rng.choice([2, 3, 4]), rng.choice([2, 3, 4, 5]), seed=seed)
        labels = {pattern.label_of(node) for node in pattern.nodes()}
        bound = theoretical_alpha_bound(graph, vp, pattern.diameter(), num_labels=len(labels))
        inside += bound < 1.0
        exact = match_opt(pattern, graph, vp).answer
        for alpha in sorted({bound, min(1.0, 2 * bound)}):
            answer = RBSim(graph, alpha).answer(pattern, vp).answer
            assert pattern_accuracy(exact, answer).f_measure == 1.0, (seed, alpha, bound)
            checked += 1
    assert inside >= 20, "the ratio must bind below reading the whole graph"
    assert checked >= 100
