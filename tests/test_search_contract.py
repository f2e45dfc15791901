"""What ``Search`` promises about its budget, checked on real logs.

* **The two limits.**  On the end-to-end pattern logs (``youtube``, 128
  patterns at alpha 0.02; ``community``, 64 patterns at alpha 0.01, built the
  way ``benchmarks/e2e/workloads.py`` builds them), every ``ReductionResult``
  stays within ``alpha * |G|`` stored and ``c * alpha * |G|`` visited, and
  says it stopped on one of the paper's stops; a ``fixpoint`` stop leaves
  no ``Pick`` cut and no candidate ungiven.  A tiny ``c`` makes the visit
  stop the one that fires.
* **alpha nests ``G_Q`` and its answer.**  A search at a smaller alpha is the
  same search cut off earlier: its ``G_Q`` nodes are a prefix of those at a
  larger alpha, and its answer is contained in theirs.  The edges need not
  nest: a reclamation at the larger alpha may drop an edge the smaller one
  never had to.
* **Theorem 3.**  On small generated graphs, a query whose alpha is at least
  ``theoretical_alpha_bound`` is answered exactly by ``RBSim``.
* **``G_Q`` holds the edges a match reads.**  ``G_Q`` is not induced on its
  nodes: an edge ``(v, w)`` is in it only when some query edge ``(u, u')``
  has ``C(v, u)`` and ``C(w, u')``.  ``C`` is necessary for a match in ``G``,
  so the edges left out change no answer: on both logs, a search that never
  reclaimed answers (by strong simulation, or by the ``RBSub`` step with its
  embedding cap) the same on ``G_Q`` as on the subgraph of ``G`` induced on
  ``G_Q``'s nodes (less the readable edges of the last node admitted that
  the storage room cut off).  A search that reclaimed dropped edges the
  answer did not need, so there the answer on ``G_Q`` is only contained in
  the induced one.
"""

import random
from functools import lru_cache

import pytest

from repro.core.accuracy import pattern_accuracy
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


class PatternLog:
    """One log over the ``CSRGraph`` a service serves it on, half simulation
    and half subgraph queries, with the matchers a service builds (``c = d_G``)."""

    def __init__(self, name: str) -> None:
        build, self.alpha, count = LOGS[name]
        content = build()
        self.graph = CSRGraph.from_digraph(content)
        self.index = NeighborhoodIndex(self.graph)
        workload = generate_pattern_workload(content, shape=(4, 8), count=count, seed=DATASET_SEED)
        self.queries = [(query.pattern, query.personalized_match) for query in workload.queries]

    def matchers(self, alpha: float):
        """``RBSim`` for the even positions of the log, ``RBSub`` for the odd ones."""
        return [matcher_class(self.graph, alpha, neighborhood_index=self.index) for matcher_class in (RBSim, RBSub)]

    def reductions(self, alpha: float, queries=None):
        matchers = self.matchers(alpha)
        return [
            matchers[position % 2].reduce(pattern, vp)
            for position, (pattern, vp) in enumerate(self.queries if queries is None else queries)
        ]


@lru_cache(maxsize=None)
def pattern_log_named(name: str) -> PatternLog:
    return PatternLog(name)


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
    assert any(result.passes > 1 for result in results), "no search resumed"
    assert any(result.stop == "fixpoint" for result in results), "no search reached its fixpoint"


def test_gq_answers_as_its_induced_subgraph_and_keeps_only_readable_edges(pattern_log):
    graph, alpha = pattern_log.graph, pattern_log.alpha
    matchers = pattern_log.matchers(alpha)
    left_out = 0
    for position, ((pattern, vp), result) in enumerate(zip(pattern_log.queries, pattern_log.reductions(alpha))):
        # The matcher's own step on G_Q: strong simulation, or VF2 with its embedding cap.
        matcher = matchers[position % 2]
        subgraph = result.subgraph
        guard = matcher.guard_class(pattern, graph, vp, pattern_log.index)

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
    # Loose, the cut Pick at the hub resumes until G_Q holds the whole star.
    assert (loose.stop, loose.budget.stored, loose.cut) == ("storage", 25, 0)
    # With c = 1 (25 visits) the hub's Pick is charged its 12 leaves, each
    # re-Pick the one leaf it gives, and each leaf 2 (itself and its edge; the
    # fifth gets no edge, for want of visits): after three re-Picks the cap
    # ends the search with storage left and that Pick still cut.
    assert (tight.stop, tight.cut, tight.repicks) == ("visits", 1, 3)
    assert tight.budget.visited <= tight.budget.visit_limit == 25
    assert tight.budget.stored < tight.budget.size_limit
    nodes = list(tight.subgraph.nodes())
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
    nested = 0
    for smaller, larger, fewer, more in zip(runs, runs[1:], answers, answers[1:]):
        for before, after, answer, grown in zip(smaller, larger, fewer, more):
            nodes = list(before.subgraph.nodes())
            assert nodes == list(after.subgraph.nodes())[: len(nodes)]
            assert answer <= grown
            assert before.passes <= after.passes
            nested += len(nodes) < after.subgraph.num_nodes()
    assert nested, "alpha never bound: the check shows nothing"


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
