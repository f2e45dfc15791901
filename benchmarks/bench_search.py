"""Benchmark: the dynamic reduction (``Search``/``Pick``, Fig. 3) alone.

Times ``DynamicReducer.search`` per pattern query, cold (a fresh guard and
search state per query, as ``RBSim``/``RBSub`` build them), on two fixed
pattern logs over CSR graphs:

* **youtube**: 128 embedded (4, 8) patterns on the ``youtube`` surrogate at
  ``alpha = 0.02``, alternating simulation and subgraph semantics;
* **community**: 64 such patterns on an 80-community graph at
  ``alpha = 0.01``.

Both logs are built the way the end-to-end benchmark builds its pattern
logs (dataset seed 7).  Before timing, the digest of every
``ReductionResult`` (``G_Q`` nodes, labels and edges in order, budget,
bound, passes, candidate counts, stop, cut, ungiven and re-Pick counts,
whether the weighted search restarted and the visits of the abandoned
unweighted pass) is checked against the oracle of
``tests/reduction_oracle.py``.  Beside ``search_ms_per_query`` it times cold
full answers (``answer_ms_per_query``: the search plus the exact match on
``G_Q``, on fresh pattern copies) split into construct, search and match.
Timings are reported, not gated: they go to
``benchmarks/_reports/search.txt`` with the ``G_Q`` nodes and edges and the
visits charged (``visited``) summed over the log, the searches the
unweighted pass settled and those it restarted (with the visits the
abandoned passes were charged), the edges the storage reclamations dropped
(``reclaimed``, and how many searches reclaimed), the per-log stop reasons
split by whether a ``Pick`` was left cut, the candidates the cut Picks still
held, the distribution of pass counts and the re-Picks per search (each a
count the oracle's digest covers).  The restarted searches are gated
exactly (:data:`RESTARTS`): the pass settles every youtube search, and all
community searches but the ten whose ``G_Q`` fills.

Each answer on ``G_Q`` (strong simulation for the simulation half, the
``RBSub`` isomorphism step for the other) is scored against ``MatchOpt`` /
``VF2Opt`` on ``G``, and every missed or extra output match gets exactly one
cause (:data:`CAUSES`), read off a second, recorded run of the same search:

* ``ungiven``: still held by a cut ``Pick`` at a storage or visits stop;
* ``queued``: given, but still on the stack at a storage or visits stop;
* ``unreached``: never made eligible from an expanded node; the report
  counts these by stop and by ``true/through``, the hops from ``vp`` in
  ``G`` (the ``d_Q``-ball distance) against the hops through ``G_Q``;
* ``unmatched``: in ``G_Q`` but not matched there (an edge cut at ``room``
  or dropped by a reclamation);
* ``extra``: matched in ``G_Q`` but not in ``G``.

A miss that fits none of these (a budget cause at a ``fixpoint`` stop) is
``unexplained`` and fails the run.  The guarded condition ``C(v, u)`` and
the ``max_scan`` head are counted too, to show they exclude no match:
``guard_excluded`` is the misses ``C(·, output)`` rejects, ``scan_excluded``
the misses in the row of a ``Pick`` that passed ``C`` but were left out of
its eligible list.  Both must be 0.  Simulation F and subgraph F must keep
the floors of :data:`F_FLOORS` (1.0 on youtube; 1.0 and 0.99902 on
community).

Run with:  python3 benchmarks/bench_search.py [--rounds 5] [--log youtube]
       or: PYTHONPATH=src python -m pytest benchmarks/bench_search.py -q
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from unittest.mock import patch

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import pytest  # noqa: E402

from reduction_oracle import OracleReducer, build_reducer, fingerprint  # noqa: E402
from repro.core import reduction  # noqa: E402
from repro.core.accuracy import pattern_accuracy  # noqa: E402
from repro.core.budget import ResourceBudget  # noqa: E402
from repro.core.reduction import DynamicReducer  # noqa: E402
from repro.core.weights import IsomorphismGuard, Remainder, SimulationGuard, WeightEstimator  # noqa: E402
from repro.graph.csr import CSRGraph  # noqa: E402
from repro.graph.generators import community_graph  # noqa: E402
from repro.graph.neighborhood import NeighborhoodIndex  # noqa: E402
from repro.graph.traversal import bfs_levels  # noqa: E402
from repro.matching.strong_simulation import match_in_subgraph, match_opt  # noqa: E402
from repro.matching.vf2 import isomorphic_answer_in_subgraph, vf2_opt  # noqa: E402
from repro.workloads.datasets import load_dataset  # noqa: E402
from repro.workloads.queries import generate_pattern_workload  # noqa: E402

REPORT_DIR = Path(__file__).resolve().parent / "_reports"
DATASET_SEED = 7
SHAPE = (4, 8)
#: name -> (graph builder, alpha, queries)
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
#: Why an output match is missed by, or extra in, the answer on ``G_Q``.
CAUSES = ("ungiven", "queued", "unreached", "unmatched", "extra")
#: The stops at which the budget, not the graph, ended a search.
BUDGET_STOPS = {"storage", "visits"}
#: The positions of the searches whose unweighted pass fills ``G_Q``, so that
#: the weighted search restarts: the searches ``alpha`` binds, and no other.
RESTARTS = {"youtube": (), "community": (6, 10, 17, 19, 21, 25, 30, 51, 53, 55)}
#: Simulation F against ``MatchOpt`` and subgraph F against ``VF2Opt`` that each log must keep.
F_FLOORS = {
    "youtube": {"f_simulation": 1.0, "f_subgraph": 1.0},
    "community": {"f_simulation": 1.0, "f_subgraph": 0.99902},
}


class SearchLog:
    """One pattern log over its CSR graph, with the shared ``Sl`` index."""

    def __init__(self, name: str) -> None:
        build, self.alpha, count = LOGS[name]
        content = build()
        self.name = name
        self.graph = CSRGraph.from_digraph(content)
        self.index = NeighborhoodIndex(self.graph)
        workload = generate_pattern_workload(content, shape=SHAPE, count=count, seed=DATASET_SEED)
        # Even positions are simulation queries, odd ones subgraph queries.
        self.queries = [
            (query.pattern, query.personalized_match, SimulationGuard if position % 2 == 0 else IsomorphismGuard)
            for position, query in enumerate(workload.queries)
        ]
        self.visit_coefficient = float(max(1, self.graph.max_degree()))

    def reducer(self, reducer_class, pattern, vp, guard_class):
        """A cold reducer for one query, built the way ``RBSim.reduce`` builds it."""
        budget = ResourceBudget(
            alpha=self.alpha, graph_size=self.graph.size(), visit_coefficient=self.visit_coefficient
        )
        return build_reducer(
            reducer_class,
            pattern=pattern,
            graph=self.graph,
            personalized_match=vp,
            guard=guard_class(pattern, self.graph, vp, self.index),
            budget=budget,
            max_depth=pattern.diameter(),
        )

    def results(self, reducer_class):
        return [self.reducer(reducer_class, *query).search() for query in self.queries]

    def timed_round(self):
        """Seconds per query of one pass over the log."""
        seconds = []
        gc.collect()
        for query in self.queries:
            start = time.perf_counter()
            self.reducer(DynamicReducer, *query).search()
            seconds.append(time.perf_counter() - start)
        return seconds

    def answer_round(self):
        """Seconds per query of one pass of cold full answers over the log,
        split into construct (validation, budget, guard and search state),
        search and match (strong simulation or the isomorphism step on
        ``G_Q``), on fresh copies of the patterns, so nothing a pattern
        derives on first use is carried from an earlier round."""
        queries = [
            (type(pattern)(pattern.labels, pattern.edges, pattern.personalized, pattern.output), vp, guard_class)
            for pattern, vp, guard_class in self.queries
        ]
        split = {"construct": [], "search": [], "match": []}
        clock = time.perf_counter
        gc.collect()
        for pattern, vp, guard_class in queries:
            match = match_in_subgraph if guard_class is SimulationGuard else isomorphic_answer_in_subgraph
            started = clock()
            pattern.validate()
            reducer = self.reducer(DynamicReducer, pattern, vp, guard_class)
            built = clock()
            result = reducer.search()
            searched = clock()
            match(pattern, result.subgraph, vp)
            split["construct"].append(built - started)
            split["search"].append(searched - built)
            split["match"].append(clock() - searched)
        return split

    def classified(self, position: int, plain) -> dict:
        """Score query ``position`` against the exact answer on ``G`` and give
        every missed or extra output match its cause; ``plain`` is the same
        search run unrecorded, which the recorded run must reproduce."""
        pattern, vp, guard_class = self.queries[position]
        reducer = self.reducer(DynamicReducer, pattern, vp, guard_class)
        with recorded() as (remainders, picks):
            result = reducer.search()
        assert fingerprint(result) == fingerprint(plain), "recording changed the search"
        held = {candidate for remainder in remainders for candidate in remainder}
        assert sum(map(len, remainders)) == result.ungiven, "ungiven is not what the cut Picks hold"
        subgraph = result.subgraph
        if guard_class is SimulationGuard:
            exact = match_opt(pattern, self.graph, vp).answer
            approximate = match_in_subgraph(pattern, subgraph, vp)
        else:
            exact = vf2_opt(pattern, self.graph, vp).answer
            approximate = isomorphic_answer_in_subgraph(pattern, subgraph, vp)
        misses = exact - approximate
        made_eligible = {candidate for _, _, eligible in picks for candidate in eligible}
        budget_stop = result.stop in BUDGET_STOPS
        causes, unreached = Counter(), Counter()
        for miss in misses:
            if miss in subgraph:
                causes["unmatched"] += 1
            elif miss in held:
                causes["ungiven" if budget_stop else "unexplained"] += 1
            elif miss in made_eligible:
                causes["queued" if budget_stop else "unexplained"] += 1
            else:
                causes["unreached"] += 1
                unreached[(result.stop, *self._distances(pattern, vp, subgraph, miss))] += 1
        causes["extra"] += len(approximate - exact)
        guard = guard_class(pattern, self.graph, vp, self.index)
        return {
            "simulation": guard_class is SimulationGuard,
            "f": pattern_accuracy(exact, approximate).f_measure,
            "causes": causes,
            "unreached": unreached,
            "guard_excluded": sum(not guard.check(miss, pattern.output) for miss in misses),
            "scan_excluded": sum(
                guard.check(miss, query_node)
                for node, query_node, eligible in (picks if misses else ())
                for miss in (misses & self._row(node)).difference(eligible)
            ),
        }

    def _row(self, node):
        """``N(node)``: its children and parents in ``G``."""
        return set(self.graph.successors(node)) | set(self.graph.predecessors(node))

    def _distances(self, pattern, vp, subgraph, miss):
        """The hops from ``vp`` to ``miss`` in ``G`` (within ``d_Q``) and
        through ``G_Q`` (``None`` when no member of ``G_Q`` is next to it)."""
        radius = pattern.diameter()
        true = bfs_levels(self.graph, vp, max_hops=radius).get(miss)
        inside = bfs_levels(subgraph, vp)
        through = [inside[node] + 1 for node in self._row(miss) if node in inside]
        return true, min(through, default=None)


@contextmanager
def recorded():
    """Record, for the search run inside, every ``Remainder`` made (the
    candidates a cut ``Pick`` held) and every ``Pick``'s eligible list, those
    of an abandoned unweighted pass forgotten when the weighted search restarts."""
    remainders, picks = [], []
    eligible, weighted = WeightEstimator.eligible, DynamicReducer._weighted

    def recording_eligible(state, node, query_node):
        found = eligible(state, node, query_node)
        picks.append((node, query_node, found))
        return found

    def restarting(reducer, *arguments):
        picks.clear()
        return weighted(reducer, *arguments)

    class RecordedRemainder(Remainder):
        def __init__(self, *arguments):
            super().__init__(*arguments)
            remainders.append(self)

    with patch.object(reduction, "Remainder", RecordedRemainder), patch.object(
        WeightEstimator, "eligible", recording_eligible
    ), patch.object(DynamicReducer, "_weighted", restarting):
        yield remainders, picks


def accuracy(log: SearchLog, results) -> dict:
    """F per semantics and the causes of every miss, over the whole log."""
    rows = [log.classified(position, result) for position, result in enumerate(results)]
    causes, unreached = Counter(), Counter()
    for row in rows:
        causes.update(row["causes"])
        unreached.update(row["unreached"])
    return {
        "f_simulation": statistics.mean(row["f"] for row in rows if row["simulation"]),
        "f_subgraph": statistics.mean(row["f"] for row in rows if not row["simulation"]),
        "queries_below_f1": sum(row["f"] < 1 for row in rows),
        "causes": {cause: causes[cause] for cause in CAUSES},
        "unexplained": causes["unexplained"],
        "unreached_by_stop_and_distance": {
            f"{stop} {true}/{through}": count for (stop, true, through), count in sorted(unreached.items(), key=repr)
        },
        "guard_excluded": sum(row["guard_excluded"] for row in rows),
        "scan_excluded": sum(row["scan_excluded"] for row in rows),
    }


def digest(results) -> str:
    return hashlib.sha256(repr([fingerprint(result) for result in results]).encode()).hexdigest()[:16]


def measure(name: str, rounds: int) -> dict:
    """Check one log against the oracle, then time ``rounds`` passes over it."""
    log = SearchLog(name)
    results = log.results(DynamicReducer)
    expected = digest(log.results(OracleReducer))
    found = digest(results)
    per_round = [log.timed_round() for _ in range(rounds)]
    totals = [sum(seconds) for seconds in per_round]
    per_query = [statistics.median(column) for column in zip(*per_round)]
    answers = [log.answer_round() for _ in range(rounds)]
    answer_totals = [sum(map(sum, split.values())) for split in answers]

    def per_query_ms(values) -> float:
        return 1e3 * statistics.median(values) / len(log.queries)

    return {
        "log": name,
        "queries": len(log.queries),
        "rounds": rounds,
        "search_ms_per_query": 1e3 * statistics.median(totals) / len(log.queries),
        "search_ms_per_query_min": 1e3 * min(totals) / len(log.queries),
        "search_ms_p50": 1e3 * statistics.median(per_query),
        "search_ms_p90": 1e3 * statistics.quantiles(per_query, n=10)[-1],
        "answer_ms_per_query": per_query_ms(answer_totals),
        "answer_split_ms_per_query": {
            part: per_query_ms([sum(split[part]) for split in answers]) for part in ("construct", "search", "match")
        },
        "stops": dict(sorted(Counter(
            f"{result.stop}/{'cut' if result.cut else 'uncut'}" for result in results
        ).items())),
        "gq_nodes": sum(result.subgraph.num_nodes() for result in results),
        "gq_edges": sum(result.subgraph.num_edges() for result in results),
        "visited": sum(result.budget.visited for result in results),
        "settled": sum(not result.restarted for result in results),
        "restarted": [position for position, result in enumerate(results) if result.restarted],
        "abandoned_visits": sum(result.abandoned_visits for result in results),
        "reclaimed": sum(result.reclaimed for result in results),
        "reclaiming_searches": sum(result.reclaimed > 0 for result in results),
        "ungiven": sum(result.ungiven for result in results),
        "ungiven_max": max(result.ungiven for result in results),
        "passes": dict(sorted(Counter(result.passes for result in results).items())),
        "repicks_per_search": statistics.mean(result.repicks for result in results),
        "repicks_max": max(result.repicks for result in results),
        "digest": found,
        "oracle_digest": expected,
        **accuracy(log, results),
    }


def failures(row: dict) -> list:
    """What in ``row`` fails the run: a digest off the oracle's, a restart
    not in :data:`RESTARTS` or one missing, a miss with no cause, an
    exclusion by the guard or the scan cap, or F below its floor."""
    found = []
    if row["digest"] != row["oracle_digest"]:
        found.append("digest differs from the oracle's")
    if tuple(row["restarted"]) != RESTARTS[row["log"]]:
        found.append(f"restarted {row['restarted']} != {list(RESTARTS[row['log']])}")
    for count in ("unexplained", "guard_excluded", "scan_excluded"):
        if row[count]:
            found.append(f"{count} = {row[count]}")
    for key, floor in F_FLOORS[row["log"]].items():
        if row[key] < floor:
            found.append(f"{key} {row[key]} < {floor}")
    return found


def report(row: dict) -> None:
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    with open(REPORT_DIR / "search.txt", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")


@pytest.mark.parametrize("name", sorted(LOGS))
def test_search_ms_per_query(name):
    row = measure(name, rounds=3)
    report(row)
    assert not failures(row), failures(row)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5, help="timed passes over each log")
    parser.add_argument("--log", choices=sorted(LOGS), action="append", help="default: every log")
    arguments = parser.parse_args()
    failed = False
    for name in arguments.log or sorted(LOGS):
        row = measure(name, arguments.rounds)
        report(row)
        print(json.dumps(row))
        for failure in failures(row):
            print(f"{name}: {failure}", file=sys.stderr)
            failed = True
    if failed:
        raise SystemExit("a check failed")


if __name__ == "__main__":
    main()
