"""Benchmark: the dynamic reduction (``Search``/``Pick``, Fig. 3) alone.

Times ``DynamicReducer.search`` per pattern query, cold (a fresh guard and
search state per query, as ``RBSim``/``RBSub`` build them), on two fixed
pattern logs over CSR graphs:

* **youtube**: 128 embedded (4, 8) patterns on the ``youtube`` surrogate at
  ``alpha = 0.02``, alternating simulation and subgraph semantics;
* **community**: 12 such patterns on an 80-community graph at
  ``alpha = 0.01``.

Both logs are built the way the end-to-end benchmark builds its pattern
logs (dataset seed 7).  Before timing, the digest of every
``ReductionResult`` (``G_Q`` nodes, labels and edges in order, budget,
bound, passes, candidate counts, stop, cut and re-Pick counts) is checked
against the oracle of ``tests/reduction_oracle.py``.  Timings are reported,
not gated: they go to ``benchmarks/_reports/search.txt`` with the per-log
stop reasons, the distribution of pass counts and the re-Picks per search
(each a count the oracle's digest covers).

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
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import pytest  # noqa: E402

from reduction_oracle import OracleReducer, build_reducer, fingerprint  # noqa: E402
from repro.core.budget import ResourceBudget  # noqa: E402
from repro.core.reduction import DynamicReducer  # noqa: E402
from repro.core.weights import IsomorphismGuard, SimulationGuard  # noqa: E402
from repro.graph.csr import CSRGraph  # noqa: E402
from repro.graph.generators import community_graph  # noqa: E402
from repro.graph.neighborhood import NeighborhoodIndex  # noqa: E402
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
        12,
    ),
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
    return {
        "log": name,
        "queries": len(log.queries),
        "rounds": rounds,
        "search_ms_per_query": 1e3 * statistics.median(totals) / len(log.queries),
        "search_ms_per_query_min": 1e3 * min(totals) / len(log.queries),
        "search_ms_p50": 1e3 * statistics.median(per_query),
        "search_ms_p90": 1e3 * statistics.quantiles(per_query, n=10)[-1],
        "stops": dict(sorted(Counter(result.stop for result in results).items())),
        "passes": dict(sorted(Counter(result.passes for result in results).items())),
        "repicks_per_search": statistics.mean(result.repicks for result in results),
        "repicks_max": max(result.repicks for result in results),
        "digest": found,
        "oracle_digest": expected,
    }


def report(row: dict) -> None:
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    with open(REPORT_DIR / "search.txt", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")


@pytest.mark.parametrize("name", sorted(LOGS))
def test_search_ms_per_query(name):
    row = measure(name, rounds=3)
    report(row)
    assert row["digest"] == row["oracle_digest"]


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
        failed |= row["digest"] != row["oracle_digest"]
    if failed:
        raise SystemExit("digest differs from the oracle's")


if __name__ == "__main__":
    main()
