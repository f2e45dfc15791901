"""Benchmark: the ``RBReach`` answer loop (Fig. 7) alone.

Times ``RBReach.query_batch`` in µs per query on the end-to-end benchmark's
reachability pools over CSR-prepared graphs:

* **youtube**: 16 384 pairs on the ``youtube`` surrogate at ``alpha = 0.02``;
* **community**: 16 384 pairs on the 80-community graph at ``alpha = 0.01``.

Graphs and pools are built the way ``benchmarks/e2e/workloads.py`` builds
them (dataset seed 7).  Before timing, the digest of every answer's
``reachable``, ``visited``, ``met_at`` and ``exhausted`` is checked against
the frozen oracle of ``tests/rbreach_oracle.py``.  Each row reports where
the pairs end (at ``locate`` or the rank test, at a seed meeting, or in a
frontier search), the one-off cost of the matcher's landmark rows, and the
oracle's own µs per query, timed in alternation with the matcher.
Timings are reported, not gated: they go to ``benchmarks/_reports/reach.txt``.

Run with:  python3 benchmarks/bench_reach.py [--rounds 5] [--pool youtube]
       or: PYTHONPATH=src python -m pytest benchmarks/bench_reach.py -q
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT / "tests", _ROOT / "benchmarks" / "e2e"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import pytest  # noqa: E402

from rbreach_oracle import OracleRBReach, digest  # noqa: E402
from repro.engine.prepared import PreparedGraph  # noqa: E402
from repro.reachability.rbreach import RBReach  # noqa: E402
from workloads import DATASET_SEED, FULL, build_graph, reach_pool  # noqa: E402

REPORT_DIR = Path(__file__).resolve().parent / "_reports"
PAIRS = 16_384
#: pool name -> alpha, as the end-to-end workloads serve the graph
POOLS = {"youtube": 0.02, "community": 0.01}


class CountingRBReach(RBReach):
    """``RBReach`` that counts the queries its second stage, the DAG search, answers."""

    searched = 0

    def _dag_search(self, *arguments):
        self.searched += 1
        return super()._dag_search(*arguments)


def stages(matcher, pairs) -> Counter:
    """How many pairs end at ``locate``/the rank test, at a seed meeting, in a frontier, or in the DAG search.

    ``local`` counts the pairs the second stage answered: the index
    frontiers ran dry below the budget, so the DAG search gave the answer.
    """
    compressed, counts = matcher.index.compressed, Counter()
    staged = CountingRBReach(matcher.index)
    for source, target in pairs:
        source_at, target_at = compressed.locate(source), compressed.locate(target)
        if source_at is None or target_at is None or source_at[0] == target_at[0] or source_at[1] <= target_at[1]:
            counts["locate_or_rank"] += 1
        elif matcher._seed(source_at[0], forward=True) & matcher._seed(target_at[0], forward=False):
            counts["seed_meeting"] += 1
        else:
            before = staged.searched
            staged.query(source, target)
            counts["local" if staged.searched > before else "frontier"] += 1
    return counts


def timed(run, pairs) -> float:
    """µs per query of one pass over ``pairs``."""
    gc.collect()
    start = time.perf_counter()
    run(pairs)
    return 1e6 * (time.perf_counter() - start) / len(pairs)


def measure(name: str, rounds: int) -> dict:
    """Check one pool against the oracle, then time ``rounds`` passes of matcher and oracle."""
    graph = build_graph(name, FULL)
    pairs = [(request.source, request.target) for request in reach_pool(graph, PAIRS, DATASET_SEED)]
    matcher = PreparedGraph(graph).rbreach(POOLS[name])
    oracle = OracleRBReach(matcher.index)
    start = time.perf_counter()
    matcher._landmark_rows()
    rows_ms = 1e3 * (time.perf_counter() - start)
    found, expected = digest(matcher.query_batch(pairs)), digest(oracle.query_batch(pairs))
    query_us, oracle_us = [], []
    for _ in range(rounds):
        query_us.append(timed(matcher.query_batch, pairs))
        oracle_us.append(timed(oracle.query_batch, pairs))
    return {
        "pool": name,
        "pairs": len(pairs),
        "rounds": rounds,
        "query_us": statistics.median(query_us),
        "query_us_min": min(query_us),
        "oracle_query_us": statistics.median(oracle_us),
        "rows_ms": rows_ms,
        "landmarks": matcher.index.num_landmarks(),
        "ends": dict(sorted(stages(matcher, pairs).items())),
        "digest": found,
        "oracle_digest": expected,
    }


def report(row: dict) -> None:
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    with open(REPORT_DIR / "reach.txt", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")


@pytest.mark.parametrize("name", sorted(POOLS))
def test_reach_us_per_query(name):
    row = measure(name, rounds=3)
    report(row)
    assert row["digest"] == row["oracle_digest"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5, help="timed passes over each pool")
    parser.add_argument("--pool", choices=sorted(POOLS), action="append", help="default: every pool")
    arguments = parser.parse_args()
    failed = False
    for name in arguments.pool or sorted(POOLS):
        row = measure(name, arguments.rounds)
        report(row)
        print(json.dumps(row))
        failed |= row["digest"] != row["oracle_digest"]
    if failed:
        raise SystemExit("digest differs from the oracle's")


if __name__ == "__main__":
    main()
