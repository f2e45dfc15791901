"""Benchmark: batched query engine — parallel throughput and parity.

Answers a quick-scale RBReach batch through both executors and asserts:

* **parity, always**: the daemon pool returns answers bit-identical to the
  serial path, for several worker counts;
* **throughput, on capable machines**: with >= 4 workers the warm daemon
  pool (persistent workers attached to the shared-memory state, no
  per-batch fork) must reach >= 1.5x the serial batch throughput.  The
  assertion needs >= 4 schedulable cores — a 1- or 2-core runner
  physically cannot exhibit the speedup, so the throughput check (and only
  it) is skipped there with an explicit reason.  CI runs it on multi-core
  runners; the parity checks run everywhere.

A second measurement reports the LRU cache: answering the same batch twice
must serve the repeat entirely from cache.  Results are appended to
``benchmarks/_reports/engine_parallel.txt``.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_engine_parallel.py -q
"""

from __future__ import annotations

import time

import pytest

from conftest import BENCH_SEED, REPORT_DIR

MIN_DAEMON_SPEEDUP = 1.5
MIN_WORKERS = 4
ALPHA = 0.1
PARITY_QUERIES = 300
THROUGHPUT_QUERIES = 2500


def _cores() -> int:
    from repro.engine import default_workers

    return default_workers()


def _report(lines):
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    path = REPORT_DIR / "engine_parallel.txt"
    with path.open("a", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


def _signatures(answers):
    return [(a.reachable, a.visited, a.met_at, a.exhausted) for a in answers]


@pytest.fixture(scope="module")
def engine_and_queries():
    from repro.engine import QueryEngine, ReachQuery
    from repro.workloads.datasets import load_dataset
    from repro.workloads.queries import sample_mixed_pairs

    # yahoo-small at alpha=0.1 gives ~50-200us per query: heavy enough that
    # chunk IPC is noise, light enough that the whole benchmark stays quick.
    graph = load_dataset("yahoo-small", seed=BENCH_SEED)
    engine = QueryEngine(graph, cache_size=0)
    engine.prepare(reach_alphas=[ALPHA])
    # Walk-positive/uniform mix: heavy enough per query that chunk IPC is
    # noise (uniform-only pairs are refuted in O(1) and measure nothing).
    queries = [
        ReachQuery(source, target)
        for source, target in sample_mixed_pairs(graph, THROUGHPUT_QUERIES, seed=BENCH_SEED)
    ]
    yield engine, queries
    engine.close()  # release the daemon pool + shared segments


def test_executor_parity(engine_and_queries):
    """The daemon pool must match the serial path bit-for-bit."""
    engine, queries = engine_and_queries
    batch = queries[:PARITY_QUERIES]
    serial = _signatures(engine.answer_batch(batch, ALPHA))
    for workers in (1, 2, MIN_WORKERS):
        answers = engine.answer_batch(batch, ALPHA, executor="daemon", workers=workers)
        assert _signatures(answers) == serial, (
            f"daemon executor with {workers} workers diverged from serial"
        )
        engine.close()  # a live pool keeps its size: the next count needs a fresh one
    _report([f"parity: serial == daemon on {len(batch)} queries (1/2/4 workers)"])


def test_parallel_throughput(engine_and_queries):
    """>= 1.5x batch throughput with >= 4 warm workers (needs >= 4 cores to show)."""
    engine, queries = engine_and_queries
    cores = _cores()

    # Best of two rounds: shared CI runners are noisy, and the floor below
    # is asserted, so a single unlucky scheduling slice must not fail the
    # build (same damping as bench_backend_csr._timed).
    daemon_speedup = 0.0
    serial_report = daemon_report = None
    # Warm the daemon pool outside the timed rounds: the first daemon batch
    # pays the one-off spawn + shared-state publication, every later batch
    # reuses the attached workers — the steady state being measured.
    engine.run_batch(queries[:PARITY_QUERIES], ALPHA, executor="daemon", workers=MIN_WORKERS)
    for _ in range(2):
        serial_report = engine.run_batch(queries, ALPHA)
        daemon_report = engine.run_batch(
            queries, ALPHA, executor="daemon", workers=MIN_WORKERS
        )
        assert daemon_report.workers == MIN_WORKERS
        assert _signatures(serial_report.answers) == _signatures(daemon_report.answers)
        if serial_report.throughput > 0:
            daemon_speedup = max(
                daemon_speedup, daemon_report.throughput / serial_report.throughput
            )
    _report(
        [
            f"throughput ({len(queries)} RBReach queries, alpha={ALPHA}, cores={cores}): "
            f"serial={serial_report.throughput:.0f} q/s "
            f"daemon[{MIN_WORKERS}]={daemon_report.throughput:.0f} q/s "
            f"daemon_speedup={daemon_speedup:.2f}x"
        ]
    )

    if cores < MIN_WORKERS:
        pytest.skip(
            f"only {cores} schedulable core(s): the >= {MIN_DAEMON_SPEEDUP}x / "
            f"{MIN_WORKERS}-worker throughput claim needs >= {MIN_WORKERS} cores "
            "(parity was still asserted above; BENCH_engine.json marks the "
            "speedup metrics 'skipped' on such runners)"
        )
    assert daemon_speedup >= MIN_DAEMON_SPEEDUP, (
        f"daemon-pool speedup {daemon_speedup:.2f}x below the {MIN_DAEMON_SPEEDUP}x target "
        f"with {MIN_WORKERS} warm workers on {cores} cores"
    )


def test_cache_serves_repeats(engine_and_queries):
    """Answering the same batch twice must hit the LRU cache throughout."""
    from repro.engine import QueryEngine

    engine, queries = engine_and_queries
    cached_engine = QueryEngine(engine.prepared.original, cache_size=len(queries) + 1)
    cached_engine.prepare(reach_alphas=[ALPHA])
    batch = queries[:PARITY_QUERIES]

    started = time.perf_counter()
    cold = cached_engine.run_batch(batch, ALPHA)
    cold_wall = time.perf_counter() - started
    started = time.perf_counter()
    warm = cached_engine.run_batch(batch, ALPHA)
    warm_wall = time.perf_counter() - started

    assert cold.cache_misses == len(batch)
    assert warm.cache_hits == len(batch) and warm.cache_misses == 0
    assert _signatures(cold.answers) == _signatures(warm.answers)
    speedup = cold_wall / warm_wall if warm_wall > 0 else float("inf")
    _report([f"cache: cold={cold_wall:.3f}s warm={warm_wall:.4f}s speedup={speedup:.1f}x"])
    assert speedup >= 5.0, f"cache-served repeat only {speedup:.1f}x faster than cold"
