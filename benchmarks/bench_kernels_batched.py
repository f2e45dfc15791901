"""Benchmark: multi-source batched BFS vs a per-source ``reach_mask`` loop.

The tentpole claim of the kernel tier is that one word-parallel bitset sweep
answers a whole batch of sources for roughly the cost of a few single-source
sweeps: 64 sources ride in one ``uint64`` word column of one reach matrix,
the frontier holds only its non-zero ``(row, word)`` entries, and the level
loop and the CSR gathers are paid once per *batch*, not once per source.

This benchmark pins that claim on the Yahoo surrogate with 256 sources
(four word columns — wide enough to cross the word boundary, small enough
for CI):

* **batched**: ``reach_batch(csr, sources)`` in one call vs the same 256
  answers from a per-source ``csr_reach_mask`` loop — bit-identical masks
  are *asserted*, then a >= 10x wall-clock floor;
* **absorbing**: the RBReach label-sweep shape — every source is a
  landmark-style stop node, frontiers absorb at the stop set — with parity
  asserted and a conservative >= 4x floor (absorbed frontiers die early, so
  there is less level-loop overhead for batching to amortise).

A third, parity-only case (no timing floor) runs the shape the RBReach
index actually sweeps: every landmark of a condensation DAG as one batch,
full and absorbing at the landmarks, forward and backward.

Both floors use the best of three attempts: a contention burst landing on
the batched side deflates the measured speedup, and a real regression fails
all three.  Both are ratios measured in one process, so they need no
committed baseline.  Results are appended to
``benchmarks/_reports/kernels_batched.txt``; ``make bench-smoke`` runs this
file beside ``bench_backend_csr.py``.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_kernels_batched.py -q
"""

from __future__ import annotations

import random
import time

from conftest import BENCH_SEED, REPORT_DIR

MIN_SPEEDUP_BATCHED = 10.0
MIN_SPEEDUP_ABSORBING = 4.0
NUM_SOURCES = 256


def _timed(fn, rounds: int = 2):
    """Run ``fn`` ``rounds`` times; return (last result, best wall-clock)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _report(lines):
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    path = REPORT_DIR / "kernels_batched.txt"
    with path.open("a", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


def measure_kernels_batched(seed: int = BENCH_SEED) -> dict:
    """Batched-vs-loop speedups and parity flags on the Yahoo surrogate.

    Parity is checked bit-for-bit *inside* the measurement (a wrong answer
    poisons the speedup, so it must gate here, not just in the test suite).
    """
    import numpy as np

    from repro.graph.csr import CSRGraph
    from repro.graph.kernels import csr_reach_mask, reach_batch
    from repro.workloads.datasets import yahoo_like

    digraph = yahoo_like(seed=seed)
    csr = CSRGraph.from_digraph(digraph)
    rng = random.Random(seed)
    nodes = list(digraph.nodes())
    sources = [rng.choice(nodes) for _ in range(NUM_SOURCES)]
    source_rows = [csr.index_of(node) for node in sources]

    # The absorbing configuration mirrors the landmark label sweep: the stop
    # set is the sources themselves plus a sprinkle of high-degree hubs.
    stop_mask = np.zeros(csr.num_nodes(), dtype=bool)
    stop_mask[source_rows] = True
    stop_mask[rng.sample(range(csr.num_nodes()), 500)] = True

    def batched(stop=None):
        return reach_batch(csr, sources, forward=True, stop=stop)

    def per_source_loop(stop=None):
        return [
            csr_reach_mask(csr, row, forward=True, stop_mask=stop)
            for row in source_rows
        ]

    def parity(batch, masks) -> bool:
        return all(
            np.array_equal(batch.mask(j), mask) for j, mask in enumerate(masks)
        )

    metrics = {
        "dataset": "yahoo-like",
        "num_sources": NUM_SOURCES,
        "num_nodes": csr.num_nodes(),
    }
    for label, stop in (("batched", None), ("absorbing", stop_mask)):
        # Warm both paths once, then keep the best of three attempts.
        batch = batched(stop)
        masks = per_source_loop(stop)
        agreed = parity(batch, masks)
        speedup, loop_seconds, batch_seconds = 0.0, 0.0, 0.0
        for _ in range(3):
            masks, loop_seconds = _timed(lambda: per_source_loop(stop))
            batch, batch_seconds = _timed(lambda: batched(stop))
            agreed = agreed and parity(batch, masks)
            speedup = max(
                speedup, loop_seconds / batch_seconds if batch_seconds > 0 else 0.0
            )
            if speedup >= 1.5 * MIN_SPEEDUP_BATCHED:
                break
        metrics[f"{label}_parity"] = int(agreed)
        metrics[f"{label}_speedup"] = round(speedup, 2)
        metrics[f"{label}_loop_seconds"] = round(loop_seconds, 4)
        metrics[f"{label}_batch_seconds"] = round(batch_seconds, 4)
    return metrics


def test_batched_bfs_speedup_and_parity():
    """256-source batch: bit-identical to the per-source loop, >= 10x faster."""
    metrics = measure_kernels_batched(seed=BENCH_SEED)
    _report(
        [
            f"{label}: loop={metrics[f'{label}_loop_seconds']:.3f}s "
            f"batched={metrics[f'{label}_batch_seconds']:.3f}s "
            f"speedup={metrics[f'{label}_speedup']:.2f}x "
            f"parity={metrics[f'{label}_parity']}"
            for label in ("batched", "absorbing")
        ]
    )
    assert metrics["batched_parity"] == 1, "batched sweep diverged from reach_mask"
    assert metrics["absorbing_parity"] == 1, "absorbing sweep diverged from reach_mask"
    assert metrics["batched_speedup"] >= MIN_SPEEDUP_BATCHED, (
        f"batched speedup {metrics['batched_speedup']:.2f}x below the "
        f"{MIN_SPEEDUP_BATCHED}x target"
    )
    assert metrics["absorbing_speedup"] >= MIN_SPEEDUP_ABSORBING, (
        f"absorbing speedup {metrics['absorbing_speedup']:.2f}x below the "
        f"{MIN_SPEEDUP_ABSORBING}x target"
    )


def test_landmark_sweep_shape_parity():
    """The index's four sweeps over a condensation DAG, bit for bit per landmark."""
    import numpy as np

    from repro.graph.kernels import csr_reach_mask, reach_batch
    from repro.reachability.compression import compress
    from repro.reachability.hierarchy import select_leaves
    from repro.workloads.datasets import load_dataset

    compressed = compress(load_dataset("youtube-small", seed=BENCH_SEED, backend="csr"))
    mirror = compressed.dag_csr
    landmarks = select_leaves(compressed, 0.02, max(2, int(0.02 * compressed.original.size())))
    rows = [mirror.index_of(landmark) for landmark in landmarks]
    stop_mask = np.zeros(mirror.num_nodes(), dtype=bool)
    stop_mask[rows] = True
    assert len(landmarks) > 64  # several words
    for forward in (True, False):
        for stop in (None, stop_mask):
            batch = reach_batch(mirror, landmarks, forward=forward, stop=stop)
            for j, row in enumerate(rows):
                mask = csr_reach_mask(mirror, row, forward=forward, stop_mask=stop)
                assert np.array_equal(batch.mask(j), mask), (forward, stop is not None, j)
