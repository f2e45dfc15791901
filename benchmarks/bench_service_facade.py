"""Benchmark: the ``GraphService`` façade — overhead and planner quality.

Two claims, both gated in CI through the ``service`` suite of
``tools/bench_report.py``:

* **façade overhead ≤ 5%** — answering a warm (prepared, steady-state)
  batch through ``GraphService.run_batch`` costs at most 5% more wall time
  than the same batch through the raw ``QueryEngine``.  Rounds are
  interleaved (engine, service, engine, ...) and the best of each side is
  compared, so scheduler noise on shared runners cannot masquerade as
  overhead.  The pure cache-hit path (microseconds per query, where any
  façade bookkeeping is visible) is reported for information but not gated
  against the 5% bar.
* **metrics instrumentation ≤ 2%** — the same warm batch with the
  ``repro.obs`` metrics layer enabled costs at most 2% more wall time than
  with it disabled (instrumentation is batch-granular by design).
* **tracing ≤ 2%** — the same warm batch with distributed tracing *on*
  (an in-memory flight recorder collecting every span) costs at most 2%
  more wall time than with tracing off; the tracing-off state itself is a
  no-op span object per stage, so this is the stronger form of the
  "tracing disabled is free" claim.
* **the planner never loses to naive serial** — on the bench workload the
  auto-planner's chosen backend must not be slower than forcing the serial
  default (within measurement tolerance).  On a multi-core runner the
  planner picks the daemon pool and wins outright; on a 1–2 core runner it
  must have the sense to pick serial and tie.

Both measurements also witness the parity contract: every façade answer is
bit-identical to the serial engine's.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_service_facade.py -q
"""

from __future__ import annotations

import time

import pytest

from conftest import BENCH_SEED, REPORT_DIR

ALPHA = 0.1
QUERIES = 1000
ROUNDS = 5
MAX_FACADE_OVERHEAD = 0.05
# The observability layer must be ~free: enabling metrics may cost at most
# 2% wall time on the same warm batch (instrumentation is batch-granular).
# A 2% signal is below one round's scheduler jitter on a shared runner, so
# this comparison takes more best-of rounds than the facade one to converge.
MAX_METRICS_OVERHEAD = 0.02
METRICS_ROUNDS = 12
# Same bar for distributed tracing: a warm batch traced into an in-memory
# flight recorder (~7 span records) vs untraced.
MAX_TRACING_OVERHEAD = 0.02
# >= 1.0 is the claim; the assertion leaves a little room for timer noise
# on a tied decision (planner picks serial -> identical path, speedup ~1.0).
MIN_PLANNER_SPEEDUP = 0.92


def _report(lines):
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    path = REPORT_DIR / "service_facade.txt"
    with path.open("a", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


def _signatures(answers):
    return [(a.reachable, a.visited, a.met_at, a.exhausted) for a in answers]


def _interleaved_best(sides, rounds=ROUNDS):
    """Best wall time per side, with rounds interleaved across sides."""
    best = [float("inf")] * len(sides)
    for _ in range(rounds):
        for index, side in enumerate(sides):
            started = time.perf_counter()
            side()
            best[index] = min(best[index], time.perf_counter() - started)
    return best


def _paired_overhead(baseline, candidate, rounds=ROUNDS, accept_below=0.0):
    """Candidate-vs-baseline overhead: ``(overhead, baseline_wall, candidate_wall)``.

    Contention noise is one-sided — background load only ever *inflates* a
    wall time — so the smallest estimate across up to three attempts is the
    least-biased one; a real regression survives every attempt.  Stops early
    once the estimate is comfortably below ``accept_below``.
    """
    best = (float("inf"), 0.0, 0.0)
    for _ in range(3):
        baseline_wall, candidate_wall = _interleaved_best(
            [baseline, candidate], rounds=rounds
        )
        estimate = (
            candidate_wall / baseline_wall - 1.0 if baseline_wall > 0 else 0.0
        )
        if estimate < best[0]:
            best = (estimate, baseline_wall, candidate_wall)
        if best[0] <= accept_below:
            break
    return best


def measure_service_facade(seed: int = BENCH_SEED) -> dict:
    """The measurement backing both this benchmark and the CI suite."""
    from repro.engine import QueryEngine, ReachQuery, default_workers
    from repro.service import GraphService, ReachRequest, ServiceConfig
    from repro.workloads.datasets import load_dataset
    from repro.workloads.queries import sample_mixed_pairs

    graph = load_dataset("yahoo-small", seed=seed)
    pairs = sample_mixed_pairs(graph, QUERIES, seed=seed)
    queries = [ReachQuery(source, target) for source, target in pairs]
    requests = [ReachRequest(source, target) for source, target in pairs]

    # --- façade overhead, steady state (prepared, cache off, warmed up) ---
    engine = QueryEngine(graph, cache_size=0)
    engine.prepare(reach_alphas=[ALPHA])
    service = GraphService(
        graph, ServiceConfig(executor="serial", cache_size=0, alpha=ALPHA)
    )
    service.prepare()
    reference = _signatures(engine.run_batch(queries, ALPHA).answers)  # also warms
    facade_answers = service.run_batch(requests).answers
    facade_parity = int(_signatures(facade_answers) == reference)

    facade_overhead, direct_wall, service_wall = _paired_overhead(
        lambda: engine.run_batch(queries, ALPHA),
        lambda: service.run_batch(requests),
        accept_below=MAX_FACADE_OVERHEAD / 2,
    )
    facade_efficiency = direct_wall / service_wall if service_wall > 0 else 0.0

    # --- instrumentation overhead: same warm batch, metrics on vs off ---
    from repro import obs

    was_enabled = obs.enabled()

    def _metrics_on():
        obs.set_enabled(True)
        service.run_batch(requests)

    def _metrics_off():
        obs.set_enabled(False)
        service.run_batch(requests)

    try:
        metrics_overhead, metrics_off_wall, metrics_on_wall = _paired_overhead(
            _metrics_off,
            _metrics_on,
            rounds=METRICS_ROUNDS,
            accept_below=MAX_METRICS_OVERHEAD / 2,
        )
    finally:
        obs.set_enabled(was_enabled)

    # --- tracing overhead: same warm batch, flight recorder on vs off ---
    from repro.obs import flight as obs_flight
    from repro.obs import trace as obs_trace

    recorder = obs_flight.FlightRecorder(capacity=8)

    def _tracing_on():
        obs_trace.add_collector(recorder)
        try:
            service.run_batch(requests)
        finally:
            obs_trace.remove_collector(recorder)

    def _tracing_off():
        service.run_batch(requests)

    tracing_overhead, tracing_off_wall, tracing_on_wall = _paired_overhead(
        _tracing_off,
        _tracing_on,
        rounds=METRICS_ROUNDS,
        accept_below=MAX_TRACING_OVERHEAD / 2,
    )

    # --- façade overhead, pure cache-hit path (informational) ---
    cached_engine = QueryEngine(graph, cache_size=QUERIES + 1)
    cached_engine.prepare(reach_alphas=[ALPHA])
    cached_engine.run_batch(queries, ALPHA)
    cached_service = GraphService(
        graph, ServiceConfig(executor="serial", cache_size=QUERIES + 1, alpha=ALPHA)
    )
    cached_service.prepare()
    cached_service.run_batch(requests)
    direct_hit, service_hit = _interleaved_best(
        [
            lambda: cached_engine.run_batch(queries, ALPHA),
            lambda: cached_service.run_batch(requests),
        ],
        rounds=ROUNDS + 2,
    )
    cache_hit_overhead = service_hit / direct_hit - 1.0 if direct_hit > 0 else 0.0

    # --- planner-chosen backend vs naive serial ---
    cores = default_workers()
    auto_service = GraphService(graph, ServiceConfig(cache_size=0, alpha=ALPHA))
    auto_service.prepare()
    planner_report = auto_service.run_batch(requests)
    planner_parity = int(_signatures(planner_report.answers) == reference)
    # accept_below=0.0: stop as soon as the planner is not slower than serial.
    _, serial_wall, planner_wall = _paired_overhead(
        lambda: service.run_batch(requests),  # forced-serial naive default
        lambda: auto_service.run_batch(requests),
        accept_below=0.0,
    )
    planner_speedup = serial_wall / planner_wall if planner_wall > 0 else 0.0

    return {
        "dataset": "yahoo-small",
        "alpha": ALPHA,
        "queries": QUERIES,
        "cores": cores,
        "direct_wall_seconds": round(direct_wall, 4),
        "service_wall_seconds": round(service_wall, 4),
        "facade_overhead": round(facade_overhead, 4),
        "facade_efficiency": round(facade_efficiency, 4),
        "metrics_on_wall_seconds": round(metrics_on_wall, 4),
        "metrics_off_wall_seconds": round(metrics_off_wall, 4),
        "metrics_overhead": round(metrics_overhead, 4),
        "tracing_on_wall_seconds": round(tracing_on_wall, 4),
        "tracing_off_wall_seconds": round(tracing_off_wall, 4),
        "tracing_overhead": round(tracing_overhead, 4),
        "cache_hit_direct_ms": round(direct_hit * 1000, 3),
        "cache_hit_service_ms": round(service_hit * 1000, 3),
        "cache_hit_overhead": round(cache_hit_overhead, 4),
        "planner_backend": planner_report.plan.backend,
        "planner_executor": planner_report.plan.executor,
        "serial_wall_seconds": round(serial_wall, 4),
        "planner_wall_seconds": round(planner_wall, 4),
        "planner_speedup": round(planner_speedup, 3),
        "facade_parity": facade_parity,
        "planner_parity": planner_parity,
    }


@pytest.fixture(scope="module")
def metrics():
    result = measure_service_facade()
    _report(
        [
            f"facade: direct={result['direct_wall_seconds']:.3f}s "
            f"service={result['service_wall_seconds']:.3f}s "
            f"overhead={result['facade_overhead']:.2%} "
            f"(cache-hit path: {result['cache_hit_overhead']:.1%}, informational)",
            f"metrics: on={result['metrics_on_wall_seconds']:.3f}s "
            f"off={result['metrics_off_wall_seconds']:.3f}s "
            f"overhead={result['metrics_overhead']:.2%}",
            f"tracing: on={result['tracing_on_wall_seconds']:.3f}s "
            f"off={result['tracing_off_wall_seconds']:.3f}s "
            f"overhead={result['tracing_overhead']:.2%}",
            f"planner: backend={result['planner_backend']}/{result['planner_executor']} "
            f"cores={result['cores']} serial={result['serial_wall_seconds']:.3f}s "
            f"auto={result['planner_wall_seconds']:.3f}s "
            f"speedup={result['planner_speedup']:.2f}x",
        ]
    )
    return result


def test_facade_parity(metrics):
    """Every façade answer is bit-identical to the serial engine's."""
    assert metrics["facade_parity"] == 1
    assert metrics["planner_parity"] == 1


def test_facade_overhead_within_5pct(metrics):
    """GraphService adds <= 5% wall time over the raw engine, steady state."""
    assert metrics["facade_overhead"] <= MAX_FACADE_OVERHEAD, (
        f"façade overhead {metrics['facade_overhead']:.2%} exceeds "
        f"{MAX_FACADE_OVERHEAD:.0%} vs the direct QueryEngine"
    )


def test_metrics_overhead_within_2pct(metrics):
    """Enabling the obs metrics layer costs <= 2% wall time on a warm batch."""
    assert metrics["metrics_overhead"] <= MAX_METRICS_OVERHEAD, (
        f"metrics instrumentation overhead {metrics['metrics_overhead']:.2%} "
        f"exceeds {MAX_METRICS_OVERHEAD:.0%} "
        f"(on={metrics['metrics_on_wall_seconds']:.3f}s, "
        f"off={metrics['metrics_off_wall_seconds']:.3f}s)"
    )


def test_tracing_overhead_within_2pct(metrics):
    """Tracing a warm batch into the flight recorder costs <= 2% wall time."""
    assert metrics["tracing_overhead"] <= MAX_TRACING_OVERHEAD, (
        f"tracing overhead {metrics['tracing_overhead']:.2%} "
        f"exceeds {MAX_TRACING_OVERHEAD:.0%} "
        f"(on={metrics['tracing_on_wall_seconds']:.3f}s, "
        f"off={metrics['tracing_off_wall_seconds']:.3f}s)"
    )


def test_planner_never_slower_than_serial(metrics):
    """The auto-planner's choice must not lose to the naive serial default."""
    assert metrics["planner_speedup"] >= MIN_PLANNER_SPEEDUP, (
        f"planner chose {metrics['planner_backend']}/{metrics['planner_executor']} "
        f"on {metrics['cores']} cores but ran {metrics['planner_speedup']:.2f}x "
        "vs naive serial"
    )
