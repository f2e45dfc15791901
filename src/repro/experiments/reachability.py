"""Exp-2 drivers: reachability experiments (Figures 8(k)–8(p)).

``RBReach`` is compared against ``BFS``, ``BFSOpt`` and the landmark-vector
``LM`` baseline on batches of reachability queries, sweeping either the
resource ratio α or the synthetic graph size |V|.

The RBReach side runs through the :class:`~repro.service.GraphService`
façade (prepare once — condensation, per-α landmark index — then answer
the whole workload as one batch), so the experiment loop exercises exactly
the serving path the CLI ``batch`` command exposes; ``executor``/``workers``
select the executor (``auto`` lets the planner choose) with answers
guaranteed identical to the serial path.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.core.accuracy import boolean_accuracy
from repro.experiments.records import ExperimentResult, ReachabilityRow
from repro.graph.digraph import DiGraph
from repro.reachability.baselines import (
    BFSOptReachability,
    BFSReachability,
    LandmarkVectorReachability,
)
from repro.service.config import ServiceConfig
from repro.service.requests import ReachRequest
from repro.service.service import GraphService
from repro.workloads.datasets import synthetic
from repro.workloads.queries import ReachabilityWorkload, generate_reachability_workload


def _sweep_service(
    graph: DiGraph, executor: str = "serial", workers: Optional[int] = None
) -> GraphService:
    """One service per sweep — the only place experiment services are built.

    The service's condensation also serves the ``BFSOpt`` baseline.
    ``cache_size=0``: every workload pair is unique and the figure timings
    must stay raw — no fingerprinting or cache bookkeeping in the measured
    batch time.
    """
    return GraphService(
        graph, ServiceConfig(executor=executor, workers=workers, cache_size=0)
    )


def _evaluate_alpha(
    service: GraphService,
    workload: ReachabilityWorkload,
    alpha: float,
    dataset: str,
    x_label: str,
    x_value: float,
    bfs_time: float,
    bfsopt_time: float,
    lm_time: float,
    lm_accuracy: float,
) -> ReachabilityRow:
    """Build the index for one α, answer the workload as a batch, aggregate a row."""
    prepared = service.prepared
    index = prepared.reachability_index(alpha)
    build_time = prepared.index_build_seconds(alpha)

    report = service.run_batch(
        [ReachRequest(source, target) for source, target in workload.pairs],
        alpha=alpha,
    )
    answers = {
        pair: answer.reachable for pair, answer in zip(workload.pairs, report.answers)
    }
    rb_time = report.wall_seconds

    accuracy = boolean_accuracy(workload.truth, answers)
    false_positives = sum(
        1 for pair in workload.pairs if answers[pair] and not workload.truth[pair]
    )
    per_query = rb_time / max(1, len(workload))
    return ReachabilityRow(
        dataset=dataset,
        x_label=x_label,
        x_value=x_value,
        num_queries=len(workload),
        alpha=alpha,
        rbreach_time=per_query,
        bfs_time=bfs_time,
        bfsopt_time=bfsopt_time,
        lm_time=lm_time,
        rbreach_accuracy=accuracy.f_measure,
        bfs_accuracy=1.0,
        lm_accuracy=lm_accuracy,
        rbreach_false_positives=false_positives,
        index_size=index.size(),
        index_build_time=build_time,
        rbreach_speedup_vs_bfs=(bfs_time / per_query) if per_query > 0 else 0.0,
        rbreach_speedup_vs_bfsopt=(bfsopt_time / per_query) if per_query > 0 else 0.0,
    )


def _baseline_times(
    graph: DiGraph,
    service: GraphService,
    workload: ReachabilityWorkload,
    lm_seed: int = 0,
):
    """Per-query times (seconds) and LM accuracy for the three baselines."""
    bfs = BFSReachability(graph)
    started = time.perf_counter()
    bfs_answers = bfs.query_many(workload.pairs)
    bfs_time = (time.perf_counter() - started) / max(1, len(workload))

    bfsopt = BFSOptReachability(graph, compressed=service.prepared.compressed())
    started = time.perf_counter()
    bfsopt.query_many(workload.pairs)
    bfsopt_time = (time.perf_counter() - started) / max(1, len(workload))

    landmark = LandmarkVectorReachability(graph, seed=lm_seed)
    started = time.perf_counter()
    lm_answers = landmark.query_many(workload.pairs)
    lm_time = (time.perf_counter() - started) / max(1, len(workload))

    # Sanity: BFS is the exact oracle; the workload truth must agree with it.
    assert all(bfs_answers[pair] == workload.truth[pair] for pair in workload.pairs)
    lm_accuracy = boolean_accuracy(workload.truth, lm_answers).f_measure
    return bfs_time, bfsopt_time, lm_time, lm_accuracy


def alpha_sweep(
    graph: DiGraph,
    dataset: str,
    alphas: Sequence[float],
    num_queries: int = 100,
    seed: int = 0,
    max_walk_length: int = 6,
    experiment_id: str = "fig8k",
    title: str = "Reachability: varying alpha",
    executor: str = "serial",
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Figures 8(k)–8(n): sweep the resource ratio α on one dataset."""
    workload = generate_reachability_workload(
        graph, count=num_queries, seed=seed, max_walk_length=max_walk_length
    )
    with _sweep_service(graph, executor, workers) as service:
        bfs_time, bfsopt_time, lm_time, lm_accuracy = _baseline_times(
            graph, service, workload, lm_seed=seed
        )
        rows = [
            _evaluate_alpha(
                service,
                workload,
                alpha,
                dataset,
                x_label="alpha",
                x_value=alpha,
                bfs_time=bfs_time,
                bfsopt_time=bfsopt_time,
                lm_time=lm_time,
                lm_accuracy=lm_accuracy,
            )
            for alpha in alphas
        ]
    return ExperimentResult(experiment_id=experiment_id, title=title, rows=rows)


def graph_size_sweep(
    sizes: Sequence[int],
    alphas: Sequence[float],
    num_queries: int = 100,
    seed: int = 0,
    max_walk_length: int = 6,
    experiment_id: str = "fig8o",
    title: str = "Reachability: varying |V| (synthetic)",
    executor: str = "serial",
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Figures 8(o)–8(p): sweep the synthetic graph size for one or two α values."""
    rows: List[ReachabilityRow] = []
    for index_in_series, size in enumerate(sizes):
        graph = synthetic(size, seed=seed + index_in_series)
        workload = generate_reachability_workload(
            graph, count=num_queries, seed=seed, max_walk_length=max_walk_length
        )
        with _sweep_service(graph, executor, workers) as service:
            bfs_time, bfsopt_time, lm_time, lm_accuracy = _baseline_times(
                graph, service, workload, lm_seed=seed
            )
            for alpha in alphas:
                row = _evaluate_alpha(
                    service,
                    workload,
                    alpha,
                    dataset=f"synthetic-{size}",
                    x_label="|V|",
                    x_value=size,
                    bfs_time=bfs_time,
                    bfsopt_time=bfsopt_time,
                    lm_time=lm_time,
                    lm_accuracy=lm_accuracy,
                )
                rows.append(row)
    return ExperimentResult(experiment_id=experiment_id, title=title, rows=rows)
