"""Exp-1 drivers: graph pattern experiments (Figures 8(a)–8(j) and Table 2).

Each driver runs the two resource-bounded algorithms (``RBSim``, ``RBSub``)
against their exact baselines (``MatchOpt``, ``VF2OPT``) on a workload of
embedded pattern queries and averages running time, accuracy and reduction
ratios per x-value (α, |Q| or |V|).

The resource-bounded side runs as *batches* through the
:class:`~repro.service.GraphService` façade (one prepared service per
sweep: CSR mirror plus shared neighbourhood summaries, then one batch per
x-value), while the exact baselines stay on the raw graph — they are the
yardstick the service is measured against.  ``executor``/``workers`` pick
the batch executor (``auto`` lets the planner choose); answers are
identical to the serial path for all of them.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.accuracy import mean_accuracy, pattern_accuracy
from repro.engine.queries import SIMULATION, SUBGRAPH
from repro.experiments.records import ExperimentResult, PatternRow
from repro.graph.digraph import DiGraph
from repro.matching.strong_simulation import match_opt
from repro.matching.vf2 import vf2_opt
from repro.service.config import ServiceConfig
from repro.service.requests import PatternRequest
from repro.service.service import GraphService
from repro.workloads.datasets import synthetic
from repro.workloads.queries import PatternWorkload, generate_pattern_workload


def _sweep_service(
    graph: DiGraph, executor: str = "serial", workers: Optional[int] = None
) -> GraphService:
    """One service per sweep — the only place experiment engines are built.

    ``cache_size=0`` keeps figure timings raw (no fingerprint/cache
    overhead); the forced executor keeps the measured path explicit.
    """
    return GraphService(
        graph, ServiceConfig(executor=executor, workers=workers, cache_size=0)
    )


def _evaluate_workload(
    graph: DiGraph,
    workload: PatternWorkload,
    alpha: float,
    dataset: str,
    x_label: str,
    x_value: float,
    service: GraphService,
    run_subgraph: bool = True,
) -> PatternRow:
    """Run all four algorithms over one workload and aggregate a row."""
    queries = list(workload)

    matchopt_times: List[float] = []
    exact_sims = []
    for query in queries:
        started = time.perf_counter()
        exact_sims.append(match_opt(query.pattern, graph, query.personalized_match))
        matchopt_times.append(time.perf_counter() - started)

    sim_batch = [
        PatternRequest(query.pattern, query.personalized_match, semantics=SIMULATION)
        for query in queries
    ]
    sim_report = service.run_batch(sim_batch, alpha=alpha)
    rbsim_time = sim_report.wall_seconds / max(1, len(queries))

    sim_accuracies = []
    reduction_ratios: List[float] = []
    budget_ratios: List[float] = []
    subgraph_sizes: List[float] = []
    ball_sizes: List[float] = []
    for exact_sim, approx_sim in zip(exact_sims, sim_report.answers):
        sim_accuracies.append(pattern_accuracy(exact_sim.answer, approx_sim.answer))
        ball_size = max(1, exact_sim.ball_size)
        reduction_ratios.append(approx_sim.subgraph_size / ball_size)
        budget_ratios.append(min(1.0, alpha * graph.size() / ball_size))
        subgraph_sizes.append(approx_sim.subgraph_size)
        ball_sizes.append(exact_sim.ball_size)

    vf2_times: List[float] = []
    sub_accuracies = []
    rbsub_time = 0.0
    if run_subgraph:
        exact_subs = []
        for query in queries:
            started = time.perf_counter()
            exact_subs.append(vf2_opt(query.pattern, graph, query.personalized_match))
            vf2_times.append(time.perf_counter() - started)

        sub_batch = [
            PatternRequest(query.pattern, query.personalized_match, semantics=SUBGRAPH)
            for query in queries
        ]
        sub_report = service.run_batch(sub_batch, alpha=alpha)
        rbsub_time = sub_report.wall_seconds / max(1, len(queries))
        for exact_sub, approx_sub in zip(exact_subs, sub_report.answers):
            sub_accuracies.append(pattern_accuracy(exact_sub.answer, approx_sub.answer))

    def _mean(values: Sequence[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    matchopt_time = _mean(matchopt_times)
    vf2opt_time = _mean(vf2_times)
    return PatternRow(
        dataset=dataset,
        x_label=x_label,
        x_value=x_value,
        num_queries=len(workload),
        alpha=alpha,
        shape=f"({workload.shape[0]},{workload.shape[1]})",
        rbsim_time=rbsim_time,
        matchopt_time=matchopt_time,
        rbsub_time=rbsub_time,
        vf2opt_time=vf2opt_time,
        rbsim_accuracy=mean_accuracy(sim_accuracies).f_measure,
        rbsub_accuracy=mean_accuracy(sub_accuracies).f_measure if sub_accuracies else 0.0,
        reduction_ratio=_mean(reduction_ratios),
        budget_ratio=_mean(budget_ratios),
        subgraph_size=_mean(subgraph_sizes),
        ball_size=_mean(ball_sizes),
        rbsim_speedup=(matchopt_time / rbsim_time) if rbsim_time > 0 else 0.0,
        rbsub_speedup=(vf2opt_time / rbsub_time) if rbsub_time > 0 else 0.0,
    )


def alpha_sweep(
    graph: DiGraph,
    dataset: str,
    alphas: Sequence[float],
    shape: Tuple[int, int] = (4, 8),
    num_queries: int = 5,
    seed: int = 0,
    experiment_id: str = "fig8a",
    title: str = "Pattern queries: varying alpha",
    executor: str = "serial",
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Figures 8(a)–8(d) and Table 2: sweep the resource ratio α."""
    workload = generate_pattern_workload(graph, shape=shape, count=num_queries, seed=seed)
    with _sweep_service(graph, executor, workers) as service:
        rows = [
            _evaluate_workload(
                graph,
                workload,
                alpha=alpha,
                dataset=dataset,
                x_label="alpha",
                x_value=alpha,
                service=service,
            )
            for alpha in alphas
        ]
    return ExperimentResult(experiment_id=experiment_id, title=title, rows=rows)


def query_size_sweep(
    graph: DiGraph,
    dataset: str,
    shapes: Sequence[Tuple[int, int]],
    alpha: float,
    num_queries: int = 5,
    seed: int = 0,
    experiment_id: str = "fig8e",
    title: str = "Pattern queries: varying |Q|",
    executor: str = "serial",
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Figures 8(e)–8(h): sweep the query shape ``(|Vp|, |Ep|)`` at fixed α."""
    rows = []
    with _sweep_service(graph, executor, workers) as service:
        for shape in shapes:
            workload = generate_pattern_workload(graph, shape=shape, count=num_queries, seed=seed)
            rows.append(
                _evaluate_workload(
                    graph,
                    workload,
                    alpha=alpha,
                    dataset=dataset,
                    x_label="|Q|",
                    x_value=shape[0],
                    service=service,
                )
            )
    return ExperimentResult(experiment_id=experiment_id, title=title, rows=rows)


def graph_size_sweep(
    sizes: Sequence[int],
    alpha: float,
    shape: Tuple[int, int] = (4, 8),
    num_queries: int = 5,
    seed: int = 0,
    experiment_id: str = "fig8i",
    title: str = "Pattern queries: varying |V| (synthetic)",
    executor: str = "serial",
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Figures 8(i)–8(j): sweep the synthetic graph size at fixed α and |Q|."""
    rows = []
    for index_in_series, size in enumerate(sizes):
        graph = synthetic(size, seed=seed + index_in_series)
        workload = generate_pattern_workload(graph, shape=shape, count=num_queries, seed=seed)
        with _sweep_service(graph, executor, workers) as service:
            rows.append(
                _evaluate_workload(
                    graph,
                    workload,
                    alpha=alpha,
                    dataset=f"synthetic-{size}",
                    x_label="|V|",
                    x_value=size,
                    service=service,
                )
            )
    return ExperimentResult(experiment_id=experiment_id, title=title, rows=rows)


def table2_reduction_ratio(
    datasets: Dict[str, DiGraph],
    alphas: Sequence[float],
    shape: Tuple[int, int] = (4, 8),
    num_queries: int = 5,
    seed: int = 0,
    executor: str = "serial",
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Table 2: ratio of ``alpha * |G|`` to ``|G_dQ(vp)|`` per dataset and α."""
    rows: List[PatternRow] = []
    for dataset, graph in datasets.items():
        result = alpha_sweep(
            graph,
            dataset,
            alphas,
            shape=shape,
            num_queries=num_queries,
            seed=seed,
            experiment_id="table2",
            title="Table 2",
            executor=executor,
            workers=workers,
        )
        rows.extend(result.rows)
    return ExperimentResult(
        experiment_id="table2",
        title="Table 2: ratio of alpha|G| to |G_dQ(vp)| (and |G_Q| to |G_dQ(vp)|)",
        rows=rows,
    )
