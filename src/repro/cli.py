"""Command-line interface: ``repro-bench`` / ``python -m repro``.

Every serving command answers through a
:class:`~repro.service.GraphService` — one engine, one configuration
surface (:class:`~repro.service.ServiceConfig`), one planner.  The commands
are one table (:data:`COMMANDS`): a name, a help line, the flag groups the
command takes and the handler that receives the parsed ``args``.  Each flag
is declared once: ``--alpha``/``--executor``/``--workers``/``--metrics-json``
in :data:`SERVICE_FLAGS`, the workload group (``--dataset/--count/--seed/
--shape/--output``) and the churn group (``--batches/--ops/--mix/--verify``)
with per-command defaults.  Count flags reject anything below 1 at parse time.

Subcommands
-----------
``list``
    Show the available experiments and datasets.
``run EXPERIMENT [...]``
    Run one or more experiments (``all`` for every one) and print their
    tables; ``--scale full`` uses the larger surrogates, ``--output`` writes
    the report to a file as well; ``--alpha`` overrides the scale profile's
    sweep values; ``--executor``/``--workers`` route the resource-bounded
    batches through the service (answers are identical for every choice).
``datasets``
    Print the profile of each registered dataset surrogate.
``batch``
    Answer a batch of queries through the service — sample a workload (or
    read reachability pairs from a file), let the planner route it, and
    report throughput and cache behaviour, plus accuracy against the exact
    oracle for sampled *reachability* workloads (pattern workloads skip the
    exact matchers — running them would dwarf the batch being measured);
    ``--compare-serial`` also answers the batch on a cache-free serial
    service and reports parity plus speedup.
``update``
    Replay a generated delta stream through ``GraphService.update``,
    interleaving query batches, and report update throughput (ops/s),
    per-delta staleness (each update re-prepares), the update modes and
    cache retention; ``--verify`` additionally checks every batch against a
    freshly opened service (the rebuild-equivalence contract).
``subscribe``
    Register a sampled workload as *standing queries*, replay a generated
    churn stream through ``GraphService.update`` and report how the
    maintenance pass behaves: affected/skipped fractions per batch, answer
    deltas pushed, maintenance wall time; ``--confine`` restricts churn to a
    trailing fraction of the node space (localised churn is where standing
    queries win), ``--verify`` checks every maintained answer against a
    freshly opened service and replays each pushed delta log.
``trace``
    Record a traced batch through the service with the flight recorder on,
    resolve the p99 latency exemplar to its assembled cross-process
    timeline, print it as a waterfall with the critical path marked, and
    optionally export Chrome trace-event JSON (``--export``) loadable in
    ``chrome://tracing`` or Perfetto.
``stats``
    Pretty-print a metrics snapshot written by ``--metrics-json``
    (``--input``), or answer a sampled batch and print the live registry.
``shard``
    Partition a dataset into ``k`` shards and answer a sampled workload
    through the service's sharded backend (scatter policy: the full PR 4
    scatter–gather routing), reporting the cut, per-shard routing counts,
    spillover and throughput; ``--compare-unsharded`` also answers the
    batch on a single-graph service and reports answer agreement plus
    relative speed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.accuracy import boolean_accuracy
from repro.experiments.harness import available_experiments, run_all, run_experiment
from repro.experiments.reporting import format_many, summary_claims
from repro.graph.protocol import GraphLike
from repro.graph.statistics import summarize_for_report
from repro.service import (
    EXECUTOR_CHOICES,
    SCATTER,
    GraphService,
    PatternRequest,
    ReachRequest,
    ServiceConfig,
    ServiceRequest,
    replay,
)
from repro.subscribe import answer_signature, answers_identical
from repro.workloads.datasets import available_datasets, load_dataset

# --------------------------------------------------------------------------- #
# Flag types and groups
# --------------------------------------------------------------------------- #
Flag = Tuple[Tuple[str, ...], Dict[str, Any]]
"""One ``add_argument`` call: its option strings and keyword arguments."""


def _flag(*names: str, **kwargs: Any) -> Flag:
    return names, kwargs


def _fraction(text: str) -> float:
    """argparse type: a float in (0, 1] (``--alpha``, ``--confine``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (``--workers`` and every count flag)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _shape(text: str) -> Tuple[int, int]:
    """argparse type for ``--shape``: ``'|Vp|,|Ep|'``."""
    try:
        nodes, edges = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be '|Vp|,|Ep|', got {text!r}") from None
    return nodes, edges


_DEFAULTS = ServiceConfig()

SERVICE_FLAGS: Tuple[Flag, ...] = (
    _flag(
        "--alpha",
        type=_fraction,
        default=None,
        help=f"resource ratio α in (0, 1] (default {_DEFAULTS.alpha}; "
        "'run' defaults to the scale profile's sweep values)",
    ),
    _flag(
        "--executor",
        choices=EXECUTOR_CHOICES,
        default=_DEFAULTS.executor,
        help="batch executor: 'auto' lets the planner pick per batch; "
        "naming one forces it (answers are identical either way)",
    ),
    _flag(
        "--workers",
        type=_positive_int,
        default=_DEFAULTS.workers,
        help="worker count for parallel executors (default: all schedulable cores)",
    ),
    _flag(
        "--metrics-json",
        dest="metrics_json",
        metavar="PATH",
        default=None,
        help="after the command finishes, dump the process metrics registry "
        "(repro.obs snapshot) to PATH as JSON; inspect with 'repro-bench stats'",
    ),
)
"""``--alpha``/``--executor``/``--workers``/``--metrics-json``: every command
that answers resource-bounded queries takes them, with the same defaults and
validation.  ``--alpha`` defaults to ``None`` so a command can tell "explicit
α" from "the :class:`ServiceConfig` default" (``run`` keeps its scale
profile's sweep values unless overridden)."""


def _workload(count: int = 0, shape: str = "", output: bool = True) -> Tuple[Flag, ...]:
    """The workload group: ``--dataset/--count/--seed/--shape/--output``.

    ``--count`` and ``--shape`` are declared only when given a default, and
    ``--output`` only with ``output``.  The seed selects the surrogate graph
    too, mirroring ``run``, and feeds :attr:`ServiceConfig.seed`.
    """
    flags = [
        _flag("--dataset", default="youtube-small", help="dataset the service serves"),
        _flag("--seed", type=int, default=0),
    ]
    if count:
        flags.append(_flag("--count", type=_positive_int, default=count, help="sampled workload size"))
    if shape:
        flags.append(_flag("--shape", type=_shape, default=shape, help=f"pattern shape '|Vp|,|Ep|' (default {shape})"))
    if output:
        flags.append(_flag("--output", type=Path, help="write a JSON report here"))
    return tuple(flags)


def _churn(batches: int, ops: int, verify: str) -> Tuple[Flag, ...]:
    """The churn group: ``--batches/--ops/--mix/--verify``."""
    return (
        _flag("--batches", type=_positive_int, default=batches, help="number of delta batches"),
        _flag("--ops", type=_positive_int, default=ops, help="mutations per delta batch"),
        _flag("--mix", choices=["growth", "uniform"], default="growth", help="churn: growth or uniform rewiring"),
        _flag("--verify", action="store_true", help=verify),
    )


def _kind(*extra: str, default: str = "reach", help: str) -> Flag:
    return _flag("--kind", choices=["reach", "sim", "sub", *extra], default=default, help=help)


_QUERY_CLASS = "query class: RBReach reachability, RBSim simulation or RBSub subgraph patterns"


def config_from_args(args: argparse.Namespace, **overrides) -> ServiceConfig:
    """Fold parsed CLI flags into a :class:`ServiceConfig`.

    Picks up every attribute of ``args`` that names a config field (``--seed``,
    ``--halo-depth``, ``--shards``' ``num_shards``, ...), then applies
    ``overrides``.  A ``None`` value means "not given" and keeps the config
    default.
    """
    values = {
        spec.name: getattr(args, spec.name)
        for spec in fields(ServiceConfig)
        if getattr(args, spec.name, None) is not None
    }
    values.update(overrides)
    return ServiceConfig(**values)


# --------------------------------------------------------------------------- #
# Workloads and reporting
# --------------------------------------------------------------------------- #
def _parse_node(token: str):
    """Node ids in the bundled datasets are ints; keep other tokens as strings."""
    try:
        return int(token)
    except ValueError:
        return token


def _load_reach_queries(path: Path) -> List[tuple]:
    """Parse a queries file: one ``source target`` pair per line, ``#`` comments."""
    pairs = []
    for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise SystemExit(f"{path}:{line_number}: expected 'source target', got {line!r}")
        pairs.append((_parse_node(tokens[0]), _parse_node(tokens[1])))
    if not pairs:
        raise SystemExit(f"{path}: no queries found")
    return pairs


def _warn_unknown_nodes(graph: GraphLike, pairs: Sequence[tuple], dataset: str) -> None:
    """Flag queried node ids absent from the dataset (they answer unreachable)."""
    unknown = sorted({repr(node) for pair in pairs for node in pair if node not in graph})
    if unknown:
        shown = ", ".join(unknown[:5]) + (", ..." if len(unknown) > 5 else "")
        print(
            f"warning: {len(unknown)} queried node id(s) not in dataset "
            f"{dataset!r} ({shown}); those queries answer unreachable",
            file=sys.stderr,
        )


def _sample_requests(
    graph: GraphLike,
    kind: str,
    count: int,
    seed: int,
    shape: Optional[Tuple[int, int]] = None,
) -> Tuple[List[ServiceRequest], Optional[list], Optional[dict]]:
    """Sample a workload as service requests: ``(requests, pairs, truth)``.

    ``pairs``/``truth`` are only set for reachability workloads, where the
    generator also computes the exact oracle (pattern workloads skip the
    exact matchers — running them would dwarf the batch being measured).
    """
    from repro.workloads.queries import (
        generate_pattern_workload,
        generate_reachability_workload,
    )

    if kind == "reach":
        workload = generate_reachability_workload(graph, count=count, seed=seed)
        requests: List[ServiceRequest] = [
            ReachRequest(source, target) for source, target in workload.pairs
        ]
        return requests, workload.pairs, workload.truth
    semantics = "simulation" if kind == "sim" else "subgraph"
    requests = [
        PatternRequest(query.pattern, query.personalized_match, semantics=semantics)
        for query in generate_pattern_workload(graph, shape=shape, count=count, seed=seed)
    ]
    return requests, None, None


def _accuracy(pairs: Sequence[tuple], answers: Sequence[Any], truth: Dict[tuple, bool]) -> Tuple[float, int]:
    """F-measure and false-positive count of a reachability batch."""
    mapping = {pair: answer.reachable for pair, answer in zip(pairs, answers)}
    false_positives = sum(1 for pair in pairs if mapping[pair] and not truth[pair])
    return boolean_accuracy(truth, mapping).f_measure, false_positives


def _write_report(path: Optional[Path], payload: Dict[str, Any]) -> None:
    """Write the machine-readable report (no-op when no path was given)."""
    if path is None:
        return
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"(report written to {path})")


def _prepare_kwargs(kind: str, alpha: float) -> dict:
    """Map a CLI query kind to the matching ``prepare`` keyword."""
    if kind == "reach":
        return {"reach_alphas": [alpha]}
    if kind == "sim":
        return {"pattern_alphas": [alpha]}
    return {"subgraph_alphas": [alpha]}


def _serve(args: argparse.Namespace, kind: str = "reach", **overrides) -> Tuple[GraphLike, GraphService, float]:
    """Load ``--dataset``, open a service on it from the flags, prepare ``kind`` at α.

    Returns the graph, the open service and the seconds the open and the
    prepare took.
    """
    config = config_from_args(args, **overrides)
    graph = load_dataset(args.dataset, seed=args.seed)
    started = time.perf_counter()
    service = GraphService(graph, config)
    service.prepare(**_prepare_kwargs(kind, config.alpha))
    return graph, service, time.perf_counter() - started


# --------------------------------------------------------------------------- #
# Handlers
# --------------------------------------------------------------------------- #
def _command_list(args: argparse.Namespace) -> int:
    print("experiments:")
    for experiment_id in available_experiments():
        print(f"  {experiment_id}")
    print("datasets:")
    for dataset in available_datasets():
        print(f"  {dataset}")
    return 0


def _command_datasets(args: argparse.Namespace) -> int:
    for name in available_datasets():
        graph = load_dataset(name, backend=args.backend)
        stats = summarize_for_report(graph, name)
        print(
            f"{name}: |V|={stats['nodes']} |E|={stats['edges']} |G|={stats['size']} "
            f"labels={stats['labels']} max_degree={stats['max_degree']} avg_degree={stats['avg_degree']} "
            f"backend={type(graph).__name__}"
        )
    return 0


def _command_run(args: argparse.Namespace) -> int:
    options = dict(
        scale=args.scale, seed=args.seed, executor=args.executor, workers=args.workers, alpha=args.alpha
    )
    if args.experiments == ["all"]:
        results = run_all(**options)
    else:
        results = [run_experiment(experiment_id, **options) for experiment_id in args.experiments]
    claims = summary_claims(results)
    text = format_many(results) + "\n\nSummary:\n" + "\n".join(f"  {claim}" for claim in claims) + "\n"
    print(text)
    if args.output is not None:
        args.output.write_text(text, encoding="utf-8")
        print(f"(report written to {args.output})")
    return 0


def _command_batch(args: argparse.Namespace) -> int:
    pairs = truth = None
    if args.queries is not None:
        if args.kind != "reach":
            raise SystemExit("--queries files are only supported for --kind reach")
        pairs = _load_reach_queries(args.queries)
    graph, service, prepare_seconds = _serve(args, args.kind)
    config = service.config
    if pairs is not None:
        # RBReach answers False for nodes outside the graph, which would
        # read as a healthy all-unreachable report — flag it instead.
        _warn_unknown_nodes(graph, pairs, args.dataset)
        requests: List[ServiceRequest] = [ReachRequest(source, target) for source, target in pairs]
    else:
        requests, pairs, truth = _sample_requests(graph, args.kind, args.count, args.seed, args.shape)

    print(
        f"batch: kind={args.kind} dataset={args.dataset} n={len(requests)} alpha={config.alpha} "
        f"executor={config.executor} workers={config.workers or 'auto'}"
    )
    print(f"engine: backend={service.backend} prepare={prepare_seconds:.3f}s (once per graph)")

    with service:
        runs = []
        for run_number in range(1, args.repeat + 1):
            report = service.run_batch(requests)
            runs.append(report)
            print(
                f"run {run_number}: wall={report.wall_seconds:.3f}s "
                f"throughput={report.throughput:.1f} q/s "
                f"cache hits={report.cache_hits} misses={report.cache_misses} "
                f"deduplicated={report.deduplicated} "
                f"chunks={report.chunks}"
            )
        answers, plan = report.answers, report.plan
        print(f"plan: backend={plan.backend} executor={plan.executor} ({plan.reason})")

        payload = {
            "dataset": args.dataset,
            "kind": args.kind,
            "alpha": config.alpha,
            "executor": config.executor,
            "workers": config.workers,
            "backend": service.backend,
            "plan_backend": plan.backend,
            "plan_executor": plan.executor,
            "num_queries": len(requests),
            "prepare_seconds": prepare_seconds,
            "runs": [
                {
                    "wall_seconds": report.wall_seconds,
                    "throughput_qps": report.throughput,
                    "cache_hits": report.cache_hits,
                    "cache_misses": report.cache_misses,
                    "deduplicated": report.deduplicated,
                }
                for report in runs
            ],
        }

        if truth is not None:
            f_measure, _ = _accuracy(pairs, answers, truth)
            payload["accuracy_f_measure"] = f_measure
            print(f"accuracy vs exact oracle: f-measure={f_measure:.3f}")

        exit_code = 0
        if args.compare_serial and plan.executor == "serial":
            print(
                "note: --compare-serial skipped — the planned executor already "
                "is the serial reference path",
                file=sys.stderr,
            )
        elif args.compare_serial:
            with GraphService(graph, config.with_overrides(executor="serial", cache_size=0)) as serial:
                serial.prepare(**_prepare_kwargs(args.kind, config.alpha))
                serial_report = serial.run_batch(requests)
            identical = answers_identical(args.kind, answers, serial_report.answers)
            speedup = (
                serial_report.wall_seconds / runs[0].wall_seconds if runs[0].wall_seconds > 0 else 0.0
            )
            payload["serial_wall_seconds"] = serial_report.wall_seconds
            payload["parallel_speedup"] = speedup
            payload["parity"] = identical
            print(
                f"parity vs serial: {'identical answers' if identical else 'MISMATCH'}; "
                f"speedup {speedup:.2f}x"
            )
            if not identical:
                exit_code = 1  # still write the report: it documents the mismatch

    _write_report(args.output, payload)
    return exit_code


def _command_update(args: argparse.Namespace) -> int:
    """Replay a delta stream through ``GraphService.update`` with reach batches between.

    Each update re-prepares the service on the updated graph; per batch the
    line shows the update's mode and wall time, the read throughput and the
    cache retention, and ``--verify`` compares the batch with a fresh
    cache-less serial service on ``service.graph``.
    """
    from repro.workloads.deltas import generate_delta_stream
    from repro.workloads.queries import sample_mixed_pairs

    graph, service, prepare_seconds = _serve(args)
    alpha = service.config.alpha
    stream = generate_delta_stream(
        graph, batches=args.batches, ops_per_batch=args.ops, mix=args.mix, seed=args.seed
    )
    pairs = sample_mixed_pairs(graph, args.queries, seed=args.seed)
    requests = [ReachRequest(source, target) for source, target in pairs]
    print(
        f"update: dataset={args.dataset} |V|={graph.num_nodes()} |E|={graph.num_edges()} "
        f"alpha={alpha} mix={args.mix} batches={len(stream)} ops/batch={args.ops}"
    )
    print(f"engine: backend={service.backend} prepare={prepare_seconds:.3f}s (once, before the stream)")

    modes: dict = {}
    staleness: List[float] = []
    evicted = retained = 0
    verify_failures = 0
    with service:
        service.run_batch(requests)
        for batch_number, delta in enumerate(stream, start=1):
            report = service.update(delta)
            staleness.append(report.wall_seconds)
            modes[report.mode] = modes.get(report.mode, 0) + 1
            evicted += report.cache_evicted
            retained = report.cache_retained
            query_report = service.run_batch(requests)
            line = (
                f"batch {batch_number}: ops={delta.size()} mode={report.mode} "
                f"staleness={report.wall_seconds * 1000:.1f}ms "
                f"updates/s={report.ops_per_second:.0f} "
                f"queries/s={query_report.throughput:.0f} "
                f"cache evicted={report.cache_evicted} retained={report.cache_retained}"
            )
            if args.verify:
                fresh = GraphService(service.graph, ServiceConfig(executor="serial", cache_size=0))
                fresh_answers = fresh.run_batch(requests, alpha=alpha).answers
                identical = answers_identical("reach", query_report.answers, fresh_answers)
                line += f" verify={'ok' if identical else 'MISMATCH'}"
                verify_failures += not identical
            print(line)

    total_ops = stream.total_ops()
    total_update_seconds = sum(staleness)
    mean_staleness_ms = 1000 * total_update_seconds / max(1, len(staleness))
    print(
        f"stream: {total_ops} ops in {total_update_seconds:.3f}s "
        f"({total_ops / total_update_seconds:.0f} ops/s) "
        f"modes={modes} "
        f"mean staleness={mean_staleness_ms:.1f}ms"
    )
    payload = {
        "dataset": args.dataset,
        "alpha": alpha,
        "mix": args.mix,
        "batches": len(stream),
        "ops_per_batch": args.ops,
        "total_ops": total_ops,
        "prepare_seconds": prepare_seconds,
        "update_seconds": total_update_seconds,
        "updates_per_second": total_ops / total_update_seconds if total_update_seconds else 0.0,
        "mean_staleness_ms": mean_staleness_ms,
        "modes": modes,
        "cache_evicted_total": evicted,
        "cache_retained_final": retained,
        "verified": bool(args.verify),
        "verify_failures": verify_failures,
    }
    _write_report(args.output, payload)
    return 1 if verify_failures else 0


def _command_subscribe(args: argparse.Namespace) -> int:
    from repro.workloads.deltas import generate_delta_stream

    config = config_from_args(args)
    alpha = config.alpha
    graph = load_dataset(args.dataset, seed=args.seed)

    if args.kind == "mixed":
        reach_count = args.count - args.count // 2
        requests = _sample_requests(graph, "reach", reach_count, args.seed)[0]
        if args.count // 2:
            requests += _sample_requests(graph, "sim", args.count // 2, args.seed, args.shape)[0]
    else:
        requests = _sample_requests(graph, args.kind, args.count, args.seed, args.shape)[0]

    confined = None
    if args.confine is not None:
        ordered = sorted(graph.nodes())
        keep = max(1, int(len(ordered) * args.confine))
        confined = ordered[len(ordered) - keep :]
    stream = generate_delta_stream(
        graph,
        batches=args.batches,
        ops_per_batch=args.ops,
        mix=args.mix,
        seed=args.seed,
        confine_nodes=confined,
    )

    service = GraphService(graph, config)
    started = time.perf_counter()
    logs: dict = {}
    subscriptions = []
    for request in requests:
        log: list = []
        subscription = service.subscribe(request, sink=log.append)
        logs[subscription.id] = log
        subscriptions.append(subscription)
    register_seconds = time.perf_counter() - started

    print(
        f"subscribe: dataset={args.dataset} kind={args.kind} standing={len(subscriptions)} "
        f"alpha={alpha} mix={args.mix} batches={len(stream)} ops/batch={args.ops}"
        + (f" confine={args.confine:.0%} of nodes" if args.confine is not None else "")
    )
    print(
        f"registered: {len(subscriptions)} subscriptions in {register_seconds:.3f}s "
        f"(answers materialised; epoch-0 snapshots pushed)"
    )

    affected = skipped = changed = 0
    maintenance_seconds = 0.0
    churn: dict = {}
    verify_failures = 0
    with service:
        for batch_number, delta in enumerate(stream, start=1):
            report = service.update(delta)
            pass_report = report.maintenance
            affected += pass_report.affected
            skipped += pass_report.skipped
            changed += pass_report.changed
            maintenance_seconds += pass_report.wall_seconds
            for op_kind, count in delta.ops_by_kind().items():
                churn[op_kind] = churn.get(op_kind, 0) + count
            line = (
                f"batch {batch_number}: ops={delta.size()} mode={report.mode} "
                f"affected={pass_report.affected}/{pass_report.subscriptions} "
                f"({pass_report.affected_fraction:.0%}) deltas={pass_report.changed} "
                f"maintain={pass_report.wall_seconds * 1000:.1f}ms"
            )
            if args.verify:
                fresh = GraphService(service.graph, ServiceConfig(executor="serial", cache_size=0))
                fresh_answers = fresh.run_batch(requests, alpha=alpha).answers
                identical = all(
                    subscription.signature() == answer_signature(subscription.kind, answer)
                    for subscription, answer in zip(subscriptions, fresh_answers)
                )
                line += f" verify={'ok' if identical else 'MISMATCH'}"
                verify_failures += not identical
            print(line)

    evaluations = len(subscriptions) * max(1, len(stream))
    replay_ok = None
    if args.verify:
        replay_ok = all(
            answer_signature(subscription.kind, replay(logs[subscription.id]))
            == subscription.signature()
            for subscription in subscriptions
        )
        verify_failures += not replay_ok
    pushed = sum(len(log) for log in logs.values())
    print(
        f"stream: churn={churn or '{}'} affected={affected}/{evaluations} "
        f"({affected / evaluations:.0%}) skipped={skipped} "
        f"answer deltas={changed} (+{len(subscriptions)} snapshots, {pushed} pushed) "
        f"maintenance={maintenance_seconds * 1000:.1f}ms total"
    )
    if replay_ok is not None:
        print(f"replay: {'every pushed log replays to the live answer' if replay_ok else 'MISMATCH'}")

    payload = {
        "dataset": args.dataset,
        "kind": args.kind,
        "alpha": alpha,
        "mix": args.mix,
        "confine": args.confine,
        "subscriptions": len(subscriptions),
        "batches": len(stream),
        "ops_per_batch": args.ops,
        "churn_ops": churn,
        "register_seconds": register_seconds,
        "affected": affected,
        "skipped": skipped,
        "affected_fraction": affected / evaluations,
        "answer_deltas": changed,
        "deltas_pushed": pushed,
        "maintenance_seconds": maintenance_seconds,
        "verified": bool(args.verify),
        "verify_failures": verify_failures,
        "replay_parity": replay_ok,
    }
    _write_report(args.output, payload)
    return 1 if verify_failures else 0


def _command_shard(args: argparse.Namespace) -> int:
    graph, service, prepare_seconds = _serve(args, args.kind, shard_policy=SCATTER)
    config = service.config
    alpha = config.alpha
    requests, pairs, truth = _sample_requests(graph, args.kind, args.count, args.seed, args.shape)
    with service:
        profile = service.shard_profile()
        print(
            f"shard: dataset={args.dataset} k={config.num_shards} method={config.shard_method} "
            f"halo_depth={config.halo_depth} kind={args.kind} n={len(requests)} alpha={alpha} "
            f"executor={config.executor} workers={config.workers or 'auto'}"
        )
        print(
            f"partition: nodes/shard={profile['shard_nodes']} "
            f"cut={profile['cut_edges']} ({profile['cut_fraction']:.1%} of edges) "
            f"boundary={profile['boundary_fraction']:.1%} of nodes"
        )
        print(
            f"boundary graph: {profile['boundary_supernodes']} supernodes, "
            f"{profile['boundary_edges']} edges, routes={profile['cross_shard_routes'] or '{}'}"
        )
        print(f"prepare: {prepare_seconds:.3f}s (partition + per-shard indexes + boundary)")

        report = service.run_batch(requests)
    print(
        f"batch: wall={report.wall_seconds:.3f}s throughput={report.throughput:.1f} q/s "
        f"chunks={report.chunks}"
    )
    print(f"routing: per-shard={dict(sorted(report.per_shard.items()))}")
    print(
        f"spillover: cross-shard={report.cross_reach} local-miss-composed={report.miss_composed} "
        f"pattern-spilled={report.pattern_spilled} "
        f"({report.spillover_fraction:.1%} of the batch)"
    )

    payload = {
        "dataset": args.dataset,
        "kind": args.kind,
        "alpha": alpha,
        "num_shards": config.num_shards,
        "method": config.shard_method,
        "halo_depth": config.halo_depth,
        "executor": config.executor,
        "workers": config.workers,
        "num_queries": len(requests),
        "prepare_seconds": prepare_seconds,
        "partition": profile,
        "wall_seconds": report.wall_seconds,
        "throughput_qps": report.throughput,
        "per_shard": {str(shard): count for shard, count in sorted(report.per_shard.items())},
        "cross_reach": report.cross_reach,
        "miss_composed": report.miss_composed,
        "pattern_contained": report.pattern_contained,
        "pattern_spilled": report.pattern_spilled,
        "spillover_fraction": report.spillover_fraction,
    }

    # A false positive breaks the hard contract: fail the command (the
    # report is still written so the violation is documented).
    exit_code = 0
    if truth is not None:
        f_measure, false_positives = _accuracy(pairs, report.answers, truth)
        payload["accuracy_f_measure"] = f_measure
        payload["false_positives"] = false_positives
        print(
            f"accuracy vs exact oracle: f-measure={f_measure:.3f} "
            f"false-positives={false_positives} (contract: always 0)"
        )
        exit_code = int(false_positives > 0)

    if args.compare_unsharded:
        with GraphService(graph, ServiceConfig(executor="serial", cache_size=0, alpha=alpha)) as single:
            single.prepare(**_prepare_kwargs(args.kind, alpha))
            single_report = single.run_batch(requests)
        both = list(zip(report.answers, single_report.answers))
        if args.kind == "reach":
            agree = sum(mine.reachable == theirs.reachable for mine, theirs in both)
            sharded_fp = sum(mine.reachable and not theirs.reachable for mine, theirs in both)
        else:
            agree = sum(mine.answer == theirs.answer for mine, theirs in both)
            sharded_fp = 0
        speedup = single_report.wall_seconds / report.wall_seconds if report.wall_seconds > 0 else 0.0
        payload["unsharded_wall_seconds"] = single_report.wall_seconds
        payload["sharded_speedup"] = speedup
        payload["agreement"] = agree / len(requests)
        print(
            f"vs unsharded: agreement={agree}/{len(requests)} "
            f"positives-not-in-unsharded={sharded_fp} speedup={speedup:.2f}x"
        )

    _write_report(args.output, payload)
    return exit_code


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs import flight

    graph, service, _ = _serve(args)
    config = service.config
    requests, _, _ = _sample_requests(graph, "reach", args.count, args.seed)
    slow_ms = args.slow_ms if args.slow_ms is not None else flight.DEFAULT_SLOW_MS
    with service:
        service.enable_tracing(capacity=max(flight.DEFAULT_CAPACITY, args.batches), slow_ms=slow_ms)
        try:
            print(
                f"trace: dataset={args.dataset} n={len(requests)} batches={args.batches} "
                f"executor={config.executor} workers={config.workers or 'auto'}"
            )
            for number in range(1, args.batches + 1):
                report = service.run_batch(requests)
                print(f"batch {number}: wall={report.wall_seconds * 1000:.1f}ms trace={report.trace_id}")
            trace_id, timeline = service.trace_for_percentile("service.batch.seconds", 0.99)
            if timeline is None:
                # Exemplar evicted or missing: fall back to the slowest
                # recorded timeline so the command still shows something.
                recent = service.recent_traces()
                timeline = max(recent, key=lambda tl: tl.wall_ms) if recent else None
            if timeline is None:
                print("no completed timelines were recorded", file=sys.stderr)
                return 1
            print(f"\np99 exemplar: trace {trace_id or timeline.trace_id}")
            slow = service.slow_traces()
            if slow:
                print(
                    "slow-query log (>= %.1fms): %s"
                    % (slow_ms, ", ".join(f"{tl.trace_id} ({tl.wall_ms:.1f}ms)" for tl in slow))
                )
            print()
            print(flight.format_waterfall(timeline))
            if args.export is not None:
                flight.write_chrome_trace(timeline, args.export)
                print(f"(chrome trace written to {args.export} — load in chrome://tracing or Perfetto)")
        finally:
            service.disable_tracing()
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    from repro import obs

    if args.input is not None:
        try:
            snapshot = json.loads(args.input.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"could not read metrics snapshot {args.input}: {exc}")
        print(obs.format_snapshot(snapshot))
        return 0

    # No snapshot given: answer a small sampled batch so the registry has
    # something to show, then print the live registry.
    graph, service, _ = _serve(args)
    requests, _, _ = _sample_requests(graph, "reach", args.count, args.seed)
    with service:
        service.run_batch(requests)
        service.run_batch(requests)  # second pass shows the cache counters
    print(obs.format_snapshot(obs.snapshot()))
    return 0


# --------------------------------------------------------------------------- #
# The command table
# --------------------------------------------------------------------------- #
class Command(NamedTuple):
    name: str
    help: str
    flags: Tuple[Tuple[Flag, ...], ...]
    handler: Callable[[argparse.Namespace], int]


COMMANDS: Tuple[Command, ...] = (
    Command("list", "list available experiments and datasets", (), _command_list),
    Command(
        "run",
        "run one or more experiments",
        (
            SERVICE_FLAGS,
            (
                _flag("experiments", nargs="+", help="experiment ids (e.g. fig8c table2), or 'all'"),
                _flag("--scale", choices=["quick", "full"], default="quick"),
                _flag("--seed", type=int, default=0),
                _flag("--output", type=Path, default=None, help="also write the report to this file"),
            ),
        ),
        _command_run,
    ),
    Command(
        "datasets",
        "print dataset surrogate profiles",
        (
            (
                _flag(
                    "--backend",
                    choices=["digraph", "csr"],
                    default="digraph",
                    help="graph backend to build the surrogates on (csr = numpy compressed-sparse-row)",
                ),
            ),
        ),
        _command_datasets,
    ),
    Command(
        "batch",
        "answer a batch of queries through the service and report throughput",
        (
            SERVICE_FLAGS,
            _workload(count=200, shape="4,8"),
            (
                _kind(help=_QUERY_CLASS),
                _flag("--queries", type=Path, help="reach only: file of 'source target' lines to answer, not sampled"),
                _flag("--repeat", type=_positive_int, default=1, help="answer the batch N times (shows the LRU cache)"),
                _flag(
                    "--compare-serial",
                    action="store_true",
                    help="also answer the batch on a cache-free serial service and report parity plus speedup",
                ),
            ),
        ),
        _command_batch,
    ),
    Command(
        "update",
        "replay a delta stream through the service and report update throughput",
        (
            SERVICE_FLAGS,
            _workload(),
            _churn(10, 50, "after every delta, compare answers against a freshly opened service"),
            (_flag("--queries", type=_positive_int, default=100, help="reachability queries answered between deltas"),),
        ),
        _command_update,
    ),
    Command(
        "subscribe",
        "register standing queries, replay a churn stream and report maintenance",
        (
            SERVICE_FLAGS,
            _workload(count=32, shape="3,3"),
            _churn(
                8,
                20,
                "after every delta, check maintained answers against a freshly opened service; "
                "at the end, replay every pushed delta log",
            ),
            (
                _kind("mixed", default="mixed", help="standing-query class (mixed = half reach, half simulation)"),
                _flag(
                    "--confine",
                    type=_fraction,
                    metavar="FRACTION",
                    help="confine churn to the trailing FRACTION of node ids (0 < f <= 1); "
                    "localised churn is where maintenance beats re-answering",
                ),
            ),
        ),
        _command_subscribe,
    ),
    Command(
        "shard",
        "partition a dataset and answer a workload through the sharded backend",
        (
            SERVICE_FLAGS,
            _workload(count=200, shape="4,8"),
            (
                _kind(help=_QUERY_CLASS),
                _flag("--shards", "-k", dest="num_shards", type=_positive_int, default=4, help="number of shards k"),
                _flag(
                    "--method",
                    dest="shard_method",
                    choices=["greedy", "hash"],
                    default="greedy",
                    help="partitioner: seeded BFS-grown greedy edge-cut minimiser, or the hash baseline",
                ),
                _flag(
                    "--halo-depth",
                    type=_positive_int,
                    help="ghost-region depth (default 3 = the pattern-parity margin; "
                    "1 gives thinner halos for reach-only serving and stronger update locality)",
                ),
                _flag(
                    "--compare-unsharded",
                    action="store_true",
                    help="also answer the batch on a single-graph service and report agreement + speedup",
                ),
            ),
        ),
        _command_shard,
    ),
    Command(
        "trace",
        "record a traced batch and print its cross-process waterfall timeline",
        (
            SERVICE_FLAGS,
            _workload(count=200, output=False),
            (
                _flag("--batches", type=_positive_int, default=3, help="batches to record (later ones hit the cache)"),
                _flag("--slow-ms", type=float, help="slow-query log threshold in milliseconds (default 100)"),
                _flag(
                    "--export",
                    type=Path,
                    help="write Chrome trace-event JSON of the selected timeline here "
                    "(load in chrome://tracing or Perfetto)",
                ),
            ),
        ),
        _command_trace,
    ),
    Command(
        "stats",
        "pretty-print a metrics registry snapshot (from --metrics-json, or a fresh sample run)",
        (
            SERVICE_FLAGS,
            _workload(count=200, output=False),
            (
                _flag(
                    "--input",
                    type=Path,
                    help="a JSON snapshot written by --metrics-json; omitted = answer a "
                    "sampled batch and print the live registry",
                ),
            ),
        ),
        _command_stats,
    ),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the tables and figures of 'Querying Big Graphs within Bounded Resources'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        subparser = subparsers.add_parser(command.name, help=command.help)
        for names, kwargs in (flag for group in command.flags for flag in group):
            subparser.add_argument(*names, **kwargs)
        subparser.set_defaults(handler=command.handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    exit_code = args.handler(args)
    # Every service-flag command accepts --metrics-json: dump the process
    # registry after the command ran (including daemon-worker snapshots that
    # merged back over the pipes), readable with `repro-bench stats --input`.
    metrics_path = getattr(args, "metrics_json", None)
    if metrics_path is not None:
        from repro import obs

        obs.write_snapshot(metrics_path)
        print(f"(metrics written to {metrics_path})")
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
