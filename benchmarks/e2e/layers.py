"""Layer attribution for the traced pass: span folding and direct layer probes.

Two sources, because the program has no span below ``executor.chunk`` yet:

* :func:`fold_spans` folds the spans the serving stack already emits
  (``service.query`` … ``worker.pipe.transit``) into per-name count, total
  and **self** time — a span's duration minus the part of that interval its
  child spans cover (children of one parent may overlap: two daemon workers
  run at once, so coverage is a union of intervals, not a sum);
* :func:`probe_layers` times direct calls into the layers' public
  functions on the first inputs of the same workload, on a fresh
  :class:`PreparedGraph` over the workload's graph — outside-in timing that
  changes no source code.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Sequence, Tuple

from repro.engine.cache import AnswerCache
from repro.engine.prepared import PreparedGraph, SharedPreparedGraph
from repro.engine.queries import REACH, SIMULATION, SUBGRAPH
from repro.graph import kernels
from repro.matching import isomorphic_answer_in_subgraph, match_in_subgraph
from repro.service import GraphService, ServiceConfig


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` ∈ [0, 1] (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# --------------------------------------------------------------------------- #
# Span folding
# --------------------------------------------------------------------------- #
@dataclass
class SpanStats:
    """Everything the layer table needs about one span name."""

    count: int = 0
    total_ms: float = 0.0
    self_ms: float = 0.0

    def per_call_ms(self) -> float:
        return ratio(self.total_ms, self.count)


def _covered(intervals: List[Tuple[float, float]], low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def fold_spans(records: Sequence[Dict[str, Any]]) -> Dict[str, SpanStats]:
    """Per span name: count, total wall and self time.

    ``executor.chunk`` is additionally folded per query kind under
    ``executor.chunk.<kind>``.  Root spans (no recorded parent) are summed
    under the pseudo-name ``"<root>"`` for the coverage figure.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    known = {record["id"] for record in records}
    for record in records:
        parent = record.get("parent_id")
        if parent in known:
            start = record["ts"] * 1e3
            children.setdefault(parent, []).append((start, start + record["wall_ms"]))

    folded: Dict[str, SpanStats] = {}
    for record in records:
        wall = record["wall_ms"]
        start = record["ts"] * 1e3
        self_ms = wall - _covered(children.get(record["id"], []), start, start + wall)
        names = [record["span"]]
        if record["span"] == "executor.chunk":
            names.append("executor.chunk." + record.get("attrs", {}).get("kind", "unknown"))
        if record.get("parent_id") not in known:
            names.append("<root>")
        for name in names:
            stats = folded.setdefault(name, SpanStats())
            stats.count += 1
            stats.total_ms += wall
            stats.self_ms += self_ms
    return folded


# --------------------------------------------------------------------------- #
# Direct layer probes
# --------------------------------------------------------------------------- #
def _median_wall(call, repeats: int = 5) -> float:
    """Median wall of ``repeats`` calls (the probes are microbenchmarks)."""
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def _probe_patterns(matcher, match_step, requests, repeats: int = 3) -> Dict[str, List[float]]:
    """Time ``reduce`` then the exact match step, and ``answer`` whole, per query.

    Each part keeps the fastest of ``repeats`` timings: the split has to add
    up (:func:`_split_gap` is checked), and a host stall that lands on one
    part of one query must not pass for a layer the split missed.
    """
    timings: Dict[str, List[float]] = {
        "search_ms": [], "match_ms": [], "answer_ms": [],
        "size": [], "used": [], "passes": [],
    }
    for request in requests:
        pattern, match = request.pattern, request.personalized_match
        # Untimed first pass: the shared neighbourhood summaries fill lazily,
        # and whichever timed call came first would pay for them.
        matcher.answer(pattern, match)
        search, exact, whole = [], [], []
        for _ in range(repeats):
            started = time.perf_counter()
            reduction = matcher.reduce(pattern, match)
            reduced = time.perf_counter()
            match_step(pattern, reduction.subgraph, match)
            matched = time.perf_counter()
            matcher.answer(pattern, match)
            answered = time.perf_counter()
            search.append((reduced - started) * 1e3)
            exact.append((matched - reduced) * 1e3)
            whole.append((answered - matched) * 1e3)
        timings["search_ms"].append(min(search))
        timings["match_ms"].append(min(exact))
        timings["answer_ms"].append(min(whole))
        timings["size"].append(reduction.subgraph.size())
        timings["used"].append(ratio(reduction.budget.stored, reduction.budget.size_limit))
        timings["passes"].append(reduction.passes)
    return timings


def _split_gap(timings: Dict[str, List[float]]) -> float:
    """How far ``answer`` is from its ``reduce`` + exact-match parts: the median
    over queries of the signed gap as a share of ``answer``, in absolute value.

    A layer the split misses shifts every query's gap the same way, so the
    median sees it; timing noise falls on either side and cancels.  (The gap
    of the *means* is set by the few heaviest queries of a heavy-tailed pool:
    one disturbed timing among them moved it by 0.06-0.11 on a shared host,
    where the median of the gaps stayed within 0.025.)
    """
    gaps = [
        (answer - search - match) / answer
        for answer, search, match in zip(
            timings["answer_ms"], timings["search_ms"], timings["match_ms"]
        )
    ]
    return abs(statistics.median(gaps)) if gaps else 0.0


def probe_layers(graph, alpha: float, reach_requests, pattern_requests) -> Dict[str, float]:
    """Outside-in timings of the layers below ``executor.chunk``."""
    out: Dict[str, float] = {}
    prepared = PreparedGraph(graph)
    for kind in (REACH, SIMULATION, SUBGRAPH):
        started = time.perf_counter()
        prepared.prepare(kind, alpha)
        out[f"prepared.build_s.{kind}"] = time.perf_counter() - started
    out["landmarks.index_build_s"] = prepared.index_build_seconds(alpha)
    out["landmarks.count"] = len(prepared.reachability_index(alpha).landmarks)

    # reachability.rbreach — and the facade's cost on top of it.
    pairs = [(request.source, request.target) for request in reach_requests]
    matcher = prepared.rbreach(alpha)
    answers = matcher.query_batch(pairs)
    direct = _median_wall(lambda: matcher.query_batch(pairs))
    out["rbreach.query_us"] = direct / len(pairs) * 1e6
    out["rbreach.visited_mean"] = mean([answer.visited for answer in answers])
    out["rbreach.exhausted_fraction"] = mean([answer.exhausted for answer in answers])
    out["rbreach.positive_fraction"] = mean([answer.reachable for answer in answers])
    with GraphService(
        graph, ServiceConfig(alpha=alpha, executor="serial", cache_size=0)
    ) as service:
        service.prepare()
        service.run_batch(reach_requests)
        facade = _median_wall(lambda: service.run_batch(reach_requests))
    out["service.overhead_us_per_query"] = (facade - direct) / len(pairs) * 1e6

    # graph.kernels — one batched sweep over the probe sources.
    sources = [source for source, _ in pairs]
    out["kernels.reach_batch_ms_256"] = (
        _median_wall(lambda: kernels.reach_batch(prepared.graph, sources), repeats=3) * 1e3
    )

    # core.reduction / matching / core.rbsim / core.rbsub.
    simulation = [r for r in pattern_requests if r.semantics == SIMULATION]
    subgraph = [r for r in pattern_requests if r.semantics == SUBGRAPH]
    sim = _probe_patterns(prepared.rbsim(alpha), match_in_subgraph, simulation)
    sub = _probe_patterns(
        prepared.rbsub(alpha),
        lambda pattern, region, match: isomorphic_answer_in_subgraph(
            pattern, region, match, max_embeddings=2_000
        ),
        subgraph,
    )
    search = sim["search_ms"] + sub["search_ms"]
    exact = sim["match_ms"] + sub["match_ms"]
    out["reduction.search_ms_p50"] = percentile(search, 0.5)
    out["reduction.search_ms_p90"] = percentile(search, 0.9)
    out["reduction.subgraph_size_mean"] = mean(sim["size"] + sub["size"])
    out["reduction.budget_used_fraction"] = mean(sim["used"] + sub["used"])
    out["reduction.passes_mean"] = mean(sim["passes"] + sub["passes"])
    out["matching.exact_ms_p50"] = percentile(exact, 0.5)
    out["matching.exact_ms_p90"] = percentile(exact, 0.9)
    out["rbsim.answer_ms_mean"] = mean(sim["answer_ms"])
    out["rbsub.answer_ms_mean"] = mean(sub["answer_ms"])
    out["layers.split_error"] = max(_split_gap(sim), _split_gap(sub))

    # engine.cache — a cold fingerprint (fresh request objects, as a server
    # sees them) plus one LRU lookup.
    cache = AnswerCache(4096)
    for request, answer in zip(reach_requests, answers):
        cache.put(request.fingerprint(), alpha, answer)
    fresh = [replace(request) for request in reach_requests]
    started = time.perf_counter()
    for request in fresh:
        cache.get(request.fingerprint(), alpha)
    out["cache.probe_us_per_query"] = (time.perf_counter() - started) / len(fresh) * 1e6

    # graph.shm — publishing the prepared state for worker attachment.
    started = time.perf_counter()
    handle = SharedPreparedGraph.publish(prepared)
    try:
        out["shm.publish_ms"] = (time.perf_counter() - started) * 1e3
        out["shm.segment_bytes"] = handle.payload_bytes + sum(
            os.path.getsize(os.path.join("/dev/shm", name))
            for name in handle.segment_names()
            if os.path.exists(os.path.join("/dev/shm", name))
        )
    finally:
        handle.close()
    return out
