"""Process-local metrics: counters, gauges and fixed-bucket histograms.

The serving stack (PRs 4–6) grew daemons, shards and an async front-end
with zero runtime visibility — cache behaviour, daemon restarts, shard
spillover and admission waits were observable only in per-call return
values.  This module is the dependency-free metrics substrate they report
into:

* **Counter** — a monotonically increasing total (``inc``);
* **Gauge** — a level, merged by maximum (peaks survive aggregation);
* **Histogram** — fixed log-spaced buckets with exact-within-a-bucket
  percentiles (p50/p99/p999 by linear interpolation inside the containing
  bucket, clamped to the observed min/max);
* **MetricsRegistry** — the per-process home of every metric, with a
  **mergeable snapshot** format: plain dicts of primitives that pickle
  over the daemon pipes and dump as ``--metrics-json``.  Worker processes
  ``drain()`` their registry (snapshot + reset) and ship the delta with
  each chunk reply; the parent merges deltas into its own registry, so
  totals flow daemon → pool → engine → service without double counting.

**Disabled mode is free**: :func:`set_enabled` (or ``REPRO_METRICS=0``)
makes every accessor hand back a shared no-op metric whose methods do
nothing and allocate nothing — the instrumentation points in the hot
paths cost a dict lookup and a no-op call.  Enabled, every instrument
site is batch-granular (never per query), which aims to keep the
overhead on a warm batch under 2%; the end-to-end benchmark
(``benchmarks/e2e/``) reports it, not gates it, as
``trace.overhead_fraction`` and ``service.overhead_us_per_query``.

Metric *names* are dotted strings from the catalogue in
``repro.obs.CATALOG`` — ``tests/test_obs.py`` cross-checks every
registered name against the catalogue and the table in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import os
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_ENV_FLAG = "REPRO_METRICS"


def _env_enabled() -> bool:
    return os.environ.get(_ENV_FLAG, "1").strip().lower() not in ("0", "false", "off", "no")


_enabled = _env_enabled()


def set_enabled(value: bool) -> None:
    """Globally enable/disable metrics (``REPRO_METRICS=0`` sets the default).

    Disabling swaps every accessor to shared no-op metrics; live metrics
    keep their values and resume counting when re-enabled.
    """
    global _enabled
    _enabled = bool(value)


def enabled() -> bool:
    """Whether metric recording is currently on."""
    return _enabled


# --------------------------------------------------------------------------- #
# Bucket schemes
# --------------------------------------------------------------------------- #
def _geometric(lo: float, hi: float, factor: float) -> Tuple[float, ...]:
    bounds: List[float] = [lo]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * factor)
    return tuple(bounds)


#: Named bucket layouts, so snapshots can reference bounds by name instead
#: of shipping ~80 floats per histogram over the daemon pipes.
SCHEMES: Dict[str, Tuple[float, ...]] = {
    # 1µs .. ~64s, 25% spacing: every latency this repo can produce lands in
    # a bucket whose edges are within 25% of the true value.
    "latency": _geometric(1e-6, 64.0, 1.25),
    # 1 .. ~1e6 items (batch sizes, fan-outs), 50% spacing.
    "count": _geometric(1.0, 1e6, 1.5),
}
DEFAULT_SCHEME = "latency"


# --------------------------------------------------------------------------- #
# Metric types
# --------------------------------------------------------------------------- #
class Counter:
    """A monotonically increasing total.  Merge = sum.

    ``exemplar`` remembers the trace ID of the last increment that carried
    one — the bridge from an aggregate ("spillover happened 23 times") to a
    concrete retrievable trace in the flight recorder.
    """

    __slots__ = ("name", "value", "exemplar")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.exemplar: Optional[str] = None

    def inc(self, amount: int = 1, exemplar: Optional[str] = None) -> None:
        # Plain += under the GIL: a lost increment under exotic threading is
        # acceptable for telemetry; a lock per count is not.
        self.value += amount
        if exemplar is not None:
            self.exemplar = exemplar


class Gauge:
    """A level (queue depth, in-flight count).  Merge = max, so peaks survive."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket distribution with interpolated percentiles.

    ``observe`` is O(log buckets) (one bisect); ``percentile`` walks the
    cumulative counts and interpolates linearly *inside* the containing
    bucket, clamping to the observed min/max — so the answer is exact to
    within one bucket's width (25% spacing on the default latency scheme).
    Merge = element-wise bucket sum (schemes must match).
    """

    __slots__ = (
        "name",
        "scheme",
        "bounds",
        "counts",
        "count",
        "sum",
        "min",
        "max",
        "exemplars",
    )

    def __init__(self, name: str, scheme: str = DEFAULT_SCHEME):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown histogram scheme {scheme!r}; use one of {sorted(SCHEMES)}")
        self.name = name
        self.scheme = scheme
        self.bounds = SCHEMES[scheme]
        # counts[i] holds observations in [bounds[i-1], bounds[i]);
        # counts[0] is the underflow bucket, counts[len(bounds)] the overflow.
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        # bucket index -> trace ID of the last observation that landed there
        # and carried one, so a latency bucket links to a retrievable trace.
        self.exemplars: Dict[int, str] = {}

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        # bisect_left returns len(bounds) for value > bounds[-1]: exactly
        # the overflow bucket's index.
        index = bisect_left(self.bounds, value)
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if exemplar is not None:
            self.exemplars[index] = exemplar

    def _bucket_edges(self, index: int) -> Tuple[float, float]:
        lo = self.bounds[index - 1] if index > 0 else (self.min if self.count else 0.0)
        hi = self.bounds[index] if index < len(self.bounds) else (self.max if self.count else 0.0)
        return lo, hi

    def _order_statistic(self, k: int) -> float:
        """The ``k``-th smallest observation (0-based), its bucket's members spread evenly."""
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if k < seen + bucket_count:
                lo, hi = self._bucket_edges(index)
                lo, hi = max(lo, self.min), min(hi, self.max)
                if bucket_count == 1 or hi <= lo:
                    return lo
                return lo + (hi - lo) * (k - seen) / (bucket_count - 1)
            seen += bucket_count
        return self.max  # pragma: no cover - k < count always lands in a bucket

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``q`` in [0, 1]), numpy's linear rule over bucket estimates.

        The rank ``q·(count - 1)`` falls between two order statistics; each
        is estimated inside its own bucket and the two are interpolated, so
        a rank in the gap between populated buckets moves towards the next
        one instead of sticking to the lower bucket's edge.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        # The extremes are tracked exactly — no need to interpolate them.
        if q == 0:
            return self.min
        if q == 1:
            return self.max
        rank = q * (self.count - 1)
        below = int(rank)
        low = self._order_statistic(below)
        if rank == below:
            return low
        return low + (self._order_statistic(below + 1) - low) * (rank - below)

    def _bucket_index_for(self, q: float) -> int:
        """Index of the bucket holding the nearest-rank ``q``-quantile.

        Nearest-rank (smallest bucket whose cumulative count reaches
        ``q * count``) rather than the interpolated rank
        :meth:`percentile` uses: an exemplar lookup asks "which concrete
        observation represents the tail", and nearest-rank lets a single
        slow outlier own the p99 bucket instead of being interpolated
        away.
        """
        rank = max(1.0, q * self.count)
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            seen += bucket_count
            if seen >= rank:
                return index
        return len(self.counts) - 1  # pragma: no cover - rank lands in a bucket

    def exemplar_for(self, q: float) -> Optional[str]:
        """Trace ID exemplifying the ``q``-quantile's bucket.

        When the quantile bucket itself has no exemplar, the nearest
        exemplar-bearing bucket *above* it is preferred (a p99 lookup
        should surface something at least as slow), falling back to the
        nearest below.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.exemplars or self.count == 0:
            return None
        index = self._bucket_index_for(q)
        if index in self.exemplars:
            return self.exemplars[index]
        above = [i for i in self.exemplars if i > index]
        if above:
            return self.exemplars[min(above)]
        return self.exemplars[max(i for i in self.exemplars if i < index)]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class _NoopCounter:
    __slots__ = ()
    name = "noop"
    value = 0
    exemplar = None

    def inc(self, amount: int = 1, exemplar: Optional[str] = None) -> None:
        pass


class _NoopGauge:
    __slots__ = ()
    name = "noop"
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass


class _NoopHistogram:
    __slots__ = ()
    name = "noop"
    scheme = DEFAULT_SCHEME
    count = 0
    sum = 0.0
    mean = 0.0

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def exemplar_for(self, q: float) -> Optional[str]:
        return None


_NOOP_COUNTER = _NoopCounter()
_NOOP_GAUGE = _NoopGauge()
_NOOP_HISTOGRAM = _NoopHistogram()


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class MetricsRegistry:
    """All metrics of one process; snapshot/merge/drain for aggregation."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- accessors (create on first use; no-ops while disabled) ---------- #
    def counter(self, name: str) -> Counter:
        if not _enabled:
            return _NOOP_COUNTER  # type: ignore[return-value]
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(name, Counter(name))
        return metric

    def gauge(self, name: str) -> Gauge:
        if not _enabled:
            return _NOOP_GAUGE  # type: ignore[return-value]
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(name, Gauge(name))
        return metric

    def histogram(self, name: str, scheme: str = DEFAULT_SCHEME) -> Histogram:
        if not _enabled:
            return _NOOP_HISTOGRAM  # type: ignore[return-value]
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(name, Histogram(name, scheme))
        return metric

    def names(self) -> List[str]:
        """Every metric name registered so far, sorted."""
        with self._lock:
            return sorted([*self._counters, *self._gauges, *self._histograms])

    # -- snapshot / merge / drain ---------------------------------------- #
    def snapshot(self) -> Dict[str, Any]:
        """The mergeable plain-dict form of every live metric.

        Bucket counts ship sparse (string index → count: JSON object keys
        are strings, and the snapshot must round-trip through both pickle
        and JSON unchanged).  Exemplar keys (a per-bucket ``exemplars``
        table on histograms, a top-level ``exemplars`` map for counters)
        appear **only when non-empty**, so exemplar-free snapshots keep the
        exact shape the merge-algebra properties are tested on.
        """
        with self._lock:
            snap: Dict[str, Any] = {
                "counters": {name: c.value for name, c in self._counters.items()},
                "gauges": {name: g.value for name, g in self._gauges.items()},
                "histograms": {},
            }
            for name, h in self._histograms.items():
                payload: Dict[str, Any] = {
                    "scheme": h.scheme,
                    "count": h.count,
                    "sum": h.sum,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                    "buckets": {
                        str(index): value
                        for index, value in enumerate(h.counts)
                        if value
                    },
                }
                if h.exemplars:
                    payload["exemplars"] = {
                        str(index): trace_id for index, trace_id in h.exemplars.items()
                    }
                snap["histograms"][name] = payload
            counter_exemplars = {
                name: c.exemplar
                for name, c in self._counters.items()
                if c.exemplar is not None
            }
            if counter_exemplars:
                snap["exemplars"] = counter_exemplars
            return snap

    def drain(self) -> Dict[str, Any]:
        """Snapshot, then reset — the delta-shipping primitive.

        Daemon workers drain per chunk reply, so the parent can merge every
        delta exactly once; repeated merges of cumulative snapshots would
        double count.
        """
        with self._lock:
            snap = None
        snap = self.snapshot()
        self.reset()
        return snap

    def reset(self) -> None:
        """Drop every metric (tests and drained workers start from zero)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def merge(self, snapshot: Optional[Dict[str, Any]]) -> None:
        """Fold a snapshot (typically a worker's drained delta) into this registry."""
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, trace_id in snapshot.get("exemplars", {}).items():
            self.counter(name).inc(0, exemplar=trace_id)
        for name, payload in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, payload.get("scheme", DEFAULT_SCHEME))
            if isinstance(histogram, _NoopHistogram):
                continue
            for index, value in payload.get("buckets", {}).items():
                histogram.counts[int(index)] += value
            histogram.count += payload.get("count", 0)
            histogram.sum += payload.get("sum", 0.0)
            if payload.get("min") is not None and payload["min"] < histogram.min:
                histogram.min = payload["min"]
            if payload.get("max") is not None and payload["max"] > histogram.max:
                histogram.max = payload["max"]
            for index, trace_id in payload.get("exemplars", {}).items():
                histogram.exemplars[int(index)] = trace_id
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set_max(value)


def merge_snapshots(left: Dict[str, Any], right: Dict[str, Any]) -> Dict[str, Any]:
    """Merge two snapshots into a new one (associative and commutative).

    Counters and histogram buckets add; gauges take the maximum; exemplars
    take the right side's (later) trace ID per bucket.  The pure-dict form
    (no registry involved) exists so aggregation pipelines can fold worker
    snapshots without touching live metrics — and so the associativity
    property is directly testable.
    """
    merged: Dict[str, Any] = {
        "counters": dict(left.get("counters", {})),
        "gauges": dict(left.get("gauges", {})),
        "histograms": {
            name: {
                **payload,
                "buckets": dict(payload.get("buckets", {})),
                **(
                    {"exemplars": dict(payload["exemplars"])}
                    if payload.get("exemplars")
                    else {}
                ),
            }
            for name, payload in left.get("histograms", {}).items()
        },
    }
    for name, value in right.get("counters", {}).items():
        merged["counters"][name] = merged["counters"].get(name, 0) + value
    for name, value in right.get("gauges", {}).items():
        merged["gauges"][name] = max(merged["gauges"].get(name, value), value)
    for name, payload in right.get("histograms", {}).items():
        mine = merged["histograms"].get(name)
        if mine is None:
            merged["histograms"][name] = {
                **payload,
                "buckets": dict(payload.get("buckets", {})),
            }
            continue
        buckets = mine["buckets"]
        for index, value in payload.get("buckets", {}).items():
            buckets[index] = buckets.get(index, 0) + value
        mine["count"] = mine.get("count", 0) + payload.get("count", 0)
        mine["sum"] = mine.get("sum", 0.0) + payload.get("sum", 0.0)
        for field, pick in (("min", min), ("max", max)):
            values = [v for v in (mine.get(field), payload.get(field)) if v is not None]
            mine[field] = pick(values) if values else None
        if payload.get("exemplars"):
            mine["exemplars"] = {
                **mine.get("exemplars", {}),
                **payload["exemplars"],
            }
    exemplars = {**left.get("exemplars", {}), **right.get("exemplars", {})}
    if exemplars:
        merged["exemplars"] = exemplars
    return merged


def percentile_from_snapshot(payload: Dict[str, Any], q: float) -> float:
    """Interpolated quantile of one snapshot histogram (same rule as live)."""
    histogram = Histogram("snapshot", payload.get("scheme", DEFAULT_SCHEME))
    for index, value in payload.get("buckets", {}).items():
        histogram.counts[int(index)] += value
    histogram.count = payload.get("count", 0)
    histogram.sum = payload.get("sum", 0.0)
    histogram.min = payload["min"] if payload.get("min") is not None else float("inf")
    histogram.max = payload["max"] if payload.get("max") is not None else float("-inf")
    return histogram.percentile(q)


def format_snapshot(snapshot: Dict[str, Any]) -> str:
    """Human-readable rendering of a snapshot (the ``repro-bench stats`` view)."""
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]}")
    if gauges:
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name:<{width}}  {gauges[name]:g}")
    if histograms:
        lines.append("histograms:  (count / mean / p50 / p99 / p999)")
        width = max(len(name) for name in histograms)
        for name in sorted(histograms):
            payload = histograms[name]
            count = payload.get("count", 0)
            mean = payload.get("sum", 0.0) / count if count else 0.0
            p50 = percentile_from_snapshot(payload, 0.50)
            p99 = percentile_from_snapshot(payload, 0.99)
            p999 = percentile_from_snapshot(payload, 0.999)
            unit = "s" if payload.get("scheme", DEFAULT_SCHEME) == "latency" else ""
            lines.append(
                f"  {name:<{width}}  n={count} mean={mean:.6g}{unit} "
                f"p50={p50:.6g}{unit} p99={p99:.6g}{unit} p999={p999:.6g}{unit}"
            )
    if not lines:
        lines.append("(no metrics recorded — is REPRO_METRICS=0 set?)")
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# The process-global registry and its module-level shorthands
# --------------------------------------------------------------------------- #
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    """The global registry's counter ``name`` (a shared no-op when disabled)."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """The global registry's gauge ``name`` (a shared no-op when disabled)."""
    return REGISTRY.gauge(name)


def histogram(name: str, scheme: str = DEFAULT_SCHEME) -> Histogram:
    """The global registry's histogram ``name`` (a shared no-op when disabled)."""
    return REGISTRY.histogram(name, scheme)


def snapshot() -> Dict[str, Any]:
    """Snapshot of the global registry."""
    return REGISTRY.snapshot()


def write_snapshot(path: Any) -> None:
    """Dump the global registry snapshot to ``path`` as JSON (``--metrics-json``)."""
    from pathlib import Path

    Path(path).write_text(json.dumps(snapshot(), indent=2, sort_keys=True) + "\n", encoding="utf-8")


__all__ = [
    "Counter",
    "DEFAULT_SCHEME",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "SCHEMES",
    "counter",
    "enabled",
    "format_snapshot",
    "gauge",
    "histogram",
    "merge_snapshots",
    "percentile_from_snapshot",
    "set_enabled",
    "snapshot",
    "write_snapshot",
]
