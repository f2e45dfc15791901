"""Compare two sets of ``run.py --out`` reports, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py A1.json A2.json A3.json --vs B1.json B2.json B3.json

``A`` is the parent (or the first half of an A/A check), ``B`` the change.
For every (workload, end-to-end metric) it prints each side's median and
quartiles, how much worse ``B``'s median is than ``A``'s as a share of
``A``'s, the bound, and a verdict:

* ``unresolved`` — ``A``'s own run-to-run spread (the distance between its
  quartiles over its median) exceeds the bound, so the runs cannot tell;
* ``worse`` — ``B`` is worse than ``A`` by more than the bound;
* ``ok`` — otherwise.

The bound is the one ``BENCHMARK.json`` fixes — or, for the timing outcomes
of the untraced pass (``TIMING_BOUNDS``), the one ISSUE 14 fixed: on a shared
host they do not repeat within a tenth from run to run, so ``BENCHMARK.json``
carries them per layer, without a bound, and they are judged here instead,
where several alternating runs per side let drift hit both sides alike.

``--layers`` adds the per-layer metrics (ratio only; they carry no bound).
Exits 1 when any pairing is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
TIMING_BOUNDS = {"throughput_qps": 0.05, "call_p50_ms": 0.05, "call_p90_ms": 0.10}


def collect(paths: Sequence[str], section: str) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> one value per report`` for one side."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
        for workload, result in report["workloads"].items():
            for metric, entry in result.get(section, {}).items():
                values.setdefault((workload, metric), []).append(entry["value"])
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run has no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Tuple[str, float, float]:
    """``(verdict, worse_by, spread)`` for one (workload, metric) pairing."""
    q1, median_a, q3 = quartiles(a)
    spread = (q3 - q1) / abs(median_a) if median_a else 0.0
    change = worse_by(median_a, statistics.median(b), better)
    if spread > bound:
        return "unresolved", change, spread
    return ("worse" if change > bound else "ok"), change, spread


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("reports", nargs="+", help="A reports (or exactly: A.json B.json)")
    parser.add_argument("--vs", nargs="+", default=None, help="B reports")
    parser.add_argument("--layers", action="store_true", help="also list per-layer ratios")
    args = parser.parse_args(argv)
    if args.vs is None:
        if len(args.reports) != 2:
            parser.error("give A.json B.json, or A reports --vs B reports")
        side_a, side_b = args.reports[:1], args.reports[1:]
    else:
        side_a, side_b = args.reports, args.vs

    spec: Dict[str, Any] = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    judged = [(metric, "end_to_end") for metric in spec["end_to_end"]] + [
        ({**metric, "bound": TIMING_BOUNDS[metric["name"]]}, "unbounded")
        for metric in spec["per_layer"]
        if metric["name"] in TIMING_BOUNDS
    ]
    sides = {
        section: (collect(side_a, section), collect(side_b, section))
        for section in ("end_to_end", "unbounded")
    }
    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    print(f"A: {len(side_a)} run(s)   B: {len(side_b)} run(s)")
    print(
        f"{'workload':<18} {'metric':<15} {'A q1/median/q3':<34} {'B median':>11} "
        f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict"
    )
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric, section in judged:
            a, b = sides[section]
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            result, change, spread = verdict(a[key], b[key], metric["better"], metric["bound"])
            counts[result] += 1
            q1, median_a, q3 = quartiles(a[key])
            print(
                f"{workload:<18} {metric['name']:<15} "
                f"{f'{q1:.5g} / {median_a:.5g} / {q3:.5g}':<34} "
                f"{statistics.median(b[key]):>11.5g} {change:>+9.2%} {spread:>7.2%} "
                f"{metric['bound']:>6.0%}  {result}"
            )
    if args.layers:
        a, b = collect(side_a, "per_layer"), collect(side_b, "per_layer")
        print(f"\n{'workload':<18} {'layer metric':<36} {'A median':>12} {'B median':>12} {'B/A':>8}")
        for workload in (entry["name"] for entry in spec["workloads"]):
            for metric in spec["per_layer"]:
                key = (workload, metric["name"])
                if key not in a or key not in b:
                    continue
                median_a, median_b = statistics.median(a[key]), statistics.median(b[key])
                share = f"{median_b / median_a:8.3f}" if median_a else f"{'-':>8}"
                print(f"{workload:<18} {metric['name']:<36} {median_a:>12.5g} {median_b:>12.5g} {share}")
    print(
        f"\n{counts['ok']} ok, {counts['worse']} worse, {counts['unresolved']} unresolved "
        "(A's own spread exceeds the bound)"
    )
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
