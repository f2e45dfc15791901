"""Smoke test: ``run.py`` and ``BENCHMARK.json`` name the same workloads and metrics.

Runs every workload once per pass at ``--smoke`` counts (youtube-small, a
12-community graph, a fraction of a second each) in this process, so tier-1
notices when the benchmark and its contract file drift apart — or when a
source change breaks a front-door path the benchmark drives.
"""

from __future__ import annotations

import re

import pytest

import compare
import run
from workloads import SMOKE, WORKLOADS

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_contract_limits():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)
    assert len(SPEC["workloads"]) == 6
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    # Widening a bound is a decision, not a drive-by edit.  ``setup_s`` carries the
    # largest bound the contract allows; a count that repeats exactly carries none.
    bounds = {entry["name"]: entry["bound"] for entry in SPEC["end_to_end"]}
    assert bounds == {"setup_s": 0.25, "accuracy_f1": 0, "peak_rss_mb": 0.05}
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= SPEC["end_to_end"][0].items()
    assert set(compare.TIMING_BOUNDS) <= {entry["name"] for entry in SPEC["per_layer"]}
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"] for entry in SPEC["workloads"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_declared_metrics(name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(name, seed=7, seconds=0.05, trace=trace, scale=SMOKE)
        assert result["correct"], result["detail"]["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        # Raises SystemExit when the name sets disagree with BENCHMARK.json.
        metrics = run.with_units(result["metrics"], SPEC[key])
        assert all(entry["unit"] for entry in metrics.values())
        if not trace:
            assert all(entry["value"] > 0 for entry in metrics.values()), metrics
