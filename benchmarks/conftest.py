"""Shared infrastructure for the benchmark suite.

``bench_figures.py`` regenerates each of the paper's tables and figures at
the ``quick`` scale (small surrogates, few queries) so that
``pytest benchmarks/ --benchmark-only`` completes in minutes.  The formatted
rows of each experiment are written to ``benchmarks/_reports/<exp>.txt`` so
the series the paper plots can be inspected (and pasted into EXPERIMENTS.md)
after the run.  The ``full`` scale used for the committed EXPERIMENTS.md
numbers is available through the CLI: ``python -m repro run all --scale full``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

REPORT_DIR = Path(__file__).resolve().parent / "_reports"

BENCH_SCALE = "quick"
BENCH_SEED = 7


def run_experiment_benchmark(benchmark, experiment_id: str):
    """Run one harness experiment exactly once under the benchmark timer.

    Returns the :class:`ExperimentResult` and writes its formatted table to
    the report directory.
    """
    from repro.experiments.harness import run_experiment
    from repro.experiments.reporting import format_result

    result = benchmark.pedantic(
        run_experiment,
        kwargs={"experiment_id": experiment_id, "scale": BENCH_SCALE, "seed": BENCH_SEED},
        rounds=1,
        iterations=1,
    )
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    report_path = REPORT_DIR / f"{experiment_id}.txt"
    report_path.write_text(format_result(result) + "\n", encoding="utf-8")
    return result


@pytest.fixture(scope="session")
def youtube_small():
    """The small Youtube surrogate used by the ablation benchmarks."""
    from repro.workloads.datasets import load_dataset

    return load_dataset("youtube-small", seed=BENCH_SEED)


@pytest.fixture(scope="session")
def yahoo_small():
    """The small Yahoo surrogate used by the ablation benchmarks."""
    from repro.workloads.datasets import load_dataset

    return load_dataset("yahoo-small", seed=BENCH_SEED)
