"""Benchmark: regenerate every Figure 8 panel and Table 2 at the quick scale.

One parametrised test per experiment id times one full regeneration of that
experiment and writes its series to ``benchmarks/_reports/<id>.txt``.  Shape
assertions (not absolute numbers) check that the regenerated series is usable
for the paper-vs-measured comparison: timings are positive, accuracies are
fractions, RBReach never answers a false positive, and Table 2's budget ratio
``min(1, α·|G| / |G_dQ(vp)|)`` lies in ``(0, 1]``.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_figures.py -q
"""

import pytest

from conftest import run_experiment_benchmark


def positive(value):
    return value > 0


def non_negative(value):
    return value >= 0


def fraction(value):
    return 0 <= value <= 1


def zero(value):
    return value == 0


def budget_share(value):
    return 0 < value <= 1.0


# Experiment id -> {row field: predicate every row must satisfy}.
ROW_CHECKS = {
    "fig8a": {"rbsim_time": positive, "matchopt_time": positive},
    "fig8b": {"rbsim_time": positive, "vf2opt_time": positive},
    "fig8c": {"rbsim_accuracy": fraction, "rbsub_accuracy": fraction},
    "fig8d": {"rbsim_accuracy": fraction},
    "fig8e": {"rbsim_time": positive},
    "fig8f": {"rbsim_time": positive},
    "fig8g": {"rbsim_accuracy": fraction},
    "fig8h": {"rbsim_accuracy": fraction},
    "fig8i": {"rbsim_time": positive},
    "fig8j": {"rbsim_accuracy": fraction},
    "fig8k": {"rbreach_time": positive, "bfs_time": positive},
    "fig8l": {"rbreach_time": positive, "bfsopt_time": positive},
    "fig8m": {"rbreach_false_positives": zero, "rbreach_accuracy": fraction},
    "fig8n": {"rbreach_false_positives": zero},
    "fig8o": {"rbreach_time": positive},
    "fig8p": {"rbreach_false_positives": zero},
    "table2": {"budget_ratio": budget_share, "reduction_ratio": non_negative},
}


@pytest.mark.parametrize("experiment_id", list(ROW_CHECKS))
def test_figure(benchmark, experiment_id):
    """Regenerate one experiment at the quick scale and sanity-check its rows."""
    result = run_experiment_benchmark(benchmark, experiment_id)
    assert result.experiment_id == experiment_id
    assert result.rows, "the experiment must produce at least one row"
    for row in result.rows:
        for field, check in ROW_CHECKS[experiment_id].items():
            value = getattr(row, field)
            assert check(value), f"{experiment_id}: {field}={value!r} fails {check.__name__}"
