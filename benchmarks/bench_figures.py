"""Benchmark: regenerate every Figure 8 panel and Table 2 at the quick scale.

One parametrised test per experiment id times one full regeneration of that
experiment and writes its series to ``benchmarks/_reports/<id>.txt``.  Shape
assertions (not absolute numbers) check that the regenerated series is usable
for the paper-vs-measured comparison: timings are positive, accuracies are
fractions, RBReach never answers a false positive and keeps an accuracy of
at least 0.99 on Fig. 8(m)–8(p), and Table 2's budget ratio
``min(1, α·|G| / |G_dQ(vp)|)`` lies in ``(0, 1]``.  Across the rows of
Fig. 8(c)/8(d), per dataset, RBSim's and RBSub's accuracy never falls as α
grows: a larger α only lets ``Search`` run further.

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


def near_exact(value):
    # RBReach misses a pair only when α·|G| runs out (the paper reports 100%).
    return 0.99 <= value <= 1


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
    "fig8m": {"rbreach_false_positives": zero, "rbreach_accuracy": near_exact},
    "fig8n": {"rbreach_false_positives": zero, "rbreach_accuracy": near_exact},
    "fig8o": {"rbreach_time": positive, "rbreach_false_positives": zero, "rbreach_accuracy": near_exact},
    "fig8p": {"rbreach_false_positives": zero, "rbreach_accuracy": near_exact},
    "table2": {"budget_ratio": budget_share, "reduction_ratio": non_negative},
}


# Experiment id -> row fields that must be non-decreasing in alpha, per dataset.
SWEEP_CHECKS = {
    "fig8c": ("rbsim_accuracy", "rbsub_accuracy"),
    "fig8d": ("rbsim_accuracy", "rbsub_accuracy"),
}


def check_sweep(experiment_id, rows):
    """Each ``SWEEP_CHECKS`` field of ``rows`` never falls as alpha grows, per dataset."""
    for dataset in {row.dataset for row in rows}:
        series = sorted((row for row in rows if row.dataset == dataset), key=lambda row: row.alpha)
        for low, high in zip(series, series[1:]):
            for field in SWEEP_CHECKS.get(experiment_id, ()):
                before, after = getattr(low, field), getattr(high, field)
                assert after >= before, (
                    f"{experiment_id} {dataset}: {field} falls from {before!r} at alpha {low.alpha} "
                    f"to {after!r} at alpha {high.alpha}"
                )


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
    check_sweep(experiment_id, result.rows)
