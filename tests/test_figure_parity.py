"""Figure 8(k)–8(p) and Table 2 reproduce their recorded non-timing columns.

``fixtures/figure_parity.json`` holds the accuracy, false-positive, index-size
and reduction-ratio columns of a small synthetic run, recorded while the
drivers still prepared on the all-dict path; the array prepare must reproduce
them exactly (floats as recorded, not approximately).
"""

import json
from pathlib import Path

from repro.experiments import patterns, reachability
from repro.workloads.datasets import synthetic

FIXTURE = Path(__file__).parent / "fixtures" / "figure_parity.json"
REACH = ("alpha", "rbreach_accuracy", "rbreach_false_positives", "index_size", "lm_accuracy")
TABLE2 = ("alpha", "reduction_ratio", "budget_ratio", "subgraph_size", "ball_size")


def _columns(result, names):
    return [{name: getattr(row, name) for name in names} for row in result.rows]


def test_figure_columns_match_the_recorded_run():
    alpha_sweep = reachability.alpha_sweep(
        synthetic(1000, seed=3), "synthetic-1000", (0.002, 0.01, 0.05), num_queries=100, seed=1
    )
    size_sweep = reachability.graph_size_sweep((150, 300), (0.01, 0.05), num_queries=40, seed=2)
    table2 = patterns.table2_reduction_ratio(
        {"synthetic-300": synthetic(300, seed=5)}, (0.05, 0.2), num_queries=3, seed=0
    )
    assert json.loads(FIXTURE.read_text()) == {
        "alpha_sweep": _columns(alpha_sweep, REACH),
        "graph_size_sweep": _columns(size_sweep, REACH),
        "table2": _columns(table2, TABLE2),
    }
