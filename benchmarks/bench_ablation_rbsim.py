"""Ablation benchmark: what do RBSim's weighting and guarded condition buy?

DESIGN.md calls out two mechanisms of the dynamic reduction:

* the selection weight ``p/(c+1)`` (vs. plain FIFO candidate order), and
* the guarded condition ``C(v, u)`` (vs. label-only filtering).

This benchmark runs the same workload with each mechanism disabled and
reports accuracy and extracted-subgraph size, so the contribution of each
design choice is measurable rather than asserted.
"""

from conftest import BENCH_SEED, REPORT_DIR

from repro.core.accuracy import mean_accuracy, pattern_accuracy
from repro.core.rbsim import RBSim, RBSimConfig
from repro.graph.csr import freeze
from repro.graph.neighborhood import NeighborhoodIndex
from repro.matching.strong_simulation import match_opt
from repro.workloads.queries import generate_pattern_workload

ALPHA = 0.01
SHAPE = (4, 6)
NUM_QUERIES = 4


def _evaluate(graph, workload, config, index):
    """Mean accuracy and mean |G_Q| for RBSim under one configuration."""
    matcher = RBSim(graph, ALPHA, config=config, neighborhood_index=index)
    accuracies = []
    sizes = []
    for query in workload:
        exact = match_opt(query.pattern, graph, query.personalized_match).answer
        answer = matcher.answer(query.pattern, query.personalized_match)
        accuracies.append(pattern_accuracy(exact, answer.answer))
        sizes.append(answer.subgraph_size)
    mean_size = sum(sizes) / len(sizes) if sizes else 0.0
    return mean_accuracy(accuracies).f_measure, mean_size


def test_ablation_rbsim_weights_and_guard(benchmark, youtube_small):
    """Compare full RBSim against the no-weights and no-guard variants."""
    workload = generate_pattern_workload(youtube_small, shape=SHAPE, count=NUM_QUERIES, seed=BENCH_SEED)
    graph = freeze(youtube_small)  # one freeze for the shared index and every matcher
    index = NeighborhoodIndex(graph)

    def run_all_variants():
        return {
            "full": _evaluate(graph, workload, RBSimConfig(), index),
            "no-weights": _evaluate(graph, workload, RBSimConfig(use_weights=False), index),
            "no-guard": _evaluate(graph, workload, RBSimConfig(use_guard=False), index),
        }

    results = benchmark.pedantic(run_all_variants, rounds=1, iterations=1)

    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    lines = ["== ablation: RBSim mechanisms (accuracy, mean |G_Q|) =="]
    for variant, (accuracy, size) in results.items():
        lines.append(f"{variant:12s}  accuracy={accuracy:.3f}  mean_gq_size={size:.1f}")
    (REPORT_DIR / "ablation_rbsim.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    # The full configuration must be at least as accurate as either ablation
    # (small tolerance: workloads are tiny at the quick scale).
    assert results["full"][0] >= results["no-weights"][0] - 0.15
    assert results["full"][0] >= results["no-guard"][0] - 0.15
    # Every variant stays within the budget.
    budget = max(1, int(ALPHA * youtube_small.size()))
    for _, size in results.values():
        assert size <= budget
