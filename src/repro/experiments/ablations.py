"""Ablation experiments for the design choices called out in DESIGN.md.

Two ablations are provided (both also exposed as pytest benchmarks):

* :func:`rbsim_mechanisms` — RBSim with the selection weight disabled (FIFO
  candidate order) and with the guarded condition reduced to a label check,
  quantifying how much each mechanism of the dynamic reduction contributes to
  accuracy at a fixed budget;
* :func:`rbreach_hierarchy` — RBReach over a flat (single-level) landmark
  index vs the hierarchical one, at the same resource ratio.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

from repro.core.accuracy import boolean_accuracy, mean_accuracy, pattern_accuracy
from repro.core.rbsim import RBSim, RBSimConfig
from repro.experiments.records import ExperimentResult
from repro.graph.csr import freeze
from repro.graph.digraph import DiGraph
from repro.graph.neighborhood import NeighborhoodIndex
from repro.matching.strong_simulation import match_opt
from repro.reachability.compression import compress
from repro.reachability.hierarchy import build_index
from repro.reachability.rbreach import RBReach
from repro.workloads.queries import generate_pattern_workload, generate_reachability_workload


@dataclass
class AblationRow:
    """One ablation variant: its accuracy and the size of what it extracted."""

    dataset: str
    x_label: str
    x_value: str
    variant: str
    accuracy: float
    extracted_size: float
    false_positives: int = 0
    alpha: float = 0.0
    num_queries: int = 0

    def as_dict(self) -> Dict[str, object]:
        """Dictionary form for the text reporter."""
        return asdict(self)


ABLATION_COLUMNS: List[str] = [
    "dataset",
    "variant",
    "alpha",
    "num_queries",
    "accuracy",
    "extracted_size",
    "false_positives",
]


def rbsim_mechanisms(
    graph: DiGraph,
    dataset: str,
    alpha: float = 0.01,
    shape: Tuple[int, int] = (4, 6),
    num_queries: int = 4,
    seed: int = 7,
) -> ExperimentResult:
    """Ablate RBSim's weight function and guarded condition."""
    workload = generate_pattern_workload(graph, shape=shape, count=num_queries, seed=seed)
    frozen = freeze(graph)  # one freeze for the shared index and every matcher
    index = NeighborhoodIndex(frozen)
    exact = {
        id(query): match_opt(query.pattern, graph, query.personalized_match).answer
        for query in workload
    }

    variants = {
        "full": RBSimConfig(),
        "no-weights (FIFO)": RBSimConfig(use_weights=False),
        "no-guard (label only)": RBSimConfig(use_guard=False),
    }
    rows: List[AblationRow] = []
    for variant, config in variants.items():
        matcher = RBSim(frozen, alpha, config=config, neighborhood_index=index)
        reports = []
        sizes = []
        for query in workload:
            answer = matcher.answer(query.pattern, query.personalized_match)
            reports.append(pattern_accuracy(exact[id(query)], answer.answer))
            sizes.append(answer.subgraph_size)
        rows.append(
            AblationRow(
                dataset=dataset,
                x_label="variant",
                x_value=variant,
                variant=variant,
                accuracy=mean_accuracy(reports).f_measure,
                extracted_size=sum(sizes) / len(sizes) if sizes else 0.0,
                alpha=alpha,
                num_queries=len(workload),
            )
        )
    return ExperimentResult(
        experiment_id="ablation-rbsim",
        title="Ablation: RBSim weight function and guarded condition",
        rows=rows,
    )


def rbreach_hierarchy(
    graph: DiGraph,
    dataset: str,
    alpha: float = 0.02,
    num_queries: int = 60,
    seed: int = 7,
) -> ExperimentResult:
    """Ablate the hierarchy of the landmark index (flat vs hierarchical)."""
    workload = generate_reachability_workload(graph, count=num_queries, seed=seed, max_walk_length=6)
    compressed = compress(graph)
    variants = {
        "hierarchical": None,
        "flat (single level)": 1,
    }
    rows: List[AblationRow] = []
    for variant, max_levels in variants.items():
        index = build_index(
            compressed, alpha, reference_size=graph.size(), max_levels=max_levels
        )
        matcher = RBReach(index)
        answers = matcher.query_many(workload.pairs)
        accuracy = boolean_accuracy(workload.truth, answers).f_measure
        false_positives = sum(
            1 for pair in workload.pairs if answers[pair] and not workload.truth[pair]
        )
        rows.append(
            AblationRow(
                dataset=dataset,
                x_label="variant",
                x_value=variant,
                variant=variant,
                accuracy=accuracy,
                extracted_size=float(index.size()),
                false_positives=false_positives,
                alpha=alpha,
                num_queries=len(workload),
            )
        )
    return ExperimentResult(
        experiment_id="ablation-rbreach",
        title="Ablation: hierarchical vs flat landmark index",
        rows=rows,
    )
