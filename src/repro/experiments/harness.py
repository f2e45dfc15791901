"""Top-level experiment harness: one entry point per paper table / figure.

``run_experiment("fig8c")`` (or the CLI ``repro-bench fig8c``) regenerates the
corresponding figure's data series.  Two scales are provided:

* ``quick`` — small surrogate graphs and few queries; finishes in seconds and
  is what the test-suite and the pytest benchmarks exercise;
* ``full`` — the larger surrogates and more queries; takes minutes and is the
  configuration whose numbers are recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ExperimentError
from repro.experiments import ablations, patterns, reachability
from repro.experiments.records import ExperimentResult
from repro.workloads.datasets import load_dataset
from repro.workloads.queries import PAPER_QUERY_SHAPES


@dataclass(frozen=True)
class ScaleProfile:
    """Workload sizes used by the harness at a given scale."""

    name: str
    youtube_dataset: str
    yahoo_dataset: str
    pattern_alphas: Tuple[float, ...]
    pattern_queries: int
    pattern_shapes: Tuple[Tuple[int, int], ...]
    pattern_fixed_alpha: float
    synthetic_sizes: Tuple[int, ...]
    synthetic_alpha: float
    reach_alphas: Tuple[float, ...]
    reach_queries: int
    reach_sizes: Tuple[int, ...]
    reach_size_alphas: Tuple[float, ...]


QUICK = ScaleProfile(
    name="quick",
    youtube_dataset="youtube-small",
    yahoo_dataset="yahoo-small",
    pattern_alphas=(0.005, 0.01, 0.02),
    pattern_queries=3,
    pattern_shapes=((4, 8), (5, 10), (6, 12)),
    pattern_fixed_alpha=0.02,
    synthetic_sizes=(1000, 2000, 4000),
    synthetic_alpha=0.02,
    reach_alphas=(0.005, 0.02, 0.05),
    reach_queries=60,
    reach_sizes=(1000, 2000, 4000),
    reach_size_alphas=(0.02, 0.01),
)

FULL = ScaleProfile(
    name="full",
    youtube_dataset="youtube",
    yahoo_dataset="yahoo",
    pattern_alphas=(0.0011, 0.0013, 0.0015, 0.0017, 0.002, 0.004, 0.008),
    pattern_queries=8,
    pattern_shapes=tuple(PAPER_QUERY_SHAPES),
    pattern_fixed_alpha=0.004,
    synthetic_sizes=(2000, 4000, 6000, 8000, 10000),
    synthetic_alpha=0.003,
    reach_alphas=(0.002, 0.005, 0.01, 0.02, 0.05, 0.1),
    reach_queries=100,
    reach_sizes=(2000, 4000, 6000, 8000, 10000),
    reach_size_alphas=(0.02, 0.01),
)

_PROFILES: Dict[str, ScaleProfile] = {"quick": QUICK, "full": FULL}


def profile(scale: str) -> ScaleProfile:
    """Look up a scale profile by name (``quick`` or ``full``)."""
    try:
        return _PROFILES[scale]
    except KeyError:
        raise ExperimentError(f"unknown scale {scale!r}; use one of {sorted(_PROFILES)}") from None


def _apply_alpha(scale: ScaleProfile, alpha: Optional[float]) -> ScaleProfile:
    """Collapse every α sweep of a profile onto one explicit value.

    Backs the uniform ``--alpha`` CLI flag: ``repro-bench run fig8c
    --alpha 0.01`` runs the figure at exactly that resource ratio instead
    of the profile's sweep.
    """
    if alpha is None:
        return scale
    if not 0 < alpha <= 1:
        raise ExperimentError(f"alpha must be in (0, 1], got {alpha}")
    return replace(
        scale,
        pattern_alphas=(alpha,),
        pattern_fixed_alpha=alpha,
        synthetic_alpha=alpha,
        reach_alphas=(alpha,),
        reach_size_alphas=(alpha,),
    )


# --------------------------------------------------------------------------- #
# Individual experiments
# --------------------------------------------------------------------------- #
def _pattern_alpha(
    dataset_name: str, scale: ScaleProfile, experiment_id: str, title: str, seed: int,
    executor: str = "serial", workers: Optional[int] = None,
) -> ExperimentResult:
    graph = load_dataset(dataset_name, seed=seed)
    return patterns.alpha_sweep(
        graph,
        dataset_name,
        alphas=scale.pattern_alphas,
        num_queries=scale.pattern_queries,
        seed=seed,
        experiment_id=experiment_id,
        title=title,
        executor=executor,
        workers=workers,
    )


def _pattern_query_size(
    dataset_name: str, scale: ScaleProfile, experiment_id: str, title: str, seed: int,
    executor: str = "serial", workers: Optional[int] = None,
) -> ExperimentResult:
    graph = load_dataset(dataset_name, seed=seed)
    return patterns.query_size_sweep(
        graph,
        dataset_name,
        shapes=scale.pattern_shapes,
        alpha=scale.pattern_fixed_alpha,
        num_queries=scale.pattern_queries,
        seed=seed,
        experiment_id=experiment_id,
        title=title,
        executor=executor,
        workers=workers,
    )


def _reach_alpha(
    dataset_name: str, scale: ScaleProfile, experiment_id: str, title: str, seed: int,
    executor: str = "serial", workers: Optional[int] = None,
) -> ExperimentResult:
    graph = load_dataset(dataset_name, seed=seed)
    return reachability.alpha_sweep(
        graph,
        dataset_name,
        alphas=scale.reach_alphas,
        num_queries=scale.reach_queries,
        seed=seed,
        experiment_id=experiment_id,
        title=title,
        executor=executor,
        workers=workers,
    )


def _registry(
    scale: ScaleProfile,
    seed: int,
    executor: str = "serial",
    workers: Optional[int] = None,
) -> Dict[str, Callable[[], ExperimentResult]]:
    """Experiment id → thunk producing the result."""
    return {
        "table2": lambda: patterns.table2_reduction_ratio(
            {
                scale.youtube_dataset: load_dataset(scale.youtube_dataset, seed=seed),
                scale.yahoo_dataset: load_dataset(scale.yahoo_dataset, seed=seed + 1),
            },
            alphas=scale.pattern_alphas,
            num_queries=scale.pattern_queries,
            seed=seed,
            executor=executor,
            workers=workers,
        ),
        "fig8a": lambda: _pattern_alpha(
            scale.youtube_dataset, scale, "fig8a", "Pattern time vs alpha (Youtube surrogate)", seed, executor, workers
        ),
        "fig8b": lambda: _pattern_alpha(
            scale.yahoo_dataset, scale, "fig8b", "Pattern time vs alpha (Yahoo surrogate)", seed, executor, workers
        ),
        "fig8c": lambda: _pattern_alpha(
            scale.youtube_dataset, scale, "fig8c", "Pattern accuracy vs alpha (Youtube surrogate)", seed, executor, workers
        ),
        "fig8d": lambda: _pattern_alpha(
            scale.yahoo_dataset, scale, "fig8d", "Pattern accuracy vs alpha (Yahoo surrogate)", seed, executor, workers
        ),
        "fig8e": lambda: _pattern_query_size(
            scale.youtube_dataset, scale, "fig8e", "Pattern time vs |Q| (Youtube surrogate)", seed, executor, workers
        ),
        "fig8f": lambda: _pattern_query_size(
            scale.yahoo_dataset, scale, "fig8f", "Pattern time vs |Q| (Yahoo surrogate)", seed, executor, workers
        ),
        "fig8g": lambda: _pattern_query_size(
            scale.youtube_dataset, scale, "fig8g", "Pattern accuracy vs |Q| (Youtube surrogate)", seed, executor, workers
        ),
        "fig8h": lambda: _pattern_query_size(
            scale.yahoo_dataset, scale, "fig8h", "Pattern accuracy vs |Q| (Yahoo surrogate)", seed, executor, workers
        ),
        "fig8i": lambda: patterns.graph_size_sweep(
            scale.synthetic_sizes,
            alpha=scale.synthetic_alpha,
            num_queries=scale.pattern_queries,
            seed=seed,
            experiment_id="fig8i",
            title="Pattern time vs |V| (synthetic)",
            executor=executor,
            workers=workers,
        ),
        "fig8j": lambda: patterns.graph_size_sweep(
            scale.synthetic_sizes,
            alpha=scale.synthetic_alpha,
            num_queries=scale.pattern_queries,
            seed=seed,
            experiment_id="fig8j",
            title="Pattern accuracy vs |V| (synthetic)",
            executor=executor,
            workers=workers,
        ),
        "fig8k": lambda: _reach_alpha(
            scale.youtube_dataset, scale, "fig8k", "Reachability time vs alpha (Youtube surrogate)", seed, executor, workers
        ),
        "fig8l": lambda: _reach_alpha(
            scale.yahoo_dataset, scale, "fig8l", "Reachability time vs alpha (Yahoo surrogate)", seed, executor, workers
        ),
        "fig8m": lambda: _reach_alpha(
            scale.youtube_dataset, scale, "fig8m", "Reachability accuracy vs alpha (Youtube surrogate)", seed, executor, workers
        ),
        "fig8n": lambda: _reach_alpha(
            scale.yahoo_dataset, scale, "fig8n", "Reachability accuracy vs alpha (Yahoo surrogate)", seed, executor, workers
        ),
        "fig8o": lambda: reachability.graph_size_sweep(
            scale.reach_sizes,
            alphas=scale.reach_size_alphas,
            num_queries=scale.reach_queries,
            seed=seed,
            experiment_id="fig8o",
            title="Reachability time vs |V| (synthetic)",
            executor=executor,
            workers=workers,
        ),
        "fig8p": lambda: reachability.graph_size_sweep(
            scale.reach_sizes,
            alphas=scale.reach_size_alphas,
            num_queries=scale.reach_queries,
            seed=seed,
            experiment_id="fig8p",
            title="Reachability accuracy vs |V| (synthetic)",
            executor=executor,
            workers=workers,
        ),
        "ablation-rbsim": lambda: ablations.rbsim_mechanisms(
            load_dataset(scale.youtube_dataset, seed=seed),
            scale.youtube_dataset,
            alpha=scale.pattern_fixed_alpha,
            num_queries=scale.pattern_queries,
            seed=seed,
        ),
        "ablation-rbreach": lambda: ablations.rbreach_hierarchy(
            load_dataset(scale.youtube_dataset, seed=seed),
            scale.youtube_dataset,
            num_queries=scale.reach_queries,
            seed=seed,
        ),
    }


def available_experiments() -> List[str]:
    """All experiment ids the harness knows about."""
    return sorted(_registry(QUICK, seed=0))


def run_experiment(
    experiment_id: str,
    scale: str = "quick",
    seed: int = 0,
    executor: str = "serial",
    workers: Optional[int] = None,
    alpha: Optional[float] = None,
) -> ExperimentResult:
    """Run a single experiment by id (e.g. ``"fig8c"`` or ``"table2"``).

    ``executor``/``workers`` select the service executor used for the
    RBSim/RBSub/RBReach batches (``auto``, ``serial`` or ``daemon``);
    answers are identical to the serial path for every choice.  ``alpha`` collapses the profile's α sweeps onto one value.
    """
    registry = _registry(
        _apply_alpha(profile(scale), alpha), seed=seed, executor=executor, workers=workers
    )
    try:
        thunk = registry[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: {', '.join(sorted(registry))}"
        ) from None
    return thunk()


def run_all(
    scale: str = "quick",
    seed: int = 0,
    only: Optional[Sequence[str]] = None,
    executor: str = "serial",
    workers: Optional[int] = None,
    alpha: Optional[float] = None,
) -> List[ExperimentResult]:
    """Run every experiment (or the subset ``only``) and return their results."""
    wanted = list(only) if only else available_experiments()
    return [
        run_experiment(
            experiment_id, scale=scale, seed=seed, executor=executor, workers=workers, alpha=alpha
        )
        for experiment_id in wanted
    ]
