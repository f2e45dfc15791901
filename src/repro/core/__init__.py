"""The paper's primary contribution: resource-bounded query answering.

This package contains the budget accounting, the accuracy measures of
Section 3, the dynamic-reduction machinery of Section 4 and the two
resource-bounded pattern algorithms ``RBSim`` and ``RBSub``.  The
non-localized counterpart (``RBReach``) lives in :mod:`repro.reachability`.
"""

from repro.core.accuracy import (
    AccuracyReport,
    boolean_accuracy,
    mean_accuracy,
    pattern_accuracy,
    reachability_counts,
    set_accuracy,
)
from repro.core.budget import BudgetReport, ResourceBudget, snapshot
from repro.core.rbsim import PatternAnswer, RBSim, RBSimConfig, rbsim
from repro.core.rbsub import RBSub, rbsub
from repro.core.reduction import DynamicReducer, ReductionResult
from repro.core.weights import IsomorphismGuard, SimulationGuard, WeightEstimator

__all__ = [
    "AccuracyReport",
    "boolean_accuracy",
    "mean_accuracy",
    "pattern_accuracy",
    "reachability_counts",
    "set_accuracy",
    "BudgetReport",
    "ResourceBudget",
    "snapshot",
    "PatternAnswer",
    "RBSim",
    "RBSimConfig",
    "rbsim",
    "RBSub",
    "rbsub",
    "DynamicReducer",
    "ReductionResult",
    "IsomorphismGuard",
    "SimulationGuard",
    "WeightEstimator",
]
