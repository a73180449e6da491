"""Numerical laboratory for entropy inequalities of canonical macrostates."""

from .entropy import relative_entropy, von_neumann
from .maxent import (CanonicalState, InfeasibleTargetError, ObservableSet,
                     canonical_from_lambda, covariance, fit_maxent,
                     state_derivatives)
from .hypotest import (NPTestResult, np_optimal_test, prob_eps_tensor,
                       stein_rate_series)
from .coarsegrain import (KGProjector, canonical_coarse_grain, epsilon_choices,
                          gamma_n, kg_apply_observable, kg_apply_state,
                          kg_build, positivity_diagnostic,
                          product_coarse_grain)
from .harness import ExperimentConfig, run_experiment

__all__ = [
    "CanonicalState", "ExperimentConfig", "InfeasibleTargetError",
    "KGProjector", "NPTestResult", "ObservableSet", "canonical_coarse_grain",
    "canonical_from_lambda", "covariance", "epsilon_choices", "fit_maxent",
    "gamma_n", "kg_apply_observable", "kg_apply_state", "kg_build",
    "np_optimal_test", "positivity_diagnostic", "prob_eps_tensor",
    "product_coarse_grain", "relative_entropy", "run_experiment",
    "state_derivatives", "stein_rate_series", "von_neumann",
]
