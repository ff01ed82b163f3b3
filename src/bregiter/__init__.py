"""Averaged fixed-point iteration over Bregman geometries.

The update s_{t+1} = (1 - alpha_t) s_t + alpha_t T(s_t, y_t) + eta_t with
alpha_t = 2/(t + 2) is run, perturbed, and audited against the divergence
bounds that justify its 1/t^2 rate.
"""

__version__ = "0.1.0"

from .analysis import (
    BoundConstants,
    FeedComparison,
    audit_cross_term,
    audit_descent,
    audit_induction_step,
    audit_recursion,
    build_audit_report,
    compare_feedback_feedforward,
    fit_rate,
    gronwall_envelope,
    measure_constants,
)
from .config import ConfigError, RunConfig, config_digest, from_dict
from .engine import CENSORED, EngineError, Schedule, Trace, iterations_to_epsilon, run
from .geometry import (
    DomainError,
    Geometry,
    NegativeEntropy,
    Quadratic,
    SquaredEuclidean,
    certify_constants,
    three_point_residual,
)
from .operators import (
    AffineColinear,
    AffineRotation,
    Bellman,
    ExpGradientStep,
    FixedPointError,
    GradientStep,
    Operator,
    estimate_contraction,
    unrolled_depth,
)
from .perturbation import PerturbationModel

__all__ = [
    "AffineColinear",
    "AffineRotation",
    "Bellman",
    "BoundConstants",
    "CENSORED",
    "ConfigError",
    "DomainError",
    "EngineError",
    "ExpGradientStep",
    "FeedComparison",
    "FixedPointError",
    "Geometry",
    "GradientStep",
    "NegativeEntropy",
    "Operator",
    "PerturbationModel",
    "Quadratic",
    "RunConfig",
    "Schedule",
    "SquaredEuclidean",
    "Trace",
    "audit_cross_term",
    "audit_descent",
    "audit_induction_step",
    "audit_recursion",
    "build_audit_report",
    "certify_constants",
    "compare_feedback_feedforward",
    "config_digest",
    "estimate_contraction",
    "fit_rate",
    "from_dict",
    "gronwall_envelope",
    "iterations_to_epsilon",
    "measure_constants",
    "run",
    "three_point_residual",
    "unrolled_depth",
]
