"""Exact coverage and length analysis for confidence intervals centered
on smoothed pretest estimators in two nested linear models.

The package computes, without simulation error, the coverage
probability and scaled expected length of intervals centered on the
average of a select-then-estimate rule over parametric resamples, and
ships an independent Monte Carlo oracle to verify every closed form.
"""

from .gauss import Phi, Phi_interval, phi, z_quantile
from .intervals import (
    CurveTable,
    IntervalReport,
    IntervalRule,
    MinCoverageReport,
    Quantity,
    Scenario,
    build_interval,
    coverage_pms,
    coverage_sd,
    coverage_sd_delta,
    curve,
    min_coverage,
    sel_sd,
    sel_sd_delta,
)
from .kernel import (
    RHO_MAX,
    ConsistencyError,
    FittedModel,
    PretestSpec,
    k,
    pms_estimate,
    q,
    r,
    r_delta,
    smoothed_estimate,
)
from .linmod import (
    Dataset,
    ResidualDiagnostic,
    SingularDesignError,
    fit,
    load_dataset,
    load_matrix,
    load_vector,
    residual_check,
)
from .oracle import SimPlan, SimSummary, StandardErrors, simulate_pair

__version__ = "0.1.0"

__all__ = [
    "Phi",
    "Phi_interval",
    "phi",
    "z_quantile",
    "CurveTable",
    "IntervalReport",
    "IntervalRule",
    "MinCoverageReport",
    "Quantity",
    "Scenario",
    "build_interval",
    "coverage_pms",
    "coverage_sd",
    "coverage_sd_delta",
    "curve",
    "min_coverage",
    "sel_sd",
    "sel_sd_delta",
    "RHO_MAX",
    "ConsistencyError",
    "FittedModel",
    "PretestSpec",
    "k",
    "pms_estimate",
    "q",
    "r",
    "r_delta",
    "smoothed_estimate",
    "Dataset",
    "ResidualDiagnostic",
    "SingularDesignError",
    "fit",
    "load_dataset",
    "load_matrix",
    "load_vector",
    "residual_check",
    "SimPlan",
    "SimSummary",
    "StandardErrors",
    "simulate_pair",
    "__version__",
]
