"""Fidelity susceptibilities and critical sensing in the two-mode boson model."""

from .model import (
    EigensolverError,
    ModelParams,
    StateStack,
    eigenvalues,
    equilibrium_states,
)
from .fidelity import bhattacharyya_fidelity
from .criticality import (
    CriticalPointResult,
    DeltaOptimization,
    PeakEstimate,
    PowerLawFit,
    ScalingStudyResult,
    ScanConfig,
    SusceptibilityCurve,
    chi_at_point,
    default_delta_grid,
    default_lambda_grid,
    fit_power_law,
    locate_critical_gap,
    optimize_delta,
    scaling_study,
    scan_lambda,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "EigensolverError",
    "StateStack",
    "equilibrium_states",
    "eigenvalues",
    "bhattacharyya_fidelity",
    "ScanConfig",
    "SusceptibilityCurve",
    "PeakEstimate",
    "CriticalPointResult",
    "DeltaOptimization",
    "PowerLawFit",
    "ScalingStudyResult",
    "scan_lambda",
    "chi_at_point",
    "default_lambda_grid",
    "default_delta_grid",
    "locate_critical_gap",
    "optimize_delta",
    "fit_power_law",
    "scaling_study",
    "__version__",
]
