"""The Bhattacharyya coefficient and the fidelity fit for shot histograms.

The classical susceptibility chi_cl is the Fisher information of the J_z
outcome distribution P(m).  Measured imbalance records give P only at a few
values of the control parameter, so ``estimation`` reads chi_cl off the
overlaps of neighbouring histograms: each Bhattacharyya coefficient behaves
as F = 1 - (chi/8) eps^2 for small eps, and chi is the slope of 1 - F
against eps^2 / 8.  This module holds that coefficient and that fit.  For
the model, ``criticality`` takes every chi as an exact derivative of the
Gibbs state and needs neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DistributionOverM


@dataclass(frozen=True)
class SusceptibilityEstimate:
    """Fidelity susceptibility with the residual of its defining fit.

    ``method`` labels the fidelity ("classical" or "quantum");
    ``fit_residual`` is the rms misfit of 1 - F against (chi/8) eps^2 and
    ``epsilon_grid`` records the displacements used.
    """

    value: float
    method: str
    fit_residual: float = 0.0
    epsilon_grid: tuple[float, ...] | None = None
    degenerate: bool = False


def bhattacharyya_fidelity(p: DistributionOverM, q: DistributionOverM) -> float:
    """Bhattacharyya coefficient sum_m sqrt(P(m) Q(m)).

    Equals 1 iff the distributions coincide; this is the classical fidelity
    attainable from J_z measurement statistics alone.  Any pair with
    ``probabilities`` arrays on one support will do, shot histograms
    (``estimation.Histogram``) included.
    """
    if p.probabilities.size != q.probabilities.size:
        raise ValueError(
            f"distribution lengths differ: {p.probabilities.size} vs "
            f"{q.probabilities.size}"
        )
    return float(np.sqrt(p.probabilities * q.probabilities).sum())


def _fit_chi(
    eps: np.ndarray, deficits: np.ndarray, method: str
) -> SusceptibilityEstimate:
    """Least-squares fit of 1 - F = (chi/8) eps^2 through the origin.

    Applied to the shot-histogram overlaps of
    ``estimation.chi_cl_experimental``; the caller checks the displacements.
    """
    x = eps * eps / 8.0
    grid = tuple(float(e) for e in eps)
    if np.all(np.abs(deficits) < 1e-14):
        return SusceptibilityEstimate(0.0, method, 0.0, grid, degenerate=True)
    slope = float((x @ deficits) / (x @ x))
    resid = deficits - slope * x
    rms = float(np.sqrt(np.mean(resid * resid)))
    return SusceptibilityEstimate(max(slope, 0.0), method, rms, grid)
