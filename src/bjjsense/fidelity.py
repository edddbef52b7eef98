"""Fidelities between nearby equilibrium states and susceptibility extraction.

Three sensitivity measures for a control parameter lambda, ordered
chi_mom <= chi_cl <= chi_Q:

* moment-based: chi_mom = (d<J_z>/dlambda)^2 / Var(J_z)
* classical:    chi_cl from the Bhattacharyya coefficient of the J_z
                outcome distributions at lambda and lambda + eps
* quantum:      chi_Q from the Uhlmann fidelity of the density operators

Each fidelity behaves as F = 1 - (chi/8) * eps^2 for small eps, so chi can
be read off as the slope of 1 - F against eps^2 / 8.  This module holds the
fidelities and that fit.  ``estimation`` applies the Bhattacharyya
coefficient and the fit to histograms of measured imbalance records, which
only give finite differences.  For the model, ``criticality`` takes every
chi as an exact derivative of the Gibbs state and runs these fidelities
only on its finite-difference cross-check, ``chi_at_point(...,
epsilon0=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import DistributionOverM, ThermalState


@dataclass(frozen=True)
class DensityOperator:
    """Low-rank factorization rho = V diag(w) V^T with orthonormal columns V.

    Exact for thermal states truncated to their occupied levels; the rank r
    is the number of retained eigenvectors.
    """

    basis: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.basis.shape[1] != self.weights.size:
            raise ValueError(
                f"basis has {self.basis.shape[1]} columns but "
                f"{self.weights.size} weights given"
            )

    @property
    def rank(self) -> int:
        return self.weights.size

    @classmethod
    def from_state(cls, state: ThermalState) -> "DensityOperator":
        keep = state.weights > 0.0
        return cls(
            basis=state.spectrum.eigenvectors[:, keep],
            weights=state.weights[keep],
        )


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


def uhlmann_fidelity(rho1: DensityOperator, rho2: DensityOperator) -> float:
    """Uhlmann fidelity F = Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)).

    Works in the span of the factorizations: with A = sqrt(w1) (V1^T V2)
    sqrt(w2), F is the nuclear norm of A: the sum of its singular values,
    taken from A itself, since an eigenvalue of A A^T at roundoff (1e-16)
    would add its square root to F.  For two pure states this reduces to
    |<psi1|psi2>|.
    """
    if rho1.basis.shape[0] != rho2.basis.shape[0]:
        raise ValueError(
            f"state dimensions differ: {rho1.basis.shape[0]} vs "
            f"{rho2.basis.shape[0]}"
        )
    if rho1.rank == 1 and rho2.rank == 1:
        overlap = float(rho1.basis[:, 0] @ rho2.basis[:, 0])
        return abs(overlap) * float(
            np.sqrt(rho1.weights[0] * rho2.weights[0])
        )
    cross = rho1.basis.T @ rho2.basis
    a = np.sqrt(rho1.weights)[:, None] * cross * np.sqrt(rho2.weights)[None, :]
    return float(np.linalg.svd(a, compute_uv=False).sum())


def default_epsilons(lambda_value: float, epsilon0: float = 1e-4) -> np.ndarray:
    """Four-point displacement grid {-2, -1, 1, 2} * eps with relative scaling.

    eps = epsilon0 * max(1, |lambda|) keeps the relative perturbation
    comparable across the scan range.
    """
    eps = epsilon0 * max(1.0, abs(lambda_value))
    return eps * np.array([-2.0, -1.0, 1.0, 2.0])


def susceptibility_from_fidelity(
    fidelity_at: Callable[[float], float],
    epsilons: Sequence[float],
    method: str = "classical",
) -> SusceptibilityEstimate:
    """Fit chi from fidelities at small displacements.

    Evaluates F(eps) for each displacement and fits 1 - F = (chi/8) eps^2
    by least squares through the origin.

    Parameters
    ----------
    fidelity_at : callable
        Maps a displacement eps to the fidelity between the state at the
        working point and the state displaced by eps.
    epsilons : sequence of float
        Nonzero displacements; at least two distinct magnitudes are needed
        to expose curvature beyond a single scale.
    method : str
        Label stored on the estimate ("classical" or "quantum").

    Returns
    -------
    SusceptibilityEstimate
        ``degenerate`` is set when all deficits 1 - F are below 1e-14, in
        which case chi = 0.
    """
    eps = np.asarray(epsilons, dtype=float)
    if eps.size < 2 or np.any(eps == 0.0):
        raise ValueError(
            f"need >= 2 nonzero displacements, got {epsilons!r}"
        )
    if np.unique(np.abs(eps)).size < 2:
        raise ValueError(
            f"displacements must span at least two magnitudes, got {epsilons!r}"
        )
    deficits = np.array([1.0 - fidelity_at(float(e)) for e in eps])
    return _fit_chi(eps, deficits, method)


def _fit_chi(
    eps: np.ndarray, deficits: np.ndarray, method: str
) -> SusceptibilityEstimate:
    """Least-squares fit of 1 - F = (chi/8) eps^2 through the origin.

    Shared by the model fidelities and by the shot-histogram overlaps of
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
