"""Finite-difference fidelity route: a second oracle for the exact chi.

``bjjsense.criticality.chi_at_point`` takes every susceptibility as the
exact lambda-derivative of the Gibbs state.  This module reads the same
three numbers off finite differences instead: the Uhlmann fidelity of the
low-rank density operators and the Bhattacharyya coefficient of the J_z
distributions at lambda + {+-eps, +-2eps}, each fitted to
F = 1 - (chi/8) eps^2, and the least-squares slope of <J_z> through the
five states.  It takes each state from the package's state builder, one
point at a time (``state_at``), so it checks the derivative, not the
eigensolve; ``dense_oracle`` checks that.  Its fit,
``_fit_chi``, is the pointwise least-squares form of the slope that
``estimation._chi_cl`` takes in closed form for whole stacks of shot
histograms; the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from bjjsense import bhattacharyya_fidelity
from bjjsense.model import ModelParams, StateStack, equilibrium_states


def state_at(params: ModelParams, temperature: float) -> StateStack:
    """The Gibbs state at ``params``, as a stack of one point."""
    ((_, state),) = equilibrium_states(
        params, [params.lambda_control], temperature
    )
    return state


def jz_moments(state: StateStack) -> tuple[np.ndarray, np.ndarray]:
    """<J_z> and Var(J_z) at each point of ``state``."""
    prob = state.probabilities
    m = np.arange(prob.shape[1]) - (prob.shape[1] - 1) / 2.0
    mean = prob @ m
    return mean, np.sum((m - mean[:, None]) ** 2 * prob, axis=1)


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


def _fit_chi(
    eps: np.ndarray, deficits: np.ndarray, method: str
) -> SusceptibilityEstimate:
    """Least-squares fit of 1 - F = (chi/8) eps^2 through the origin.

    The reference for the closed form of ``estimation._chi_cl`` on
    shot-histogram overlaps; the caller checks the displacements.
    """
    x = eps * eps / 8.0
    grid = tuple(float(e) for e in eps)
    if np.all(np.abs(deficits) < 1e-14):
        return SusceptibilityEstimate(0.0, method, 0.0, grid, degenerate=True)
    slope = float((x @ deficits) / (x @ x))
    resid = deficits - slope * x
    rms = float(np.sqrt(np.mean(resid * resid)))
    return SusceptibilityEstimate(max(slope, 0.0), method, rms, grid)


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
    def from_state(cls, state: StateStack) -> "DensityOperator":
        """The Gibbs state of a one-point stack."""
        keep = state.weights[0] > 0.0
        return cls(
            basis=state.vectors[0].T[:, keep],
            weights=state.weights[0][keep],
        )


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


def fd_chi_point(
    params: ModelParams,
    temperature: float,
    which: tuple[str, ...],
    epsilon0: float,
) -> dict[str, float]:
    """The requested chi from states displaced to lambda + eps.

    The finite-difference reference for ``chi_at_point``: the
    equilibrium state at lambda and the four states at lambda + eps
    (``default_epsilons``).  "classical" and "quantum" come from fidelity
    fits against the centre state; "moment" is the least-squares slope of
    <J_z> through the five states, squared over the centre variance.
    """
    lam = params.lambda_control
    center = state_at(params, temperature)
    rho_c = DensityOperator.from_state(center)
    eps = default_epsilons(lam, epsilon0)
    mean_c, var_c = jz_moments(center)
    means = {0.0: float(mean_c[0])}
    fid_cl: dict[float, float] = {}
    fid_q: dict[float, float] = {}
    for e in eps:
        shifted = state_at(replace(params, lambda_control=lam + e), temperature)
        means[e] = float(jz_moments(shifted)[0][0])
        fid_cl[e] = float(bhattacharyya_fidelity(
            center.probabilities[0], shifted.probabilities[0]
        ))
        fid_q[e] = uhlmann_fidelity(rho_c, DensityOperator.from_state(shifted))
    chi: dict[str, float] = {}
    if "moment" in which:
        offsets = np.array(sorted(means))
        vals = np.array([means[o] for o in offsets])
        slope = float(offsets @ vals / (offsets @ offsets))
        var = float(var_c[0])
        if var <= 0:
            raise ValueError(f"non-positive J_z variance {var} at {params}")
        chi["moment"] = slope * slope / var
    for method, fid in (("classical", fid_cl), ("quantum", fid_q)):
        if method in which:
            chi[method] = susceptibility_from_fidelity(
                fid.__getitem__, eps, method
            ).value
    return chi
