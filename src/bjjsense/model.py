"""Two-mode Bose-Hubbard (Josephson) model: Hamiltonian, spectra, thermal states.

The model describes N bosons in two modes through collective spin operators
J_x, J_y, J_z with j = N/2:

    H = -Omega * J_x + zeta * J_z**2 + delta * J_z

In the J_z eigenbasis {|m>, m = -j..j} the Hamiltonian is a real symmetric
tridiagonal matrix: J_z**2 and J_z are diagonal, and J_x couples adjacent m.
The dimensionless control parameter is lambda = N * zeta / Omega, with a
symmetry-breaking quantum phase transition at lambda = -1 (attractive side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np
from scipy.linalg import eigh_tridiagonal

# Levels whose Boltzmann weight relative to the ground state falls below
# this are left out of thermal states; the neglected weight is at most
# dimension * REL_CUTOFF.
REL_CUTOFF = 1e-12

# An untilted ground state is rejected when E_1 - E_0 falls below this many
# units of roundoff, eps * ||H|| (Gershgorin bound).
GAP_ROUNDOFF = 1e3


class EigensolverError(RuntimeError):
    """Raised when the tridiagonal eigensolver fails to converge."""


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the two-mode model.

    Parameters
    ----------
    n_particles : int
        Total boson number N >= 1.  Matrix dimension is N + 1.
    tunneling : float
        Rabi coupling Omega > 0.  Sets the energy unit.
    lambda_control : float
        Dimensionless interaction lambda = N * zeta / Omega.  Negative
        (attractive) values probe the symmetry-breaking transition.
    imbalance : float
        Symmetry-breaking tilt delta, in units of Omega when tunneling is 1.
    """

    n_particles: int
    tunneling: float = 1.0
    lambda_control: float = 0.0
    imbalance: float = 0.0

    def __post_init__(self):
        n = self.n_particles
        if not isinstance(n, Integral) or isinstance(n, bool) or n < 1:
            raise ValueError(f"n_particles must be an integer >= 1, got {n!r}")
        for name in ("tunneling", "lambda_control", "imbalance"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.tunneling <= 0:
            raise ValueError(f"tunneling must be > 0, got {self.tunneling}")

    @property
    def interaction(self) -> float:
        """Bare interaction zeta = lambda * Omega / N."""
        return self.lambda_control * self.tunneling / self.n_particles

    @property
    def dimension(self) -> int:
        return self.n_particles + 1


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Symmetric tridiagonal representation of H in the J_z basis.

    Attributes
    ----------
    diagonal : ndarray, shape (N+1,)
        zeta * m**2 + delta * m for m = -j..j in ascending order.
    offdiagonal : ndarray, shape (N,)
        -(Omega/2) * sqrt(j(j+1) - m(m+1)) coupling |m> and |m+1>.
    params : ModelParams
    """

    diagonal: np.ndarray
    offdiagonal: np.ndarray
    params: ModelParams

    @property
    def dimension(self) -> int:
        return self.diagonal.size

    @property
    def m_values(self) -> np.ndarray:
        j = self.params.n_particles / 2.0
        return np.arange(self.dimension) - j


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues and eigenvectors of a Hamiltonian, ascending order.

    ``eigenvectors[:, k]`` is the k-th eigenstate in the J_z basis.  May hold
    only the lowest part of the spectrum (``n_levels <= dimension``).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    params: ModelParams

    @property
    def n_levels(self) -> int:
        return self.eigenvalues.size

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])


@dataclass(frozen=True)
class ThermalState:
    """Gibbs state on a (possibly truncated) eigenbasis.

    ``weights[k]`` is the normalized Boltzmann weight of ``spectrum``'s k-th
    level.  At temperature zero only the ground state carries weight.
    ``hamiltonian`` is the matrix the levels were solved from, when known.
    """

    spectrum: Spectrum
    weights: np.ndarray
    temperature: float
    hamiltonian: TridiagonalHamiltonian | None = None

    @property
    def rank(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class DistributionOverM:
    """Probability distribution of J_z outcomes m = -j..j.

    Normalized to 1 over the full m grid; probabilities are non-negative by
    construction (Born rule on real amplitudes).
    """

    m_values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        if self.m_values.size != self.probabilities.size:
            raise ValueError(
                f"m grid ({self.m_values.size}) and probabilities "
                f"({self.probabilities.size}) differ in length"
            )

    @property
    def mean(self) -> float:
        return float(self.m_values @ self.probabilities)

    @property
    def variance(self) -> float:
        mu = self.mean
        return float(((self.m_values - mu) ** 2) @ self.probabilities)


def build_hamiltonian(params: ModelParams) -> TridiagonalHamiltonian:
    """Assemble the tridiagonal matrix for the given parameters.

    Parameters
    ----------
    params : ModelParams

    Returns
    -------
    TridiagonalHamiltonian
        Diagonal and first off-diagonal of the real symmetric matrix.
    """
    n = params.n_particles
    j = n / 2.0
    m = np.arange(n + 1, dtype=float) - j
    zeta = params.interaction
    diag = zeta * m * m + params.imbalance * m
    # J_x matrix element between m and m+1: sqrt(j(j+1) - m(m+1)) / 2
    mm = m[:-1]
    off = -0.5 * params.tunneling * np.sqrt(j * (j + 1.0) - mm * (mm + 1.0))
    return TridiagonalHamiltonian(diagonal=diag, offdiagonal=off, params=params)


def _select_sign(vectors: np.ndarray) -> np.ndarray:
    """Fix each eigenvector's overall sign: largest-|amplitude| entry > 0."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _eigh(
    hamiltonian: TridiagonalHamiltonian,
    vectors: bool,
    n_levels: int | None = None,
    window: tuple[float, float] | None = None,
):
    """The one call into the tridiagonal eigensolver.

    Solves for the lowest ``n_levels`` levels (all if None) or, when
    ``window`` = (lo, hi) is given, for the levels with lo < E <= hi.  The
    full spectrum uses the implicit QL/QR algorithm, subsets use bisection
    plus inverse iteration.  Returns the eigenvalues, or (eigenvalues,
    eigenvectors) when ``vectors``.  A 1 x 1 matrix is its own eigenpair.
    """
    d = hamiltonian.diagonal
    if d.size == 1:
        return (d.copy(), np.ones((1, 1))) if vectors else d.copy()
    select, select_range = "a", None
    if window is not None:
        select, select_range = "v", window
    elif n_levels is not None and n_levels != d.size:
        select, select_range = "i", (0, n_levels - 1)
    try:
        return eigh_tridiagonal(
            d, hamiltonian.offdiagonal, eigvals_only=not vectors,
            select=select, select_range=select_range,
        )
    except np.linalg.LinAlgError as err:
        raise EigensolverError(
            f"tridiagonal solver failed for dimension {d.size} "
            f"(params={hamiltonian.params})"
        ) from err


def diagonalize(
    hamiltonian: TridiagonalHamiltonian,
    n_levels: int | None = None,
) -> Spectrum:
    """Solve the symmetric tridiagonal eigenproblem.

    Parameters
    ----------
    hamiltonian : TridiagonalHamiltonian
    n_levels : int, optional
        If given, compute only the lowest ``n_levels`` eigenpairs (bisection
        plus inverse iteration).  Default: the full spectrum via the implicit
        QL/QR algorithm.

    Returns
    -------
    Spectrum
        Ascending eigenvalues; eigenvector signs fixed so the
        largest-magnitude component of each vector is positive.
    """
    dim = hamiltonian.dimension
    if n_levels is not None and not 1 <= n_levels <= dim:
        raise ValueError(f"n_levels must be in [1, {dim}], got {n_levels}")
    vals, vecs = _eigh(hamiltonian, True, n_levels)
    return Spectrum(vals, _select_sign(vecs), hamiltonian.params)


def eigenvalues_only(
    hamiltonian: TridiagonalHamiltonian,
    n_levels: int | None = None,
) -> np.ndarray:
    """Lowest ``n_levels`` eigenvalues (all if None), no eigenvectors."""
    return _eigh(hamiltonian, False, n_levels)


def thermal_state(spectrum: Spectrum, temperature: float) -> ThermalState:
    """Boltzmann weights over the levels of ``spectrum``.

    Weights are exp(-(E_k - E_0)/T) normalized over the retained levels; the
    ground-energy shift keeps the exponentials in range for any spectrum.
    T = 0 is the pure ground state (k_B = 1 throughout).

    Parameters
    ----------
    spectrum : Spectrum
    temperature : float
        T >= 0 in the same units as the eigenvalues.

    Returns
    -------
    ThermalState
    """
    if not temperature >= 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        w = np.zeros(spectrum.n_levels)
        w[0] = 1.0
        return ThermalState(spectrum, w, 0.0)
    shifted = spectrum.eigenvalues - spectrum.eigenvalues[0]
    w = np.exp(-shifted / temperature)
    return ThermalState(spectrum, w / w.sum(), float(temperature))


def _gershgorin(h: TridiagonalHamiltonian, diagonal: np.ndarray) -> float:
    """max_i (diagonal_i + |e_(i-1)| + |e_i|) over the rows of H."""
    off = np.abs(h.offdiagonal)
    return float(np.max(diagonal + np.append(off, 0.0) + np.append(0.0, off)))


def equilibrium_state(params: ModelParams, temperature: float) -> ThermalState:
    """Gibbs state on the thermally occupied levels only.

    T = 0 is the ground state alone.  Without a tilt (imbalance 0) the
    ground state has a mirror partner, and deep in the broken phase their
    splitting E_1 - E_0 falls below roundoff: the computed ground state is
    then an arbitrary mix of the two wells and every chi is noise.  So at
    T = 0 and imbalance 0 the two lowest eigenvalues are computed first, and
    a splitting below GAP_ROUNDOFF * eps * ||H|| = 1e3 eps ||H|| (eps the
    double-precision machine epsilon, ||H|| the Gershgorin bound on |E|)
    raises ValueError: below it the eigenvector error, about
    eps ||H|| / (E_1 - E_0), exceeds 1e-3.  A tilted point takes no extra
    solve.  At T > 0 the ground energy E_0 comes
    first, then one bisection call returns the eigenpairs with
    E - E_0 <= T ln(1 / REL_CUTOFF), i.e. every level whose relative
    Boltzmann weight is at least REL_CUTOFF.  When that bound lies above the
    Gershgorin upper bound of H, every level is occupied and one full QL/QR
    solve replaces the bisection.  The weight left out is at most
    dimension * REL_CUTOFF.

    Parameters
    ----------
    params : ModelParams
    temperature : float
        T >= 0 in units of the tunneling.

    Returns
    -------
    ThermalState
        Carries the Hamiltonian it was solved from.
    """
    if not temperature >= 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    h = build_hamiltonian(params)
    if temperature == 0.0:
        if params.imbalance == 0.0:
            e0, e1 = eigenvalues_only(h, n_levels=2)
            roundoff = np.finfo(float).eps * _gershgorin(h, np.abs(h.diagonal))
            bound = GAP_ROUNDOFF * roundoff
            if e1 - e0 < bound:
                raise ValueError(
                    f"untilted ground state unresolved at N={params.n_particles}, "
                    f"lambda={params.lambda_control}: E1 - E0 = {e1 - e0:.3g} is "
                    f"below the roundoff bound {bound:.3g}; give the junction a "
                    f"nonzero imbalance"
                )
        spectrum = diagonalize(h, n_levels=1)
    else:
        e0 = float(eigenvalues_only(h, n_levels=1)[0])
        top = e0 + temperature * np.log(1.0 / REL_CUTOFF)
        gershgorin = _gershgorin(h, h.diagonal)
        window = None if top > gershgorin else (e0 - 1.0, top)
        vals, vecs = _eigh(h, True, window=window)
        spectrum = Spectrum(vals, _select_sign(vecs), params)
    return replace(thermal_state(spectrum, temperature), hamiltonian=h)


def jz_distribution(state: ThermalState) -> DistributionOverM:
    """J_z outcome distribution P(m) = sum_k w_k |<m|psi_k>|^2.

    Parameters
    ----------
    state : ThermalState

    Returns
    -------
    DistributionOverM
    """
    vecs = state.spectrum.eigenvectors
    probs = (vecs * vecs) @ state.weights
    j = state.spectrum.params.n_particles / 2.0
    m = np.arange(probs.size) - j
    return DistributionOverM(m_values=m, probabilities=probs)
