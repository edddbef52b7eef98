"""Susceptibility scans, finite-size critical points, and scaling studies.

The workflow mirrors a finite-size scaling analysis of the lambda = -1
transition:

1. ``locate_critical_gap``: pseudo-critical lambda_c^(N) from the minimum of
   the E_2 - E_0 gap at zero tilt.
2. ``optimize_delta``: tilt delta* for which the susceptibility peak sits at
   lambda_c^(N).
3. ``scaling_study``: susceptibilities at (lambda_c^(N), delta*) across N,
   fitted to power laws chi/N ~ a N^b.

Every susceptibility is the exact lambda-derivative of the Gibbs state at
one working point (``_point``): one equilibrium solve, plus one tridiagonal
solve per occupied level for the part of the derivative outside the
occupied levels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgtsv
from scipy.optimize import brentq, minimize_scalar

from .model import (
    EigensolverError,
    ModelParams,
    build_hamiltonian,
    eigenvalues_only,
    equilibrium_state,
    jz_distribution,
)

METHODS = ("moment", "classical", "quantum")


@dataclass(frozen=True)
class ScanConfig:
    """Parameters of a susceptibility scan over lambda.

    ``params_template`` supplies N, Omega and delta; its lambda is replaced
    by each grid value in turn.  ``which`` selects the susceptibilities to
    compute.
    """

    params_template: ModelParams
    lambda_grid: np.ndarray
    temperature: float = 0.0
    which: tuple[str, ...] = METHODS

    def __post_init__(self):
        grid = np.asarray(self.lambda_grid, dtype=float)
        if grid.size < 2:
            raise ValueError(f"lambda_grid needs >= 2 points, got {grid.size}")
        if not np.all(np.isfinite(grid)):
            raise ValueError("lambda_grid contains non-finite values")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("lambda_grid must be strictly increasing")
        object.__setattr__(self, "lambda_grid", grid)
        bad = [w for w in self.which if w not in METHODS]
        if bad:
            raise ValueError(f"unknown methods {bad}; valid: {METHODS}")
        if not self.temperature >= 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")


@dataclass(frozen=True)
class PeakEstimate:
    """Location and height of a curve maximum, parabolically refined."""

    lambda_peak: float
    value: float
    index: int
    interior: bool


@dataclass(frozen=True)
class SusceptibilityCurve:
    """Susceptibilities along a lambda grid.

    Arrays are None for methods not requested in the scan.  ``mean_jz`` and
    ``var_jz`` are always filled; they cost nothing beyond the ground-state
    (or thermal) solves already needed.
    """

    lambda_grid: np.ndarray
    mean_jz: np.ndarray
    var_jz: np.ndarray
    chi_mom: np.ndarray | None
    chi_cl: np.ndarray | None
    chi_q: np.ndarray | None
    config: ScanConfig

    def chi(self, method: str) -> np.ndarray:
        arr = {
            "moment": self.chi_mom,
            "classical": self.chi_cl,
            "quantum": self.chi_q,
        }.get(method)
        if arr is None:
            raise ValueError(f"method {method!r} not present in this scan")
        return arr

    def peak(self, method: str) -> PeakEstimate:
        """Maximum of chi(lambda), refined by a local quadratic fit."""
        y = self.chi(method)
        x = self.lambda_grid
        i = int(np.argmax(y))
        if i == 0 or i == x.size - 1:
            return PeakEstimate(float(x[i]), float(y[i]), i, interior=False)
        coeff = np.polyfit(x[i - 1 : i + 2], y[i - 1 : i + 2], 2)
        if coeff[0] >= 0:
            return PeakEstimate(float(x[i]), float(y[i]), i, interior=True)
        vertex = -coeff[1] / (2.0 * coeff[0])
        if not x[i - 1] <= vertex <= x[i + 1]:
            return PeakEstimate(float(x[i]), float(y[i]), i, interior=True)
        value = float(np.polyval(coeff, vertex))
        return PeakEstimate(float(vertex), value, i, interior=True)


@dataclass(frozen=True)
class CriticalPointResult:
    """Finite-size critical point from the excitation-gap minimum."""

    n_particles: int
    lambda_c: float
    gap: float
    levels: tuple[int, int]

    @property
    def shift(self) -> float:
        """Distance to the bulk critical point, -1 - lambda_c^(N) > 0."""
        return -1.0 - self.lambda_c


@dataclass(frozen=True)
class DeltaOptimization:
    """Tilt placing a susceptibility peak at the finite-size critical point."""

    n_particles: int
    method: str
    delta: float
    lambda_c: float
    peak_lambda: float
    peak_offset: float
    within_tolerance: bool


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of y = prefactor * x**exponent in log space."""

    prefactor: float
    exponent: float
    r_squared: float


@dataclass(frozen=True)
class ScalingStudyResult:
    """Per-N optimized susceptibilities and their power-law fits.

    ``delta_star`` and ``chi`` map method name to a per-N array aligned with
    ``n_values``; ``fits`` maps method name to the fit of chi/N against N.
    """

    n_values: np.ndarray
    temperature: float
    lambda_c: np.ndarray
    delta_star: dict[str, np.ndarray]
    chi: dict[str, np.ndarray]
    fits: dict[str, PowerLawFit]
    shift_fit: PowerLawFit


# ---------------------------------------------------------------------------
# scans


def _point(
    params: ModelParams, temperature: float, which: tuple[str, ...]
) -> tuple[float, float, dict[str, float]]:
    """<J_z>, Var(J_z) and the requested chi at one working point.

    The one code path for every susceptibility: one equilibrium solve and
    the exact derivative of the Gibbs state rho = sum_n p_n |n><n|.  With
    V = dH/dlambda = (Omega/N) J_z^2, shifted to zero mean (a constant
    changes no chi):

    * inside the occupied window, <n|drho|k> = G_nk = V_nk (p_n - p_k) /
      (E_n - E_k), written through expm1 so that equal energies give the
      limit -p V_nk / T, and G_nn = dp_n = -p_n (V_nn - <V>) / T;
    * outside it, level n contributes y_n = Q d|n>, the solution of
      (H - E_n) y = -Q V |n> with Q the projector off the window; the
      singular system is consistent, so y is pinned to 0 at the largest
      entry of |n> and the tridiagonal system solved directly.

    Then chi_Q = 2 sum G^2 / (p_n + p_k) + 4 sum p_n |y_n|^2 (the Bures
    metric), chi_cl = sum (dP)^2 / P over the J_z distribution P(m) and
    chi_mom = (m . dP)^2 / Var(J_z), with dP the diagonal of drho.  At T = 0
    all reduce to the ground state: chi_cl = chi_Q = 4 |y_0|^2.
    """
    state = equilibrium_state(params, temperature)
    dist = jz_distribution(state)
    chi: dict[str, float] = {}
    if not which:
        return dist.mean, dist.variance, chi
    h = state.hamiltonian
    energies = state.spectrum.eigenvalues
    u = state.spectrum.eigenvectors
    p = state.weights
    m = dist.m_values
    v = (params.tunneling / params.n_particles) * m * m
    vu = (v - v.mean())[:, None] * u
    vw = u.T @ vu
    g = np.zeros_like(vw)
    if temperature > 0.0:
        beta = 1.0 / temperature
        x = beta * np.abs(energies[:, None] - energies[None, :])
        ratio = np.ones_like(x)
        gapped = x > 0.0
        ratio[gapped] = -np.expm1(-x[gapped]) / x[gapped]
        g = -beta * np.maximum.outer(p, p) * ratio * vw
        vdiag = np.diag(vw)
        np.fill_diagonal(g, -beta * p * (vdiag - p @ vdiag))
    y = np.zeros_like(u)
    if p.size < m.size:
        rhs = u @ vw - vu
        for n in range(p.size):
            pin = int(np.argmax(np.abs(u[:, n])))
            off = h.offdiagonal.copy()
            off[max(pin - 1, 0) : pin + 1] = 0.0
            diag = h.diagonal - energies[n]
            diag[pin] = 1.0
            b = rhs[:, n : n + 1].copy()
            b[pin] = 0.0
            _, _, _, sol, info = dgtsv(off, diag, off, b)
            if info != 0:
                raise EigensolverError(
                    f"tridiagonal solve failed (info={info}) at {params}"
                )
            y[:, n] = sol[:, 0]
        y -= u @ (u.T @ y)
    dp = np.sum((u @ g) * u, axis=1) + 2.0 * (u * y) @ p
    if "quantum" in which:
        bures = 2.0 * np.sum(g * g / np.add.outer(p, p))
        chi["quantum"] = float(bures + 4.0 * p @ np.sum(y * y, axis=0))
    if "classical" in which:
        prob = dist.probabilities
        occupied = prob > 0.0
        chi["classical"] = float(np.sum(dp[occupied] ** 2 / prob[occupied]))
    if "moment" in which:
        var = dist.variance
        if var <= 0:
            raise ValueError(f"non-positive J_z variance {var} at {params}")
        chi["moment"] = float((m @ dp) ** 2 / var)
    return dist.mean, dist.variance, chi


def scan_lambda(config: ScanConfig) -> SusceptibilityCurve:
    """Compute the requested susceptibilities along ``config.lambda_grid``.

    Each grid point takes one equilibrium solve and the exact derivative of
    its Gibbs state, as in ``chi_at_point``, so every chi is a pointwise
    value that does not depend on the neighbouring grid points.

    Returns
    -------
    SusceptibilityCurve
    """
    rows = [
        _point(
            replace(config.params_template, lambda_control=lam),
            config.temperature, config.which,
        )
        for lam in config.lambda_grid
    ]
    chi = {m: np.array([r[2][m] for r in rows]) for m in config.which}
    return SusceptibilityCurve(
        lambda_grid=config.lambda_grid,
        mean_jz=np.array([r[0] for r in rows]),
        var_jz=np.array([r[1] for r in rows]),
        chi_mom=chi.get("moment"),
        chi_cl=chi.get("classical"),
        chi_q=chi.get("quantum"),
        config=config,
    )


def default_lambda_grid(
    lo: float = -1.6, hi: float = -0.4, step: float = 2e-3
) -> np.ndarray:
    """Uniform scan grid; endpoints included when step divides the span."""
    n = int(round((hi - lo) / step))
    return lo + step * np.arange(n + 1)


def chi_at_point(
    params: ModelParams,
    temperature: float = 0.0,
    which: tuple[str, ...] = METHODS,
) -> dict[str, float]:
    """All requested susceptibilities at a single working point.

    Each chi is the exact derivative of the Gibbs state at lambda, from one
    equilibrium solve; ``scan_lambda`` runs the same code at each grid
    point.

    Returns
    -------
    dict mapping method name to chi.
    """
    bad = [w for w in which if w not in METHODS]
    if bad:
        raise ValueError(f"unknown methods {bad}; valid: {METHODS}")
    return _point(params, temperature, which)[2]


def temperature_sweep(
    n_particles: int,
    temperatures,
    lambda_value: float,
    imbalance: float = 2e-3,
    *,
    tunneling: float = 1.0,
    which: tuple[str, ...] = METHODS,
) -> dict[str, np.ndarray]:
    """Susceptibilities against temperature at a fixed working point.

    Returns
    -------
    dict with key "temperature" plus one array per requested method.
    """
    temps = np.asarray(list(temperatures), dtype=float)
    if temps.size < 1:
        raise ValueError("need at least one temperature")
    if not np.all(temps >= 0):
        raise ValueError(f"temperatures must be >= 0, got {temps}")
    params = ModelParams(
        n_particles=n_particles,
        tunneling=tunneling,
        lambda_control=lambda_value,
        imbalance=imbalance,
    )
    points = [chi_at_point(params, float(t), which) for t in temps]
    out = {"temperature": temps}
    out.update({m: np.array([p[m] for p in points]) for m in which})
    return out


# ---------------------------------------------------------------------------
# critical point


def locate_critical_gap(
    n_particles: int,
    lambda_bracket: tuple[float, float] = (-1.5, -0.85),
    *,
    tunneling: float = 1.0,
    levels: tuple[int, int] = (0, 2),
) -> CriticalPointResult:
    """Finite-size critical point lambda_c^(N): minimum of the level gap.

    The default gap E_2 - E_0 pairs the ground state with its second
    excited partner; at zero tilt E_1 merges with E_0 in the broken phase
    and carries no interior minimum.  A coarse 61-point grid over
    ``lambda_bracket`` brackets the minimum, then golden-section search
    refines it to xtol 1e-8.

    Raises
    ------
    ValueError
        If the coarse minimum lands on the bracket edge, i.e. the bracket
        does not enclose an interior minimum.
    """
    lo, hi = lambda_bracket
    if not lo < hi:
        raise ValueError(f"invalid bracket {lambda_bracket}")
    lower, upper = sorted(levels)
    if lower == upper:
        raise ValueError(f"levels must differ, got {levels}")
    k = upper + 1
    params = ModelParams(n_particles=n_particles, tunneling=tunneling)

    def gap(lam: float) -> float:
        ev = eigenvalues_only(
            build_hamiltonian(replace(params, lambda_control=lam)), k
        )
        return float(ev[upper] - ev[lower])

    grid = np.linspace(lo, hi, 61)
    gaps = np.array([gap(lam) for lam in grid])
    i = int(np.argmin(gaps))
    if i == 0 or i == grid.size - 1:
        raise ValueError(
            f"gap minimum at bracket edge lambda={grid[i]:.6g}; widen "
            f"lambda_bracket={lambda_bracket}"
        )
    res = minimize_scalar(
        gap,
        bracket=(grid[i - 1], grid[i], grid[i + 1]),
        method="golden",
        options={"xtol": 1e-8},
    )
    lam_c = float(res.x)
    return CriticalPointResult(
        n_particles=n_particles,
        lambda_c=lam_c,
        gap=float(res.fun),
        levels=(lower, upper),
    )


# ---------------------------------------------------------------------------
# delta optimization


def default_delta_grid() -> np.ndarray:
    return np.logspace(-6.0, -1.0, 25)


def _peak_window(n_particles: int, lambda_c: float, n_points: int) -> np.ndarray:
    # Width ~ N^(-2/3) tracks the narrowing critical region.
    half = 8.0 * n_particles ** (-2.0 / 3.0)
    return np.linspace(lambda_c - half, lambda_c + half, n_points)


def optimize_delta(
    n_particles: int,
    method: str,
    *,
    temperature: float = 0.0,
    lambda_c: float | None = None,
    delta_grid: np.ndarray | None = None,
    window_points: int = 41,
    tunneling: float = 1.0,
) -> DeltaOptimization:
    """Tilt delta* whose chi(lambda) peak is closest to lambda_c^(N).

    Scans ``delta_grid`` (default: 25 points, logarithmic over
    [1e-6, 1e-1]); ties break toward smaller delta.  When the peak offset
    changes sign across the grid, a root find in log(delta) refines delta*
    to the crossing.  The returned ``within_tolerance`` flag records
    whether the final offset is below half a window-grid step.

    Parameters
    ----------
    n_particles : int
    method : str
        "moment", "classical" or "quantum".
    lambda_c : float, optional
        Precomputed finite-size critical point; located via the gap
        minimum at zero tilt when omitted.

    Returns
    -------
    DeltaOptimization
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; valid: {METHODS}")
    if lambda_c is None:
        lambda_c = locate_critical_gap(n_particles, tunneling=tunneling).lambda_c
    return _optimize_deltas(
        n_particles, (method,), temperature, lambda_c, delta_grid,
        window_points, tunneling,
    )[method]


def _optimize_deltas(
    n_particles: int,
    methods: tuple[str, ...],
    temperature: float,
    lambda_c: float,
    delta_grid: np.ndarray | None,
    window_points: int,
    tunneling: float,
) -> dict[str, DeltaOptimization]:
    """``optimize_delta`` for several methods, scanning each grid tilt once.

    The window scan at every tilt of the grid computes all ``methods``
    together; the bracket and the root find then run per method.  Peak
    offsets are kept per (delta, method), so no window is scanned twice
    for one method: ``brentq`` returns a tilt it has already evaluated,
    and its bracket ends are often grid tilts.
    """
    deltas = default_delta_grid() if delta_grid is None else np.asarray(delta_grid)
    if deltas.size < 2 or np.any(deltas <= 0):
        raise ValueError("delta_grid must hold >= 2 positive values")
    deltas = np.sort(deltas)
    window = _peak_window(n_particles, lambda_c, window_points)
    tol = 0.5 * (window[1] - window[0])

    known: dict[tuple[float, str], float | None] = {}

    def offsets(delta: float, which: tuple[str, ...]) -> dict[str, float | None]:
        todo = tuple(m for m in which if (delta, m) not in known)
        if todo:
            curve = scan_lambda(ScanConfig(
                params_template=ModelParams(
                    n_particles=n_particles, tunneling=tunneling, imbalance=delta
                ),
                lambda_grid=window,
                temperature=temperature,
                which=todo,
            ))
            for m in todo:
                peak = curve.peak(m)
                known[delta, m] = (
                    peak.lambda_peak - lambda_c if peak.interior else None
                )
        return {m: known[delta, m] for m in which}

    grid_offsets = [offsets(d, methods) for d in deltas]
    result = {}
    for method in methods:
        valid = [
            (d, o[method]) for d, o in zip(deltas, grid_offsets)
            if o[method] is not None
        ]
        if not valid:
            raise ValueError(
                f"no delta in [{deltas[0]:.3g}, {deltas[-1]:.3g}] produced an "
                f"interior peak for method {method!r}"
            )
        # min keeps the first, i.e. the smaller, delta on ties.
        best_delta, best_off = min(valid, key=lambda v: abs(v[1]))
        bracket = None
        for (d1, o1), (d2, o2) in zip(valid[:-1], valid[1:]):
            if o1 * o2 < 0:
                bracket = (d1, d2)
                break
        if bracket is not None:
            log_star = brentq(
                lambda u: offsets(float(np.exp(u)), (method,))[method],
                np.log(bracket[0]),
                np.log(bracket[1]),
                xtol=1e-3,
            )
            cand = float(np.exp(log_star))
            cand_off = offsets(cand, (method,))[method]
            if cand_off is not None and abs(cand_off) < abs(best_off):
                best_delta, best_off = cand, cand_off
        result[method] = DeltaOptimization(
            n_particles=n_particles,
            method=method,
            delta=float(best_delta),
            lambda_c=float(lambda_c),
            peak_lambda=float(lambda_c + best_off),
            peak_offset=float(best_off),
            within_tolerance=bool(abs(best_off) <= tol),
        )
    return result


# ---------------------------------------------------------------------------
# power laws and the scaling study


def fit_power_law(x: np.ndarray, y: np.ndarray) -> PowerLawFit:
    """Fit y = a x^b by least squares on (log x, log y).

    Raises
    ------
    ValueError
        For fewer than 3 points or non-positive data.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError(f"length mismatch: x {x.size}, y {y.size}")
    if x.size < 3:
        raise ValueError(f"need >= 3 points for a power-law fit, got {x.size}")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit requires positive x and y")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(
        prefactor=float(np.exp(intercept)),
        exponent=float(slope),
        r_squared=float(r2),
    )


def scaling_study(
    n_values=(200, 300, 500, 700, 1000),
    temperature: float = 0.0,
    *,
    delta_grid: np.ndarray | None = None,
    window_points: int = 41,
    tunneling: float = 1.0,
) -> ScalingStudyResult:
    """Optimized susceptibilities against N with power-law fits.

    Per N: locate lambda_c^(N), optimize delta separately for each method
    (their peaks sit at slightly different tilts; one window scan per grid
    tilt serves all three), then evaluate chi at (lambda_c^(N), delta*).  Fits are chi/N against N for each method,
    plus the critical-point shift -1 - lambda_c^(N) against N.

    Returns
    -------
    ScalingStudyResult
    """
    n_values = np.asarray(list(n_values), dtype=int)
    if n_values.size < 3:
        raise ValueError(f"need >= 3 system sizes, got {n_values.size}")
    lambda_c = np.empty(n_values.size)
    delta_star = {m: np.empty(n_values.size) for m in METHODS}
    chi = {m: np.empty(n_values.size) for m in METHODS}
    for i, n in enumerate(n_values):
        crit = locate_critical_gap(int(n), tunneling=tunneling)
        lambda_c[i] = crit.lambda_c
        opts = _optimize_deltas(
            int(n), METHODS, temperature, crit.lambda_c, delta_grid,
            window_points, tunneling,
        )
        for m, opt in opts.items():
            delta_star[m][i] = opt.delta
            point = chi_at_point(
                ModelParams(
                    n_particles=int(n),
                    tunneling=tunneling,
                    lambda_control=crit.lambda_c,
                    imbalance=opt.delta,
                ),
                temperature=temperature,
                which=(m,),
            )
            chi[m][i] = point[m]
    fits = {
        m: fit_power_law(n_values, chi[m] / n_values) for m in METHODS
    }
    shift_fit = fit_power_law(n_values, -1.0 - lambda_c)
    return ScalingStudyResult(
        n_values=n_values,
        temperature=temperature,
        lambda_c=lambda_c,
        delta_star=delta_star,
        chi=chi,
        fits=fits,
        shift_fit=shift_fit,
    )
