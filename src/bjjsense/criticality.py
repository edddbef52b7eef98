"""Susceptibility scans, finite-size critical points, and scaling studies.

The workflow mirrors a finite-size scaling analysis of the lambda = -1
transition:

1. ``locate_critical_gap``: pseudo-critical lambda_c^(N), the root of the
   lambda-slope of the E_2 - E_0 gap at zero tilt.
2. ``optimize_delta``: tilt delta* for which the susceptibility peak sits at
   lambda_c^(N).
3. ``scaling_study``: susceptibilities at (lambda_c^(N), delta*) across N,
   fitted to power laws chi/N ~ a N^b.

Every susceptibility is the exact lambda-derivative of the Gibbs state at
its working point (``_points``): one equilibrium solve per point, plus one
block tridiagonal solve (``model._outside``) for the part of the derivative
outside the occupied levels.  A scan's whole window is one stack of points,
and one derivative gives all three chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .model import (
    GAP_ROUNDOFF, ModelParams, _outside, _parity_levels, _spin, _states,
)

METHODS = ("moment", "classical", "quantum")


@dataclass(frozen=True)
class ScanConfig:
    """Parameters of a susceptibility scan over lambda.

    ``params_template`` supplies N and delta; its lambda is replaced by
    each grid value in turn.  The temperature is in units of Omega.
    ``which`` selects the susceptibilities returned; one derivative gives
    all three, and an empty ``which`` skips it.
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
        """Maximum of chi(lambda), refined by the parabola through the grid
        maximum and its two neighbors (the grid point itself where that
        parabola is not concave or its vertex leaves the three points)."""
        return _peak(self.lambda_grid, self.chi(method))


def _peak(x: np.ndarray, y: np.ndarray) -> PeakEstimate:
    """``SusceptibilityCurve.peak`` of the curve y(x)."""
    i = int(y.argmax())
    if i == 0 or i == x.size - 1:
        return PeakEstimate(float(x[i]), float(y[i]), i, interior=False)
    x0, x1, x2 = x[i - 1 : i + 2].tolist()
    y0, y1, y2 = y[i - 1 : i + 2].tolist()
    # y = y1 + b (x - x1) + c (x - x1)^2 from the divided differences
    left, right = (y1 - y0) / (x1 - x0), (y2 - y1) / (x2 - x1)
    c = (right - left) / (x2 - x0)
    if not c < 0:
        return PeakEstimate(x1, y1, i, interior=True)
    b = left + c * (x1 - x0)
    vertex = x1 - b / (2.0 * c)
    if not x0 <= vertex <= x2:
        return PeakEstimate(x1, y1, i, interior=True)
    return PeakEstimate(vertex, y1 - b * b / (4.0 * c), i, interior=True)


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
    """Tilt placing a susceptibility peak at lambda_c^(N), and chi there.

    ``bracketed`` is False when the peak offset never changed sign over the
    tilts searched: there is no delta*, and ``delta``, ``peak_lambda``,
    ``peak_offset`` and ``chi`` are NaN (``within_tolerance`` False).
    """

    n_particles: int
    method: str
    delta: float
    lambda_c: float
    peak_lambda: float
    peak_offset: float
    within_tolerance: bool
    chi: float
    bracketed: bool


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
    ``n_values``, NaN where the tilt search found no delta*; ``fits`` maps
    method name to the fit of chi/N against N over the finite rows.
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


def _points(
    params: ModelParams,
    lambdas: np.ndarray,
    temperature: float,
    which: tuple[str, ...],
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray], np.ndarray | None]:
    """<J_z>, Var(J_z), the chi of the methods in ``which`` and, at T = 0,
    the ground states (B, N+1) at each of ``lambdas``.

    The one code path for every susceptibility: N and delta come from
    ``params``, the states from ``equilibrium_states`` (warm-started from
    the ground states ``start`` of a nearby tilt, if given), and each stack
    of points it yields goes through array expressions at once.  One
    derivative serves all three chi: unless ``which`` is empty, which skips
    it, all three are computed at every point and those in ``which``
    returned.  Each chi is the exact derivative of the Gibbs state rho =
    sum_n p_n |n><n| at its point.  With V = dH/dlambda = J_z^2 / N,
    shifted to zero mean (a constant changes no chi):

    * inside the occupied window, <n|drho|k> = G_nk = V_nk (p_n - p_k) /
      (E_n - E_k), written through expm1 so that equal energies give the
      limit -p V_nk / T, and G_nn = dp_n = -p_n (V_nn - <V>) / T;
    * outside it, level n contributes y_n = Q d|n>, the solution of
      (H - E_n) y = -Q V |n> with Q the projector off the window; the
      singular system is consistent, so y is pinned to 0 at the largest
      entry of |n>.  The systems of every level of every point of a stack
      are the blocks of one block-diagonal system, solved by one ``dgtsv``
      call (``model._outside``).

    Then chi_Q = 2 sum G^2 / (p_n + p_k) + 4 sum p_n |y_n|^2 (the Bures
    metric), chi_cl = sum (dP)^2 / P over the J_z distribution P(m) and
    chi_mom = (m . dP)^2 / Var(J_z), with dP the diagonal of drho.  At T = 0
    all reduce to the ground state: chi_cl = chi_Q = 4 |y_0|^2.  A
    non-positive Var(J_z) raises ValueError when ``"moment"`` is in
    ``which``.
    """
    m, v, _ = _spin(params.n_particles)
    mean, var = np.empty(lambdas.size), np.empty(lambdas.size)
    chi = {w: np.empty(lambdas.size) for w in METHODS}
    ground = np.empty((lambdas.size, m.size)) if temperature == 0.0 else None
    for first, s in _states(params, lambdas, temperature, start):
        at = slice(first, first + s.size)
        # Eigenvectors are rows: u[b, k] is level k at point b.
        u, p = s.vectors, s.weights
        if ground is not None:
            ground[at] = u[:, 0]
        prob = s.probabilities
        # Row sums, not matrix-vector products, whose rounding depends on the
        # stack's size: a point's numbers do not depend on its stack.
        mean[at] = (prob * m).sum(axis=1)
        var[at] = ((m - mean[at, None]) ** 2 * prob).sum(axis=1)
        if not which:
            continue
        bad = var[at] <= 0
        if "moment" in which and bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"non-positive J_z variance {var[at][i]} at "
                f"{replace(params, lambda_control=float(lambdas[first + i]))}"
            )
        vu = u * v
        vw = u @ vu.swapaxes(1, 2)
        if p.shape[1] < m.size:
            y = _outside(s, vw.swapaxes(1, 2) @ u - vu, params, lambdas[at])
            y -= (y @ u.swapaxes(1, 2)) @ u
        else:
            y = np.zeros_like(u)
        dp = 2.0 * (p[:, None, :] @ (u * y))[:, 0]
        bures = 0.0
        if temperature > 0.0:
            beta = 1.0 / temperature
            e = s.energies
            x = beta * np.abs(e[:, :, None] - e[:, None, :])
            ratio = np.ones_like(x)
            gapped = x > 0.0
            ratio[gapped] = -np.expm1(-x[gapped]) / x[gapped]
            g = -beta * np.maximum(p[:, :, None], p[:, None, :]) * ratio * vw
            vdiag = np.diagonal(vw, axis1=1, axis2=2)
            level = np.arange(p.shape[1])
            g[:, level, level] = -beta * p * (
                vdiag - np.sum(p * vdiag, axis=1, keepdims=True)
            )
            dp += np.sum(u * (g.swapaxes(1, 2) @ u), axis=1)
            bures = np.sum(g * g / (p[:, :, None] + p[:, None, :]), axis=(1, 2))
        chi["quantum"][at] = 2.0 * bures + 4.0 * (p * (y * y).sum(axis=2)).sum(axis=1)
        # (dP)^2 / P where P > 0; an empty entry of P(m) adds nothing.
        fisher = np.divide(dp * dp, prob, out=np.zeros_like(dp), where=prob > 0.0)
        chi["classical"][at] = fisher.sum(axis=1)
        # A zero Var(J_z) has raised above, unless chi_mom is dropped.
        with np.errstate(divide="ignore", invalid="ignore"):
            chi["moment"][at] = (dp * m).sum(axis=1) ** 2 / var[at]
    return mean, var, {w: chi[w] for w in which}, ground


def scan_lambda(config: ScanConfig) -> SusceptibilityCurve:
    """Compute the requested susceptibilities along ``config.lambda_grid``.

    Each grid point takes one equilibrium solve and the exact derivative of
    its Gibbs state, as in ``chi_at_point``, so every chi is a pointwise
    value that does not depend on the neighbouring grid points.  The grid
    is one stack: its points are solved and differentiated together.

    Returns
    -------
    SusceptibilityCurve
    """
    mean, var, chi, _ = _points(
        config.params_template, config.lambda_grid, config.temperature,
        config.which,
    )
    return SusceptibilityCurve(
        lambda_grid=config.lambda_grid,
        mean_jz=mean,
        var_jz=var,
        chi_mom=chi.get("moment"),
        chi_cl=chi.get("classical"),
        chi_q=chi.get("quantum"),
        config=config,
    )


def default_lambda_grid(
    lo: float = -1.6, hi: float = -0.4, step: float = 2e-3
) -> np.ndarray:
    """Uniform scan grid from lo up to hi; hi included when step divides the span."""
    if not (-math.inf < lo < hi < math.inf and 0 < step < math.inf):
        raise ValueError(f"lambda grid needs finite lo < hi, step > 0: {lo, hi, step}")
    # the tolerance keeps hi when roundoff puts the span a hair below n steps
    n = math.floor((hi - lo) / step * (1.0 + 1e-9))
    return lo + step * np.arange(n + 1)


def chi_at_point(
    params: ModelParams,
    temperature: float = 0.0,
    which: tuple[str, ...] = METHODS,
) -> dict[str, float]:
    """All requested susceptibilities at a single working point.

    Each chi is the exact derivative of the Gibbs state at lambda, from one
    equilibrium solve; ``scan_lambda`` runs the same code on a stack of
    grid points, this is a stack of one.

    Returns
    -------
    dict mapping method name to chi.
    """
    bad = [w for w in which if w not in METHODS]
    if bad:
        raise ValueError(f"unknown methods {bad}; valid: {METHODS}")
    lam = np.array([params.lambda_control], dtype=float)
    chi = _points(params, lam, temperature, which)[2]
    return {m: float(c[0]) for m, c in chi.items()}


def temperature_sweep(
    n_particles: int,
    temperatures,
    lambda_value: float,
    imbalance: float = 2e-3,
    *,
    which: tuple[str, ...] = METHODS,
) -> dict[str, np.ndarray]:
    """Susceptibilities against temperature at a fixed working point.

    Temperatures and the tilt ``imbalance`` are in units of Omega.

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
        n_particles=n_particles, lambda_control=lambda_value, imbalance=imbalance
    )
    points = [chi_at_point(params, float(t), which) for t in temps]
    out = {"temperature": temps}
    out.update({m: np.array([p[m] for p in points]) for m in which})
    return out


# ---------------------------------------------------------------------------
# root search


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Root of ``f`` in [xa, xb] by Brent's method.

    A line-for-line port of ``scipy.optimize.brentq`` at its default
    relative tolerance 4 eps and 100 iterations (the C routine
    ``Zeros/brentq.c`` and its wrapper's NaN check), so it evaluates the
    same abscissae and returns the same root bit for bit.  A function value
    that is not a real number raises TypeError, NaN raises ValueError, as
    do ends of equal sign; no convergence in 100 iterations raises
    RuntimeError.
    """
    rtol = 4.0 * np.finfo(float).eps

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return float(fx)

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after 100 iterations, value is {xcur}")


# ---------------------------------------------------------------------------
# critical point


def locate_critical_gap(
    n_particles: int,
    lambda_bracket: tuple[float, float] = (-1.5, -0.85),
    *,
    levels: tuple[int, int] = (0, 2),
) -> CriticalPointResult:
    """Finite-size critical point lambda_c^(N): minimum of the level gap.

    The default gap E_2 - E_0 pairs the ground state with its second
    excited partner; at zero tilt E_1 merges with E_0 in the broken phase
    and carries no interior minimum.  The gap's slope is <upper|V|upper> -
    <lower|V|lower> (Hellmann-Feynman, V = J_z**2 / N), both levels from the
    parity blocks of the untilted H.  A 14-point grid over ``lambda_bracket``
    brackets its - to + sign change next to the smallest gap, and
    ``_brentq`` refines that root to xtol 1e-12.

    Raises
    ------
    ValueError
        If ``lambda_bracket`` is not finite lo < hi, ``levels`` are not two
        different levels of the spectrum, or no resolved - to + sign change
        of the slope lies next to the grid's smallest gap.
    """
    if not (len(lambda_bracket) == 2
            and -math.inf < lambda_bracket[0] < lambda_bracket[1] < math.inf):
        raise ValueError(f"lambda_bracket must be finite lo < hi, got {lambda_bracket}")
    lo, hi = lambda_bracket
    if not (len(levels) == 2 and all(isinstance(v, Integral) for v in levels)
            and 0 <= min(levels) < max(levels) <= n_particles):
        raise ValueError(
            f"levels must be two different integer levels in [0, {n_particles}], "
            f"got {levels}"
        )
    levels = tuple(sorted(levels))

    def gaps(lams) -> tuple[np.ndarray, np.ndarray]:
        energies, slopes = _parity_levels(n_particles, lams, levels)
        return energies[:, 1] - energies[:, 0], slopes[:, 1] - slopes[:, 0]

    grid = np.linspace(lo, hi, 14)
    gap, slope = gaps(grid)
    i = int(np.argmin(gap))
    k = i if slope[i] < 0 else i - 1
    # A gap below GAP_ROUNDOFF eps ||H|| (N (1 + |lambda|) bounds ||H||) is
    # roundoff: the levels have merged, and the slope's sign is noise.
    eps_h = np.finfo(float).eps * n_particles * (1.0 + max(abs(lo), abs(hi)))
    bracketed = 0 <= k < grid.size - 1 and slope[k] < 0 <= slope[k + 1]
    if gap[i] < GAP_ROUNDOFF * eps_h or not bracketed:
        raise ValueError(
            f"no interior gap minimum in lambda_bracket={lambda_bracket}: the "
            f"smallest grid gap is {gap[i]:.3g}, at lambda={grid[i]:.6g}"
        )
    # (gap, slope) at each lambda the root find evaluates, seeded with its
    # bracket ends: each row is solved on its own, so the grid's rows are
    # what a one-point solve gives
    seen = {float(grid[j]): (gap[j], slope[j]) for j in (k, k + 1)}

    def slope_at(lam: float) -> float:
        if lam not in seen:
            g, s = gaps(lam)
            seen[lam] = (g[0], s[0])
        return seen[lam][1]

    # _brentq returns a lambda it has evaluated
    lam_c = _brentq(slope_at, grid[k], grid[k + 1], 1e-12)
    return CriticalPointResult(
        n_particles=n_particles,
        lambda_c=float(lam_c),
        gap=float(seen[lam_c][0]),
        levels=levels,
    )


# ---------------------------------------------------------------------------
# delta optimization


def default_delta_grid() -> np.ndarray:
    return np.logspace(-6.0, -1.0, 25)


def _peak_window(n_particles: int, lambda_c: float, n_points: int) -> np.ndarray:
    """``n_points`` (odd) evenly spaced lambdas over lambda_c +- 8 N^(-2/3),
    the middle one lambda_c exactly."""
    # Width ~ N^(-2/3) tracks the narrowing critical region.
    half = 8.0 * n_particles ** (-2.0 / 3.0)
    k = n_points // 2
    return lambda_c + np.arange(-k, k + 1) / k * half


def optimize_delta(
    n_particles: int,
    method: str,
    *,
    temperature: float = 0.0,
    lambda_c: float | None = None,
    delta_grid: np.ndarray | None = None,
    window_points: int = 41,
) -> DeltaOptimization:
    """Tilt delta* whose chi(lambda) peak is closest to lambda_c^(N).

    Scans ``delta_grid`` (default: 25 points, logarithmic over
    [1e-6, 1e-1]) upward, and stops at the first sign change of the peak
    offset, the bracket of a root find in log(delta) that refines delta*
    to the crossing.  Without a sign change it scans the whole grid and
    reports no delta*: ``bracketed`` False, delta* and chi NaN.
    delta* is the tilt of smallest |offset| among the grid tilts scanned
    and the root find's tilts; ties break toward smaller delta.  The
    returned ``within_tolerance`` flag records whether the final offset is
    below half a window-grid step.  A window is ``window_points`` (odd)
    lambdas centred on lambda_c: the returned ``chi`` is its middle point's
    at delta*.  At T = 0 each window's ground states start from those of a
    solved tilt: on the grid from the grid tilt below it, in the root find
    from the nearest in log(delta) of the bracket ends and the root find's
    own tilts (see ``_optimize_deltas``).

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
    deltas = _tilt_grid(delta_grid, window_points)
    if lambda_c is None:
        lambda_c = locate_critical_gap(n_particles).lambda_c
    return _optimize_deltas(
        n_particles, (method,), temperature, lambda_c, deltas, window_points
    )[method]


def _tilt_grid(delta_grid: np.ndarray | None, window_points: int) -> np.ndarray:
    """The sorted tilt grid of a tilt search, checked with its window size."""
    if window_points < 3:
        raise ValueError(
            f"window_points < 3 leaves no interior peak, got {window_points}"
        )
    if window_points % 2 == 0:
        raise ValueError(f"window_points must be odd, got {window_points}")
    deltas = default_delta_grid() if delta_grid is None else np.asarray(delta_grid)
    if deltas.size < 2 or not np.all((deltas > 0) & (deltas < np.inf)):
        raise ValueError("delta_grid must hold >= 2 positive finite values")
    return np.sort(deltas)


def _optimize_deltas(
    n_particles: int,
    methods: tuple[str, ...],
    temperature: float,
    lambda_c: float,
    deltas: np.ndarray,
    window_points: int,
) -> dict[str, DeltaOptimization]:
    """``optimize_delta`` for several methods, scanning each tilt once.

    ``deltas`` comes sorted from ``_tilt_grid``, which has checked it with
    ``window_points``.  One window scan per tilt gives the peak offsets of
    every searched method and, at the window's middle point lambda_c, the
    chi of all three, kept as one row per tilt: each result's ``chi`` is
    its method's chi there at its delta*.  The grid is scanned upward
    until every searched method has its bracket, the first sign
    change of its offset between consecutive tilts with an offset; the
    tilts above the last bracket are never scanned.  So each method's
    delta* is the smallest |offset| among the grid tilts up to the last
    bracket and its root-find tilts: the full grid's answer unless a tilt
    above held a strictly smaller |offset|.  A method without a bracket has
    no delta*: its result is NaN and not ``bracketed``, however small its
    best |offset|, since a flat curve's argmax can fall next to lambda_c by
    chance.  The root find then runs per method, and a tilt that any search
    has scanned, on the grid or in a root find, is never scanned again
    (``_brentq`` returns a tilt it has already evaluated, and the searches
    often share bracket ends).  At T = 0, since the ground state is real with positive
    amplitudes, chi_Q equals chi_cl and the quantum tilt is the classical
    one: when both are asked for, only the classical one is searched, and
    the quantum result takes its tilt with the window's own chi_Q.

    At T = 0 each window's ground states start from those of a nearby
    tilt, so most of them need no bisection.  The grid is a ladder: each
    grid tilt starts from the one below it.  A root-find tilt starts from
    the nearest, in log delta, of the windows whose states the search
    keeps: the ends of each bracket (the grid tilts next to its root) and
    the windows its own root find has solved.  The states of any other
    window are dropped as soon as no rule can pick them, so the search
    holds a few windows' states per method, however long the grid.
    """
    shared = temperature == 0.0 and {"classical", "quantum"} <= set(methods)
    searched = tuple(m for m in methods if not (shared and m == "quantum"))
    window = _peak_window(n_particles, lambda_c, window_points)
    tol = 0.5 * (window[1] - window[0])
    middle = window_points // 2  # window[middle] == lambda_c

    # per scanned tilt: each searched method's peak offset, each method's
    # chi at lambda_c and, while a rule below can pick them, the window's
    # ground states (None at T > 0)
    known: dict[float, dict[str, float | None]] = {}
    chi_c: dict[float, dict[str, float]] = {}
    states: dict[float, np.ndarray | None] = {}

    def scan(delta: float, start: np.ndarray | None) -> np.ndarray | None:
        """Solve the window at ``delta``, record its row and return its
        ground states."""
        _, _, chi, ground = _points(
            ModelParams(n_particles=n_particles, imbalance=delta), window,
            temperature, METHODS, start,
        )
        peaks = {m: _peak(window, chi[m]) for m in searched}
        known[delta] = {
            m: peak.lambda_peak - lambda_c if peak.interior else None
            for m, peak in peaks.items()
        }
        chi_c[delta] = {m: float(c[middle]) for m, c in chi.items()}
        return ground

    # per method: the (tilt, offset) nearest the peak so far, the bracket of
    # its first sign change and, on the ladder, the last tilt with an offset
    best: dict[str, tuple[float, float]] = {}
    bracket: dict[str, tuple[float, float]] = {}
    below: dict[str, tuple[float, float]] = {}

    def keep(*tilts: float) -> None:
        """Drop the states of every window but ``tilts`` and the bracket ends."""
        wanted = {*tilts, *(d for ends in bracket.values() for d in ends)}
        for d in states.keys() - wanted:
            del states[d]

    ground = None
    for d in map(float, deltas):
        states[d] = ground = scan(d, ground)
        for m, off in known[d].items():
            if off is None:
                continue
            # strict: the first, i.e. the smaller, delta wins a tie
            if m not in best or abs(off) < abs(best[m][1]):
                best[m] = (d, off)
            if m not in bracket and m in below and below[m][1] * off < 0:
                bracket[m] = (below[m][0], d)
            below[m] = (d, off)
        keep(*(below[m][0] for m in below if m not in bracket))
        if len(bracket) == len(searched):
            # Brent's method needs only the brackets, and a root-find tilt,
            # inside its bracket, is nearer the upper end than any tilt above
            break

    # exp(log d) is often d one ulp off: a log-tilt of the grid maps back to
    # its grid tilt, so that a bracket end or a root on one is not scanned
    # again
    on_grid = {float(np.log(d)): float(d) for d in deltas}

    def tilt(u: float) -> float:
        return on_grid.get(float(u), float(np.exp(u)))

    for method in searched:
        if method in bracket:

            def offset(u: float) -> float | None:
                delta = tilt(u)
                if delta not in known:
                    near = min(states, key=lambda d: abs(math.log(d / delta)))
                    states[delta] = scan(delta, states[near])
                return known[delta][method]

            log_star = _brentq(
                offset, np.log(bracket[method][0]), np.log(bracket[method][1]),
                1e-3,
            )
            cand_off = offset(log_star)
            if cand_off is not None and abs(cand_off) < abs(best[method][1]):
                best[method] = (tilt(log_star), cand_off)
            keep()
    result = {}
    for method in methods:
        source = "classical" if shared and method == "quantum" else method
        if source in bracket:
            delta, off = best[source]
            chi = chi_c[delta][method]
        else:
            delta = off = chi = math.nan
        result[method] = DeltaOptimization(
            n_particles=n_particles, method=method, delta=delta,
            lambda_c=float(lambda_c), peak_lambda=float(lambda_c + off),
            peak_offset=float(off), within_tolerance=bool(abs(off) <= tol),
            chi=chi, bracketed=source in bracket,
        )
    return result


# ---------------------------------------------------------------------------
# power laws and the scaling study


def fit_power_law(x: np.ndarray, y: np.ndarray) -> PowerLawFit:
    """Fit y = a x^b by least squares on (log x, log y).

    Raises
    ------
    ValueError
        For fewer than 3 points or non-finite or non-positive data.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError(f"length mismatch: x {x.size}, y {y.size}")
    if x.size < 3:
        raise ValueError(f"need >= 3 points for a power-law fit, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("power-law fit requires finite x and y")
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


def _fit_finite(x: np.ndarray, y: np.ndarray) -> PowerLawFit:
    """``fit_power_law`` over the rows where ``y`` is finite; all NaN with
    fewer than 3 such rows."""
    finite = np.isfinite(y)
    if np.count_nonzero(finite) < 3:
        return PowerLawFit(prefactor=math.nan, exponent=math.nan, r_squared=math.nan)
    return fit_power_law(x[finite], y[finite])


def scaling_study(
    n_values=(200, 300, 500, 700, 1000),
    temperature: float = 0.0,
    *,
    delta_grid: np.ndarray | None = None,
    window_points: int = 41,
) -> ScalingStudyResult:
    """Optimized susceptibilities against N with power-law fits.

    Per N: locate lambda_c^(N), optimize delta separately for each method
    (their peaks sit at slightly different tilts; one window scan per tilt
    serves all three, at T = 0 the quantum tilt is the classical one, and
    the grid is scanned up to the last method's bracket only, so delta* is
    the smallest |offset| among those grid tilts and the root-find tilts),
    and take each method's chi at (lambda_c^(N), delta*) from the middle
    point of its delta* window (``DeltaOptimization.chi``): at T > 0 that
    is ``chi_at_point``'s value bit for bit, at T = 0 it agrees to roundoff
    (the window starts warm).  Fits are chi/N against N for each method,
    plus the critical-point shift -1 - lambda_c^(N) against N, each over
    its finite rows only: a size whose search found no delta* has NaN
    delta* and chi, and a quantity with fewer than 3 finite rows gets a
    NaN fit.

    Raises
    ------
    ValueError
        For a size that is not an integer >= 1, fewer than 3 sizes or a
        repeated size, an even ``window_points``, and as the searches do.

    Returns
    -------
    ScalingStudyResult
    """
    # every size by the rule of ModelParams (an integer >= 1), before any solve
    n_values = np.array([ModelParams(n).n_particles for n in n_values], dtype=int)
    if n_values.size < 3:
        raise ValueError(f"need >= 3 system sizes, got {n_values.size}")
    if len(set(n_values.tolist())) < n_values.size:
        raise ValueError(f"system sizes must be distinct, got {n_values.tolist()}")
    deltas = _tilt_grid(delta_grid, window_points)
    lambda_c = np.empty(n_values.size)
    delta_star = {m: np.empty(n_values.size) for m in METHODS}
    chi = {m: np.empty(n_values.size) for m in METHODS}
    for i, n in enumerate(n_values):
        crit = locate_critical_gap(int(n))
        lambda_c[i] = crit.lambda_c
        opts = _optimize_deltas(
            int(n), METHODS, temperature, crit.lambda_c, deltas, window_points
        )
        for m, opt in opts.items():
            delta_star[m][i], chi[m][i] = opt.delta, opt.chi
    fits = {m: _fit_finite(n_values, chi[m] / n_values) for m in METHODS}
    shift_fit = _fit_finite(n_values, -1.0 - lambda_c)
    return ScalingStudyResult(
        n_values=n_values,
        temperature=temperature,
        lambda_c=lambda_c,
        delta_star=delta_star,
        chi=chi,
        fits=fits,
        shift_fit=shift_fit,
    )
