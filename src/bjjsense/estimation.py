"""Experimental-style susceptibility estimation from imbalance records.

The measured quantity is the population imbalance z = (N_L - N_R)/N of a
junction, recorded repeatedly at each scattering length a_s (in units of the
Bohr radius a_0).  The analysis chain is:

1. histogram the z samples per a_s with a fixed bin size,
2. fit each histogram with a double Gaussian
   A+ G(z - zbar; sigma) + A- G(z + zbar; sigma),
3. chi_mom from ``np.gradient`` of zbar over a_s, chi_cl from the
   Bhattacharyya overlaps of neighboring histograms
   (``bhattacharyya_fidelity``), with 1 - F = (chi/8) eps^2 fitted through
   both neighbors in closed form,
4. error bars by parametric bootstrap: redraw every histogram from its
   fitted mixture, rerun the chain, and read each estimate off its
   replica values, the median as the center and half the distance between
   the Phi(-1) and Phi(+1) percentiles as the error bar, with no model
   fitted to them.

Every step runs on stacks: ``_histograms`` bins all records of a series at
once, and the fitter and both estimators take a stack of histograms.
``series_estimates`` calls them on the histograms of a series and returns
the double-Gaussian fits with the estimates; ``bootstrap`` calls the one
estimator asked for on all its replicas at once, chi_cl on the replica
histograms alone, chi_mom on their fits.  Every double-Gaussian fit goes
through one batched Levenberg-Marquardt fitter, ``_fit_mixtures``: every
start of every histogram is a lane of one array, each lane damped, accepted
and stopped on its own (when its step falls below 1e-14 of its parameters,
when a rejected step predicts a decrease within machine epsilon of its
cost, or after its 2,000th step), so a fit is the same bit for bit alone or
among thousands.  The lanes pass through one rolling window of at most 512:
a queued lane enters as soon as a lane stops, so no pass runs a few slow
lanes while others wait, and the memory of a pass stays bounded.  A
recorded histogram gets two starts from its data; a bootstrap replica gets
one, the fit of its record.  The bootstrap never draws a sample: a replica
of a record is a multinomial draw of its bin counts from the exact bin
masses of the fitted mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral
from typing import Sequence

import numpy as np

_SQRT2PI = float(np.sqrt(2.0 * np.pi))

# Levenberg-Marquardt: initial damping relative to diag(J^T J), relative
# step size at which a lane stops, predicted decrease relative to the cost
# below which a rejected lane stops (machine epsilon), step cap per lane,
# floor of the damping scale (keeps every damped matrix non-singular),
# most lanes in the rolling window.
_MU0 = 1e-3
_XTOL = 1e-14
_FTOL = float(np.finfo(float).eps)
_MAX_ITER = 2000
_TINY = 1e-300
_BLOCK = 512

# Percentiles of the standard normal at -1 and +1 sigma, 100 Phi(-+1): half
# the distance between them is the bootstrap error bar.
_ONE_SIGMA = (15.865525393145707, 84.13447460685429)


def _check_integer(name: str, value, minimum: int) -> None:
    if not isinstance(value, Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class MeasurementSeries:
    """Imbalance records over a strictly increasing scattering-length grid.

    ``records[i]`` holds the z samples taken at ``scattering_lengths[i]``
    (units of a_0), stored as a float array.  ``rng_seed`` records the
    generator seed for synthetic series, -1 for imported data.
    """

    scattering_lengths: np.ndarray
    records: tuple[np.ndarray, ...]
    rng_seed: int = -1

    def __post_init__(self):
        a = np.asarray(self.scattering_lengths, dtype=float)
        if a.size < 2:
            raise ValueError(f"need >= 2 scattering lengths, got {a.size}")
        if not np.all(np.isfinite(a)):
            raise ValueError("scattering_lengths contains non-finite values")
        if np.any(np.diff(a) <= 0):
            raise ValueError("scattering_lengths must be strictly increasing")
        records = tuple(np.asarray(r, dtype=float) for r in self.records)
        if len(records) != a.size:
            raise ValueError(f"{len(records)} records for {a.size} scattering lengths")
        for i, r in enumerate(records):
            if r.ndim != 1 or r.size == 0:
                raise ValueError(f"record at index {i} is not a non-empty 1-D array")
            if not np.all(np.abs(r) <= 1.0):
                raise ValueError(
                    f"samples non-finite or outside [-1, 1] at index {i}"
                )
        object.__setattr__(self, "scattering_lengths", a)
        object.__setattr__(self, "records", records)

    @property
    def n_points(self) -> int:
        return self.scattering_lengths.size


@dataclass(frozen=True)
class DoubleGaussianFit:
    """Parameters of the symmetric-pair Gaussian mixture fit.

    ``separation`` is the half-distance zbar between the two peaks (equal to
    the fitted <|z|> when the peaks are resolved); ``width`` is the common
    sigma.  Amplitudes float independently (a tilt biases the two wells)
    but are never negative.  A failed fit keeps finite parameters and is
    marked by ``residual`` inf.
    """

    separation: float
    width: float
    amplitude_plus: float
    amplitude_minus: float
    residual: float = 0.0
    converged: bool = True

    def __post_init__(self):
        for name in ("separation", "width", "amplitude_plus", "amplitude_minus"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.width <= 0:
            raise ValueError(f"width must be > 0, got {self.width}")
        if self.separation < 0:
            raise ValueError(f"separation must be >= 0, got {self.separation}")
        amplitudes = (self.amplitude_plus, self.amplitude_minus)
        if min(amplitudes) < 0:
            raise ValueError(f"amplitudes must be >= 0, got {amplitudes}")


@dataclass(frozen=True)
class HistogramSpec:
    """Fixed-width binning of z, edges anchored at z = 0.

    The range extends to +-ceil(1/bin_width)*bin_width so the bins tile it
    exactly; samples live in [-1, 1] and always fall inside.  Where that
    product rounds to just inside +-1 (bin_width = 1/49, for one), the
    outer edges are moved out to +-1.
    """

    bin_width: float = 0.05

    def __post_init__(self):
        if not 0 < self.bin_width <= 2:
            raise ValueError(f"bin_width must be in (0, 2], got {self.bin_width}")

    @property
    def edges(self) -> np.ndarray:
        k = int(np.ceil(1.0 / self.bin_width - 1e-12))
        edges = self.bin_width * np.arange(-k, k + 1)
        edges[0], edges[-1] = min(edges[0], -1.0), max(edges[-1], 1.0)
        return edges

    @property
    def centers(self) -> np.ndarray:
        e = self.edges
        return 0.5 * (e[:-1] + e[1:])


@dataclass(frozen=True)
class BootstrapResult:
    """Per-point bootstrap centers and widths for one estimator.

    ``centers[i]`` is the median of the finite replica values at
    ``scattering_lengths[i]`` and ``widths[i]`` half the distance between
    their Phi(-1) and Phi(+1) percentiles (15.87% and 84.13%), sigma for
    Gaussian replicas; both are NaN where fewer than two replica values are
    finite (chi_cl endpoints).
    """

    estimator: str
    scattering_lengths: np.ndarray
    centers: np.ndarray
    widths: np.ndarray
    n_replicas: int
    n_failures: int
    replica_values: tuple[np.ndarray, ...]


# ---------------------------------------------------------------------------
# synthesis and histogramming


def synth_samples(
    scattering_lengths: Sequence[float],
    fit_params: Sequence[DoubleGaussianFit],
    n_samples: int | Sequence[int],
    seed: int,
) -> MeasurementSeries:
    """Draw imbalance records from double-Gaussian mixtures.

    Per point, each sample picks the +zbar component with probability
    A+/(A+ + A-), draws from the corresponding Gaussian, and is clipped to
    [-1, 1].  Deterministic for a given seed.

    Parameters
    ----------
    scattering_lengths : sequence of float
    fit_params : sequence of DoubleGaussianFit
        Generative parameters, one per scattering length.
    n_samples : int or sequence of int
        Record length, shared or per point.
    seed : int

    Returns
    -------
    MeasurementSeries
    """
    a = np.asarray(scattering_lengths, dtype=float)
    if len(fit_params) != a.size:
        raise ValueError(
            f"{len(fit_params)} parameter sets for {a.size} scattering lengths"
        )
    counts = [n_samples] * a.size if np.isscalar(n_samples) else list(n_samples)
    if len(counts) != a.size:
        raise ValueError(f"{len(counts)} sample counts for {a.size} scattering lengths")
    for n in counts:
        _check_integer("n_samples", n, 1)
    rng = np.random.default_rng(seed)
    records = [_draw_mixture(rng, fit, n) for fit, n in zip(fit_params, counts)]
    return MeasurementSeries(
        scattering_lengths=a, records=tuple(records), rng_seed=int(seed)
    )


def _draw_mixture(rng, fit: DoubleGaussianFit, n: int) -> np.ndarray:
    total = fit.amplitude_plus + fit.amplitude_minus
    if total <= 0:
        raise ValueError("mixture amplitudes sum to zero")
    p_plus = fit.amplitude_plus / total
    sign = np.where(rng.random(n) < p_plus, 1.0, -1.0)
    z = sign * fit.separation + fit.width * rng.standard_normal(n)
    return np.clip(z, -1.0, 1.0)


def _histograms(records: Sequence[np.ndarray], spec: HistogramSpec) -> np.ndarray:
    """(records, bins) bin probabilities on ``spec``, one row per record;
    ``MeasurementSeries`` holds no empty record, so every row sums to 1."""
    edges = spec.edges
    return np.array([np.histogram(r, bins=edges)[0] / r.size for r in records])


# ---------------------------------------------------------------------------
# double-Gaussian fitting


def _gaussians(p: np.ndarray, z: np.ndarray):
    """Standardized offsets and unit-area Gaussians of both peaks, per lane."""
    zbar, sigma = p[:, :1], p[:, 1:2]
    up = (z - zbar) / sigma
    um = (z + zbar) / sigma
    gp = np.exp(-0.5 * up * up) / (_SQRT2PI * sigma)
    gm = np.exp(-0.5 * um * um) / (_SQRT2PI * sigma)
    return up, um, gp, gm


def _residuals(p: np.ndarray, h: np.ndarray, z: np.ndarray, w: float):
    """Mixture bin probabilities w (A+ G+ + A- G-) minus ``h``, per lane."""
    gauss = _gaussians(p, z)
    return w * (p[:, 2:3] * gauss[2] + p[:, 3:4] * gauss[3]) - h, gauss


def _jacobian(p: np.ndarray, w: float, gauss) -> np.ndarray:
    """(4, lanes, bins) derivatives of the model in (zbar, sigma, A+, A-),
    parameter-major: each derivative is one contiguous (lanes, bins) row."""
    up, um, gp, gm = gauss
    sigma, ap, am = p[:, 1:2], p[:, 2:3], p[:, 3:4]
    jac = np.empty((4,) + up.shape)
    np.divide(w * (ap * up * gp - am * um * gm), sigma, out=jac[0])
    np.divide(w * (ap * gp * (up * up - 1.0) + am * gm * (um * um - 1.0)), sigma,
              out=jac[1])
    np.multiply(w, gp, out=jac[2])
    np.multiply(w, gm, out=jac[3])
    return jac


def _normal_equations(jac: np.ndarray, r: np.ndarray):
    """J^T J and J^T r per lane from a parameter-major (n, lanes, bins) J.

    Every entry is a sum along one lane's contiguous bin axis, so a lane's
    numbers never depend on the other lanes (a BLAS product may block them).
    Each entry of the upper triangle of J^T J is the flat product J_i * J_j
    of two contiguous (lanes, bins) rows, summed over its bins, and is
    mirrored below the diagonal; entry i of J^T r is the sum of J_i * r.
    No temporary is larger than one row.  IEEE multiplication commutes, so
    every entry is the same elementwise product summed by the same
    reduction along the same contiguous axis as in one (lanes, n, n, bins)
    product of the lane-major J, and equals that product's sum bit for bit.
    """
    n, lanes, _ = jac.shape
    a = np.empty((lanes, n, n))
    g = np.empty((lanes, n))
    for i in range(n):
        for j in range(i, n):
            a[:, i, j] = a[:, j, i] = (jac[i] * jac[j]).sum(axis=-1)
        g[:, i] = (jac[i] * r).sum(axis=-1)
    return a, g


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched solve of a x = b; NaN rows where a lane's matrix is singular.

    ``np.linalg.solve`` raises for the whole batch if one matrix is exactly
    singular, so that batch is solved again lane by lane.
    """
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for i in range(b.shape[0]):
            try:
                x[i] = np.linalg.solve(a[i : i + 1], b[i : i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return x


def _levenberg_marquardt(p: np.ndarray, residuals, jacobian):
    """Minimize the squared residual of every lane from the start ``p``.

    ``residuals(q, lanes)`` returns the residual rows of the parameter rows
    ``q`` of the batch lanes ``lanes`` (an index array), and the terms, a
    list of (lanes, points) arrays, from which ``jacobian(q, terms)`` builds
    their (parameters, lanes, points) Jacobian.

    Marquardt's damped normal equations (J^T J + mu D) step = -J^T r, D the
    running maximum of diag(J^T J), with Nielsen's update of mu.  A step is
    accepted where it lowers the lane's cost.  A lane stops when its step,
    accepted or not, is below _XTOL relative to the parameters (at the
    optimum the Gauss-Newton step shrinks to roundoff), when a step is
    rejected although the model predicts a decrease of at most _FTOL (machine
    epsilon) times the cost (the lane sits at its optimum to working
    precision, and more damping would only shrink the same step), when the
    step is not finite, or after its _MAX_ITER-th step.

    The lanes run in one rolling window of at most _BLOCK, which bounds the
    size of every array a pass builds: lanes enter it in order, each with
    its first residual, normal equations and damping scale, as stopped
    lanes leave it.  No lane's arithmetic depends on another's, so a lane's
    numbers are the same bit for bit whichever lanes share its passes.

    Returns the parameters, the cost 0.5 |r|^2 and whether the lane stopped
    on its step size or on its predicted decrease, per lane.
    """
    p = p.copy()
    n_lanes, n = p.shape
    cost = np.empty(n_lanes)
    a = np.empty((n_lanes, n, n))
    g = np.empty((n_lanes, n))
    scale = np.empty((n_lanes, n))
    mu = np.full(n_lanes, _MU0)
    nu = np.full(n_lanes, 2.0)
    steps = np.zeros(n_lanes, dtype=int)
    converged = np.zeros(n_lanes, dtype=bool)
    active = np.arange(0)
    queued = 0  # lanes queued..n_lanes - 1 have not entered the window
    diag = np.arange(n)
    with np.errstate(all="ignore"):
        while True:
            if active.size < _BLOCK and queued < n_lanes:
                new = np.arange(queued, min(queued + _BLOCK - active.size, n_lanes))
                queued = new[-1] + 1
                r, terms = residuals(p[new], new)
                cost[new] = 0.5 * np.sum(r * r, axis=1)
                a[new], g[new] = _normal_equations(jacobian(p[new], terms), r)
                scale[new] = np.maximum(np.diagonal(a[new], axis1=1, axis2=2), _TINY)
                del r, terms  # freed before the pass allocates its own
                active = np.concatenate([active, new])
            if not active.size:
                break
            p_act, g_act, cost_act = p[active], g[active], cost[active]
            damping = mu[active, None] * scale[active]
            damped = a[active]
            damped[:, diag, diag] += damping
            step = _solve(damped, -g_act)
            trial = p_act + step
            r_t, terms_t = residuals(trial, active)
            cost_t = 0.5 * np.sum(r_t * r_t, axis=1)
            better = cost_t < cost_act
            predicted = 0.5 * np.sum(step * (damping * step - g_act), axis=1)
            small = (
                np.sqrt(np.sum(step * step, axis=1))
                <= _XTOL * (np.sqrt(np.sum(p_act ** 2, axis=1)) + _XTOL)
            )
            flat = ~better & (0.0 <= predicted) & (predicted <= _FTOL * cost_act)
            steps[active] += 1
            stop = (~np.all(np.isfinite(step), axis=1) | small | flat
                    | (steps[active] >= _MAX_ITER))

            up = active[better]
            p[up] = trial[better]
            cost[up] = cost_t[better]
            # drop the rejected lanes' rows before the Jacobian is built
            r_t, terms_t = r_t[better], [x[better] for x in terms_t]
            a_up, g[up] = _normal_equations(jacobian(trial[better], terms_t), r_t)
            a[up] = a_up
            scale[up] = np.maximum(scale[up], np.diagonal(a_up, axis1=1, axis2=2))
            rho = (cost_act[better] - cost_t[better]) / predicted[better]
            mu[up] *= np.fmax(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu[up] = 2.0
            down = active[~better]
            mu[down] *= nu[down]
            nu[down] *= 2.0
            converged[active[small | flat]] = True
            active = active[~stop]
            # free the pass's arrays before the next pass allocates its own
            del p_act, damped, step, trial, r_t, terms_t, a_up
    return p, cost, converged


def _data_starts(probabilities: np.ndarray, spec: HistogramSpec) -> np.ndarray:
    """The two data starts of each histogram, (histograms, 2, 4).

    Start 0 is the moment initialization zbar0 = <|z|>, sigma0 = std(|z|),
    with A+ and A- the masses on either side of z = 0 (half the mass at
    z = 0 to each); start 1 splits the total variance evenly between
    separation and width, with equal amplitudes.  zbar0 and sigma0 are at
    least half a bin.  Every row depends on its own histogram only.
    """
    h = np.asarray(probabilities, dtype=float)
    z = spec.centers
    absz = np.abs(z)
    mean_abs = np.sum(h * absz, axis=1)
    std_abs = np.sqrt(
        np.maximum(np.sum((absz - mean_abs[:, None]) ** 2 * h, axis=1), 0.0)
    )
    mean_z = np.sum(h * z, axis=1)
    half_var = np.sqrt(0.5 * np.sum((z - mean_z[:, None]) ** 2 * h, axis=1))
    mass_plus = np.sum(np.where(z > 0, h, 0.0), axis=1)
    mass_minus = np.sum(np.where(z < 0, h, 0.0), axis=1)
    half_zero = 0.5 * (1.0 - mass_plus - mass_minus)
    floor = 0.5 * spec.bin_width
    moment_start = np.stack([np.maximum(mean_abs, floor), np.maximum(std_abs, floor),
                             mass_plus + half_zero, mass_minus + half_zero], axis=1)
    split = np.maximum(half_var, floor)
    half = np.full_like(split, 0.5)
    split_start = np.stack([split, split, half, half], axis=1)
    return np.stack([moment_start, split_start], axis=1)


def _fit_mixtures(
    probabilities: np.ndarray, spec: HistogramSpec, starts: np.ndarray | None = None
) -> dict:
    """Double-Gaussian fits of a stack of histograms, in one batch.

    ``probabilities`` is (histograms, bins) on ``spec``'s bins and
    ``starts`` (histograms, k, 4) holds k starts (zbar, sigma, A+, A-) per
    histogram: by default the two data starts of ``_data_starts``, which a
    recorded histogram gets; a bootstrap replica starts from its record's
    base fit alone (``bootstrap``).  Every start is a lane of one
    Levenberg-Marquardt batch (``_levenberg_marquardt``) and the lowest
    cost wins, the first start on a tie.  The winner is
    canonicalized to zbar >= 0, sigma > 0 (the model is even in sigma and
    even in zbar up to an amplitude swap) and flagged converged when its
    amplitudes are non-negative within 1e-6 and its Levenberg-Marquardt lane
    stopped on its step size or predicted decrease.  A histogram whose
    winner is not finite gets the moment start of ``_data_starts`` with
    equal amplitudes, residual inf and ``converged`` False.

    All lanes go to one ``_levenberg_marquardt`` call, whose rolling window
    of _BLOCK lanes bounds memory; each pass reads its lanes' histogram
    rows from ``probabilities`` itself, with no per-start copy.  No lane's
    arithmetic depends on another, so a histogram's fit from given starts
    is the same bit for bit alone or in any batch.

    Returns a dict of per-histogram arrays keyed by the fields of
    ``DoubleGaussianFit``.
    """
    h = np.asarray(probabilities, dtype=float)
    z = spec.centers
    w = spec.bin_width
    if starts is None:
        starts = _data_starts(h, spec)
    n_starts = starts.shape[1]
    # lanes k * i .. k * i + k - 1 are the starts of histogram i
    p, cost, stopped = _levenberg_marquardt(
        starts.reshape(-1, 4),
        lambda q, lanes: _residuals(q, h[lanes // n_starts], z, w),
        lambda q, gauss: _jacobian(q, w, gauss),
    )
    cost = np.where(np.isnan(cost), np.inf, cost).reshape(-1, n_starts)
    best = np.argmin(cost, axis=1)
    p = p.reshape(-1, n_starts, 4)[np.arange(len(h)), best]
    stopped = stopped.reshape(-1, n_starts)[np.arange(len(h)), best]
    failed = ~np.all(np.isfinite(p), axis=1)
    if failed.any():
        fallback = _data_starts(h[failed], spec)[:, 0]
        fallback[:, 2:] = 0.5
        p[failed] = fallback

    zbar, sigma, ap, am = p.T
    sigma = np.abs(sigma)
    swap = zbar < 0
    zbar = np.abs(zbar)
    ap, am = np.where(swap, am, ap), np.where(swap, ap, am)
    ok = (sigma > 0) & (ap > -1e-6) & (am > -1e-6)
    ap, am = np.maximum(ap, 0.0), np.maximum(am, 0.0)
    final = np.stack([zbar, np.maximum(sigma, 1e-12), ap, am], axis=1)
    r, _ = _residuals(final, h, z, w)
    return {
        "separation": zbar,
        "width": np.where(sigma > 0, sigma, 1e-12),
        "amplitude_plus": ap,
        "amplitude_minus": am,
        "residual": np.where(failed, np.inf, np.sum(r * r, axis=1)),
        "converged": ok & stopped & ~failed,
    }


def _fit_at(fits: dict, index) -> DoubleGaussianFit:
    """One histogram's entry of ``_fit_mixtures`` as a DoubleGaussianFit."""
    return DoubleGaussianFit(**{k: v[index].item() for k, v in fits.items()})


# ---------------------------------------------------------------------------
# estimators


def _chi_mom(zbar: np.ndarray, sigma: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(d zbar / d a_s)^2 / sigma^2 over the grid ``a``, (..., points).

    ``np.gradient`` differentiates: central inside, one-sided (less
    reliable) at the endpoints.  Dimensionless with a_s in units of a_0.
    """
    # float_power squares with libm pow, as Python's scalar float ** does,
    # so every chi_mom equals the pointwise (d / sigma) ** 2 bit for bit;
    # array ** 2 multiplies x * x, which differs in the last bit for about
    # one value in 1,000.
    return np.float_power(np.gradient(zbar, a, axis=-1) / sigma, 2)


def bhattacharyya_fidelity(p, q) -> np.ndarray | float:
    """Bhattacharyya coefficients sum_m sqrt(P(m) Q(m)) along the last axis.

    ``p`` and ``q`` are probability arrays over one support (the last
    axis), broadcast over their leading axes; two 1-D arrays give a scalar.
    Equals 1 iff the distributions coincide; this is the classical fidelity
    attainable from J_z measurement statistics alone.  chi_cl is the Fisher
    information of the outcome distribution, and a coefficient of two
    distributions eps apart behaves as F = 1 - (chi/8) eps^2 for small eps,
    which ``_chi_cl`` fits.
    """
    p, q = np.asarray(p), np.asarray(q)
    if p.shape[-1] != q.shape[-1]:
        raise ValueError(
            f"distribution lengths differ: {p.shape[-1]} vs {q.shape[-1]}"
        )
    return np.sqrt(p * q).sum(axis=-1)


def _chi_cl(probabilities: np.ndarray, a: np.ndarray) -> np.ndarray:
    """chi_cl at every interior grid point of a stack of series.

    ``probabilities`` is (..., points, bins); the result is (..., points),
    NaN at the two ends.  The Bhattacharyya coefficients F of neighboring
    histograms give the deficits d = 1 - F on either side of each interior
    point, at offsets eps = a[i -+ 1] - a[i].  chi is the least-squares
    slope of d against x = eps^2 / 8 through the origin,
    (x- d- + x+ d+) / (x-^2 + x+^2), clamped at 0, and 0 where both
    deficits are below 1e-14.  Every number depends on its own series only.
    """
    deficits = 1.0 - bhattacharyya_fidelity(
        probabilities[..., :-1, :], probabilities[..., 1:, :]
    )
    d_lo, d_hi = deficits[..., :-1], deficits[..., 1:]
    eps_lo, eps_hi = a[:-2] - a[1:-1], a[2:] - a[1:-1]
    x_lo, x_hi = eps_lo * eps_lo / 8.0, eps_hi * eps_hi / 8.0
    slope = (x_lo * d_lo + x_hi * d_hi) / (x_lo * x_lo + x_hi * x_hi)
    flat = (np.abs(d_lo) < 1e-14) & (np.abs(d_hi) < 1e-14)
    chi = np.full(probabilities.shape[:-1], np.nan)
    chi[..., 1:-1] = np.where(flat, 0.0, np.maximum(slope, 0.0))
    return chi


def series_estimates(
    series: MeasurementSeries, spec: HistogramSpec | None = None
) -> tuple[dict[str, np.ndarray], tuple[DoubleGaussianFit, ...]]:
    """Estimates zbar, sigma, chi_mom and chi_cl of a series, per grid point
    (chi_cl NaN at the endpoints), and the double-Gaussian fit of every
    record, from its two data starts, which ``bootstrap`` takes as
    ``base_fits``."""
    spec = spec or HistogramSpec()
    a = series.scattering_lengths
    hists = _histograms(series.records, spec)
    fits = _fit_mixtures(hists, spec)
    zbar, sigma = fits["separation"], fits["width"]
    estimates = {
        "zbar": zbar,
        "sigma": sigma,
        "chi_mom": _chi_mom(zbar, sigma, a),
        "chi_cl": _chi_cl(hists, a),
    }
    return estimates, tuple(_fit_at(fits, i) for i in range(series.n_points))


# ---------------------------------------------------------------------------
# bootstrap


def _valid_fits(fits: dict) -> np.ndarray:
    """Elementwise over a fit stack: finite fields, sigma > 0, A+ + A- > 0.

    The residual is inf where ``_fit_mixtures`` failed, and both amplitudes
    are 0 where it clamped them; no replica can be drawn from either.
    """
    ok = (fits["width"] > 0) & (fits["amplitude_plus"] + fits["amplitude_minus"] > 0)
    for k in ("separation", "width", "amplitude_plus", "amplitude_minus", "residual"):
        ok &= np.isfinite(fits[k])
    return ok


_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2), elementwise."""
    return 0.5 * _ERFC(-x / math.sqrt(2.0)).astype(float)


def _bin_masses(fits: dict, spec: HistogramSpec) -> np.ndarray:
    """Exact bin probabilities of each fit's clipped mixture, (fits, bins).

    ``fits`` holds (fits,) arrays keyed by the fields of DoubleGaussianFit.
    Each bin's mass is a difference of normal CDFs of both peaks, weighted
    as ``_draw_mixture`` picks them.  Samples clipped to -+1 land in the
    outer bins, so the outer edges are taken at -+inf.
    """
    edges = spec.edges
    edges[[0, -1]] = -np.inf, np.inf
    zbar, sigma = fits["separation"][:, None], fits["width"][:, None]
    ap, am = fits["amplitude_plus"][:, None], fits["amplitude_minus"][:, None]
    p_plus = ap / (ap + am)
    plus = np.diff(_normal_cdf((edges - zbar) / sigma))
    minus = np.diff(_normal_cdf((edges + zbar) / sigma))
    return p_plus * plus + (1.0 - p_plus) * minus


def _replica_histograms(seed, replicas, attempt, counts, masses) -> np.ndarray:
    """Histograms of the bootstrap replicas ``replicas``, (replicas, points,
    bins): replica r is one multinomial draw of the record lengths
    ``counts`` over the bin masses ``masses`` on the stream
    (seed, r, attempt)."""
    draws = np.array([
        np.random.default_rng([seed, r, attempt]).multinomial(counts, masses)
        for r in replicas
    ])
    return draws / counts[:, None]


def bootstrap(
    series: MeasurementSeries,
    estimator: str,
    n_replicas: int = 3000,
    seed: int = 0,
    spec: HistogramSpec | None = None,
    base_fits: Sequence[DoubleGaussianFit] | None = None,
) -> BootstrapResult:
    """Parametric bootstrap error bars for chi_mom or chi_cl.

    Each replica redraws every record from its base fit, the double-Gaussian
    fit of the original record, reruns the estimator chain, and contributes
    one value per grid point.  The chain reads histograms only, so a
    replica is a histogram per record: a multinomial draw of the record's
    length over the exact bin masses of its base fit (``_bin_masses``), the
    law of the binned, clipped samples.  Replica r takes one multinomial
    call on the stream (seed, r, 0), so results are independent of
    execution order and bit-identical across runs.

    All replicas are drawn, then run through the chain together for the
    requested estimator only: for chi_mom one batched fit
    (``_fit_mixtures``), for chi_cl one array of overlaps (``_chi_cl``),
    which needs no fit, so no chi_cl replica fails.
    The base fit is the law a replica histogram is drawn from, so each
    replica histogram is fitted from its record's base fit as its only
    start, where the original records were fitted from two data starts.  A
    chi_mom replica with an invalid double-Gaussian fit is redrawn from
    the stream (seed, r, 1); the redrawn replicas run as one more batch.
    Replicas still invalid after that count as failures, and more than 10%
    of ``n_replicas`` aborts the bootstrap once the retry batch is done.

    Per grid point the bootstrap reads its bar straight off the finite
    replica values, with no model fitted to them: the center is their
    median and the width half the distance between their Phi(-1) and
    Phi(+1) percentiles (``np.percentile``, linear rule), which is sigma
    for Gaussian replicas and ignores the tail of chi_mom toward 0.  A grid
    point with fewer than two finite values gets NaN for both.

    Parameters
    ----------
    series : MeasurementSeries
    estimator : str
        "chi_mom" or "chi_cl".
    n_replicas : int
        At least 100.
    seed : int
        Non-negative.
    spec : HistogramSpec, optional
    base_fits : sequence of DoubleGaussianFit, optional
        The fits of ``series`` on ``spec``, when the caller has them;
        by default the series is fitted here.

    Returns
    -------
    BootstrapResult

    Raises
    ------
    ValueError
        On bad arguments or an invalid base fit.
    RuntimeError
        When more than 10% of the replicas fail.
    """
    results = _bootstraps(series, (estimator,), n_replicas, seed, spec, base_fits)
    return results[estimator]


def _bootstraps(
    series: MeasurementSeries,
    estimators: Sequence[str],
    n_replicas: int,
    seed: int,
    spec: HistogramSpec | None,
    base_fits: Sequence[DoubleGaussianFit] | None,
) -> dict[str, BootstrapResult]:
    """``bootstrap`` of each of ``estimators``, in that order, from one draw.

    Every estimator's replica r is first drawn on the stream (seed, r, 0)
    from the same bin masses, so those histograms are drawn once and
    shared; each result is bit for bit what ``bootstrap`` returns for its
    estimator alone.
    """
    for estimator in estimators:
        if estimator not in ("chi_mom", "chi_cl"):
            raise ValueError(
                f"estimator must be 'chi_mom' or 'chi_cl', got {estimator!r}"
            )
    _check_integer("n_replicas", n_replicas, 100)
    _check_integer("seed", seed, 0)
    spec = spec or HistogramSpec()
    if base_fits is None:
        base = _fit_mixtures(_histograms(series.records, spec), spec)
    elif len(base_fits) != series.n_points:
        raise ValueError(f"{len(base_fits)} base fits for {series.n_points} points")
    else:
        base = {
            field.name: np.array([getattr(f, field.name) for f in base_fits])
            for field in fields(DoubleGaussianFit)
        }
    invalid = np.flatnonzero(~_valid_fits(base))
    if invalid.size:
        raise ValueError(
            f"double-Gaussian fit invalid at grid index {invalid[0]}; cannot "
            f"bootstrap from it"
        )
    counts = np.array([r.size for r in series.records])
    masses = _bin_masses(base, spec)
    params = ("separation", "width", "amplitude_plus", "amplitude_minus")
    base_start = np.stack([base[k] for k in params], axis=1)[:, None, :]
    a = series.scattering_lengths
    n_points, n_bins = masses.shape
    first = _replica_histograms(seed, range(n_replicas), 0, counts, masses)
    results = {}
    for estimator in estimators:
        if estimator == "chi_cl":
            values, n_failures = _chi_cl(first, a), 0
        else:
            values = np.full((n_replicas, n_points), np.nan)
            hists, pending = first, np.arange(n_replicas)
            for attempt in (0, 1):
                if attempt:
                    hists = _replica_histograms(seed, pending, attempt, counts, masses)
                mixtures = _fit_mixtures(
                    hists.reshape(-1, n_bins), spec,
                    np.tile(base_start, (pending.size, 1, 1)),
                )
                zbar, sigma = (mixtures[k].reshape(-1, n_points)
                               for k in ("separation", "width"))
                valid = np.all(_valid_fits(mixtures).reshape(-1, n_points), axis=1)
                values[pending[valid]] = _chi_mom(zbar, sigma, a)[valid]
                pending = pending[~valid]
                if not pending.size:
                    break
            n_failures = int(pending.size)
            if n_failures > int(0.1 * n_replicas):
                raise RuntimeError(
                    f"{n_failures} of {n_replicas} bootstrap replicas failed "
                    f"(> 10%); aborting"
                )
        replica_cols = [values[np.isfinite(values[:, i]), i] for i in range(n_points)]
        centers, widths = np.full(n_points, np.nan), np.full(n_points, np.nan)
        for i, col in enumerate(replica_cols):
            if col.size >= 2:
                centers[i], widths[i] = _replica_bar(col)
        results[estimator] = BootstrapResult(
            estimator=estimator,
            scattering_lengths=a,
            centers=centers,
            widths=widths,
            n_replicas=n_replicas,
            n_failures=n_failures,
            replica_values=tuple(replica_cols),
        )
    return results


def _replica_bar(values: np.ndarray) -> tuple[float, float]:
    """Median of ``values`` (at least 2, all finite) and half the distance
    between their _ONE_SIGMA percentiles.

    Bit for bit ``np.median`` and ``np.percentile``'s default linear rule,
    which both import numpy.ma on first use (about 9 ms a process): on the
    sorted values, percentile q sits at position (n - 1) q / 100 and is
    interpolated between its neighbors a and b as a + (b - a) t, or as
    b - (b - a) (1 - t) where the fraction t is at least 1/2.
    """
    s = np.sort(values)
    n = s.size
    k = n // 2
    center = s[k] if n % 2 else (s[k - 1] + s[k]) / 2.0
    bounds = []
    for percent in _ONE_SIGMA:
        position = (n - 1) * (percent / 100.0)
        i = math.floor(position)
        t = position - i
        a, b = s[i], s[i + 1]
        bounds.append(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)
    return float(center), float(0.5 * (bounds[1] - bounds[0]))
