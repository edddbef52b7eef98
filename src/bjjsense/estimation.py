"""Experimental-style susceptibility estimation from imbalance records.

The measured quantity is the population imbalance z = (N_L - N_R)/N of a
junction, recorded repeatedly at each scattering length a_s (in units of the
Bohr radius a_0).  The analysis chain is:

1. histogram the z samples per a_s with a fixed bin size,
2. fit each histogram with a double Gaussian
   A+ G(z - zbar; sigma) + A- G(z + zbar; sigma),
3. chi_mom from ``np.gradient`` of zbar over a_s, chi_cl from the
   Bhattacharyya overlaps of neighboring histograms, fitted to
   1 - F = (chi/8) eps^2 (``fidelity``),
4. error bars by parametric bootstrap: resample records from the fitted
   mixtures, rerun the chain, and fit a Gaussian (optionally on an
   exponential background) to the replica histogram of each estimate.

Steps 1-3 live in one private chain, ``_estimates``; ``series_estimates``
and every bootstrap replica run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import least_squares

from .fidelity import _fit_chi, bhattacharyya_fidelity

_SQRT2PI = float(np.sqrt(2.0 * np.pi))

# Bins of each grid point's histogram of bootstrap replica values.
_REPLICA_BINS = 100


@dataclass(frozen=True)
class MeasurementSeries:
    """Imbalance records over a strictly increasing scattering-length grid.

    ``records[i]`` holds the z samples taken at ``scattering_lengths[i]``
    (units of a_0).  ``rng_seed`` records the generator seed for synthetic
    series, -1 for imported data.
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
        if len(self.records) != a.size:
            raise ValueError(
                f"{len(self.records)} records for {a.size} scattering lengths"
            )
        for i, r in enumerate(self.records):
            if np.asarray(r).size == 0:
                raise ValueError(f"empty record at index {i}")
            if not np.all(np.abs(r) <= 1.0):
                raise ValueError(
                    f"samples non-finite or outside [-1, 1] at index {i}"
                )
        object.__setattr__(self, "scattering_lengths", a)

    @property
    def n_points(self) -> int:
        return self.scattering_lengths.size


@dataclass(frozen=True)
class DoubleGaussianFit:
    """Parameters of the symmetric-pair Gaussian mixture fit.

    ``separation`` is the half-distance zbar between the two peaks (equal to
    the fitted <|z|> when the peaks are resolved); ``width`` is the common
    sigma.  Amplitudes float independently: a tilt biases the two wells.
    """

    separation: float
    width: float
    amplitude_plus: float
    amplitude_minus: float
    residual: float = 0.0
    converged: bool = True

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError(f"width must be > 0, got {self.width}")
        if self.separation < 0:
            raise ValueError(f"separation must be >= 0, got {self.separation}")


@dataclass(frozen=True)
class HistogramSpec:
    """Fixed-width binning of z, edges anchored at z = 0.

    The range extends to +-ceil(1/bin_width)*bin_width so the bins tile it
    exactly; samples live in [-1, 1] and always fall inside.
    """

    bin_width: float = 0.05

    def __post_init__(self):
        if not 0 < self.bin_width <= 2:
            raise ValueError(f"bin_width must be in (0, 2], got {self.bin_width}")

    @property
    def edges(self) -> np.ndarray:
        k = int(np.ceil(1.0 / self.bin_width - 1e-12))
        return self.bin_width * np.arange(-k, k + 1)

    @property
    def centers(self) -> np.ndarray:
        e = self.edges
        return 0.5 * (e[:-1] + e[1:])


@dataclass(frozen=True)
class Histogram:
    """Normalized histogram: probabilities per bin summing to 1."""

    spec: HistogramSpec
    probabilities: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return self.spec.centers


@dataclass(frozen=True)
class GaussianBackgroundFit:
    """Gaussian peak, optionally on an exponential background.

    Fitted to a replica histogram in density normalization; the background
    amplitude is clamped to at most 1.
    """

    center: float
    width: float
    amplitude: float
    background_amplitude: float
    background_scale: float
    background_kind: str
    converged: bool


@dataclass(frozen=True)
class BootstrapResult:
    """Per-point bootstrap centers and widths for one estimator.

    ``centers[i] +- widths[i]`` is the Gaussian summary of the replica
    histogram at ``scattering_lengths[i]``; entries are NaN where the
    estimator is undefined (chi_cl endpoints).
    """

    estimator: str
    scattering_lengths: np.ndarray
    centers: np.ndarray
    widths: np.ndarray
    background_kind: str
    n_replicas: int
    n_failures: int
    replica_values: tuple[np.ndarray, ...]
    fits: tuple[GaussianBackgroundFit | None, ...]


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
    if np.isscalar(n_samples):
        counts = [int(n_samples)] * a.size
    else:
        counts = [int(n) for n in n_samples]
        if len(counts) != a.size:
            raise ValueError(
                f"{len(counts)} sample counts for {a.size} scattering lengths"
            )
    rng = np.random.default_rng(seed)
    records = []
    for fit, n in zip(fit_params, counts):
        if n < 1:
            raise ValueError(f"n_samples must be >= 1, got {n}")
        records.append(_draw_mixture(rng, fit, n))
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


def build_histogram(samples: np.ndarray, spec: HistogramSpec) -> Histogram:
    """Bin samples per ``spec`` and normalize to unit total probability."""
    z = np.asarray(samples, dtype=float)
    if z.size == 0:
        raise ValueError("cannot histogram an empty sample set")
    counts, _ = np.histogram(z, bins=spec.edges)
    return Histogram(spec=spec, probabilities=counts / z.size)


# ---------------------------------------------------------------------------
# double-Gaussian fitting


def _gaussian_pair(p: np.ndarray, z: np.ndarray):
    """Standardized offsets and unit-area Gaussians of the two peaks."""
    zbar, sigma = p[0], p[1]
    up = (z - zbar) / sigma
    um = (z + zbar) / sigma
    gp = np.exp(-0.5 * up * up) / (_SQRT2PI * sigma)
    gm = np.exp(-0.5 * um * um) / (_SQRT2PI * sigma)
    return up, um, gp, gm


def _mixture_model(p: np.ndarray, z: np.ndarray, w: float) -> np.ndarray:
    """Bin probabilities of the mixture: w (A+ G+ + A- G-)."""
    _, _, gp, gm = _gaussian_pair(p, z)
    return w * (p[2] * gp + p[3] * gm)


def _mixture_jacobian(p: np.ndarray, z: np.ndarray, w: float) -> np.ndarray:
    """Derivatives of ``_mixture_model`` in (zbar, sigma, A+, A-)."""
    sigma, ap, am = p[1], p[2], p[3]
    up, um, gp, gm = _gaussian_pair(p, z)
    jac = np.empty((z.size, 4))
    jac[:, 0] = w * (ap * up * gp - am * um * gm) / sigma
    jac[:, 1] = w * (ap * gp * (up * up - 1.0) + am * gm * (um * um - 1.0)) / sigma
    jac[:, 2] = w * gp
    jac[:, 3] = w * gm
    return jac


def _histogram_moments(hist: Histogram) -> tuple[float, float]:
    """Mean of |z| and std of |z| about that mean, from bin probabilities."""
    z = hist.centers
    h = hist.probabilities
    mean_abs = float(np.abs(z) @ h)
    var_abs = float(((np.abs(z) - mean_abs) ** 2) @ h)
    return mean_abs, float(np.sqrt(max(var_abs, 0.0)))


def fit_double_gaussian(hist: Histogram) -> DoubleGaussianFit:
    """Least-squares double-Gaussian fit to a normalized histogram.

    Levenberg-Marquardt with the analytic Jacobian, started from (a) the
    moment initialization zbar0 = <|z|>, sigma0 = std(|z|) and (b) an even
    split of the total variance between separation and width.  The lower
    residual wins.  ``converged`` reflects the gradient norm at the
    solution; a failed fit is returned flagged rather than raised.

    Parameters
    ----------
    hist : Histogram

    Returns
    -------
    DoubleGaussianFit
    """
    z = hist.centers
    h = hist.probabilities
    w = hist.spec.bin_width
    mean_abs, std_abs = _histogram_moments(hist)
    mean_z = float(z @ h)
    var_z = float(((z - mean_z) ** 2) @ h)
    mass_plus = float(h[z > 0].sum())
    mass_minus = float(h[z < 0].sum())
    on_zero = 1.0 - mass_plus - mass_minus
    floor = 0.5 * w
    starts = [
        np.array(
            [
                max(mean_abs, floor),
                max(std_abs, floor),
                mass_plus + 0.5 * on_zero,
                mass_minus + 0.5 * on_zero,
            ]
        ),
        np.array(
            [
                max(np.sqrt(0.5 * var_z), floor),
                max(np.sqrt(0.5 * var_z), floor),
                0.5,
                0.5,
            ]
        ),
    ]

    def residual(p):
        return _mixture_model(p, z, w) - h

    def jacobian(p):
        return _mixture_jacobian(p, z, w)

    best = None
    for p0 in starts:
        try:
            res = least_squares(
                residual, p0, jac=jacobian, method="lm",
                xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000,
            )
        except Exception:
            continue
        if best is None or res.cost < best.cost:
            best = res
    if best is None or not np.all(np.isfinite(best.x)):
        return DoubleGaussianFit(
            separation=max(mean_abs, floor),
            width=max(std_abs, floor),
            amplitude_plus=0.5,
            amplitude_minus=0.5,
            residual=float("inf"),
            converged=False,
        )
    zbar, sigma, ap, am = best.x
    # The model is even in sigma and even in zbar up to an amplitude swap;
    # canonicalize to the zbar >= 0, sigma > 0 branch.
    sigma = abs(sigma)
    if zbar < 0:
        zbar, ap, am = -zbar, am, ap
    ok = sigma > 0 and ap > -1e-6 and am > -1e-6
    ap, am = max(ap, 0.0), max(am, 0.0)
    p_final = np.array([zbar, max(sigma, 1e-12), ap, am])
    r = residual(p_final)
    rnorm = float(np.linalg.norm(r))
    jac_final = jacobian(p_final)
    grad = jac_final.T @ r
    # Stationarity relative to the Jacobian magnitude: a stalled or failed
    # fit sits orders of magnitude above this, a true optimum orders below.
    scale = max(1.0, float(np.max(np.abs(jac_final))))
    tight = float(np.max(np.abs(grad))) < 1e-10 * scale
    if sigma <= 0:
        return DoubleGaussianFit(
            separation=abs(zbar), width=1e-12, amplitude_plus=ap,
            amplitude_minus=am, residual=rnorm * rnorm, converged=False,
        )
    return DoubleGaussianFit(
        separation=float(zbar),
        width=float(sigma),
        amplitude_plus=float(ap),
        amplitude_minus=float(am),
        residual=rnorm * rnorm,
        converged=bool(ok and tight),
    )


def fit_series(
    series: MeasurementSeries, spec: HistogramSpec | None = None
) -> tuple[DoubleGaussianFit, ...]:
    """Double-Gaussian fit at every scattering length of a series."""
    spec = spec or HistogramSpec()
    return tuple(
        fit_double_gaussian(build_histogram(r, spec)) for r in series.records
    )


# ---------------------------------------------------------------------------
# estimators


def chi_mom_experimental(
    fits: Sequence[DoubleGaussianFit],
    scattering_lengths: Sequence[float],
    index: int,
) -> float:
    """Moment susceptibility (d zbar / d a_s)^2 / sigma^2 at one grid point.

    The derivative is ``np.gradient`` over the (possibly non-uniform) a_s
    grid: the three-point central difference inside, the one-sided
    two-point formula at the endpoints, which carry lower confidence.  With
    a_s in units of a_0 the result is dimensionless.
    """
    a = np.asarray(scattering_lengths, dtype=float)
    if len(fits) != a.size:
        raise ValueError(f"{len(fits)} fits for {a.size} scattering lengths")
    if not 0 <= index < a.size:
        raise ValueError(f"index {index} outside grid of size {a.size}")
    zbar = np.array([f.separation for f in fits])
    sigma = np.array([f.width for f in fits])
    return float(_chi_mom(zbar, sigma, a)[index])


def _chi_mom(zbar: np.ndarray, sigma: np.ndarray, a: np.ndarray) -> np.ndarray:
    # float_power squares with libm pow, as Python's scalar float ** does,
    # so every chi_mom equals the pointwise (d / sigma) ** 2 bit for bit;
    # array ** 2 multiplies x * x, which differs in the last bit for about
    # one value in 1,000.
    return np.float_power(np.gradient(zbar, a) / sigma, 2)


def chi_cl_experimental(
    histograms: Sequence[Histogram],
    scattering_lengths: Sequence[float],
    index: int,
) -> float:
    """Classical susceptibility from overlaps with the two neighbor points.

    Takes the Bhattacharyya coefficients F of the histogram at ``index``
    with those at index +- 1 and fits 1 - F = (chi/8) eps^2 through both
    by one-parameter least squares (``fidelity._fit_chi``), eps being the
    a_s offset in units of a_0.

    Raises
    ------
    ValueError
        At endpoints (both neighbors are required).
    """
    a = np.asarray(scattering_lengths, dtype=float)
    if len(histograms) != a.size:
        raise ValueError(
            f"{len(histograms)} histograms for {a.size} scattering lengths"
        )
    if not 0 < index < a.size - 1:
        raise ValueError(
            f"chi_cl needs both neighbors; index {index} of {a.size} points"
        )
    window = slice(index - 1, index + 2)
    return float(_chi_cl(histograms[window], a[window])[1])


def _chi_cl(hists: Sequence[Histogram], a: np.ndarray) -> np.ndarray:
    """chi_cl at every interior grid point, NaN at the two ends."""
    overlaps = np.array(
        [bhattacharyya_fidelity(p, q) for p, q in zip(hists, hists[1:])]
    )
    chi = np.full(a.size, np.nan)
    for i in range(1, a.size - 1):
        eps = np.array([a[i - 1] - a[i], a[i + 1] - a[i]])
        chi[i] = _fit_chi(eps, 1.0 - overlaps[i - 1 : i + 1], "classical").value
    return chi


def _estimates(
    records: Sequence[np.ndarray],
    a: np.ndarray,
    spec: HistogramSpec,
    fit: bool = True,
) -> tuple[dict[str, np.ndarray], tuple[DoubleGaussianFit, ...]]:
    """The estimator chain on one record per grid point.

    Histograms give chi_cl; with ``fit`` the double-Gaussian fits add zbar,
    sigma and chi_mom.  Returns the estimates and the fits (none without
    ``fit``, since chi_cl needs histograms only).
    """
    hists = [build_histogram(r, spec) for r in records]
    fits = tuple(fit_double_gaussian(h) for h in hists) if fit else ()
    out = {}
    if fit:
        zbar = np.array([f.separation for f in fits])
        sigma = np.array([f.width for f in fits])
        out = {"zbar": zbar, "sigma": sigma, "chi_mom": _chi_mom(zbar, sigma, a)}
    out["chi_cl"] = _chi_cl(hists, a)
    return out, fits


def series_estimates(
    series: MeasurementSeries, spec: HistogramSpec | None = None
) -> dict[str, np.ndarray]:
    """Full estimator chain on a series: zbar, sigma, chi_mom, chi_cl.

    chi_cl is NaN at the endpoints where a neighbor is missing.
    """
    return _estimates(
        series.records, series.scattering_lengths, spec or HistogramSpec()
    )[0]


# ---------------------------------------------------------------------------
# bootstrap


def _fit_is_valid(fit: DoubleGaussianFit) -> bool:
    vals = (
        fit.separation, fit.width, fit.amplitude_plus,
        fit.amplitude_minus, fit.residual,
    )
    return (
        all(np.isfinite(v) for v in vals)
        and fit.width > 0
        and fit.amplitude_plus + fit.amplitude_minus > 0
    )


def bootstrap(
    series: MeasurementSeries,
    estimator: str,
    n_replicas: int = 3000,
    seed: int = 0,
    spec: HistogramSpec | None = None,
    background_kind: str | None = None,
) -> BootstrapResult:
    """Parametric bootstrap error bars for chi_mom or chi_cl.

    The original records are fitted once; each replica redraws every record
    from its fitted mixture (records of the original lengths), reruns the
    estimator chain, and contributes one value per grid point.  Replica
    streams are seeded as (seed, replica) so results are independent of
    execution order and bit-identical across runs.  A replica whose
    double-Gaussian fit comes back invalid is redrawn once; persistent
    failures count toward an abort threshold of 10%.

    Per grid point the replica values go into a 100-bin histogram fitted
    with a Gaussian (chi_cl) or a Gaussian on an exponential background
    anchored at chi = 0 (chi_mom); the fit's center and width are the
    reported value and error bar.

    Parameters
    ----------
    series : MeasurementSeries
    estimator : str
        "chi_mom" or "chi_cl".
    n_replicas : int
        At least 100.
    seed : int
    spec : HistogramSpec, optional
    background_kind : str, optional
        "none" or "exponential"; default follows the estimator.

    Returns
    -------
    BootstrapResult
    """
    if estimator not in ("chi_mom", "chi_cl"):
        raise ValueError(
            f"estimator must be 'chi_mom' or 'chi_cl', got {estimator!r}"
        )
    if n_replicas < 100:
        raise ValueError(f"n_replicas must be >= 100, got {n_replicas}")
    spec = spec or HistogramSpec()
    if background_kind is None:
        background_kind = "exponential" if estimator == "chi_mom" else "none"
    if background_kind not in ("none", "exponential"):
        raise ValueError(f"unknown background_kind {background_kind!r}")
    base_fits = fit_series(series, spec)
    for i, f in enumerate(base_fits):
        if not _fit_is_valid(f):
            raise ValueError(
                f"double-Gaussian fit invalid at grid index {i}; cannot "
                f"bootstrap from it"
            )
    a = series.scattering_lengths
    n_points = a.size
    counts = [r.size for r in series.records]
    values = np.full((n_replicas, n_points), np.nan)
    n_failures = 0
    max_failures = int(0.1 * n_replicas)
    for r in range(n_replicas):
        row = None
        for attempt in (0, 1):
            rng = np.random.default_rng([seed, r, attempt])
            records = [
                _draw_mixture(rng, f, n) for f, n in zip(base_fits, counts)
            ]
            estimates, replica_fits = _estimates(
                records, a, spec, fit=estimator == "chi_mom"
            )
            if all(_fit_is_valid(f) for f in replica_fits):
                row = estimates[estimator]
                break
        if row is None:
            n_failures += 1
            if n_failures > max_failures:
                raise RuntimeError(
                    f"{n_failures} of {r + 1} bootstrap replicas failed "
                    f"(> 10% of {n_replicas}); aborting"
                )
            continue
        values[r] = row
    centers = np.full(n_points, np.nan)
    widths = np.full(n_points, np.nan)
    fits: list[GaussianBackgroundFit | None] = []
    replica_cols = []
    for i in range(n_points):
        col = values[:, i]
        col = col[np.isfinite(col)]
        replica_cols.append(col)
        if col.size < 2:
            fits.append(None)
            continue
        hist_counts, edges = np.histogram(col, bins=_REPLICA_BINS)
        fit = fit_gaussian_with_background(
            hist_counts, edges, background_kind
        )
        fits.append(fit)
        centers[i] = fit.center
        widths[i] = fit.width
    return BootstrapResult(
        estimator=estimator,
        scattering_lengths=a,
        centers=centers,
        widths=widths,
        background_kind=background_kind,
        n_replicas=n_replicas,
        n_failures=n_failures,
        replica_values=tuple(replica_cols),
        fits=tuple(fits),
    )


def fit_gaussian_with_background(
    counts: np.ndarray,
    edges: np.ndarray,
    background_kind: str = "none",
) -> GaussianBackgroundFit:
    """Gaussian (plus optional exponential background) fit to a histogram.

    The histogram is normalized to unit area before fitting.  The model is

        A exp(-(x - c)^2 / 2 w^2) + B exp(-x / tau)

    with the background term present only for ``background_kind =
    "exponential"``; B is constrained to [0, 1].

    Parameters
    ----------
    counts : ndarray
        Bin counts (or weights), length len(edges) - 1.
    edges : ndarray
        Bin edges.
    background_kind : str
        "none" or "exponential".

    Returns
    -------
    GaussianBackgroundFit
        ``converged`` False flags a degenerate width or failed solve.
    """
    counts = np.asarray(counts, dtype=float)
    edges = np.asarray(edges, dtype=float)
    if counts.size == 0 or counts.size != edges.size - 1:
        raise ValueError(
            f"bad histogram: {counts.size} counts, {edges.size} edges"
        )
    if background_kind not in ("none", "exponential"):
        raise ValueError(f"unknown background_kind {background_kind!r}")
    total = counts.sum()
    if total <= 0:
        raise ValueError("histogram has no mass")
    x = 0.5 * (edges[:-1] + edges[1:])
    bin_w = float(np.mean(np.diff(edges)))
    y = counts / (total * bin_w)
    span = float(edges[-1] - edges[0])
    mean = float(x @ counts / total)
    var = float(((x - mean) ** 2) @ counts / total)
    std = max(np.sqrt(var), 0.25 * bin_w)

    if background_kind == "none":
        p0 = np.array([mean, std, float(y.max())])
        lo = [edges[0] - span, 0.1 * bin_w, 0.0]
        hi = [edges[-1] + span, 10.0 * span, np.inf]

        def model(p):
            c, w0, amp = p
            return amp * np.exp(-0.5 * ((x - c) / w0) ** 2)

    else:
        tail = max(float(y[int(0.7 * y.size):].mean()), 0.0)
        p0 = np.array(
            [mean, std, max(float(y.max()) - tail, 1e-3), min(tail + 1e-3, 1.0),
             max(span / 3.0, bin_w)]
        )
        lo = [edges[0] - span, 0.1 * bin_w, 0.0, 0.0, 0.1 * bin_w]
        hi = [edges[-1] + span, 10.0 * span, np.inf, 1.0, np.inf]

        def model(p):
            c, w0, amp, bg, tau = p
            return amp * np.exp(-0.5 * ((x - c) / w0) ** 2) + bg * np.exp(-x / tau)

    try:
        res = least_squares(
            lambda p: model(p) - y, p0, bounds=(lo, hi), method="trf",
            xtol=1e-12, ftol=1e-12, gtol=1e-12, max_nfev=5000,
        )
        ok = bool(res.success and np.all(np.isfinite(res.x)))
        p = res.x
    except Exception:
        ok = False
        p = p0
    width = abs(float(p[1]))
    degenerate = width <= 0.11 * bin_w or width >= 9.9 * span
    if background_kind == "none":
        bg_amp, bg_scale = 0.0, float("inf")
    else:
        bg_amp, bg_scale = float(min(p[3], 1.0)), float(p[4])
    return GaussianBackgroundFit(
        center=float(p[0]),
        width=width,
        amplitude=float(p[2]),
        background_amplitude=bg_amp,
        background_scale=bg_scale,
        background_kind=background_kind,
        converged=bool(ok and not degenerate),
    )
