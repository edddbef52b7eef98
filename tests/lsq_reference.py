"""Per-histogram scipy fits: the reference for the batched fitter.

``bjjsense.estimation`` fits every histogram with its own vectorized
Levenberg-Marquardt loop.  This module keeps the per-histogram route it
replaced, ``fit_double_gaussian``: two starts, each run through MINPACK's
``least_squares(method="lm")`` with the analytic Jacobian, the lower cost
winning, then the same canonicalization and stationarity flag.  It shares
no fitting code with the package, only its result type and
``HistogramSpec``.

``unbounded_levenberg_marquardt`` is different: it is a second copy of the
package's Levenberg-Marquardt loop, kept apart from it and run on the
package's own residual, Jacobian and solve helpers, so that any change to
the loop's arithmetic shows as a bit difference.
``normal_equations`` and ``mixture_jacobian`` are the fitter's kernels in
their one-expression, lane-major forms: J^T J as one (lanes, n, n, bins)
product summed over its bins, and the Jacobian as ``np.stack`` of its
columns.  The package fills a parameter-major (n, lanes, bins) Jacobian
and builds J^T J from the upper triangle of its row products; transposed
to lane-major, both must match these bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import least_squares

import bjjsense.estimation as est
from bjjsense.estimation import DoubleGaussianFit, HistogramSpec

_SQRT2PI = float(np.sqrt(2.0 * np.pi))


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


def _histogram_moments(h: np.ndarray, z: np.ndarray) -> tuple[float, float]:
    """Mean of |z| and std of |z| about that mean, from bin probabilities."""
    mean_abs = float(np.abs(z) @ h)
    var_abs = float(((np.abs(z) - mean_abs) ** 2) @ h)
    return mean_abs, float(np.sqrt(max(var_abs, 0.0)))


def fit_double_gaussian(
    probabilities: np.ndarray, spec: HistogramSpec
) -> DoubleGaussianFit:
    """Least-squares double-Gaussian fit to a normalized histogram.

    Levenberg-Marquardt with the analytic Jacobian, started from (a) the
    moment initialization zbar0 = <|z|>, sigma0 = std(|z|) and (b) an even
    split of the total variance between separation and width.  The lower
    residual wins.  ``converged`` reflects the gradient norm at the
    solution; a failed fit is returned flagged rather than raised.

    Parameters
    ----------
    probabilities : ndarray
        Bin probabilities on ``spec``'s bins, summing to 1.
    spec : HistogramSpec

    Returns
    -------
    DoubleGaussianFit
    """
    z = spec.centers
    h = probabilities
    w = spec.bin_width
    mean_abs, std_abs = _histogram_moments(h, z)
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


def unbounded_levenberg_marquardt(p, residuals, jacobian):
    """The mixture fitter's loop without bounds, on the package's helpers.

    Same signature as ``bjjsense.estimation._levenberg_marquardt``; every
    step is the plain damped solve.  A lane stops on the same rules: a small step, a rejected step whose
    predicted decrease is at most machine epsilon times the cost, or a step
    that is not finite; it is flagged on the first two.
    """
    p = p.copy()
    r, terms = residuals(p, np.arange(len(p)))
    cost = 0.5 * np.sum(r * r, axis=1)
    a, g = est._normal_equations(jacobian(p, terms), r)
    scale = np.maximum(np.diagonal(a, axis1=1, axis2=2), est._TINY)
    mu = np.full(len(p), est._MU0)
    nu = np.full(len(p), 2.0)
    converged = np.zeros(len(p), dtype=bool)
    active = np.arange(len(p))
    diag = np.arange(p.shape[1])
    with np.errstate(all="ignore"):
        for _ in range(est._MAX_ITER):
            if not active.size:
                break
            damped = a[active]
            damped[:, diag, diag] += mu[active, None] * scale[active]
            g_act = g[active]
            step = est._solve(damped, -g_act)
            trial = p[active] + step
            r_t, terms_t = residuals(trial, active)
            cost_t = 0.5 * np.sum(r_t * r_t, axis=1)
            better = cost_t < cost[active]
            predicted = 0.5 * np.sum(
                step * (mu[active, None] * scale[active] * step - g_act), axis=1
            )
            rho = (cost[active] - cost_t) / predicted
            flat = ~better & (0.0 <= predicted) & (
                predicted <= est._FTOL * cost[active]
            )
            small = (
                np.sqrt(np.sum(step * step, axis=1))
                <= est._XTOL * (np.sqrt(np.sum(p[active] ** 2, axis=1)) + est._XTOL)
            )
            stop = ~np.all(np.isfinite(step), axis=1) | small | flat
            up = active[better]
            p[up] = trial[better]
            cost[up] = cost_t[better]
            a[up], g[up] = est._normal_equations(
                jacobian(trial[better], [x[better] for x in terms_t]),
                r_t[better],
            )
            scale[up] = np.maximum(scale[up], np.diagonal(a[up], axis1=1, axis2=2))
            mu[up] *= np.fmax(1.0 / 3.0, 1.0 - (2.0 * rho[better] - 1.0) ** 3)
            nu[up] = 2.0
            down = active[~better]
            mu[down] *= nu[down]
            nu[down] *= 2.0
            converged[active[small | flat]] = True
            active = active[~stop]
    return p, cost, converged


def normal_equations(jac: np.ndarray, r: np.ndarray):
    """J^T J and J^T r per lane from one (lanes, n, n, bins) product."""
    return (
        (jac[:, :, None, :] * jac[:, None, :, :]).sum(axis=-1),
        (jac * r[:, None, :]).sum(axis=-1),
    )


def mixture_jacobian(p: np.ndarray, w: float, gauss) -> np.ndarray:
    """``bjjsense.estimation._jacobian``, lane-major, with its columns
    stacked."""
    up, um, gp, gm = gauss
    sigma, ap, am = p[:, 1:2], p[:, 2:3], p[:, 3:4]
    d_zbar = w * (ap * up * gp - am * um * gm) / sigma
    d_sigma = w * (ap * gp * (up * up - 1.0) + am * gm * (um * um - 1.0)) / sigma
    return np.stack([d_zbar, d_sigma, w * gp, w * gm], axis=1)
