"""Per-histogram scipy fit: the reference for the batched mixture fitter.

``bjjsense.estimation`` fits every double-Gaussian histogram with its own
vectorized Levenberg-Marquardt loop.  This module keeps the per-histogram
route it replaced: two starts, each run through MINPACK's
``least_squares(method="lm")`` with the analytic Jacobian, the lower cost
winning, then the same canonicalization and stationarity flag.  It shares
no fitting code with the package, only the result and histogram types.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import least_squares

from bjjsense.estimation import DoubleGaussianFit, Histogram

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
