"""Regenerate the reference tables in ``perfbench/reference``.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py [ground-scaling ...]

The ground-scaling table is computed with the library at its current
commit: the per-size results of ``scaling_study``, with the moment route
also redone with the five-point slope of ``chi_at_point`` (close to the
exact derivative) in place of the scan-grid difference.  The shot-pipeline
table does not use the library: it is the Monte-Carlo mean and spread of
each estimator over many shot records drawn like the benchmark's, computed
with an independent histogram and double-Gaussian fit.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np
from scipy.optimize import least_squares

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import REFERENCE_DIR, WORKLOADS, write_csv  # noqa: E402

MC_SERIES = 400


def _exact_moment_scan(scan_lambda):
    """``scan_lambda`` with chi_mom from a five-point slope at each point."""
    from bjjsense.criticality import chi_at_point

    def scan(config):
        curve = scan_lambda(config)
        if "moment" not in config.which:
            return curve
        template = config.params_template
        chi_mom = np.array([
            chi_at_point(dataclasses.replace(template, lambda_control=float(lam)),
                         config.temperature, which=("moment",))["moment"]
            for lam in config.lambda_grid
        ])
        return dataclasses.replace(curve, chi_mom=chi_mom)

    return scan


def ground_scaling() -> None:
    """Per-size results, with the moment route both as the CLI computes it
    today (central differences on the window grid) and with the exact
    derivative that replaces them."""
    import bjjsense.criticality as criticality
    from bjjsense.model import ModelParams

    w = WORKLOADS["ground-scaling"]
    sizes = w.reference_sizes()
    per_base = 2 * w.jitter + 1
    delta_grid = np.logspace(-6.0, -1.0, w.delta_points)
    out = {k: [] for k in ("N", "lambda_c_n", "delta_star_mom", "delta_star_cl",
                           "delta_star_q", "chi_mom", "chi_cl", "chi_q",
                           "delta_star_mom_exact", "chi_mom_exact")}
    for j in range(per_base):
        triple = sizes[j::per_base]
        res = criticality.scaling_study(
            triple, 0.0, delta_grid=delta_grid, window_points=w.window_points,
        )
        for k, n in enumerate(triple):
            out["N"].append(n)
            out["lambda_c_n"].append(res.lambda_c[k])
            for m, suffix in (("moment", "mom"), ("classical", "cl"),
                              ("quantum", "q")):
                out[f"delta_star_{suffix}"].append(res.delta_star[m][k])
                out[f"chi_{suffix}"].append(res.chi[m][k])
    scan_lambda = criticality.scan_lambda
    criticality.scan_lambda = _exact_moment_scan(scan_lambda)
    try:
        for n, lam_c in zip(out["N"], out["lambda_c_n"]):
            opt = criticality.optimize_delta(
                n, "moment", lambda_c=lam_c, delta_grid=delta_grid,
                window_points=w.window_points,
            )
            out["delta_star_mom_exact"].append(opt.delta)
            out["chi_mom_exact"].append(criticality.chi_at_point(
                ModelParams(n, lambda_control=lam_c, imbalance=opt.delta),
                which=("moment",),
            )["moment"])
    finally:
        criticality.scan_lambda = scan_lambda
    order = np.argsort(out["N"])
    write_csv(
        os.path.join(REFERENCE_DIR, w.reference_file),
        {k: np.asarray(v, dtype=float)[order] for k, v in out.items()},
        f"scaling_study, T=0, {w.delta_points} tilts, {w.window_points} window points",
    )


def _fit_double_gaussian(h, centers, width, zbar0, sigma0):
    def resid(p):
        zbar, sigma, ap, am = p
        g = lambda u: np.exp(-0.5 * (u / sigma) ** 2) / (np.sqrt(2 * np.pi) * sigma)
        return width * (ap * g(centers - zbar) + am * g(centers + zbar)) - h

    p = least_squares(resid, [zbar0, sigma0, 0.5, 0.5], method="lm").x
    return abs(p[0]), abs(p[1])


def _derivative(y, x, i):
    if i == 0:
        return (y[1] - y[0]) / (x[1] - x[0])
    if i == x.size - 1:
        return (y[-1] - y[-2]) / (x[-1] - x[-2])
    return (y[i + 1] - y[i - 1]) / (x[i + 1] - x[i - 1])


def shot_pipeline() -> None:
    w = WORKLOADS["shot-pipeline"]
    a = np.asarray(w.scattering_lengths)
    bin_width = 0.05
    edges = bin_width * np.arange(-20, 21)
    centers = 0.5 * (edges[:-1] + edges[1:])
    n = a.size
    samples = {k: np.empty((MC_SERIES, n)) for k in ("zbar", "sigma", "chi_mom", "chi_cl")}
    rng = np.random.default_rng(20261017)
    for s in range(MC_SERIES):
        hists = [np.histogram(r, bins=edges)[0] / r.size for r in w.draw(rng)]
        fits = [_fit_double_gaussian(h, centers, bin_width, z, w.sigma)
                for h, z in zip(hists, w.zbar)]
        zbar = np.array([f[0] for f in fits])
        sigma = np.array([f[1] for f in fits])
        samples["zbar"][s], samples["sigma"][s] = zbar, sigma
        samples["chi_mom"][s] = [(_derivative(zbar, a, i) / sigma[i]) ** 2
                                 for i in range(n)]
        samples["chi_cl"][s] = np.nan
        for i in range(1, n - 1):
            eps = np.array([a[i - 1] - a[i], a[i + 1] - a[i]])
            deficit = np.array([1.0 - np.sqrt(hists[i] * hists[j]).sum()
                                for j in (i - 1, i + 1)])
            x = eps * eps / 8.0
            samples["chi_cl"][s, i] = max(x @ deficit / (x @ x), 0.0)
    cols = {"a_s": a, "zbar_true": np.asarray(w.zbar)}
    for k, v in samples.items():
        cols[f"{k}_mean"] = v.mean(axis=0)
        cols[f"{k}_std"] = v.std(axis=0, ddof=1)
    write_csv(
        os.path.join(REFERENCE_DIR, w.reference_file),
        cols,
        f"Monte Carlo over {MC_SERIES} shot records of {w.shots} shots per point",
    )


BUILDERS = {
    "ground-scaling": ground_scaling,
    "shot-pipeline": shot_pipeline,
}

if __name__ == "__main__":
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in sys.argv[1:] or list(BUILDERS):
        BUILDERS[name]()
        print(f"wrote reference for {name}")
