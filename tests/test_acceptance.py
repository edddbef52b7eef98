"""End-to-end checks of the advertised results at their stated tolerances.

Each test is one headline claim: the two finite-size scaling laws, the
closed forms on both sides of the transition, the dominance chain on full
scans, agreement with the dense reference implementation, the analytic
Fisher-information families, the commuting-case identity, and the
calibration of the estimation pipeline on synthetic data.  One check is
red at its advertised tolerance: the chi_cl/chi_Q prefactor of the N^(4/3)
law fits at ~1.32 (and climbs toward ~1.43 at larger N) against the
advertised 1.08, whose origin is not documented; README says more.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.stats import norm

import bjjsense.estimation as est
from dense_oracle import dense_chi_point, dense_hamiltonian, jacobi_eigh
from fd_reference import (
    DensityOperator,
    default_epsilons,
    fd_chi_point,
    susceptibility_from_fidelity,
    uhlmann_fidelity,
)

from bjjsense.criticality import (
    METHODS,
    ScanConfig,
    chi_at_point,
    default_lambda_grid,
    scaling_study,
    scan_lambda,
)
from bjjsense import bhattacharyya_fidelity
from bjjsense.model import ModelParams, eigenvalues

SIZES = (200, 300, 500, 700, 1000)
TILT = 2e-3


@pytest.fixture(scope="module")
def scaling():
    """Five-size scaling study with per-method tilt optimization (~30 s)."""
    return scaling_study(SIZES)


@pytest.fixture(scope="module")
def full_scans():
    """Full N=1000 scans at three temperatures (~3 min)."""
    curves = {}
    for temperature in (0.0, 0.5, 1.0):
        curves[temperature] = scan_lambda(
            ScanConfig(
                params_template=ModelParams(1000, imbalance=TILT),
                lambda_grid=default_lambda_grid(),
                temperature=temperature,
            )
        )
    return curves


@pytest.mark.slow
def test_finite_size_critical_shift_power_law(scaling):
    fit = scaling.shift_fit
    assert abs(fit.exponent - (-2.0 / 3.0)) <= 0.05, (
        f"shift exponent {fit.exponent:.4f}, want -2/3 +- 0.05"
    )
    assert abs(fit.prefactor - 2.3) <= 0.2 * 2.3, (
        f"shift prefactor {fit.prefactor:.4f}, want 2.3 +- 20%"
    )


def _corrected_power_law(n, y):
    """Fit y = a N^b (1 + c N^(-2/3)) by least squares in log space.

    The N^(-2/3) term is the leading correction to scaling of the two-mode
    model at its critical point.  Returns (a, b, c).
    """
    n = np.asarray(n, dtype=float)
    y = np.asarray(y, dtype=float)
    ln, ly = np.log(n), np.log(y)
    x = n ** (-2.0 / 3.0)

    def residual(p):
        return p[0] + p[1] * ln + np.log1p(p[2] * x) - ly

    slope, intercept = np.polyfit(ln, ly, 1)
    # Keep 1 + c N^(-2/3) positive at every fitted size.
    c_min = -0.99 / x.max()
    res = least_squares(
        residual,
        [intercept, slope, 0.0],
        bounds=([-np.inf, -np.inf, c_min], [np.inf, np.inf, np.inf]),
    )
    log_a, b, c = res.x
    return float(np.exp(log_a)), float(b), float(c)


@pytest.mark.slow
def test_peak_susceptibility_super_extensive_scaling(scaling):
    # chi/N^(4/3) at the optimized tilt follows A (1 - c' N^(-2/3)) with
    # c' ~ 6-7 (the optimization is scaling-consistent: delta* N is nearly
    # constant), so a plain power law over N = 200..1000 reads the
    # correction as an exponent ~0.43.  The fit therefore carries the
    # N^(-2/3) correction, giving b ~ 0.34.  The moment prefactor then fits
    # at ~1.11 (inside 1.18 +- 15%); the classical and quantum ones fit at
    # ~1.32, and chi_Q/N^(4/3) keeps rising to ~1.41 at N = 8000, against an
    # advertised 1.08 that stays as written.  See README.
    advertised = {"moment": 1.18, "classical": 1.08, "quantum": 1.08}
    n = scaling.n_values
    problems = []
    summary = []
    for method in ("moment", "classical", "quantum"):
        a, b, c = _corrected_power_law(n, scaling.chi[method] / n)
        free = scaling.fits[method]
        summary.append(
            f"{method}: corrected a={a:.4f} b={b:.4f} c={c:.3f}, "
            f"free a={free.prefactor:.4f} b={free.exponent:.4f}"
        )
        if abs(b - 1.0 / 3.0) > 0.05:
            problems.append(
                f"{method} chi/N exponent {b:.4f}, want 1/3 +- 0.05"
            )
        ref = advertised[method]
        if abs(a - ref) > 0.15 * ref:
            problems.append(
                f"{method} prefactor {a:.4f}, want {ref} +- 15%"
            )
    assert not problems, "; ".join(problems) + " | " + "; ".join(summary)


def test_symmetric_phase_closed_form():
    # chi_Q -> 1/[8 (1+lambda)^2] is the untilted harmonic limit.  The
    # symmetric-phase ground state is non-degenerate, so no tilt is needed
    # to select a branch; a tilt delta would displace the oscillator and add
    # ~ delta^2 N / (1+lambda)^(7/2), a term that grows with N (+19% at
    # N=1000, lambda=-0.7 for delta=2e-3).  At delta=0 the finite-size
    # deviation is -1.7%, -0.6%, -0.3% at the three points.
    problems = []
    for lam in (-0.7, -0.5, -0.3):
        point = chi_at_point(
            ModelParams(1000, lambda_control=lam, imbalance=0.0),
            which=("quantum",),
        )
        reference = 1.0 / (8.0 * (lam + 1.0) ** 2)
        rel = point["quantum"] / reference - 1.0
        if abs(rel) > 0.10:
            problems.append(f"lambda={lam}: off by {rel:+.1%}")
    assert not problems, "; ".join(problems)


def test_broken_phase_closed_form():
    # The untilted broken-phase ground state is a degenerate cat pair; the
    # small tilt used throughout the scans selects a branch.
    for lam in (-2.0, -3.0):
        point = chi_at_point(
            ModelParams(1000, lambda_control=lam, imbalance=TILT),
            which=("quantum",),
        )
        reference = 1000.0 / (abs(lam) ** 3 * np.sqrt(lam * lam - 1.0))
        assert point["quantum"] == pytest.approx(reference, rel=0.10), (
            f"lambda={lam}"
        )


@pytest.mark.slow
def test_susceptibility_dominance_chain(full_scans):
    for temperature, curve in full_scans.items():
        mom_excess = float(np.max(curve.chi_mom / curve.chi_cl - 1.0))
        cl_excess = float(np.max(curve.chi_cl / curve.chi_q - 1.0))
        assert mom_excess <= 1e-2, (
            f"T={temperature}: chi_mom exceeds chi_cl by {mom_excess:.2e}"
        )
        assert cl_excess <= 1e-2, (
            f"T={temperature}: chi_cl exceeds chi_q by {cl_excess:.2e}"
        )


def test_agrees_with_dense_reference():
    rng = np.random.default_rng(61)
    for _ in range(50):
        n = int(rng.integers(2, 21))
        # tilts delta / Omega of couplings Omega in [0.5, 2]
        omega = float(rng.uniform(0.5, 2.0))
        params = ModelParams(
            n_particles=n,
            lambda_control=float(rng.uniform(-3.0, 0.5)),
            imbalance=float(rng.uniform(-0.05, 0.05)) / omega,
        )
        vals = eigenvalues(params, [params.lambda_control], n + 1)[0]
        ref, _ = jacobi_eigh(dense_hamiltonian(
            n, 1.0, params.lambda_control, params.imbalance
        ))
        assert np.max(np.abs(vals - ref)) <= 1e-10

    for lam, delta, temperature in ((-1.5, 1e-3, 0.0), (-0.8, 2e-3, 1.0)):
        pkg = fd_chi_point(
            ModelParams(n_particles=10, lambda_control=lam, imbalance=delta),
            temperature, METHODS, 3e-2,
        )
        ref = dense_chi_point(10, lam, delta, temperature, epsilon0=3e-2)
        for method in ("moment", "classical", "quantum"):
            assert pkg[method] == pytest.approx(ref[method], rel=1e-6)


def test_fisher_information_analytic_families():
    # Gaussian location family: classical Fisher information is 1/sigma^2.
    sigma = 0.05
    z = np.linspace(-0.75, 0.75, 1501)

    def location_dist(mu):
        p = np.exp(-0.5 * ((z - mu) / sigma) ** 2)
        return p / p.sum()

    chi_cl = susceptibility_from_fidelity(
        lambda eps: bhattacharyya_fidelity(location_dist(0.0),
                                           location_dist(eps)),
        default_epsilons(0.0),
    )
    assert chi_cl.value == pytest.approx(1.0 / sigma**2, rel=1e-2)

    # Two-level rotation family: chi_Q = 4 exactly.
    def rotated(theta):
        v = np.array([[np.cos(theta)], [np.sin(theta)]])
        return DensityOperator(v, np.ones(1))

    chi_q = susceptibility_from_fidelity(
        lambda eps: uhlmann_fidelity(rotated(0.3), rotated(0.3 + eps)),
        default_epsilons(0.3),
        method="quantum",
    )
    assert chi_q.value == pytest.approx(4.0, abs=1e-6)


def test_commuting_pairs_have_equal_fidelities():
    rng = np.random.default_rng(88)
    for _ in range(100):
        dim = int(rng.integers(2, 13))
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        w1 = rng.random(dim) + 1e-3
        w2 = rng.random(dim) + 1e-3
        w1 /= w1.sum()
        w2 /= w2.sum()
        f_q = uhlmann_fidelity(
            DensityOperator(basis, w1), DensityOperator(basis, w2)
        )
        f_cl = float(np.sqrt(w1 * w2).sum())
        assert abs(f_q - f_cl) <= 1e-10


def _population_histogram(zbar, sigma, spec):
    """Exact bin probabilities of the clipped symmetric mixture."""
    edges = spec.edges
    p = np.zeros(edges.size - 1)
    for mu, w in ((zbar, 0.5), (-zbar, 0.5)):
        cdf = norm.cdf((edges - mu) / sigma)
        p += w * np.diff(cdf)
        p[0] += w * cdf[0]
        p[-1] += w * (1.0 - cdf[-1])
    return p


def test_bootstrap_bars_cover_population_truth():
    # Family with a slope floor: every grid point keeps chi well above the
    # finite-sample Bhattacharyya bias ~ 2 m_bins / (n Delta^2), so the
    # error bars are testing noise, not bias.
    a = np.round(-2.34 + 0.15 * np.arange(10), 10)
    zbar = 0.18 + 0.25 * (a + 2.34) + 0.12 * (1.0 + np.tanh((a + 1.746) / 0.2))
    sigma = 0.1
    spec = est.HistogramSpec()

    hists_true = np.array([_population_histogram(zb, sigma, spec) for zb in zbar])
    truth, fits_true = est._estimates(
        hists_true[None], a, spec, ("chi_mom", "chi_cl")
    )
    truth = {k: v[0] for k, v in truth.items()}
    # The top point carries ~0.4% clipped mass in its edge bin, which the
    # smooth mixture cannot absorb to full stationarity; parameter recovery
    # is what defines the truth values.
    assert np.all(np.abs(fits_true["separation"][0] - zbar) <= 5e-3)
    assert np.all(fits_true["residual"][0] <= 1e-4)

    params = [est.DoubleGaussianFit(zb, sigma, 0.5, 0.5) for zb in zbar]
    series = est.synth_samples(a, params, 24000, seed=6)
    points, _ = est.series_estimates(series)

    peak_mom = int(np.argmax(points["chi_mom"]))
    peak_cl = int(np.nanargmax(points["chi_cl"]))
    assert abs(peak_mom - peak_cl) <= 1

    for name in ("chi_mom", "chi_cl"):
        boot = est.bootstrap(series, name, n_replicas=3000, seed=6)
        assert boot.n_failures == 0
        pulls = (truth[name] - points[name]) / boot.widths
        valid = np.isfinite(pulls)
        covered = int(np.sum(np.abs(pulls[valid]) <= 1.0))
        total = int(np.sum(valid))
        assert covered / total >= 0.6, (
            f"{name}: bars cover truth at {covered}/{total} points"
        )


def test_no_laboratory_data_bundled():
    # The measured-apparatus results (the experimental critical scattering
    # length near -1.746 a0 and chi values an order of magnitude below this
    # model) require data the package does not ship; the synthetic-closure
    # check above stands in for them.  Nothing installed may embed such a
    # dataset or constant.
    import bjjsense

    root = Path(bjjsense.__file__).parent
    files = [
        p for p in root.rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    ]
    non_source = [p.name for p in files if p.suffix != ".py"]
    assert non_source == []
    for path in files:
        assert "1.746" not in path.read_text(encoding="utf-8"), path.name
