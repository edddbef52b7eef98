"""Synthetic imbalance records: histograms, mixture fits, estimators, bootstrap."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lsq_reference
import bjjsense.estimation as est
from bjjsense.estimation import (
    DoubleGaussianFit,
    Histogram,
    HistogramSpec,
    MeasurementSeries,
    bootstrap,
    build_histogram,
    chi_cl_experimental,
    chi_mom_experimental,
    fit_double_gaussian,
    fit_gaussian_with_background,
    fit_series,
    series_estimates,
    synth_samples,
)


def _mixture(zbar, sigma, ap=0.5, am=0.5):
    return DoubleGaussianFit(separation=zbar, width=sigma,
                             amplitude_plus=ap, amplitude_minus=am)


def test_series_validation():
    good = np.array([0.1, -0.2])
    with pytest.raises(ValueError):
        MeasurementSeries(np.array([1.0]), (good,))
    with pytest.raises(ValueError):
        MeasurementSeries(np.array([1.0, 1.0]), (good, good))
    with pytest.raises(ValueError):
        MeasurementSeries(np.array([1.0, 2.0]), (good,))
    with pytest.raises(ValueError):
        MeasurementSeries(np.array([1.0, 2.0]), (good, np.array([1.5])))
    with pytest.raises(ValueError):
        MeasurementSeries(np.array([1.0, 2.0]), (good, np.array([])))


def test_series_rejects_non_finite_input():
    good = np.array([0.1, -0.2])
    with pytest.raises(ValueError, match="non-finite"):
        MeasurementSeries(np.array([1.0, 2.0]), (good, np.array([0.3, np.nan])))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            MeasurementSeries(np.array([0.0, bad]), (good, good))


def test_synth_centered_gaussian_mean():
    gen = _mixture(0.0, 0.1)
    series = synth_samples([0.0, 1.0], [gen, gen], 100_000, seed=1)
    z = series.records[0]
    assert abs(z.mean()) < 3.0 * 0.1 / np.sqrt(100_000)
    assert np.all(np.abs(z) <= 1.0)


def test_synth_separated_mixture_abs_mean():
    gen = _mixture(0.5, 0.05)
    series = synth_samples([0.0, 1.0], [gen, gen], 100_000, seed=2)
    assert abs(np.abs(series.records[0]).mean() - 0.5) < 0.005


def test_synth_deterministic():
    gens = [_mixture(0.3, 0.1), _mixture(0.4, 0.1)]
    s1 = synth_samples([0.0, 1.0], gens, 500, seed=11)
    s2 = synth_samples([0.0, 1.0], gens, 500, seed=11)
    s3 = synth_samples([0.0, 1.0], gens, 500, seed=12)
    for r1, r2 in zip(s1.records, s2.records):
        assert np.array_equal(r1, r2)
    assert not np.array_equal(s1.records[0], s3.records[0])
    assert s1.rng_seed == 11


def test_synth_validation():
    gen = _mixture(0.3, 0.1)
    with pytest.raises(ValueError):
        synth_samples([0.0, 1.0], [gen], 100, seed=0)
    with pytest.raises(ValueError):
        synth_samples([0.0, 1.0], [gen, gen], [100], seed=0)
    with pytest.raises(ValueError):
        synth_samples([0.0, 1.0], [gen, gen], 0, seed=0)


def test_histogram_single_bin():
    h = build_histogram(np.full(50, 0.12), HistogramSpec())
    assert_allclose(h.probabilities.sum(), 1.0, rtol=1e-15)
    idx = int(np.argmax(h.probabilities))
    assert h.probabilities[idx] == 1.0
    assert h.spec.edges[idx] <= 0.12 < h.spec.edges[idx + 1]


def test_histogram_uniform_samples():
    rng = np.random.default_rng(13)
    u = rng.uniform(-1.0, 1.0, 100_000)
    h = build_histogram(u, HistogramSpec(bin_width=0.05))
    assert h.probabilities.size == 40
    p = 0.025
    sigma = np.sqrt(p * (1.0 - p) / 100_000)
    assert np.max(np.abs(h.probabilities - p)) < 5.0 * sigma


def test_histogram_edges_anchored_at_zero():
    for width in (0.05, 0.08):
        edges = HistogramSpec(bin_width=width).edges
        assert 0.0 in edges
        assert_allclose(edges / width, np.round(edges / width), atol=1e-9)
        assert edges[0] <= -1.0 <= 1.0 <= edges[-1]


def test_histogram_rejects_empty():
    with pytest.raises(ValueError):
        build_histogram(np.array([]), HistogramSpec())
    with pytest.raises(ValueError):
        HistogramSpec(bin_width=0.0)


def test_fit_recovers_separated_mixture():
    gen = _mixture(0.5, 0.05)
    for seed in (42, 7):
        series = synth_samples([0.0, 1.0], [gen, gen], 100_000, seed=seed)
        fit = fit_double_gaussian(
            build_histogram(series.records[0], HistogramSpec())
        )
        assert fit.converged
        assert abs(fit.separation - 0.5) < 0.01
        # the fitted width also absorbs the bin-width convolution
        assert abs(fit.width - 0.05) < 0.0025


def test_fit_single_gaussian_degenerate_but_stable():
    gen = _mixture(0.0, 0.1)
    series = synth_samples([0.0, 1.0], [gen, gen], 100_000, seed=7)
    fit = fit_double_gaussian(
        build_histogram(series.records[0], HistogramSpec())
    )
    assert fit.separation < 2.0 * fit.width
    assert 0.05 < fit.width < 0.15


def test_fit_mirror_swaps_amplitudes():
    gen = _mixture(0.4, 0.08, ap=0.7, am=0.3)
    series = synth_samples([0.0, 1.0], [gen, gen], 50_000, seed=3)
    h = build_histogram(series.records[0], HistogramSpec())
    mirrored = Histogram(spec=h.spec,
                         probabilities=h.probabilities[::-1].copy())
    fit = fit_double_gaussian(h)
    swap = fit_double_gaussian(mirrored)
    assert_allclose(swap.separation, fit.separation, rtol=1e-9)
    assert_allclose(swap.width, fit.width, rtol=1e-9)
    assert_allclose(swap.amplitude_plus, fit.amplitude_minus, rtol=1e-9)
    assert_allclose(swap.amplitude_minus, fit.amplitude_plus, rtol=1e-9)


def test_fit_params_validation():
    with pytest.raises(ValueError):
        DoubleGaussianFit(separation=0.1, width=0.0,
                          amplitude_plus=0.5, amplitude_minus=0.5)
    with pytest.raises(ValueError):
        DoubleGaussianFit(separation=-0.1, width=0.1,
                          amplitude_plus=0.5, amplitude_minus=0.5)


def test_chi_mom_linear_zbar():
    a = np.array([0.0, 0.5, 1.2, 2.0])
    slope, sigma = 0.3, 0.1
    fits = [_mixture(float(slope * x), sigma) for x in a]
    for i in range(a.size):
        assert_allclose(chi_mom_experimental(fits, a, i),
                        (slope / sigma) ** 2, rtol=1e-12)


def test_chi_mom_constant_zbar():
    a = np.linspace(0.0, 1.0, 5)
    fits = [_mixture(0.4, 0.1) for _ in a]
    assert chi_mom_experimental(fits, a, 2) == 0.0


def test_chi_mom_peaks_at_transition_point():
    # order-parameter curve with a kink: the derivative blows up at a_c,
    # so chi lands on the grid point nearest to it
    a_c = -1.746
    a = np.arange(-3.0, -0.99, 0.15)
    zbar = np.where(a < a_c,
                    np.sqrt(np.clip(1.0 - (a_c / a) ** 2, 0.0, None)), 0.0)
    fits = [_mixture(float(z), 0.1) for z in zbar]
    chi = np.array([chi_mom_experimental(fits, a, i) for i in range(a.size)])
    interior_argmax = int(np.argmax(chi[1:-1])) + 1
    nearest = int(np.argmin(np.abs(a - a_c)))
    assert interior_argmax == nearest


def test_chi_mom_validation():
    a = np.linspace(0.0, 1.0, 4)
    fits = [_mixture(0.1, 0.1) for _ in a]
    with pytest.raises(ValueError):
        chi_mom_experimental(fits[:3], a, 1)
    with pytest.raises(ValueError):
        chi_mom_experimental(fits, a, 4)


def test_chi_cl_identical_histograms():
    h = build_histogram(np.array([0.1, -0.3, 0.5]), HistogramSpec())
    a = np.array([0.0, 1.0, 2.0])
    assert chi_cl_experimental([h, h, h], a, 1) == 0.0


def test_chi_cl_gaussian_location_family():
    # location family chi = (c a0)^2 / sigma^2, resolved on fine bins
    sigma, c = 0.1, 1.0
    spec = HistogramSpec(bin_width=0.002)
    x = spec.centers
    a = np.array([-0.005, 0.0, 0.005])

    def hist(mu):
        p = np.exp(-((x - mu) ** 2) / (2.0 * sigma * sigma))
        return Histogram(spec=spec, probabilities=p / p.sum())

    chi = chi_cl_experimental([hist(c * v) for v in a], a, 1)
    assert_allclose(chi, (c / sigma) ** 2, rtol=5e-3)


def test_chi_cl_symmetric_deficits_closed_form():
    spec = HistogramSpec(bin_width=0.5)
    center = Histogram(spec=spec,
                       probabilities=np.array([0.0, 0.5, 0.5, 0.0]))
    side = Histogram(spec=spec,
                     probabilities=np.array([0.0, 0.25, 0.75, 0.0]))
    a = np.array([0.0, 0.2, 0.4])
    f = float(np.sqrt(center.probabilities * side.probabilities).sum())
    expected = 8.0 * (1.0 - f) / 0.2**2
    assert_allclose(chi_cl_experimental([side, center, side], a, 1),
                    expected, rtol=1e-12)


def test_chi_cl_requires_interior_index():
    h = build_histogram(np.array([0.1, 0.2]), HistogramSpec())
    a = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        chi_cl_experimental([h, h, h], a, 0)
    with pytest.raises(ValueError):
        chi_cl_experimental([h, h, h], a, 2)


def test_chi_cl_fidelities_bounded():
    rng = np.random.default_rng(19)
    spec = HistogramSpec()
    a = np.array([0.0, 1.0, 2.0])
    for _ in range(5):
        hists = [
            build_histogram(np.clip(rng.normal(m, 0.2, 800), -1, 1), spec)
            for m in rng.uniform(-0.5, 0.5, 3)
        ]
        for i, j in ((1, 0), (1, 2)):
            f = float(np.sqrt(hists[i].probabilities
                              * hists[j].probabilities).sum())
            assert 0.0 <= f <= 1.0
        assert chi_cl_experimental(hists, a, 1) >= 0.0


def test_series_estimates_layout():
    a = np.arange(-2.4, -1.0, 0.2)
    gens = [_mixture(0.3 + 0.05 * i, 0.1) for i in range(a.size)]
    series = synth_samples(a, gens, 2000, seed=21)
    out = series_estimates(series)
    assert set(out) == {"zbar", "sigma", "chi_mom", "chi_cl"}
    assert np.isnan(out["chi_cl"][0]) and np.isnan(out["chi_cl"][-1])
    assert np.all(np.isfinite(out["chi_cl"][1:-1]))
    assert np.all(np.isfinite(out["chi_mom"]))
    assert np.all(out["sigma"] > 0)


def test_estimator_peaks_coincide():
    a = np.arange(-2.7, -0.7, 0.18)
    zbars = 0.25 + 0.40 / (1.0 + np.exp((a + 1.746) / 0.15))
    gens = [_mixture(float(z), 0.1) for z in zbars]
    for seed in (1, 2, 3):
        series = synth_samples(a, gens, 3000, seed=seed)
        out = series_estimates(series)
        mom_argmax = int(np.argmax(out["chi_mom"][1:-1])) + 1
        cl_argmax = int(np.nanargmax(out["chi_cl"]))
        assert abs(mom_argmax - cl_argmax) <= 1


def test_bootstrap_deterministic():
    a = np.arange(-2.7, -1.7, 0.18)
    zbars = 0.25 + 0.40 / (1.0 + np.exp((a + 1.746) / 0.15))
    gens = [_mixture(float(z), 0.1) for z in zbars]
    series = synth_samples(a, gens, 400, seed=5)
    b1 = bootstrap(series, "chi_cl", n_replicas=300, seed=9)
    b2 = bootstrap(series, "chi_cl", n_replicas=300, seed=9)
    assert np.array_equal(b1.centers, b2.centers, equal_nan=True)
    assert np.array_equal(b1.widths, b2.widths, equal_nan=True)
    for r1, r2 in zip(b1.replica_values, b2.replica_values):
        assert np.array_equal(r1, r2)


def test_bootstrap_center_stable_under_doubling():
    a = np.arange(-2.7, -1.7, 0.18)
    zbars = 0.25 + 0.40 / (1.0 + np.exp((a + 1.746) / 0.15))
    gens = [_mixture(float(z), 0.1) for z in zbars]
    series = synth_samples(a, gens, 400, seed=5)
    b300 = bootstrap(series, "chi_cl", n_replicas=300, seed=9)
    b600 = bootstrap(series, "chi_cl", n_replicas=600, seed=9)
    i = 2
    assert (abs(b300.centers[i] - b600.centers[i])
            < 3.0 * b300.widths[i] / np.sqrt(300))


def test_bootstrap_background_defaults():
    a = np.array([-2.0, -1.8, -1.6])
    gens = [_mixture(z, 0.1) for z in (0.55, 0.45, 0.35)]
    series = synth_samples(a, gens, 300, seed=4)
    b_cl = bootstrap(series, "chi_cl", n_replicas=120, seed=1)
    b_mom = bootstrap(series, "chi_mom", n_replicas=120, seed=1)
    assert b_cl.background_kind == "none"
    assert b_mom.background_kind == "exponential"
    assert np.isnan(b_cl.centers[0]) and np.isnan(b_cl.centers[-1])
    assert b_cl.widths[1] > 0
    assert np.all(b_mom.widths > 0)
    assert b_mom.n_replicas == 120


def test_bootstrap_validation():
    a = np.array([-2.0, -1.8, -1.6])
    gens = [_mixture(0.4, 0.1) for _ in a]
    series = synth_samples(a, gens, 200, seed=4)
    with pytest.raises(ValueError):
        bootstrap(series, "chi_other", n_replicas=120)
    with pytest.raises(ValueError):
        bootstrap(series, "chi_cl", n_replicas=99)
    with pytest.raises(ValueError):
        bootstrap(series, "chi_cl", n_replicas=120, background_kind="linear")


def test_bootstrap_redraws_failed_replicas_once(monkeypatch):
    a = np.array([-2.0, -1.8, -1.6])
    gens = [_mixture(0.4, 0.1) for _ in a]
    series = synth_samples(a, gens, 200, seed=4)
    real_check = est._valid_series
    calls = {"n": 0}

    def flaky(fits, n_series):
        # every replica of the first batch fails, every redraw succeeds
        calls["n"] += 1
        valid = real_check(fits, n_series)
        return valid & (calls["n"] % 2 == 0)

    monkeypatch.setattr(est, "_valid_series", flaky)
    result = bootstrap(series, "chi_cl", n_replicas=120, seed=2)
    assert result.n_failures == 0
    assert all(col.size == 120 for col in result.replica_values[1:-1])


def test_bootstrap_aborts_on_persistent_failures(monkeypatch):
    a = np.array([-2.0, -1.8, -1.6])
    gens = [_mixture(0.4, 0.1) for _ in a]
    series = synth_samples(a, gens, 200, seed=4)
    monkeypatch.setattr(est, "_valid_series",
                        lambda fits, n_series: np.zeros(n_series, dtype=bool))
    with pytest.raises(RuntimeError):
        bootstrap(series, "chi_cl", n_replicas=120, seed=2)


def test_bootstrap_replica_runs_the_series_chain():
    # replica r of seed s redraws every record from the base fits with the
    # stream [s, r, 0]; its row must be series_estimates on those records
    a = np.arange(-2.7, -1.7, 0.18)
    zbars = 0.25 + 0.40 / (1.0 + np.exp((a + 1.746) / 0.15))
    series = synth_samples(a, [_mixture(float(z), 0.1) for z in zbars], 400,
                           seed=5)
    seed, r = 9, 37
    rng = np.random.default_rng([seed, r, 0])
    redrawn = MeasurementSeries(a, tuple(
        est._draw_mixture(rng, f, rec.size)
        for f, rec in zip(fit_series(series), series.records)
    ))
    expected = series_estimates(redrawn)
    for estimator in ("chi_mom", "chi_cl"):
        result = bootstrap(series, estimator, n_replicas=100, seed=seed)
        assert result.n_failures == 0
        row = [col[r] if col.size else np.nan for col in result.replica_values]
        assert np.array_equal(row, expected[estimator], equal_nan=True)


def test_background_fit_pure_gaussian():
    edges = np.linspace(0.0, 8.0, 101)
    x = 0.5 * (edges[:-1] + edges[1:])
    bin_w = edges[1] - edges[0]
    density = 0.9 * np.exp(-0.5 * ((x - 4.0) / 0.7) ** 2)
    fit = fit_gaussian_with_background(5e4 * density * bin_w, edges, "none")
    assert fit.converged
    assert_allclose(fit.center, 4.0, rtol=1e-6)
    assert_allclose(fit.width, 0.7, rtol=1e-6)
    assert fit.background_amplitude == 0.0


def test_background_fit_recovers_both_components():
    edges = np.linspace(0.0, 8.0, 101)
    x = 0.5 * (edges[:-1] + edges[1:])
    bin_w = edges[1] - edges[0]
    density = (0.8 * np.exp(-0.5 * ((x - 3.0) / 0.5) ** 2)
               + 0.4 * np.exp(-x / 2.0))
    fit = fit_gaussian_with_background(1e5 * density * bin_w, edges,
                                       "exponential")
    assert fit.converged
    assert_allclose(fit.center, 3.0, rtol=0.1)
    assert_allclose(fit.width, 0.5, rtol=0.1)
    assert_allclose(fit.background_scale, 2.0, rtol=0.1)
    # the fit renormalizes to unit area, so compare the scale-free ratio
    assert_allclose(fit.amplitude / fit.background_amplitude, 2.0, rtol=0.1)


def test_background_amplitude_clamped():
    edges = np.linspace(0.0, 8.0, 101)
    x = 0.5 * (edges[:-1] + edges[1:])
    bin_w = edges[1] - edges[0]
    counts = 1e5 * np.exp(-x / 0.3) * bin_w
    fit = fit_gaussian_with_background(counts, edges, "exponential")
    assert fit.background_amplitude <= 1.0 + 1e-12


def test_background_fit_validation():
    edges = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        fit_gaussian_with_background(np.ones(9), edges, "none")
    with pytest.raises(ValueError):
        fit_gaussian_with_background(np.zeros(10), edges, "none")
    with pytest.raises(ValueError):
        fit_gaussian_with_background(np.ones(10), edges, "quadratic")


def test_fit_series_matches_pointwise_fit():
    a = np.array([-2.0, -1.8])
    gens = [_mixture(0.5, 0.08), _mixture(0.3, 0.08)]
    series = synth_samples(a, gens, 5000, seed=6)
    fits = fit_series(series)
    direct = fit_double_gaussian(
        build_histogram(series.records[1], HistogramSpec())
    )
    assert fits[1].separation == direct.separation
    assert fits[1].width == direct.width


def _random_mixture_histograms(seed, count):
    """Histograms of mixtures with zbar in [0, 0.8], sigma in [0.03, 0.3],
    unequal amplitudes and 200-100,000 samples; wide or far peaks pile
    clipped mass into the edge bins at +-1."""
    rng = np.random.default_rng(seed)
    hists = []
    for _ in range(count):
        share = rng.uniform(0.1, 0.9)
        gen = _mixture(rng.uniform(0.0, 0.8), rng.uniform(0.03, 0.3),
                       share, 1.0 - share)
        n = int(10.0 ** rng.uniform(np.log10(200), 5.0))
        hists.append(build_histogram(est._draw_mixture(rng, gen, n),
                                     HistogramSpec()))
    return hists


def test_batched_fit_matches_scipy_reference():
    hists = _random_mixture_histograms(0, 200)
    assert sum(h.probabilities[[0, -1]].max() > 0.01 for h in hists) >= 10
    spec = HistogramSpec()
    fits = est._fit_mixtures(np.array([h.probabilities for h in hists]), spec)
    batched = [est._fit_at(fits, i) for i in range(len(hists))]
    reference = [lsq_reference.fit_double_gaussian(h) for h in hists]
    for fit, ref in zip(batched, reference):
        # Where the reference clamped a negative amplitude to 0 its residual
        # is not the cost it minimized: both fits then run down the
        # unbounded valley A+ = -A- -> inf, zbar -> 0, unconverged.
        if ref.amplitude_plus > 0 and ref.amplitude_minus > 0:
            assert fit.residual <= ref.residual * (1.0 + 1e-12)
        if not ref.converged:
            continue
        p_ref = np.array([ref.separation, ref.width, ref.amplitude_plus,
                          ref.amplitude_minus])
        # A minimum is pinned to 1e-6 only where the fit is well-conditioned
        # in relative parameters; at condition >= 1e5 (unresolved peaks,
        # peaks far outside +-1) both routes stop up to 1e-4 apart on the
        # same cost.
        jac = lsq_reference._mixture_jacobian(p_ref, spec.centers,
                                              spec.bin_width) * p_ref
        if np.linalg.cond(jac.T @ jac) < 1e5:
            p_fit = np.array([fit.separation, fit.width, fit.amplitude_plus,
                              fit.amplitude_minus])
            assert_allclose(p_fit, p_ref, rtol=1e-6)
    assert (sum(not f.converged for f in batched)
            <= sum(not f.converged for f in reference))


def test_fit_lane_is_independent_of_its_batch(monkeypatch):
    spec = HistogramSpec()
    gens = [_mixture(z, 0.1) for z in (0.2, 0.31, 0.42, 0.57, 0.7)]
    rows = []
    for r in range(200):
        rng = np.random.default_rng([7, r])
        rows += [build_histogram(est._draw_mixture(rng, g, 4000), spec)
                 .probabilities for g in gens]
    degenerate = {
        3: build_histogram(np.full(50, 0.12), spec).probabilities,  # one bin
        500: np.full(spec.centers.size, 1.0 / spec.centers.size),  # flat
        777: np.zeros(spec.centers.size),  # no mass
    }
    for i, p in degenerate.items():
        rows[i] = p
    probabilities = np.array(rows)
    real_solve = np.linalg.solve
    singular = []

    def solve(a, b):
        try:
            return real_solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(len(a))
            raise

    monkeypatch.setattr(np.linalg, "solve", solve)
    batch = est._fit_mixtures(probabilities, spec)
    # the flat lane's normal matrix turns singular, and np.linalg.solve
    # then raises for the whole batch
    assert any(n > 1 for n in singular)
    for i in [0, 1, 2, 3, 4, 250, 499, 500, 501, 776, 777, 778, 999]:
        alone = fit_double_gaussian(Histogram(spec, probabilities[i]))
        assert alone == est._fit_at(batch, i)


def test_solve_isolates_singular_lanes():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 4, 4))
    a = a @ a.transpose(0, 2, 1) + np.eye(4)
    a[2] = np.ones((4, 4))
    b = rng.standard_normal((5, 4))
    x = est._solve(a, b)
    assert np.all(np.isnan(x[2]))
    for i in (0, 1, 3, 4):
        assert np.array_equal(x[i], est._solve(a[i : i + 1], b[i : i + 1])[0])
        assert_allclose(a[i] @ x[i], b[i], rtol=1e-12, atol=1e-12)

