"""Imbalance records: histograms, mixture fits, estimators, bootstrap."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm

import fd_reference
import lsq_reference
import bjjsense.estimation as est
from bjjsense.criticality import chi_at_point
from bjjsense import bhattacharyya_fidelity
from bjjsense.estimation import (
    DoubleGaussianFit,
    HistogramSpec,
    MeasurementSeries,
    bootstrap,
    series_estimates,
    synth_samples,
)
from bjjsense.model import ModelParams, equilibrium_states


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


def test_series_stores_records_as_float_arrays():
    a = np.array([-2.0, -1.8, -1.6])
    series = MeasurementSeries(a, ([0.3, -0.3, 0.2, -0.4], [0.5, -0.5, 0.4],
                                   [0.6, -0.6, 0.7, -0.7, 0]))
    for rec in series.records:
        assert isinstance(rec, np.ndarray) and rec.dtype == float
    base = [_mixture(0.4, 0.1) for _ in a]
    result = bootstrap(series, "chi_cl", n_replicas=100, base_fits=base)
    assert result.n_failures == 0
    with pytest.raises(ValueError, match="1-D"):
        MeasurementSeries(a, ([0.1], [[0.1, 0.2]], [0.3]))


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


def test_synth_rejects_non_integer_sample_count():
    gen = _mixture(0.3, 0.1)
    for bad in (200.7, [200, 200.7], True):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            synth_samples([0.0, 1.0], [gen, gen], bad, seed=0)


def test_histogram_single_bin():
    h = est._histograms([np.full(50, 0.12)], HistogramSpec())[0]
    assert_allclose(h.sum(), 1.0, rtol=1e-15)
    idx = int(np.argmax(h))
    assert h[idx] == 1.0
    assert HistogramSpec().edges[idx] <= 0.12 < HistogramSpec().edges[idx + 1]


def test_histogram_uniform_samples():
    rng = np.random.default_rng(13)
    u = rng.uniform(-1.0, 1.0, 100_000)
    h = est._histograms([u], HistogramSpec(bin_width=0.05))[0]
    assert h.size == 40
    p = 0.025
    sigma = np.sqrt(p * (1.0 - p) / 100_000)
    assert np.max(np.abs(h - p)) < 5.0 * sigma


def test_histogram_edges_anchored_at_zero():
    for width in (0.05, 0.08):
        edges = HistogramSpec(bin_width=width).edges
        assert 0.0 in edges
        assert_allclose(edges / width, np.round(edges / width), atol=1e-9)
        assert edges[0] <= -1.0 <= 1.0 <= edges[-1]


def test_histogram_keeps_clipped_samples():
    # k * bin_width rounds to 1 - 1.1e-16 for bin_width = 1/49
    for width in (1 / 49, 1 / 98, 0.05, 0.07, 0.3):
        spec = HistogramSpec(bin_width=width)
        h = est._histograms([np.array([-1.0, 0.0, 1.0])], spec)[0]
        assert h.sum() == 1.0
        assert h[0] == h[-1] == 1 / 3


def test_histogram_rejects_empty():
    # the histogrammer bins the records of a series, which holds none empty
    with pytest.raises(ValueError, match="non-empty"):
        MeasurementSeries(np.array([1.0, 2.0]), ([0.1], np.array([])))
    with pytest.raises(ValueError):
        HistogramSpec(bin_width=0.0)


def test_fit_recovers_separated_mixture():
    gen = _mixture(0.5, 0.05)
    for seed in (42, 7):
        series = synth_samples([0.0, 1.0], [gen, gen], 100_000, seed=seed)
        spec = HistogramSpec()
        fit = est._fit_at(
            est._fit_mixtures(est._histograms(series.records[:1], spec), spec), 0
        )
        assert fit.converged
        assert abs(fit.separation - 0.5) < 0.01
        # the fitted width also absorbs the bin-width convolution
        assert abs(fit.width - 0.05) < 0.0025


def test_fit_single_gaussian_degenerate_but_stable():
    gen = _mixture(0.0, 0.1)
    series = synth_samples([0.0, 1.0], [gen, gen], 100_000, seed=7)
    spec = HistogramSpec()
    fit = est._fit_at(
        est._fit_mixtures(est._histograms(series.records[:1], spec), spec), 0
    )
    assert fit.separation < 2.0 * fit.width
    assert 0.05 < fit.width < 0.15


def test_fit_mirror_swaps_amplitudes():
    gen = _mixture(0.4, 0.08, ap=0.7, am=0.3)
    series = synth_samples([0.0, 1.0], [gen, gen], 50_000, seed=3)
    spec = HistogramSpec()
    h = est._histograms(series.records[:1], spec)[0]
    fits = est._fit_mixtures(np.array([h, h[::-1]]), spec)
    fit, swap = est._fit_at(fits, 0), est._fit_at(fits, 1)
    assert_allclose(swap.separation, fit.separation, rtol=1e-9)
    assert_allclose(swap.width, fit.width, rtol=1e-9)
    assert_allclose(swap.amplitude_plus, fit.amplitude_minus, rtol=1e-9)
    assert_allclose(swap.amplitude_minus, fit.amplitude_plus, rtol=1e-9)


def test_fit_with_a_non_finite_winner_falls_back_to_its_moment_start(monkeypatch):
    gen = _mixture(0.4, 0.08)
    series = synth_samples([0.0, 1.0], [gen, gen], 50_000, seed=3)
    spec = HistogramSpec()
    h = est._histograms(series.records, spec)
    alone = est._fit_at(est._fit_mixtures(h[1:], spec), 0)
    real = est._levenberg_marquardt

    def first_histogram_diverges(p, *args):
        q, cost, stopped = real(p, *args)
        q[:2] = np.nan  # both starts of histogram 0
        return q, cost, stopped

    monkeypatch.setattr(est, "_levenberg_marquardt", first_histogram_diverges)
    fits = est._fit_mixtures(h, spec)
    zbar, sigma = est._data_starts(h[:1], spec)[0, 0, :2]
    assert est._fit_at(fits, 0) == DoubleGaussianFit(
        separation=zbar, width=sigma, amplitude_plus=0.5, amplitude_minus=0.5,
        residual=np.inf, converged=False,
    )
    assert est._fit_at(fits, 1) == alone


def test_fit_params_validation():
    with pytest.raises(ValueError):
        DoubleGaussianFit(separation=0.1, width=0.0,
                          amplitude_plus=0.5, amplitude_minus=0.5)
    with pytest.raises(ValueError):
        DoubleGaussianFit(separation=-0.1, width=0.1,
                          amplitude_plus=0.5, amplitude_minus=0.5)
    good = dict(separation=0.1, width=0.1, amplitude_plus=0.5,
                amplitude_minus=0.5)
    for field in good:
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                DoubleGaussianFit(**{**good, field: bad})
    for field in ("amplitude_plus", "amplitude_minus"):
        with pytest.raises(ValueError, match="amplitudes must be >= 0"):
            DoubleGaussianFit(**{**good, field: -0.5})
    # the failed-fit marker and the fitter's amplitude clamp stay
    # constructible; bootstrap refuses to start from either
    failed = DoubleGaussianFit(**good, residual=np.inf, converged=False)
    clamped = DoubleGaussianFit(**{**good, "amplitude_plus": 0.0,
                                   "amplitude_minus": 0.0})
    series = synth_samples([0.0, 1.0], [_mixture(0.3, 0.1)] * 2, 200, seed=0)
    for bad in (failed, clamped):
        with pytest.raises(ValueError, match="invalid at grid index 1"):
            bootstrap(series, "chi_cl", n_replicas=100,
                      base_fits=[_mixture(0.3, 0.1), bad])


def test_chi_mom_linear_zbar():
    a = np.array([0.0, 0.5, 1.2, 2.0])
    slope, sigma = 0.3, 0.1
    chi = est._chi_mom(slope * a, np.full(a.size, sigma), a)
    assert_allclose(chi, (slope / sigma) ** 2, rtol=1e-12)


def test_chi_mom_constant_zbar():
    a = np.linspace(0.0, 1.0, 5)
    assert est._chi_mom(np.full(a.size, 0.4), np.full(a.size, 0.1), a)[2] == 0.0


def test_chi_mom_peaks_at_transition_point():
    # order-parameter curve with a kink: the derivative blows up at a_c,
    # so chi lands on the grid point nearest to it
    a_c = -1.746
    a = np.arange(-3.0, -0.99, 0.15)
    zbar = np.where(a < a_c,
                    np.sqrt(np.clip(1.0 - (a_c / a) ** 2, 0.0, None)), 0.0)
    chi = est._chi_mom(zbar, np.full(a.size, 0.1), a)
    interior_argmax = int(np.argmax(chi[1:-1])) + 1
    nearest = int(np.argmin(np.abs(a - a_c)))
    assert interior_argmax == nearest


def test_chi_cl_identical_histograms():
    h = est._histograms([np.array([0.1, -0.3, 0.5])], HistogramSpec())[0]
    a = np.array([0.0, 1.0, 2.0])
    assert est._chi_cl(np.array([h, h, h]), a)[1] == 0.0


def test_chi_cl_gaussian_location_family():
    # location family chi = (c a0)^2 / sigma^2, resolved on fine bins
    sigma, c = 0.1, 1.0
    spec = HistogramSpec(bin_width=0.002)
    x = spec.centers
    a = np.array([-0.005, 0.0, 0.005])

    def hist(mu):
        p = np.exp(-((x - mu) ** 2) / (2.0 * sigma * sigma))
        return p / p.sum()

    chi = est._chi_cl(np.array([hist(c * v) for v in a]), a)[1]
    assert_allclose(chi, (c / sigma) ** 2, rtol=5e-3)


def test_chi_cl_symmetric_deficits_closed_form():
    center = np.array([0.0, 0.5, 0.5, 0.0])
    side = np.array([0.0, 0.25, 0.75, 0.0])
    a = np.array([0.0, 0.2, 0.4])
    f = float(np.sqrt(center * side).sum())
    expected = 8.0 * (1.0 - f) / 0.2**2
    assert_allclose(est._chi_cl(np.array([side, center, side]), a)[1],
                    expected, rtol=1e-12)


def test_chi_cl_fidelities_bounded():
    rng = np.random.default_rng(19)
    spec = HistogramSpec()
    a = np.array([0.0, 1.0, 2.0])
    for _ in range(5):
        hists = est._histograms(
            [np.clip(rng.normal(m, 0.2, 800), -1, 1)
             for m in rng.uniform(-0.5, 0.5, 3)],
            spec,
        )
        for i, j in ((1, 0), (1, 2)):
            f = float(np.sqrt(hists[i] * hists[j]).sum())
            assert 0.0 <= f <= 1.0
        assert est._chi_cl(hists, a)[1] >= 0.0


@pytest.mark.parametrize("temperature", [0.0, 0.3, 1.0])
def test_chi_cl_chain_matches_model_on_exact_histograms(temperature):
    # For odd N a bin width of 2/N puts every m = -j..j in its own bin, at
    # z = 2m/N, so the model's P(m) is an exact shot histogram.  The
    # three-point chi_cl of the shot chain then approaches the model's
    # exact chi_cl as O(eps^2).
    n, delta = 41, 2e-3
    spec = HistogramSpec(bin_width=2.0 / n)
    m = np.arange(n + 1) - n / 2.0
    assert_allclose(spec.centers, 2.0 * m / n, rtol=0, atol=1e-15)
    for lam in (-1.3, -1.08, -0.9):
        params = ModelParams(n, lambda_control=lam, imbalance=delta)
        exact = chi_at_point(params, temperature, ("classical",))["classical"]
        errors = []
        for eps in (1e-2, 1e-3):
            grid = np.array([lam - eps, lam, lam + eps])
            probabilities = np.concatenate([
                state.probabilities
                for _, state in equilibrium_states(params, grid, temperature)
            ])
            errors.append(abs(est._chi_cl(probabilities, grid)[1] / exact - 1.0))
        assert errors[1] < 1e-4
        assert 50.0 <= errors[0] / errors[1] <= 200.0


def test_series_estimates_layout():
    a = np.arange(-2.4, -1.0, 0.2)
    gens = [_mixture(0.3 + 0.05 * i, 0.1) for i in range(a.size)]
    series = synth_samples(a, gens, 2000, seed=21)
    out, fits = series_estimates(series)
    assert set(out) == {"zbar", "sigma", "chi_mom", "chi_cl"}
    assert np.isnan(out["chi_cl"][0]) and np.isnan(out["chi_cl"][-1])
    assert np.all(np.isfinite(out["chi_cl"][1:-1]))
    assert np.all(np.isfinite(out["chi_mom"]))
    assert np.all(out["sigma"] > 0)
    assert len(fits) == a.size
    assert all(isinstance(f, DoubleGaussianFit) for f in fits)
    assert np.array_equal(out["zbar"], [f.separation for f in fits])
    assert np.array_equal(out["sigma"], [f.width for f in fits])


def test_estimator_peaks_coincide():
    a = np.arange(-2.7, -0.7, 0.18)
    zbars = 0.25 + 0.40 / (1.0 + np.exp((a + 1.746) / 0.15))
    gens = [_mixture(float(z), 0.1) for z in zbars]
    for seed in (1, 2, 3):
        series = synth_samples(a, gens, 3000, seed=seed)
        out, _ = series_estimates(series)
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


# Phi(-1) and Phi(+1) in percent: half the distance between these
# percentiles of a point's replica values is its error bar.
ONE_SIGMA = (15.865525393145707, 84.13447460685429)


@pytest.mark.parametrize("estimator", ["chi_mom", "chi_cl"])
def test_bootstrap_bars_are_replica_percentiles(estimator):
    # The bars are read off the replica values with no fit: the median is
    # the center, half the Phi(-1)..Phi(+1) percentile distance (sigma for
    # a Gaussian) the width, bit for bit.
    assert_allclose(ONE_SIGMA, 100.0 * norm.cdf([-1.0, 1.0]), rtol=1e-15)
    a = np.arange(-2.7, -1.7, 0.18)
    zbars = 0.25 + 0.40 / (1.0 + np.exp((a + 1.746) / 0.15))
    series = synth_samples(a, [_mixture(float(z), 0.1) for z in zbars], 400,
                           seed=5)
    result = bootstrap(series, estimator, n_replicas=300, seed=9)
    defined = [i for i, col in enumerate(result.replica_values) if col.size]
    assert defined == (list(range(1, a.size - 1)) if estimator == "chi_cl"
                       else list(range(a.size)))
    for i in defined:
        col = result.replica_values[i]
        assert col.size == 300
        lo, hi = np.percentile(col, ONE_SIGMA)
        assert result.centers[i] == np.median(col)
        assert result.widths[i] == 0.5 * (hi - lo)
        assert result.widths[i] > 0


def test_replica_bar_is_numpys_median_and_percentiles():
    # odd and even counts, ties, and the two-value minimum
    rng = np.random.default_rng(12)
    for n in [*range(2, 40), 299, 300, 3000]:
        for values in (rng.normal(5.0, 2.0, n), np.round(rng.exponential(3.0, n))):
            lo, hi = np.percentile(values, ONE_SIGMA)
            assert est._replica_bar(values) == (np.median(values), 0.5 * (hi - lo))


def test_replica_bar_of_gaussian_values_is_their_sigma():
    # the Phi(-1)..Phi(+1) half-width is sigma for a Gaussian, and a tail
    # toward 0 of 5% of the values moves it far less than it moves the
    # standard deviation
    rng = np.random.default_rng(4)
    values = rng.normal(30.0, 2.5, 20000)
    center, width = est._replica_bar(values)
    assert abs(center - 30.0) < 0.05
    assert abs(width - 2.5) < 0.05
    tailed = np.concatenate([values, rng.uniform(0.0, 20.0, 1000)])
    assert abs(est._replica_bar(tailed)[1] - 2.5) < 0.3 < abs(np.std(tailed) - 2.5)


def test_bootstrap_bars_need_two_finite_replica_values(monkeypatch):
    a = np.array([-2.0, -1.8, -1.6, -1.4])
    gens = [_mixture(z, 0.1) for z in (0.55, 0.45, 0.35, 0.3)]
    series = synth_samples(a, gens, 300, seed=4)
    b_mom = bootstrap(series, "chi_mom", n_replicas=120, seed=1)
    assert np.all(b_mom.widths > 0)
    assert b_mom.n_replicas == 120
    real = est._chi_cl

    def thinned(probabilities, grid):
        chi = real(probabilities, grid)
        chi[1:, 1] = np.nan  # one finite replica value left at point 1
        chi[2:, 2] = np.nan  # two at point 2
        return chi

    monkeypatch.setattr(est, "_chi_cl", thinned)
    b_cl = bootstrap(series, "chi_cl", n_replicas=120, seed=1)
    assert [col.size for col in b_cl.replica_values] == [0, 1, 2, 0]
    for i in (0, 1, 3):
        assert np.isnan(b_cl.centers[i]) and np.isnan(b_cl.widths[i])
    assert np.isfinite(b_cl.centers[2]) and b_cl.widths[2] > 0


def test_bootstrap_validation():
    a = np.array([-2.0, -1.8, -1.6])
    gens = [_mixture(0.4, 0.1) for _ in a]
    series = synth_samples(a, gens, 200, seed=4)
    with pytest.raises(ValueError):
        bootstrap(series, "chi_other", n_replicas=120)
    with pytest.raises(ValueError):
        bootstrap(series, "chi_cl", n_replicas=99)


def test_bootstrap_rejects_non_integer_replica_count():
    a = np.array([-2.0, -1.8, -1.6])
    series = synth_samples(a, [_mixture(0.4, 0.1) for _ in a], 200, seed=4)
    for bad in (150.5, 150.0, "150"):
        with pytest.raises(ValueError, match="n_replicas must be an integer"):
            bootstrap(series, "chi_cl", n_replicas=bad)


def test_bootstrap_rejects_bad_seed():
    a = np.array([-2.0, -1.8, -1.6])
    series = synth_samples(a, [_mixture(0.4, 0.1) for _ in a], 200, seed=4)
    for bad in (-1, 1.5, None):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            bootstrap(series, "chi_cl", n_replicas=100, seed=bad)


def test_bootstrap_redraws_failed_replicas_once(monkeypatch):
    a = np.array([-2.0, -1.8, -1.6])
    gens = [_mixture(0.4, 0.1) for _ in a]
    series = synth_samples(a, gens, 200, seed=4)
    real_check, real_draw = est._valid_fits, est._replica_histograms
    batches, draws = [], []

    def flaky(fits):
        # every replica of the first batch fails, every redraw succeeds
        valid = real_check(fits)
        if valid.size == a.size:  # the base fits
            return valid
        batches.append(valid.size)
        return valid & (len(batches) > 1)

    def counted(seed, replicas, attempt, counts, masses):
        draws.append(attempt)
        return real_draw(seed, replicas, attempt, counts, masses)

    monkeypatch.setattr(est, "_valid_fits", flaky)
    monkeypatch.setattr(est, "_replica_histograms", counted)
    result = bootstrap(series, "chi_mom", n_replicas=120, seed=2)
    assert batches == [120 * a.size, 120 * a.size]
    assert draws == [0, 1]
    assert result.n_failures == 0
    assert all(col.size == 120 for col in result.replica_values)


def test_bootstrap_aborts_on_persistent_failures(monkeypatch):
    a = np.array([-2.0, -1.8, -1.6])
    gens = [_mixture(0.4, 0.1) for _ in a]
    series = synth_samples(a, gens, 200, seed=4)
    real_check = est._valid_fits
    # the base fits stay valid, every replica fit fails
    monkeypatch.setattr(est, "_valid_fits",
                        lambda fits: real_check(fits) & (fits["width"].size == a.size))
    with pytest.raises(RuntimeError, match="120 of 120 bootstrap replicas failed"):
        bootstrap(series, "chi_mom", n_replicas=120, seed=2)


def test_chi_cl_bootstrap_fits_nothing_and_draws_once(monkeypatch):
    # a chi_cl replica is its histograms alone: no fit, so it cannot fail
    a = np.array([-2.0, -1.8, -1.6, -1.4])
    series = synth_samples(a, [_mixture(0.4, 0.1) for _ in a], 200, seed=4)
    _, base = series_estimates(series)
    real_draw = est._replica_histograms
    draws = []

    def no_fit(*args, **kwargs):
        raise AssertionError("chi_cl bootstrap fitted a mixture")

    def counted(seed, replicas, attempt, counts, masses):
        draws.append(attempt)
        return real_draw(seed, replicas, attempt, counts, masses)

    monkeypatch.setattr(est, "_fit_mixtures", no_fit)
    monkeypatch.setattr(est, "_replica_histograms", counted)
    result = bootstrap(series, "chi_cl", n_replicas=100, seed=2, base_fits=base)
    assert draws == [0]
    assert result.n_failures == 0
    assert all(col.size == 100 for col in result.replica_values[1:-1])


def _fit_arrays(fits):
    return {k: np.array([getattr(f, k) for f in fits])
            for k in ("separation", "width", "amplitude_plus",
                      "amplitude_minus")}


def test_bootstrap_replica_runs_the_series_chain():
    # replica r of seed s draws the bin counts of every record with one
    # multinomial call on the stream [s, r, 0], over the exact bin masses of
    # the base fits; its row must be the estimators on those histograms
    a = np.arange(-2.7, -1.7, 0.18)
    zbars = 0.25 + 0.40 / (1.0 + np.exp((a + 1.746) / 0.15))
    series = synth_samples(a, [_mixture(float(z), 0.1) for z in zbars], 400,
                           seed=5)
    spec = HistogramSpec()
    counts = np.array([rec.size for rec in series.records])
    _, base = series_estimates(series, spec)
    masses = est._bin_masses(_fit_arrays(base), spec)
    seed, r = 9, 37
    draw = np.random.default_rng([seed, r, 0]).multinomial(counts, masses)
    hists = draw / counts[:, None]
    # each replica histogram is fitted from its record's base fit alone
    starts = np.array([[[f.separation, f.width, f.amplitude_plus,
                         f.amplitude_minus]] for f in base])
    fits = est._fit_mixtures(hists, spec, starts)
    expected = {
        "chi_mom": est._chi_mom(fits["separation"], fits["width"], a),
        "chi_cl": est._chi_cl(hists, a),
    }
    for estimator in ("chi_mom", "chi_cl"):
        result = bootstrap(series, estimator, n_replicas=100, seed=seed)
        assert result.n_failures == 0
        row = [col[r] if col.size else np.nan for col in result.replica_values]
        assert np.array_equal(row, expected[estimator], equal_nan=True)


def test_bootstraps_share_one_draw_of_the_replicas(monkeypatch):
    # pipeline bootstraps both estimators from the same replicas: drawn
    # once, each result is bit for bit its estimator's bootstrap alone
    a = np.arange(-2.7, -1.7, 0.18)
    zbars = 0.25 + 0.40 / (1.0 + np.exp((a + 1.746) / 0.15))
    series = synth_samples(a, [_mixture(float(z), 0.1) for z in zbars], 400,
                           seed=5)
    alone = {name: bootstrap(series, name, n_replicas=100, seed=9)
             for name in ("chi_mom", "chi_cl")}
    real_draw = est._replica_histograms
    draws = []

    def counted(seed, replicas, attempt, counts, masses):
        draws.append(attempt)
        return real_draw(seed, replicas, attempt, counts, masses)

    monkeypatch.setattr(est, "_replica_histograms", counted)
    both = est._bootstraps(series, ("chi_mom", "chi_cl"), 100, 9, None, None)
    assert draws == [0]
    for name, result in alone.items():
        shared = both[name]
        assert np.array_equal(shared.widths, result.widths, equal_nan=True)
        assert np.array_equal(shared.centers, result.centers, equal_nan=True)
        assert all(np.array_equal(x, y) for x, y in
                   zip(shared.replica_values, result.replica_values))


def _replica_stack(seed, n_samples, n_replicas):
    """Replica histograms of the README series as ``bootstrap`` draws them,
    (replicas * points, bins), and each one's start: its record's base fit,
    (replicas * points, 1, 4)."""
    a = [-2.4, -2.2, -2.0, -1.8, -1.6, -1.4, -1.2]
    zbars = [0.20, 0.25, 0.31, 0.42, 0.57, 0.65, 0.70]
    series = synth_samples(a, [_mixture(z, 0.1) for z in zbars], n_samples,
                           seed=seed)
    spec = HistogramSpec()
    _, base = series_estimates(series, spec)
    masses = est._bin_masses(_fit_arrays(base), spec)
    draws = np.array([
        np.random.default_rng([seed, r, 0]).multinomial(n_samples, masses)
        for r in range(n_replicas)
    ])
    starts = [[f.separation, f.width, f.amplitude_plus, f.amplitude_minus]
              for f in base]
    return (draws.reshape(-1, masses.shape[1]) / n_samples,
            np.tile(starts, (n_replicas, 1))[:, None, :])


@pytest.mark.parametrize("seed, n_samples", [(1, 4000), (2, 500), (3, 300)])
def test_replica_fit_from_base_fit_matches_two_start_fit(seed, n_samples):
    # A replica histogram is drawn from its base fit, so one start there
    # reaches the optimum that the better of the two data starts reaches,
    # and its lane stops there as the winning data start's lane does.
    hists, starts = _replica_stack(seed, n_samples, 50)
    spec = HistogramSpec()
    warm = est._fit_mixtures(hists, spec, starts)
    cold = est._fit_mixtures(hists, spec)
    for k in ("separation", "width"):
        assert_allclose(warm[k], cold[k], rtol=1e-6, atol=0.0)
    assert np.all(warm["residual"] <= cold["residual"] * (1.0 + 1e-12))
    assert np.array_equal(est._valid_fits(warm), est._valid_fits(cold))
    assert np.array_equal(warm["converged"], cold["converged"])


def test_replica_fit_from_base_fit_is_independent_of_its_batch():
    hists, starts = _replica_stack(4, 500, 100)
    spec = HistogramSpec()
    batch = est._fit_mixtures(hists, spec, starts)
    for i in (0, 1, 6, 350, 511, 512, 513, 699):
        alone = est._fit_mixtures(hists[i : i + 1], spec, starts[i : i + 1])
        assert est._fit_at(alone, 0) == est._fit_at(batch, i)


def test_replica_fit_memory_ceiling():
    # The 1,050 one-start replica lanes of a 150-replica bootstrap of the
    # README series.  The traced peak repeats exactly from run to run.
    # Summing one (lanes, 4, 4, bins) product per step for J^T J, with the
    # histograms copied once per start, peaked at 5.92 MB; fixed blocks of
    # 512 lanes with lane-major Jacobians at 3.13 MB; the rolling window
    # peaks at 2.60 MB.
    hists, starts = _replica_stack(1, 4000, 150)
    assert hists.shape == (1050, 40)
    tracemalloc.start()
    try:
        est._fit_mixtures(hists, HistogramSpec(), starts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.8e6


def _counted_fit(starts, hists, spec, fitter=None):
    """``fitter`` (by default ``_levenberg_marquardt``) on the
    double-Gaussian model of ``hists`` from ``starts`` (lanes, 4), and the
    trial steps each lane took."""
    z, w = spec.centers, spec.bin_width
    evaluations = np.zeros(len(starts), dtype=int)

    def residuals(q, lanes):
        evaluations[lanes] += 1
        return est._residuals(q, hists[lanes], z, w)

    fit = (fitter or est._levenberg_marquardt)(
        starts, residuals, lambda q, gauss: est._jacobian(q, w, gauss)
    )
    return fit, evaluations - 1


@pytest.mark.parametrize("window", [1, 7, 64])
def test_rolling_window_leaves_every_replica_fit_unchanged(monkeypatch, window):
    # Lanes enter the window as others stop, so at 7 and 64 lanes most
    # passes admit some; a window of one fits every lane alone.  Each
    # lane's fit must be the default window's bit for bit.
    hists, starts = _replica_stack(1, 4000, 150)
    spec = HistogramSpec()
    default = est._fit_mixtures(hists, spec, starts)
    monkeypatch.setattr(est, "_BLOCK", window)
    fits = est._fit_mixtures(hists, spec, starts)
    for k in default:
        assert np.array_equal(fits[k], default[k]), k


def test_rolling_window_takes_the_reference_loops_steps():
    # The reference loop runs every lane from the first pass to its stop;
    # the window must give each lane the same trial steps and numbers.
    spec = HistogramSpec()
    hists, starts = _replica_stack(1, 4000, 150)
    fit, steps = _counted_fit(starts[:, 0], hists, spec)
    reference, reference_steps = _counted_fit(
        starts[:, 0], hists, spec, lsq_reference.unbounded_levenberg_marquardt
    )
    assert np.array_equal(steps, reference_steps)
    assert steps.sum() == 7496
    for got, want in zip(fit, reference):
        assert np.array_equal(got, want)


def test_replica_fit_loop_pass_ceiling(monkeypatch):
    # The 1,050 replica lanes of a 150-replica bootstrap of the README
    # series, 7,496 trial steps in all.  The count repeats exactly from
    # run to run; in blocks of 512 lanes, each run until its slowest lane
    # stopped, the loop made 36 passes.
    hists, starts = _replica_stack(1, 4000, 150)
    passes = []
    real = est._solve

    def counting(a, b):
        passes.append(len(a))
        return real(a, b)

    monkeypatch.setattr(est, "_solve", counting)
    est._fit_mixtures(hists, HistogramSpec(), starts)
    assert len(passes) <= 21 and max(passes) == est._BLOCK


def test_warm_replica_lanes_stop_at_their_optimum():
    # A replica lane started from its record's fit is near its optimum and
    # reaches it in a few steps.  Judged on its step size alone, it went on
    # to double its damping through about 16 trial steps; stopped once a
    # rejected step predicts a decrease within roundoff of the cost, it
    # takes about 7.
    hists, starts = _replica_stack(1, 4000, 150)
    (_, _, stopped), steps = _counted_fit(starts[:, 0], hists, HistogramSpec())
    assert stopped.all()
    assert steps.mean() <= 8.0


def test_restarted_lane_stops_where_it_stood():
    # Restarted from its own optimum, a lane's first steps are rejected or
    # move it by roundoff; it must stop within a few steps and stay put.
    # Before the predicted-decrease stop it took 6-8 steps (up to 16), each
    # a doubling of the damping.  The move is the roundoff spread of the
    # optimum, about 1e-9 with or without that stop.
    spec = HistogramSpec()
    hists, starts = _replica_stack(1, 4000, 150)
    (p, _, _), _ = _counted_fit(starts[:, 0], hists, spec)
    (again, _, stopped), steps = _counted_fit(p, hists, spec)
    assert stopped.all()
    assert np.median(steps) <= 1 and np.mean(steps <= 3) >= 0.95
    assert steps.max() <= 8
    move = np.linalg.norm(again - p, axis=1) / np.linalg.norm(p, axis=1)
    assert move.max() <= 1e-8


def _clipped_mixture_masses(fit, spec):
    """Bin probabilities of the clipped mixture, one component at a time."""
    edges = spec.edges
    p = np.zeros(edges.size - 1)
    total = fit.amplitude_plus + fit.amplitude_minus
    for mu, w in ((fit.separation, fit.amplitude_plus / total),
                  (-fit.separation, fit.amplitude_minus / total)):
        cdf = norm.cdf((edges - mu) / fit.width)
        p += w * np.diff(cdf)
        # everything beyond the outer edges is clipped into the outer bins
        p[0] += w * cdf[0]
        p[-1] += w * (1.0 - cdf[-1])
    return p


def test_bin_masses_match_clipped_mixture():
    rng = np.random.default_rng(31)
    fits = [
        DoubleGaussianFit(separation=zb, width=sg, amplitude_plus=ap,
                          amplitude_minus=1.0 - ap)
        for zb, sg, ap in zip(rng.uniform(0.0, 1.2, 12),
                              rng.uniform(0.03, 0.5, 12),
                              rng.uniform(0.05, 0.95, 12))
    ]
    # some carry a tenth of their mass or more beyond +-1
    assert max(norm.sf((1.0 - f.separation) / f.width) for f in fits) > 0.1
    n, n_replicas = 500, 2000
    for width in (0.05, 0.07, 0.3, 2.0, 1 / 49):
        spec = HistogramSpec(bin_width=width)
        masses = est._bin_masses(_fit_arrays(fits), spec)
        assert np.all(np.abs(masses.sum(axis=1) - 1.0) <= 1e-14)
        for fit, m in zip(fits, masses):
            assert_allclose(m, _clipped_mixture_masses(fit, spec),
                            rtol=1e-12, atol=1e-15)
            # 5 sigma, plus five counts where a bin expects less than one
            # and the normal approximation fails
            draws = n * n_replicas
            mean = rng.multinomial(n, m, size=n_replicas).sum(axis=0) / draws
            sd = np.sqrt(m * (1.0 - m) / draws)
            assert np.all(np.abs(mean - m) <= 5.0 * sd + 5.0 / draws)
            # the masses are the law of binned samples of the mixture
            draws = 200_000
            h = est._histograms([est._draw_mixture(rng, fit, draws)], spec)[0]
            sd = np.sqrt(m * (1.0 - m) / draws)
            assert np.all(np.abs(h - m) <= 5.0 * sd + 5.0 / draws)


def test_stacked_chi_cl_matches_pointwise():
    rng = np.random.default_rng(23)
    spec = HistogramSpec()
    a = np.cumsum(rng.uniform(0.05, 0.3, 6))
    stack = np.array([
        est._histograms([np.clip(rng.normal(m, 0.15, 500), -1, 1)
                         for m in rng.uniform(-0.4, 0.4, a.size)], spec)
        for _ in range(20)
    ])
    stack[3] = stack[3, 0]
    chi = est._chi_cl(stack, a)
    assert chi.shape == (20, a.size)
    for row, values in zip(stack, chi):
        # each interior point alone, from its three-point window
        pointwise = [est._chi_cl(row[i - 1 : i + 2], a[i - 1 : i + 2])[1]
                     for i in range(1, a.size - 1)]
        assert np.array_equal(values[1:-1], pointwise)
        assert np.isnan(values[0]) and np.isnan(values[-1])
        # the closed form is the pointwise least-squares fit
        reference = [
            fd_reference._fit_chi(
                np.array([a[i - 1] - a[i], a[i + 1] - a[i]]),
                1.0 - np.array([
                    bhattacharyya_fidelity(row[i - 1], row[i]),
                    bhattacharyya_fidelity(row[i], row[i + 1]),
                ]),
                "classical",
            ).value
            for i in range(1, a.size - 1)
        ]
        assert_allclose(values[1:-1], reference, rtol=1e-13, atol=0)
    assert np.all(chi[3, 1:-1] == 0.0)
    assert np.all(np.delete(chi, 3, axis=0)[:, 1:-1] > 0.0)


def test_stacked_chi_cl_flat_and_clamp_rules():
    # both deficits below 1e-14 (here 8.9e-16): chi is exactly 0
    p, q = np.array([0.5, 0.5]), np.array([0.5 + 4e-8, 0.5 - 4e-8])
    chi = est._chi_cl(np.array([q, p, q]), np.array([0.0, 0.1, 0.2]))
    assert chi[1] == 0.0
    # a deficit of -2.2e-16 (the 20 equal bins sum past 1) weighted by a
    # 1000x wider step outweighs one of 4.5e-13: the slope is negative and
    # chi is clamped to 0
    p = np.full(20, 0.05)
    q = p + np.concatenate([[3e-7, -3e-7], np.zeros(18)])
    a = np.array([0.0, 1000.0, 1001.0])
    deficits = 1.0 - np.array([np.sqrt(p * p).sum(), np.sqrt(p * q).sum()])
    x = np.array([1000.0, 1.0]) ** 2 / 8.0
    assert deficits[0] < 0.0 < 1e-14 < deficits[1]
    assert x @ deficits < 0.0
    assert est._chi_cl(np.array([p, p, q]), a)[1] == 0.0


def test_chi_mom_bootstrap_computes_no_overlap(monkeypatch):
    a = np.array([-2.0, -1.8, -1.6])
    series = synth_samples(a, [_mixture(z, 0.1) for z in (0.55, 0.45, 0.35)],
                           300, seed=4)
    real = est._chi_cl
    calls = []

    def counting(probabilities, grid):
        calls.append(len(probabilities))
        return real(probabilities, grid)

    monkeypatch.setattr(est, "_chi_cl", counting)
    bootstrap(series, "chi_mom", n_replicas=100, seed=1)
    assert calls == []
    bootstrap(series, "chi_cl", n_replicas=100, seed=1)
    assert calls == [100]


def test_fit_series_matches_pointwise_fit():
    a = np.array([-2.0, -1.8])
    gens = [_mixture(0.5, 0.08), _mixture(0.3, 0.08)]
    series = synth_samples(a, gens, 5000, seed=6)
    spec = HistogramSpec()
    _, fits = series_estimates(series, spec)
    direct = est._fit_mixtures(est._histograms(series.records[1:], spec), spec)
    assert fits[1] == est._fit_at(direct, 0)


def _random_mixture_histograms(seed, count):
    """Histograms of mixtures with zbar in [0, 0.8], sigma in [0.03, 0.3],
    unequal amplitudes and 200-100,000 samples; wide or far peaks pile
    clipped mass into the edge bins at +-1."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(count):
        share = rng.uniform(0.1, 0.9)
        gen = _mixture(rng.uniform(0.0, 0.8), rng.uniform(0.03, 0.3),
                       share, 1.0 - share)
        n = int(10.0 ** rng.uniform(np.log10(200), 5.0))
        records.append(est._draw_mixture(rng, gen, n))
    return est._histograms(records, HistogramSpec())


def test_batched_fit_matches_scipy_reference():
    hists = _random_mixture_histograms(0, 200)
    assert np.sum(hists[:, [0, -1]].max(axis=1) > 0.01) >= 10
    spec = HistogramSpec()
    fits = est._fit_mixtures(hists, spec)
    batched = [est._fit_at(fits, i) for i in range(len(hists))]
    reference = [lsq_reference.fit_double_gaussian(h, spec) for h in hists]
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
        rows += list(est._histograms(
            [est._draw_mixture(rng, g, 4000) for g in gens], spec
        ))
    degenerate = {
        3: est._histograms([np.full(50, 0.12)], spec)[0],  # one bin
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
        alone = est._fit_mixtures(probabilities[i : i + 1], spec)
        assert est._fit_at(alone, 0) == est._fit_at(batch, i)


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


def test_bounds_leave_unbounded_mixture_lanes_unchanged(monkeypatch):
    probabilities = _random_mixture_histograms(0, 200)
    fits = est._fit_mixtures(probabilities, HistogramSpec())
    monkeypatch.setattr(est, "_levenberg_marquardt",
                        lsq_reference.unbounded_levenberg_marquardt)
    reference = est._fit_mixtures(probabilities, HistogramSpec())
    for k in fits:
        assert np.array_equal(fits[k], reference[k]), k


def _with_a_non_finite_lane(x):
    """``x`` with inf and NaN entries in its last lane."""
    x = x.copy()
    x[-1].flat[[0, 3]] = np.inf, -np.inf
    x[-1].flat[[1, 5]] = np.nan
    return x


@pytest.mark.parametrize("lanes, n, bins", [
    (512, 4, 40), (26, 4, 40), (1, 4, 40), (7, 5, 100), (1, 5, 100), (5, 3, 100),
])
@np.errstate(all="ignore")
def test_fitter_kernels_match_their_stacked_forms(lanes, n, bins):
    # The Jacobian fills one preallocated parameter-major array and J^T J
    # is built from the products of its rows; transposed to lane-major,
    # each must equal the stacked, one-product form bit for bit, on the
    # lane shapes of the mixture fits (4 parameters, 40 bins), a non-finite
    # lane included.  J^T J takes any parameter count: lanes of 5 and 3
    # parameters over 100 bins check it on random Jacobians.
    rng = np.random.default_rng([lanes, n, bins])
    if n == 4:
        spec = HistogramSpec()
        assert spec.centers.size == bins
        p = np.column_stack([rng.uniform(0.1, 0.8, lanes), rng.uniform(0.05, 0.3, lanes),
                             rng.uniform(0.0, 1.0, (lanes, 2))])
        p[-1] = [0.3, 0.0, 1.0, np.nan]  # zero width: inf offsets, NaN peaks
        r, gauss = est._residuals(p, rng.random((lanes, bins)), spec.centers,
                                  spec.bin_width)
        jac = est._jacobian(p, spec.bin_width, gauss).transpose(1, 0, 2)
        reference = lsq_reference.mixture_jacobian(p, spec.bin_width, gauss)
        assert not np.isfinite(reference[-1]).all()
        assert np.array_equal(jac, reference, equal_nan=True)
    else:
        jac = rng.standard_normal((lanes, n, bins)) * rng.uniform(0.01, 50.0, (lanes, n, 1))
        r = rng.random((lanes, bins))
    assert jac.shape == (lanes, n, bins)
    jac, r = _with_a_non_finite_lane(jac), _with_a_non_finite_lane(r)
    parameter_major = np.ascontiguousarray(jac.transpose(1, 0, 2))
    for got, want in zip(est._normal_equations(parameter_major, r),
                         lsq_reference.normal_equations(jac, r)):
        assert np.isnan(want[-1]).any() and np.isfinite(want[:-1]).all()
        assert np.array_equal(got, want, equal_nan=True)
