"""Lambda scans, gap-minimum critical points, delta tuning, scaling fits."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from dense_oracle import (
    dense_chi_point,
    dense_exact_chi,
    dense_hamiltonian,
    jacobi_eigh,
)
from fd_reference import fd_chi_point, state_at

import bjjsense.criticality as criticality
from bjjsense.criticality import (
    METHODS,
    PeakEstimate,
    ScanConfig,
    SusceptibilityCurve,
    chi_at_point,
    default_delta_grid,
    default_lambda_grid,
    fit_power_law,
    locate_critical_gap,
    optimize_delta,
    scaling_study,
    scan_lambda,
    temperature_sweep,
)
from bjjsense.model import ModelParams


def _config(**overrides):
    base = dict(
        params_template=ModelParams(n_particles=40, imbalance=2e-3),
        lambda_grid=-1.2 + 5e-3 * np.arange(41),
        temperature=0.0,
    )
    base.update(overrides)
    return ScanConfig(**base)


def test_scan_config_validation():
    with pytest.raises(ValueError):
        _config(lambda_grid=np.array([-1.0]))
    with pytest.raises(ValueError):
        _config(lambda_grid=np.array([-1.0, -1.0, -0.9]))
    with pytest.raises(ValueError):
        _config(lambda_grid=np.array([-0.9, -1.0, -1.1]))
    with pytest.raises(ValueError):
        _config(which=("moment", "bogus"))
    with pytest.raises(ValueError):
        _config(temperature=-0.5)


def test_scan_config_rejects_nan_temperature():
    with pytest.raises(ValueError, match="temperature"):
        _config(temperature=math.nan)


def test_default_lambda_grid_shape():
    grid = default_lambda_grid()
    assert grid[0] == -1.6
    assert_allclose(grid[-1], -0.4, atol=1e-12)
    assert_allclose(np.diff(grid), 2e-3, rtol=1e-10)


@pytest.mark.parametrize("lo,hi,step", [
    (-1.6, -0.4, 0.0), (-1.6, -0.4, -0.01), (-1.6, -0.4, math.nan),
    (-0.4, -1.6, 2e-3), (-0.4, -0.4, 2e-3), (-math.inf, -0.4, 2e-3),
    (-1.6, math.nan, 2e-3), (-1.6, -0.4, math.inf),
])
def test_default_lambda_grid_rejects_bad_arguments(lo, hi, step):
    with pytest.raises(ValueError, match="lambda grid"):
        default_lambda_grid(lo, hi, step)


def test_scan_dominance_and_peak_coincidence():
    config = ScanConfig(
        params_template=ModelParams(n_particles=100, imbalance=1e-3),
        lambda_grid=-1.3 + 2e-3 * np.arange(301),
        temperature=0.0,
    )
    curve = scan_lambda(config)
    mom, cl, q = curve.chi_mom, curve.chi_cl, curve.chi_q
    assert np.all(mom >= 0) and np.all(cl >= 0) and np.all(q >= 0)
    assert np.all(mom <= cl * (1.0 + 1e-6))
    assert np.all(cl <= q * (1.0 + 1e-6))
    peaks = [curve.peak(m).index for m in ("moment", "classical", "quantum")]
    assert max(peaks) - min(peaks) <= 2
    assert all(curve.peak(m).interior for m in ("moment", "classical", "quantum"))


def test_scan_subset_of_methods():
    curve = scan_lambda(_config(which=("classical",)))
    assert curve.chi_mom is None and curve.chi_q is None
    assert curve.chi_cl.size == curve.lambda_grid.size
    with pytest.raises(ValueError):
        curve.chi("moment")


def test_scan_deterministic_across_reruns():
    base = _config(temperature=0.5)
    c1 = scan_lambda(base)
    c2 = scan_lambda(base)
    assert np.array_equal(c1.chi_mom, c2.chi_mom)
    assert np.array_equal(c1.chi_cl, c2.chi_cl)
    assert np.array_equal(c1.chi_q, c2.chi_q)


def test_peak_parabolic_refinement():
    grid = np.arange(-1.0, 1.0, 0.1)
    apex = 0.234
    y = 1.0 - (grid - apex) ** 2
    curve = SusceptibilityCurve(
        lambda_grid=grid, mean_jz=np.zeros_like(grid),
        var_jz=np.ones_like(grid), chi_mom=None, chi_cl=None, chi_q=y,
        config=_config(),
    )
    peak = curve.peak("quantum")
    assert isinstance(peak, PeakEstimate)
    assert peak.interior
    assert_allclose(peak.lambda_peak, apex, atol=1e-12)
    assert_allclose(peak.value, 1.0, atol=1e-12)


def test_peak_vertex_on_uneven_grid():
    # the parabola through three unevenly spaced points has its exact vertex
    grid = np.cumsum(np.random.default_rng(4).uniform(0.02, 0.2, 20)) - 1.0
    apex = float(grid[9] + 0.3 * (grid[10] - grid[9]))
    curve = SusceptibilityCurve(
        lambda_grid=grid, mean_jz=np.zeros_like(grid),
        var_jz=np.ones_like(grid), chi_mom=None, chi_cl=None,
        chi_q=3.0 - 2.0 * (grid - apex) ** 2, config=_config(),
    )
    peak = curve.peak("quantum")
    assert peak.interior and peak.index == 9
    assert_allclose([peak.lambda_peak, peak.value], [apex, 3.0],
                    rtol=0.0, atol=1e-12)


def test_peak_at_boundary_not_interior():
    grid = np.linspace(0.0, 1.0, 11)
    curve = SusceptibilityCurve(
        lambda_grid=grid, mean_jz=np.zeros_like(grid),
        var_jz=np.ones_like(grid), chi_mom=None, chi_cl=grid.copy(),
        chi_q=None, config=_config(),
    )
    peak = curve.peak("classical")
    assert not peak.interior
    assert peak.index == grid.size - 1


def test_chi_at_point_matches_scan_fidelity_routes():
    lam = -1.1
    params = ModelParams(n_particles=30, imbalance=2e-3)
    config = ScanConfig(
        params_template=params,
        lambda_grid=np.array([lam - 0.01, lam, lam + 0.01]),
        temperature=0.3,
    )
    curve = scan_lambda(config)
    point = chi_at_point(
        dataclasses.replace(params, lambda_control=lam), temperature=0.3
    )
    assert_allclose(point["moment"], curve.chi_mom[1], rtol=1e-12)
    assert_allclose(point["classical"], curve.chi_cl[1], rtol=1e-12)
    assert_allclose(point["quantum"], curve.chi_q[1], rtol=1e-12)


@pytest.mark.parametrize("temperature", [0.0, 0.5])
def test_stacked_scan_matches_pointwise_chi(temperature):
    # At T = 0.5 the occupied rank falls from 20 to 16 along this window,
    # so the scan runs as several stacks.
    params = ModelParams(n_particles=40, imbalance=2e-3)
    grid = -1.6 + 0.05 * np.arange(25)
    ranks = {
        state_at(
            dataclasses.replace(params, lambda_control=lam), temperature
        ).energies.shape[1]
        for lam in grid
    }
    assert len(ranks) == (1 if temperature == 0.0 else 5)
    curve = scan_lambda(ScanConfig(params, grid, temperature))
    for i, lam in enumerate(grid):
        point = chi_at_point(
            dataclasses.replace(params, lambda_control=lam), temperature
        )
        for method in METHODS:
            assert_allclose(curve.chi(method)[i], point[method], rtol=1e-12)


def test_cold_tilted_scan_equals_pointwise_chi_bit_for_bit(monkeypatch):
    # Every point of a T = 0 tilted stack stops on its own test, so a scan
    # returns chi_at_point's numbers exactly, also when one point's coarse
    # bisection is forced to the top of the spectrum: Rayleigh-quotient
    # iteration then leaves the ground state, the inertia count rejects the
    # point, and it alone is solved by _eigh, in the scan as on its own.
    import bjjsense.model as model

    config = _config()
    params = config.params_template
    diag, off = model._diagonals(params, config.lambda_grid)
    forced = diag[17].tobytes()
    real_dstebz, real_eigh = model.dstebz, model._eigh
    fallbacks = []

    def misplaced(d, e, *args):
        count, w, *rest = real_dstebz(d, e, *args)
        if d.tobytes() == forced and args[-2] == model.COARSE_ABSTOL:
            w = w.copy()
            w[0] = model._gershgorin(d, e)
        return (count, w, *rest)

    def recording(d, e, vectors, n_levels=None, window=None):
        fallbacks.append(d.tobytes())
        return real_eigh(d, e, vectors, n_levels, window)

    monkeypatch.setattr(model, "dstebz", misplaced)
    monkeypatch.setattr(model, "_eigh", recording)
    curve = scan_lambda(config)
    assert fallbacks == [forced]
    for i, lam in enumerate(config.lambda_grid):
        point = chi_at_point(
            dataclasses.replace(params, lambda_control=lam), 0.0
        )
        for method in METHODS:
            assert curve.chi(method)[i] == point[method]
    assert fallbacks == [forced, forced]


def test_warm_tilt_ladder_matches_dense_oracle(monkeypatch):
    # The tilt search's route: each window starts from the ground states of
    # the window before it, over tilts from 1e-6 up to 1e-1 and back down.
    import bjjsense.model as model

    n = 24
    window = criticality._peak_window(n, locate_critical_gap(n).lambda_c, 5)
    real = model.dstebz
    coarse = []

    def bisecting(d, e, *args):
        coarse.append(args[-2])
        return real(d, e, *args)

    monkeypatch.setattr(model, "dstebz", bisecting)
    ladder = (1e-6, 1e-3, 1e-1, 1e-4, 1e-6)
    last = None
    for delta in ladder:
        _, _, chi, last = criticality._points(
            ModelParams(n, imbalance=delta), window, 0.0, METHODS, last
        )
        for i, lam in enumerate(window):
            ref = dense_exact_chi(n, lam, delta, 0.0)
            for method in METHODS:
                assert_allclose(chi[method][i], ref[method], rtol=1e-8,
                                err_msg=f"{method} at {(lam, delta)}")
    # the first window is cold; later ones are mostly warm
    assert window.size <= len(coarse) < len(ladder) * window.size


def test_untilted_stack_rejects_unresolved_splitting():
    config = ScanConfig(ModelParams(n_particles=80), np.array([-2.0, -1.6, -1.2]))
    with pytest.raises(ValueError, match=r"N=80, lambda=-2.0: E1 - E0 = 0 "):
        scan_lambda(config)


def test_chi_at_point_matches_dense_oracle():
    # the dense oracle differentiates by finite differences, so it is
    # compared with the finite-difference reference at the same displacement
    cases = [(-1.1, 2e-3, 0.0), (-0.8, 1e-3, 1.0), (-1.3, 5e-3, 1.5)]
    for lam, delta, temperature in cases:
        pkg = fd_chi_point(
            ModelParams(n_particles=12, lambda_control=lam, imbalance=delta),
            temperature, METHODS, 3e-2,
        )
        ref = dense_chi_point(12, lam, delta, temperature, epsilon0=3e-2)
        for method in ("moment", "classical", "quantum"):
            assert_allclose(pkg[method], ref[method], rtol=1e-6)


@pytest.mark.parametrize("temperature", [0.0, 0.3, 1.5])
def test_chi_at_point_matches_dense_sum_over_states(temperature):
    rng = np.random.default_rng(17)
    cases = [
        (int(rng.integers(2, 17)), float(rng.uniform(-2.0, 1.0)),
         float(rng.uniform(-0.1, 0.1)))
        for _ in range(8)
    ]
    for n, lam, delta in cases:
        pkg = chi_at_point(
            ModelParams(n_particles=n, lambda_control=lam, imbalance=delta),
            temperature=temperature,
        )
        ref = dense_exact_chi(n, lam, delta, temperature)
        for method in ("moment", "classical", "quantum"):
            assert_allclose(pkg[method], ref[method], rtol=1e-8,
                            err_msg=f"{method} at {(n, lam, delta)}")


def test_chi_at_point_matches_dense_sum_over_states_with_low_weight_levels():
    # The two points where an Uhlmann fidelity through the eigenvalues of
    # A A^T put chi_Q below chi_cl: zero tilt, T = 0.05, deep in the broken
    # phase, with thermal levels of weight ~1e-10.  <J_z> vanishes by
    # symmetry there, so chi_mom is compared in units of chi_Q.
    for n, lam in ((38, -1.5884), (27, -1.6495)):
        pkg = chi_at_point(
            ModelParams(n_particles=n, lambda_control=lam), temperature=0.05
        )
        ref = dense_exact_chi(n, lam, 0.0, 0.05)
        assert_allclose(pkg["classical"], ref["classical"], rtol=1e-8)
        assert_allclose(pkg["quantum"], ref["quantum"], rtol=1e-8)
        assert pkg["classical"] < pkg["quantum"]
        assert pkg["moment"] <= 1e-12 * pkg["quantum"]
        assert ref["moment"] <= 1e-12 * ref["quantum"]


@pytest.mark.parametrize("temperature", [0.0, 0.05, 1.0])
def test_chi_is_exactly_zero_when_dh_dlambda_is_constant(temperature):
    # At N = 1, J_z^2 = 1/4: lambda shifts H by a constant only.
    for lam, delta in ((0.05, 0.05), (-1.5, 0.0), (0.7, -0.1)):
        params = ModelParams(n_particles=1, lambda_control=lam, imbalance=delta)
        chi = chi_at_point(params, temperature)
        assert chi == {"moment": 0.0, "classical": 0.0, "quantum": 0.0}


@pytest.mark.parametrize("n", [80, 100])
def test_untilted_ground_state_below_roundoff_is_rejected(n):
    # Deep in the broken phase the tunnel splitting of the two wells falls
    # below roundoff (E1 - E0 is exactly 0.0 here): the solver returns an
    # arbitrary mix of the wells and every chi would be noise.
    with pytest.raises(ValueError, match=rf"N={n}, lambda=-2.0: E1 - E0 = 0 "):
        chi_at_point(ModelParams(n, lambda_control=-2.0), 0.0)
    tilted = chi_at_point(ModelParams(n, lambda_control=-2.0, imbalance=1e-3))
    assert all(np.isfinite(v) and v > 0 for v in tilted.values())


def test_untilted_ground_state_above_roundoff_keeps_mirror_symmetry():
    chi = chi_at_point(ModelParams(20, lambda_control=-2.0), 0.0)
    assert chi["moment"] <= 1e-12 * chi["quantum"]


def test_splitting_check_costs_tilted_points_no_solve(monkeypatch):
    import bjjsense.model as model

    real = model._eigh
    calls = []

    def counting(d, e, vectors, n_levels=None, window=None):
        if not vectors:
            calls.append(n_levels)
        return real(d, e, vectors, n_levels, window)

    monkeypatch.setattr(model, "_eigh", counting)
    chi_at_point(ModelParams(40, lambda_control=-2.0, imbalance=1e-3))
    assert calls == []
    chi_at_point(ModelParams(40, lambda_control=-2.0))
    assert calls == [2]


def test_scan_solves_one_equilibrium_state_per_point(monkeypatch):
    # The stacked scan makes exactly the eigensolver calls of one
    # single-point state per grid point, in grid order: at T = 0.5 two
    # _eigh calls, at T = 0 (tilted) one coarse bisection and no _eigh call.
    import bjjsense.model as model

    real = model._eigh
    calls = []

    def recording(d, e, vectors, n_levels=None, window=None):
        calls.append((d.tobytes(), vectors, n_levels, window))
        return real(d, e, vectors, n_levels, window)

    monkeypatch.setattr(model, "_eigh", recording)
    config = _config(temperature=0.5)
    scan_lambda(config)
    scanned = list(calls)
    calls.clear()
    for lam in config.lambda_grid:
        list(model.equilibrium_states(config.params_template, [lam], 0.5))
    assert scanned == calls
    assert len(scanned) == 2 * len(config.lambda_grid)

    real_dstebz = model.dstebz

    def bisecting(d, e, *args):
        calls.append((d.tobytes(), args[-2]))
        return real_dstebz(d, e, *args)

    monkeypatch.setattr(model, "dstebz", bisecting)
    config = _config()
    calls.clear()
    scan_lambda(config)
    scanned = list(calls)
    calls.clear()
    for lam in config.lambda_grid:
        list(model.equilibrium_states(config.params_template, [lam], 0.0))
    assert scanned == calls
    diag, _ = model._diagonals(config.params_template, config.lambda_grid)
    assert scanned == [(d.tobytes(), model.COARSE_ABSTOL) for d in diag]


def test_quantum_chi_paramagnetic_formula():
    # deep in the symmetric phase chi_Q approaches 1/[8(lambda+1)^2]
    lam = -0.5
    point = chi_at_point(
        ModelParams(n_particles=1000, lambda_control=lam, imbalance=2e-3),
        which=("quantum",),
    )
    expected = 1.0 / (8.0 * (lam + 1.0) ** 2)
    assert_allclose(point["quantum"], expected, rtol=0.1)


def test_temperature_sweep_ordering():
    crit = locate_critical_gap(60)
    sweep = temperature_sweep(60, [0.0, 0.3, 1.0], crit.lambda_c)
    mom, cl, q = sweep["moment"], sweep["classical"], sweep["quantum"]
    assert np.all(mom <= cl * (1.0 + 1e-6))
    assert np.all(cl <= q * (1.0 + 1e-6))
    assert_allclose(sweep["temperature"], [0.0, 0.3, 1.0], atol=0.0)


def test_temperature_sweep_validation():
    with pytest.raises(ValueError):
        temperature_sweep(20, [], -1.0)
    with pytest.raises(ValueError):
        temperature_sweep(20, [0.1, -0.2], -1.0)


def test_temperature_sweep_rejects_nan_temperature():
    with pytest.raises(ValueError, match="temperature"):
        temperature_sweep(20, [0.1, math.nan], -1.0)


def test_locate_critical_gap_large_system():
    crit = locate_critical_gap(1000)
    assert -1.03 < crit.lambda_c < -1.018
    assert crit.gap > 0
    assert crit.levels == (0, 2)


def test_critical_point_approaches_bulk_monotonically():
    shifts = [locate_critical_gap(n).shift for n in (100, 300, 1000)]
    assert all(s > 0 for s in shifts)
    assert shifts[0] > shifts[1] > shifts[2]


@pytest.mark.parametrize("n", [60, 101])
def test_critical_point_is_stationary_on_the_oracle_gap(n):
    # lambda_c is the root of d(E_2 - E_0)/dlambda: a central difference of
    # the dense Jacobi oracle's gap vanishes there, and the gap agrees.
    crit = locate_critical_gap(n)

    def gap(lam):
        vals, _ = jacobi_eigh(dense_hamiltonian(n, 1.0, lam))
        return vals[2] - vals[0]

    h = 1e-5
    slope = (gap(crit.lambda_c + h) - gap(crit.lambda_c - h)) / (2.0 * h)
    assert abs(slope) < 1e-7
    assert_allclose(crit.gap, gap(crit.lambda_c), rtol=1e-12)


def test_locate_critical_gap_needs_interior_minimum():
    with pytest.raises(ValueError):
        locate_critical_gap(200, lambda_bracket=(-0.7, -0.4))


@pytest.mark.parametrize("n", [101, 200])
def test_locate_critical_gap_rejects_a_gap_closing_to_roundoff(n):
    # Deep in the broken phase E_1 - E_0 falls below roundoff; its computed
    # slope then changes sign at random, which is no minimum.
    with pytest.raises(ValueError, match="lambda_bracket"):
        locate_critical_gap(n, lambda_bracket=(-3.0, 0.5), levels=(0, 1))


@pytest.mark.parametrize("levels", [(1, 1), (0, 11), (-1, 2), (0, 2, 5), (2,),
                                    (), (0, 2.0)])
def test_locate_critical_gap_rejects_bad_levels(levels):
    with pytest.raises(ValueError, match="levels"):
        locate_critical_gap(10, levels=levels)


@pytest.mark.parametrize("bracket", [(-0.85, -1.5), (-1.5, -1.5), (-1.5,),
                                     (-1.5, -0.85, 0.0), (-math.inf, -0.85),
                                     (-1.5, math.nan)])
def test_locate_critical_gap_rejects_bad_bracket(bracket):
    with pytest.raises(ValueError, match="lambda_bracket"):
        locate_critical_gap(10, lambda_bracket=bracket)


def test_default_delta_grid_stays_positive():
    grid = default_delta_grid()
    assert grid.size == 25
    assert grid[0] == pytest.approx(1e-6)
    assert grid[-1] == pytest.approx(1e-1)
    assert np.all(grid > 0)
    assert np.all(np.diff(grid) > 0)


def test_optimize_delta_centers_peak():
    crit = locate_critical_gap(300)
    opt = optimize_delta(
        300, "quantum", lambda_c=crit.lambda_c,
        delta_grid=np.logspace(-5, -2, 10), window_points=21,
    )
    assert opt.within_tolerance
    window_step = 2.0 * 8.0 * 300 ** (-2.0 / 3.0) / 20.0
    assert abs(opt.peak_offset) <= 0.5 * window_step
    assert 1e-5 <= opt.delta <= 1e-2
    assert_allclose(opt.peak_lambda, crit.lambda_c + opt.peak_offset,
                    rtol=1e-12)


def test_optimize_delta_validation():
    with pytest.raises(ValueError):
        optimize_delta(100, "bogus", lambda_c=-1.05)
    with pytest.raises(ValueError):
        optimize_delta(100, "moment", lambda_c=-1.05,
                       delta_grid=np.array([-1e-3, 1e-3]))


def test_fit_power_law_exact_cubic():
    x = np.array([1.0, 2.0, 3.0, 5.0])
    fit = fit_power_law(x, 2.0 * x**3)
    assert_allclose(fit.exponent, 3.0, rtol=1e-12)
    assert_allclose(fit.prefactor, 2.0, rtol=1e-12)
    assert fit.r_squared > 1.0 - 1e-12


def test_fit_power_law_validation():
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, -3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, 0.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0])


def test_scaling_study_small_systems():
    res = scaling_study(
        n_values=(40, 60, 80),
        delta_grid=np.logspace(-4, -2, 6),
        window_points=15,
    )
    assert np.all(np.diff(res.lambda_c) > 0)
    assert -0.80 < res.shift_fit.exponent < -0.55
    assert 1.8 < res.shift_fit.prefactor < 3.4
    for method in ("moment", "classical", "quantum"):
        ratio = res.chi[method] / res.n_values
        # super-extensive growth: chi/N keeps rising with N
        assert np.all(np.diff(ratio) > 0)
        assert res.fits[method].exponent > 0
        assert res.fits[method].r_squared > 0.99
        assert np.all(res.delta_star[method] > 0)
    # zero temperature: measured and quantum routes coincide
    assert_allclose(res.chi["classical"], res.chi["quantum"], rtol=1e-6)


def test_scaling_study_scans_each_tilt_once_per_method(monkeypatch):
    real_points = criticality._points
    seen = []

    def recording_points(params, lambdas, temperature, which, start=None):
        if lambdas.size == 15:  # a window scan, not chi at delta*
            seen.extend((params.n_particles, params.imbalance, m) for m in which)
        return real_points(params, lambdas, temperature, which, start)

    monkeypatch.setattr(criticality, "_points", recording_points)
    scaling_study(
        n_values=(40, 60, 80),
        delta_grid=np.logspace(-4, -2, 6),
        window_points=15,
    )
    assert seen
    assert len(seen) == len(set(seen))


def test_scaling_study_needs_three_sizes():
    with pytest.raises(ValueError):
        scaling_study(n_values=(100, 200))


# ---------------------------------------------------------------------------
# the in-package root search against scipy's


def _recorded(f):
    """f, and the list of abscissae it is called at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def _scipy_brentq(f, xa, xb, xtol):
    return brentq(f, xa, xb, xtol=xtol)


smooth = st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 5.0),
                   st.floats(-3.0, 3.0), st.floats(0.0, 2.0), st.floats(0.5, 8.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(coef=smooth, lo=st.floats(-3.0, 0.0), width=st.floats(0.05, 4.0),
       xtol=st.sampled_from([1e-3, 1e-8, 2e-12]))
def test_brentq_port_is_bit_identical_to_scipy(coef, lo, width, xtol):
    c0, c1, c3, b, k = coef

    def f(x):
        return c0 + c1 * x + c3 * x ** 3 + b * math.sin(k * x)

    hi = lo + width
    assume(f(lo) * f(hi) < 0)
    ours, our_calls = _recorded(f)
    theirs, their_calls = _recorded(f)
    root = criticality._brentq(ours, lo, hi, xtol)
    assert root == _scipy_brentq(theirs, lo, hi, xtol)
    assert our_calls == their_calls


def test_searches_reject_what_scipy_rejects():
    with pytest.raises(ValueError, match="different signs"):
        criticality._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-8)
    with pytest.raises(ValueError, match="NaN"):
        criticality._brentq(lambda x: math.nan if x == 0.0 else x, -1.0, 2.0,
                            1e-8)


def test_root_find_raises_on_a_missing_offset():
    # a tilt inside the bracket without an interior peak has offset None
    offsets = {-1.0: -1.0, 1.0: 1.0}
    with pytest.raises(TypeError):
        criticality._brentq(offsets.get, -1.0, 1.0, 1e-3)
    with pytest.raises(TypeError):
        _scipy_brentq(offsets.get, -1.0, 1.0, 1e-3)


@pytest.mark.parametrize("n", [60, 101])
def test_critical_point_and_tilts_match_scipy_searches(n, monkeypatch):
    crit = locate_critical_gap(n)
    deltas = criticality._optimize_deltas(
        n, METHODS, 0.0, crit.lambda_c, None, 41
    )
    roots = []

    def scipy_brentq(f, xa, xb, xtol):
        roots.append(xa)
        return _scipy_brentq(f, xa, xb, xtol)

    monkeypatch.setattr(criticality, "_brentq", scipy_brentq)
    assert locate_critical_gap(n) == crit
    assert criticality._optimize_deltas(
        n, METHODS, 0.0, crit.lambda_c, None, 41
    ) == deltas
    assert roots
