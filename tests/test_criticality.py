"""Lambda scans, gap-minimum critical points, delta tuning, scaling fits."""

import dataclasses
import math
import weakref

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
from bjjsense.model import EigensolverError, ModelParams


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


@pytest.mark.parametrize("lo,hi,step,last", [
    # steps that do not divide the span: the grid stops short of hi
    (-1.2, -1.0, 0.03, -1.02), (-1.6, -0.4, 0.7, -0.9), (-1.3, -0.9, 0.15, -1.0),
    # steps that do, some a hair short of it in floating point: hi is kept
    (-1.3, -0.9, 0.02, -0.9), (-1.2, -0.8, 0.1, -0.8), (0.1, 0.7, 0.1, 0.7),
    (-1.6, -0.4, 1e-4, -0.4),
])
def test_default_lambda_grid_ends_on_its_last_step_within_hi(lo, hi, step, last):
    grid = default_lambda_grid(lo, hi, step)
    assert_allclose(grid[-1], last, atol=1e-12)
    assert grid[-1] <= hi + 1e-12
    assert_allclose(np.diff(grid), step, rtol=1e-9)


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


@pytest.mark.parametrize("x, y", [
    # divided differences that underflow: c = -0, which is not < 0
    ([0.0, 1e300, 2e300, 3e300], [0.0, 5e-324, 0.0, 0.0]),
    # an infinite maximum: the vertex is NaN, not between the neighbours
    ([0.0, 1.0, 2.0, 3.0], [0.0, np.inf, 1.0, 0.0]),
], ids=["not-concave", "vertex-outside"])
def test_peak_keeps_the_grid_maximum_where_the_parabola_fails(x, y):
    peak = criticality._peak(np.array(x), np.array(y))
    assert peak == PeakEstimate(x[1], y[1], 1, interior=True)


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


def test_root_find_windows_match_dense_oracle(monkeypatch):
    # The tilt search's other route: each root-find window starts from the
    # ground states of the nearest window the search keeps.
    n, grid = 24, np.logspace(-4, -1, 5)
    real = criticality._points
    windows = []

    def recording(params, lambdas, temperature, which, start=None):
        out = real(params, lambdas, temperature, which, start)
        windows.append((params.imbalance, lambdas, start is not None, out[2]))
        return out

    monkeypatch.setattr(criticality, "_points", recording)
    criticality._optimize_deltas(
        n, METHODS, 0.0, locate_critical_gap(n).lambda_c, grid, 5
    )
    root_find = windows[grid.size:]
    assert len(root_find) >= 2
    for delta, lambdas, warm, chi in root_find:
        assert warm
        for i, lam in enumerate(lambdas):
            ref = dense_exact_chi(n, lam, delta, 0.0)
            for method in METHODS:
                assert_allclose(chi[method][i], ref[method], rtol=1e-8,
                                err_msg=f"{method} at {(lam, delta)}")


def _coarse_bisections(monkeypatch) -> list[int]:
    """The sizes of the matrices that get a cold start's coarse bisection
    from now on."""
    import bjjsense.model as model

    real = model.dstebz
    sizes = []

    def bisecting(d, e, *args):
        if args[-2] == model.COARSE_ABSTOL:
            sizes.append(d.size)
        return real(d, e, *args)

    monkeypatch.setattr(model, "dstebz", bisecting)
    return sizes


def test_tilt_search_bisects_only_its_first_window(monkeypatch):
    # At N = 101 every window of the T = 0 search but the first starts warm
    # and is certified: the grid ladder from the tilt below, each root-find
    # window from its nearest kept tilt.  A root-find window started cold
    # would add one coarse bisection per point.  Since the ladder stops at
    # the last bracket's upper end, the window solved last is as good a
    # start here: that rule also reads 21.
    n = 101
    lambda_c = locate_critical_gap(n).lambda_c
    coarse = _coarse_bisections(monkeypatch)
    criticality._optimize_deltas(
        n, METHODS, 0.0, lambda_c, np.logspace(-6, -1, 13), 21
    )
    assert coarse == [n + 1] * 21


def test_tilt_search_keeps_a_bounded_number_of_windows(monkeypatch):
    # The ground states of a few windows per method stay alive at once, not
    # one per tilt: at most 9 with a 13-tilt grid and with a 241-tilt one
    # (9 and 7 here; keeping each method's best tilt too kept 10 and 7).
    n = 40
    lambda_c = locate_critical_gap(n).lambda_c
    real = criticality._points
    alive, most = [], []

    def recording(params, lambdas, temperature, which, start=None):
        out = real(params, lambdas, temperature, which, start)
        alive.append(weakref.ref(out[3]))
        most[-1] = max(most[-1], sum(r() is not None for r in alive))
        return out

    monkeypatch.setattr(criticality, "_points", recording)
    for tilts in (13, 241):
        alive.clear()
        most.append(0)
        criticality._optimize_deltas(
            n, METHODS, 0.0, lambda_c, np.logspace(-6, -1, tilts), 9
        )
    assert most[0] <= 9 and most[1] <= 9, most


def _scanned_tilts(monkeypatch) -> list[float]:
    """The tilt of every window ``_points`` scans from now on."""
    real = criticality._points
    tilts = []

    def recording(params, lambdas, temperature, which, start=None):
        tilts.append(params.imbalance)
        return real(params, lambdas, temperature, which, start)

    monkeypatch.setattr(criticality, "_points", recording)
    return tilts


def test_tilt_search_stops_once_every_method_is_bracketed(monkeypatch):
    # At N = 101 the moment and classical brackets both lie below 5.62e-3:
    # the ladder stops there, and the three tilts above it, the costliest
    # windows, are never scanned.  Scanning the whole grid takes 20 windows.
    n, grid = 101, np.logspace(-6, -1, 13)
    lambda_c = locate_critical_gap(n).lambda_c
    tilts = _scanned_tilts(monkeypatch)
    criticality._optimize_deltas(n, METHODS, 0.0, lambda_c, grid, 21)
    assert len(tilts) == 17
    on_grid = [d for d in tilts if d in grid.tolist()]
    assert on_grid == grid[:10].tolist()
    assert_allclose(max(on_grid), 5.62e-3, rtol=1e-3)
    assert not set(grid[10:].tolist()) & set(tilts)


@pytest.mark.parametrize(
    "n, temperature, tilts, window_points",
    [(40, 0.0, 13, 21), (60, 0.0, 13, 21), (101, 0.0, 13, 21),
     (40, 0.0, 25, 41), (60, 0.0, 25, 41), (101, 0.0, 25, 41),
     (40, 0.3, 13, 21)],
)
def test_tilt_search_stop_returns_the_full_grid_answer(
    n, temperature, tilts, window_points, monkeypatch
):
    # The stopped search returns what a scan of the whole grid would: each
    # searched method's first sign change lies on the tilts it scanned, and
    # no grid tilt it skips has a strictly smaller peak offset than delta*'s.
    # (At T = 0.3 and N = 40 a method has no sign change on this grid.)
    grid = np.logspace(-6, -1, tilts).tolist()
    lambda_c = locate_critical_gap(n).lambda_c
    scanned = _scanned_tilts(monkeypatch)
    found = criticality._optimize_deltas(
        n, METHODS, temperature, lambda_c, np.array(grid), window_points
    )
    monkeypatch.undo()
    searched = ("moment", "classical") if temperature == 0.0 else METHODS
    skipped = [d for d in grid if d not in scanned]
    if temperature == 0.0:
        assert skipped
    window = criticality._peak_window(n, lambda_c, window_points)
    offsets = {m: [] for m in searched}  # (tilt, offset) along the grid
    for delta in grid:
        chi = criticality._points(
            ModelParams(n, imbalance=delta), window, temperature, METHODS
        )[2]
        for method in searched:
            peak = criticality._peak(window, chi[method])
            if peak.interior:
                offsets[method].append((delta, peak.lambda_peak - lambda_c))
    for method, row in offsets.items():
        uppers = [d for (_, a), (d, b) in zip(row, row[1:]) if a * b < 0]
        # a method without a sign change has no bracket: nothing is skipped
        assert uppers[0] in scanned if uppers else not skipped, method
        for delta, off in row:
            if delta in skipped:
                assert abs(off) >= abs(found[method].peak_offset), (method, delta)


def test_tilt_search_chi_is_each_methods_own_at_lambda_c(monkeypatch):
    # Each result's chi is its method's chi at the middle point, lambda_c,
    # of its delta* window.  At T = 0 the quantum result shares the
    # classical tilt but keeps the window's chi_Q, which at N = 100 differs
    # from chi_cl in the last bits.
    n = 100
    lambda_c = locate_critical_gap(n).lambda_c
    real = criticality._points
    windows = {}

    def recording(params, lambdas, temperature, which, start=None):
        out = real(params, lambdas, temperature, which, start)
        windows[params.imbalance] = out[2]
        return out

    monkeypatch.setattr(criticality, "_points", recording)
    found = criticality._optimize_deltas(
        n, METHODS, 0.0, lambda_c, np.logspace(-6, -1, 13), 21
    )
    for method, opt in found.items():
        assert opt.chi == windows[opt.delta][method][10], method
    assert found["quantum"].delta == found["classical"].delta
    assert found["quantum"].chi != found["classical"].chi


def test_untilted_stack_rejects_unresolved_splitting():
    config = ScanConfig(ModelParams(n_particles=80), np.array([-2.0, -1.6, -1.2]))
    with pytest.raises(ValueError, match=r"N=80, lambda=-2.0: E1 - E0 = 0 "):
        scan_lambda(config)


def test_zero_pivot_in_a_warm_step_sends_only_its_point_cold(monkeypatch):
    # The first Rayleigh-quotient step of a warm window meets an exactly
    # zero pivot in one block: that point alone leaves the iteration and is
    # solved cold (one coarse bisection), and every point of the window
    # keeps the numbers it gets when solved on its own.
    import bjjsense.model as model

    n, hit = 24, 3
    window = criticality._peak_window(n, locate_critical_gap(n).lambda_c, 7)
    start = criticality._points(
        ModelParams(n, imbalance=1e-3), window, 0.0, METHODS
    )[3]
    params = ModelParams(n, imbalance=2e-3)

    def solo(i):
        return criticality._points(
            params, window[i : i + 1], 0.0, METHODS,
            None if i == hit else start[i : i + 1],
        )

    alone = [solo(i) for i in range(window.size)]
    real_dgtsv, real_dstebz = model.dgtsv, model.dstebz
    calls, coarse = [], []

    def zero_pivot(dl, d, du, b, **kwargs):
        if not calls:  # block `hit` of the first step becomes a zero matrix
            dl = du = dl.copy()  # the stack's couplings are shared by its steps
            first = hit * (n + 1)
            d[first:first + n + 1] = 0.0
            dl[first:first + n] = 0.0
        calls.append(d.size // (n + 1))
        return real_dgtsv(dl, d, du, b, **kwargs)

    def bisecting(d, e, *args):
        coarse.append((d.tobytes(), args[-2]))
        return real_dstebz(d, e, *args)

    monkeypatch.setattr(model, "dgtsv", zero_pivot)
    monkeypatch.setattr(model, "dstebz", bisecting)
    mean, var, chi, ground = criticality._points(params, window, 0.0, METHODS, start)
    diag, _ = model._diagonals(params, window)
    assert coarse == [(diag[hit].tobytes(), model.COARSE_ABSTOL)]
    assert calls[:2] == [window.size, window.size - 1]  # the retry leaves it out
    for i, (m, v, c, g) in enumerate(alone):
        assert mean[i] == m[0] and var[i] == v[0]
        assert ground[i].tobytes() == g[0].tobytes()
        for method in METHODS:
            assert chi[method][i] == c[method][0], (i, method)


def test_outside_solve_failure_names_its_point(monkeypatch):
    # At T > 0 the states come from bisection, so dgtsv solves only the
    # outside systems: one per occupied level of each point, point-major.
    import bjjsense.model as model

    n, lambdas = 20, np.array([-1.3, -1.1, -0.9])
    real, calls = model.dgtsv, []

    def zero_pivot(dl, d, du, b, **kwargs):
        if not calls:  # level 4 of point 1 becomes a zero matrix
            first = d.size // lambdas.size + 4 * (n + 1)
            d[first:first + n + 1] = 0.0
            dl[first:first + n] = 0.0  # dl is du
        calls.append(d.size)
        return real(dl, d, du, b, **kwargs)

    monkeypatch.setattr(model, "dgtsv", zero_pivot)
    config = ScanConfig(ModelParams(n, imbalance=2e-3), lambdas, temperature=0.3)
    with pytest.raises(EigensolverError, match=r"lambda_control=-1\.1,"):
        scan_lambda(config)
    assert calls[0] > 4 * lambdas.size * (n + 1)  # several levels per point


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


@pytest.mark.parametrize("n, temperature", [(200, 1e-16), (1000, 1e-15),
                                            (20, 1e-300)])
def test_tiny_temperature_scan_matches_ground_state(n, temperature):
    # T ln(1 / REL_CUTOFF) below the roundoff of E_0: the thermal window
    # must still hold the ground level, not leave an empty state whose
    # chi_cl, chi_q and Var(J_z) read 0
    grid = np.linspace(-1.2, -1.0, 21)
    params = ModelParams(n, imbalance=2e-3)
    tiny, ground = (scan_lambda(ScanConfig(params, grid, t))
                    for t in (temperature, 0.0))
    for name in ("var_jz", "chi_mom", "chi_cl", "chi_q"):
        assert_allclose(getattr(tiny, name), getattr(ground, name),
                        rtol=1e-11, atol=0.0, err_msg=name)


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


def test_critical_gap_root_find_reuses_its_grid_bracket(monkeypatch):
    # The root find starts at the two grid points of its bracket, whose gap
    # and slope the 14-point grid has already solved: at N = 150 no grid
    # lambda is solved again, 20 parity-block solves in all (22 with them).
    real = criticality._parity_levels
    solved = []

    def recording(n_particles, lambdas, levels):
        solved.append(np.atleast_1d(lambdas).tolist())
        return real(n_particles, lambdas, levels)

    monkeypatch.setattr(criticality, "_parity_levels", recording)
    locate_critical_gap(150)
    grid, *root_find = solved
    assert grid == np.linspace(-1.5, -0.85, 14).tolist()
    assert not set(grid) & {lam for lams in root_find for lam in lams}
    assert len(grid) + sum(map(len, root_find)) == 20


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
    assert opt.bracketed


def test_tilt_search_without_a_sign_change_reports_no_peak():
    # At N = 40 and T = 0.3 chi_mom has all but vanished (1.5e-8 at the
    # lowest tilt) and its window peak never changes side of lambda_c: the
    # tilt of smallest |offset| sits within half a window step by chance
    # and is no delta*.
    opt = optimize_delta(40, "moment", temperature=0.3,
                         delta_grid=np.logspace(-6, -1, 9), window_points=15)
    assert not opt.bracketed
    assert not opt.within_tolerance
    for value in (opt.delta, opt.peak_lambda, opt.peak_offset, opt.chi):
        assert math.isnan(value)
    assert math.isfinite(opt.lambda_c)


def test_quantum_search_shares_the_classical_bracket_at_zero_temperature():
    # At T = 0 the quantum tilt is the classical one: on a grid too short
    # for the classical peak to cross lambda_c, neither has a delta*.
    crit = locate_critical_gap(60)
    short = criticality._optimize_deltas(
        60, METHODS, 0.0, crit.lambda_c, np.logspace(-6, -5, 3), 15
    )
    full = criticality._optimize_deltas(
        60, METHODS, 0.0, crit.lambda_c, np.logspace(-4, -1, 6), 15
    )
    for method in ("classical", "quantum"):
        assert not short[method].bracketed
        assert math.isnan(short[method].delta) and math.isnan(short[method].chi)
        assert full[method].bracketed
    assert full["quantum"].delta == full["classical"].delta


def test_scaling_fits_each_quantity_over_its_finite_rows():
    # N = 40 has no moment delta*: the moment fit would rest on 2 sizes and
    # is NaN, while the other methods still fit all 3
    res = scaling_study((40, 60, 80), 0.3, delta_grid=np.logspace(-6, -1, 9),
                        window_points=15)
    assert math.isnan(res.delta_star["moment"][0])
    assert math.isnan(res.chi["moment"][0])
    assert np.all(np.isfinite(res.chi["moment"][1:]))
    fit = res.fits["moment"]
    assert all(math.isnan(v) for v in (fit.prefactor, fit.exponent, fit.r_squared))
    for method in ("classical", "quantum"):
        assert res.fits[method] == fit_power_law(res.n_values,
                                                 res.chi[method] / res.n_values)
    n = np.array([40, 60, 80, 100])
    y = 0.7 * n ** 0.4
    y[1] = np.nan
    assert criticality._fit_finite(n, y) == fit_power_law(n[[0, 2, 3]], y[[0, 2, 3]])


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


@pytest.mark.parametrize("x, y", [
    ([1.0, 2.0, 3.0], [1.0, np.nan, 3.0]),
    ([1.0, np.inf, 3.0], [1.0, 2.0, 3.0]),
    ([np.nan, 2.0, 3.0], [1.0, 2.0, 3.0]),
])
def test_fit_power_law_rejects_non_finite_data(x, y):
    with pytest.raises(ValueError, match="finite"):
        fit_power_law(x, y)


@pytest.mark.parametrize("window_points", [0, 1, 2, 4, 20, 40])
def test_tilt_search_rejects_windows_without_interior_points(window_points,
                                                            monkeypatch):
    # and an even window, which has no point at lambda_c
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the window check")

    monkeypatch.setattr(criticality, "locate_critical_gap", no_solve)
    monkeypatch.setattr(criticality, "_points", no_solve)
    message = "window_points < 3" if window_points < 3 else "must be odd"
    with pytest.raises(ValueError, match=message):
        optimize_delta(60, "classical", window_points=window_points)
    with pytest.raises(ValueError, match=message):
        scaling_study((20, 30, 40), window_points=window_points)


@pytest.mark.parametrize("n", [28, 30, 40, 101, 150, 202, 1000])
@pytest.mark.parametrize("window_points", [3, 15, 21, 41])
def test_peak_window_is_centred_on_lambda_c_exactly(n, window_points):
    # Among the cases, N = 28 and 30 with 21 points are where np.linspace
    # misses lambda_c, by 2.2e-16.  The ends are lambda_c -+ 8 N^(-2/3).
    lambda_c = locate_critical_gap(n).lambda_c
    window = criticality._peak_window(n, lambda_c, window_points)
    assert window.size == window_points
    assert window[window_points // 2] == lambda_c
    half = 8.0 * n ** (-2.0 / 3.0)
    assert window[0] == lambda_c - half and window[-1] == lambda_c + half
    assert_allclose(np.diff(window), 2 * half / (window_points - 1), rtol=1e-12)


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


def test_scaling_study_scans_each_tilt_once(monkeypatch):
    # one window per (N, delta), for all methods at once: the moment and
    # classical root finds often share a bracket end, and a bracket end
    # (exp of the log of a grid tilt) is the grid tilt, not one ulp off it
    real_points = criticality._points
    windows, asked = [], set()

    def recording_points(params, lambdas, temperature, which, start=None):
        asked.add(which)
        if lambdas.size == 15:  # a window scan, not chi at delta*
            windows.append((params.n_particles, params.imbalance))
        return real_points(params, lambdas, temperature, which, start)

    monkeypatch.setattr(criticality, "_points", recording_points)
    scaling_study(
        n_values=(40, 60, 80),
        delta_grid=np.logspace(-4, -2, 6),
        window_points=15,
    )
    assert windows
    for n in {n for n, _ in windows}:
        tilts = np.sort([d for m, d in windows if m == n])
        assert np.all(np.diff(tilts) > 1e-12 * tilts[1:]), n
    assert asked == {METHODS}


def test_scaling_study_lapack_call_ceiling(monkeypatch):
    # The ground-scaling benchmark's seed-1 study, in process.  The counts
    # repeat exactly from run to run; scanning the grid above the last
    # bracket reads 274 dgtsv, 144 dstebz, 85 dpttrf and 65 dstein calls,
    # and a one-point solve of chi at each delta*, started from its window,
    # 206 dgtsv and 58 dpttrf.
    import bjjsense.model as model

    ceiling = {"dgtsv": 194, "dstebz": 122, "dpttrf": 52, "dstein": 59}
    calls = dict.fromkeys(ceiling, 0)
    for name in ceiling:
        real = getattr(model, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(model, name, counting)
    scaling_study(
        (101, 150, 202), delta_grid=np.logspace(-6, -1, 13), window_points=21
    )
    assert all(calls[name] <= ceiling[name] for name in ceiling), calls


@pytest.mark.parametrize("temperature", [0.0, 0.3])
def test_scaling_study_chi_at_delta_star_is_chi_at_point(temperature,
                                                         monkeypatch):
    # chi at (lambda_c, delta*) is the middle point of the delta* window,
    # which the tilt search has solved: every solve is a whole window.  At
    # T = 0 that window starts warm, so its chi matches a cold chi_at_point
    # to roundoff; at T > 0 its states are bisected as chi_at_point's are,
    # and the two agree bit for bit.
    real = criticality._points
    sizes = []

    def recording(params, lambdas, t, which, start=None):
        sizes.append(lambdas.size)
        return real(params, lambdas, t, which, start)

    monkeypatch.setattr(criticality, "_points", recording)
    res = scaling_study(
        (40, 60, 80), temperature, delta_grid=np.logspace(-4, -1, 6),
        window_points=15,
    )
    monkeypatch.undo()
    assert sizes and set(sizes) == {15}
    # chi_mom has all but vanished at N = 40 and T = 0.3: no delta* there
    missing = {(int(n), m) for i, n in enumerate(res.n_values) for m in METHODS
               if math.isnan(res.delta_star[m][i])}
    assert missing == (set() if temperature == 0.0 else {(40, "moment")})
    for i, n in enumerate(res.n_values):
        for method in METHODS:
            if (int(n), method) in missing:
                assert math.isnan(res.chi[method][i])
                continue
            point = chi_at_point(
                ModelParams(int(n), res.lambda_c[i], res.delta_star[method][i]),
                temperature,
            )[method]
            if temperature == 0.0:
                assert_allclose(res.chi[method][i], point, rtol=1e-10)
            else:
                assert res.chi[method][i] == point


def test_scaling_study_needs_three_sizes(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the size check")

    monkeypatch.setattr(criticality, "locate_critical_gap", no_solve)
    with pytest.raises(ValueError, match=">= 3 system sizes"):
        scaling_study(n_values=(100, 200))
    with pytest.raises(ValueError, match="distinct"):
        scaling_study(n_values=(40, 60, 40))


@pytest.mark.parametrize("sizes", [(40.7, 60, 80), (40, 60.0, 80),
                                   (True, 60, 80), ("40", 60, 80)])
def test_scaling_study_rejects_non_integer_sizes(sizes, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the size check")

    monkeypatch.setattr(criticality, "locate_critical_gap", no_solve)
    monkeypatch.setattr(criticality, "_points", no_solve)
    with pytest.raises(ValueError, match="n_particles must be an integer"):
        scaling_study(sizes)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tilt_search_rejects_non_finite_tilts(bad, monkeypatch):
    real_points = criticality._points
    windows = []

    def recording_points(params, *args):
        windows.append(params)
        return real_points(params, *args)

    monkeypatch.setattr(criticality, "_points", recording_points)
    grid = [1e-3, bad, 1e-2]
    with pytest.raises(ValueError, match="positive finite"):
        optimize_delta(40, "classical", delta_grid=grid)
    with pytest.raises(ValueError, match="positive finite"):
        scaling_study((20, 30, 40), delta_grid=grid)
    assert windows == []


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
        n, METHODS, 0.0, crit.lambda_c, criticality.default_delta_grid(), 41
    )
    roots = []

    def scipy_brentq(f, xa, xb, xtol):
        roots.append(xa)
        return _scipy_brentq(f, xa, xb, xtol)

    monkeypatch.setattr(criticality, "_brentq", scipy_brentq)
    assert locate_critical_gap(n) == crit
    assert criticality._optimize_deltas(
        n, METHODS, 0.0, crit.lambda_c, criticality.default_delta_grid(), 41
    ) == deltas
    assert roots
