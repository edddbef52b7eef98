"""Hamiltonian assembly, eigensolves, Gibbs states, J_z statistics."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal, lapack

from dense_oracle import dense_hamiltonian, dense_thermal_rho, jacobi_eigh
from fd_reference import jz_moments, state_at

import bjjsense.model as model
from bjjsense.model import ModelParams, eigenvalues, equilibrium_states

SQRT2_HALF = math.sqrt(2.0) / 2.0


def _full(params):
    """The Gibbs state at a temperature that occupies every level."""
    energies = eigenvalues(params, [params.lambda_control], params.dimension)
    state = state_at(params, 1.0 + float(np.ptp(energies)))
    assert state.energies.shape == (1, params.dimension)
    return state


def test_build_n2_noninteracting():
    h = state_at(ModelParams(n_particles=2), 0.0)
    assert_allclose(h.diagonal, [[0.0, 0.0, 0.0]], atol=0.0)
    assert_allclose(h.offdiagonal, [-SQRT2_HALF, -SQRT2_HALF], rtol=1e-15)


def test_build_n2_attractive():
    # lambda = -2 at N = 2 means zeta = -1
    params = ModelParams(n_particles=2, lambda_control=-2.0)
    assert_allclose(params.interaction, -1.0, rtol=1e-15)
    h = state_at(params, 0.0)
    assert_allclose(h.diagonal, [[-1.0, 0.0, -1.0]], rtol=1e-15)
    assert_allclose(h.offdiagonal, [-SQRT2_HALF, -SQRT2_HALF], rtol=1e-15)


def test_build_n2_tilt():
    # the diagonal's delta * m runs over m = -j..j in ascending order
    h = state_at(ModelParams(n_particles=2, imbalance=0.1), 0.0)
    assert_allclose(h.diagonal, [[-0.1, 0.0, 0.1]], rtol=1e-15)


def test_build_matches_dense_ladder_construction():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 25))
        # tilts delta / Omega of couplings Omega in [0.2, 3]
        omega = float(rng.uniform(0.2, 3.0))
        params = ModelParams(
            n_particles=n,
            lambda_control=float(rng.uniform(-3.0, 1.0)),
            imbalance=float(rng.uniform(-0.1, 0.1)) / omega,
        )
        h = state_at(params, 0.0)
        dense = dense_hamiltonian(
            n, 1.0, params.lambda_control, params.imbalance
        )
        assert_allclose(np.diag(dense), h.diagonal[0], atol=1e-14)
        assert_allclose(np.diag(dense, 1), h.offdiagonal, atol=1e-14)
        # nothing beyond the first off-diagonal
        assert np.all(np.triu(dense, 2) == 0.0)


def test_energy_unit_is_omega():
    # H(Omega, lambda, delta) = Omega * H(lambda; delta / Omega): a physical
    # Omega enters as delta / Omega, and every energy scales by Omega.
    rng = np.random.default_rng(47)
    for omega in (0.3, 2.5):
        n = int(rng.integers(2, 21))
        lam = float(rng.uniform(-3.0, 1.0))
        delta = float(rng.uniform(-0.1, 0.1))
        ref, _ = jacobi_eigh(dense_hamiltonian(n, omega, lam, delta))
        params = ModelParams(n, lambda_control=lam, imbalance=delta / omega)
        vals = eigenvalues(params, [lam], n + 1)[0]
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(omega * vals - ref)) < 1e-10 * scale


@pytest.mark.parametrize(
    "overflow",
    [{"lambda_control": 1e308}, {"imbalance": 1e307}],
)
def test_build_rejects_overflowing_entries(overflow):
    params = ModelParams(n_particles=100, **overflow)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow") as err:
            eigenvalues(params, [params.lambda_control], 1)
        with pytest.raises(ValueError, match="overflow"):
            state_at(params, 0.5)
    message = str(err.value)
    for name in ("N=100", f"lambda={params.lambda_control}",
                 f"delta={params.imbalance}", "units of Omega"):
        assert name in message


def _solver_cases():
    rng = np.random.default_rng(41)
    for n in (2, 100, 301, 1000):
        params = ModelParams(
            n_particles=n,
            lambda_control=float(rng.uniform(-2.0, 0.0)),
            imbalance=float(rng.uniform(0.0, 1e-2)),
        )
        diag, off = model._diagonals(params, np.array([params.lambda_control]))
        yield diag[0], off


def test_eigh_is_bit_identical_to_scipy_eigh_tridiagonal():
    # _eigh calls the LAPACK drivers eigh_tridiagonal picks; scipy's
    # wrapper stays here as the reference, for every select the package
    # uses, with and without eigenvectors.
    for d, e in _solver_cases():
        n_levels = min(3, d.size - 1)
        vals = eigh_tridiagonal(d, e, eigvals_only=True)
        window = (vals[0] - 1.0, float(vals[n_levels]))
        cases = (
            ({}, {}),
            ({"n_levels": n_levels},
             {"select": "i", "select_range": (0, n_levels - 1)}),
            ({"window": window}, {"select": "v", "select_range": window}),
        )
        for ours, theirs in cases:
            for vectors in (False, True):
                got = model._eigh(d, e, vectors, **ours)
                want = eigh_tridiagonal(d, e, eigvals_only=not vectors, **theirs)
                if not vectors:
                    got, want = (got,), (want,)
                for a, b in zip(got, want):
                    assert a.shape == b.shape
                    assert np.array_equal(a, b)


def _same(ours, theirs):
    for a, b in zip(ours, theirs):
        assert np.shape(a) == np.shape(b)
        assert np.array_equal(a, b)


# The wrappers of the five LAPACK routines against scipy's, bit for bit, on
# the model's matrices: scipy stays a test-side reference.
def _stack(n, lambdas, shift):
    """The shifted diagonals of H at ``lambdas`` and their couplings, as the
    blocks of one block-diagonal system (see ``_solve_shifted``)."""
    diag, off = model._diagonals(ModelParams(n, imbalance=1e-3), np.asarray(lambdas))
    band = np.zeros_like(diag)
    band[:, :-1] = off
    return (diag - shift).reshape(-1), band.reshape(-1)[:-1]


@pytest.mark.parametrize("pivot", [False, True])
def test_dgtsv_wrapper_is_bit_identical_to_scipy(pivot):
    d, e = _stack(60, np.linspace(-1.4, -0.8, 5), -0.7)
    if pivot:  # the third block becomes a zero matrix
        d[2 * 61 : 3 * 61] = 0.0
        e[2 * 61 : 3 * 61 - 1] = 0.0
    b = np.random.default_rng(3).standard_normal(d.size)
    _, dd, _, x, info = lapack.dgtsv(e, d, e, b[:, None])
    coupling, ours_d, y = e.copy(), d.copy(), b.copy()
    assert model.dgtsv(coupling, ours_d, coupling, y) == info
    assert info == (2 * 61 + 1 if pivot else 0)
    _same((ours_d, y, coupling), (dd, x[:, 0], e))


@pytest.mark.parametrize("shift", [-40.0, 0.5])
def test_dpttrf_wrapper_is_bit_identical_to_scipy(shift):
    # The ground energies lie near -30; a shift above them leaves a matrix
    # that is not positive definite, and the factorization stops at its
    # first non-positive pivot.
    d, e = _stack(60, np.linspace(-1.4, -0.8, 5), shift)
    dd, _, info = lapack.dpttrf(d, e)
    ours_d, ours_e = d.copy(), e.copy()
    assert model.dpttrf(ours_d, ours_e) == info
    assert (info > 0) == (shift > 0)
    _same((ours_d, ours_e), (dd, e))


def test_dstebz_dstein_wrappers_are_bit_identical_to_scipy():
    for d, e in _solver_cases():
        vals = eigh_tridiagonal(d, e, eigvals_only=True)
        top = min(3, d.size - 1)
        lo, hi = vals[0] - 1.0, 0.5 * (vals[top - 1] + vals[top])
        for args in ((0, 0.0, 1.0, 1, 1, 0.0), (1, lo, hi, 1, 1, 0.0),
                     (2, 0.0, 1.0, 1, top, 0.0),
                     (2, 0.0, 1.0, 1, 1, model.COARSE_ABSTOL)):
            for order in ("B", "E"):
                m, w, iblock, isplit, info = lapack.dstebz(d, e, *args, order)
                ours = model.dstebz(d, e, *args, order)
                assert ours[0] == m and ours[4] == info == 0
                assert m == (d.size if args[0] == 0 else top if args[0] == 1
                             else args[4])
                blocks = iblock[:m].max()
                _same((ours[1][:m], ours[2][:m], ours[3][:blocks]),
                      (w[:m], iblock[:m], isplit[:blocks]))
                if order == "B":
                    _same(model.dstein(d, e, ours[1][:m], ours[2], ours[3]),
                          lapack.dstein(d, e, w[:m], iblock, isplit))


@pytest.mark.parametrize("vectors", [False, True])
def test_dstevd_wrapper_is_bit_identical_to_scipy(vectors):
    for d, e in _solver_cases():
        before = d.copy(), e.copy()
        w, z, info = model.dstevd(d, e, compute_v=vectors)
        want_w, want_z, want_info = lapack.dstevd(d, e, compute_v=vectors)
        _same((d, e), before)
        assert info == want_info == 0
        _same((w,), (want_w,))
        if vectors:
            _same((z,), (want_z,))
        else:
            assert z is None


def test_diagonalize_two_by_two():
    # N = 1 at lambda = 0: diagonal 0, off-diagonal -1/2
    state = _full(ModelParams(n_particles=1))
    assert_allclose(state.diagonal, [[0.0, 0.0]], atol=0.0)
    assert_allclose(state.offdiagonal, [-0.5], rtol=1e-15)
    assert_allclose(state.energies, [[-0.5, 0.5]], atol=1e-15)
    s = SQRT2_HALF
    assert_allclose(np.abs(state.vectors[0]), [[s, s], [s, s]], rtol=1e-14)
    # sign convention: largest-magnitude entry of each eigenvector positive
    for vec in state.vectors[0]:
        assert vec[np.argmax(np.abs(vec))] > 0


def test_ground_energy_n2_attractive():
    params = ModelParams(n_particles=2, lambda_control=-2.0)
    expected = (-1.0 - math.sqrt(5.0)) / 2.0
    assert_allclose(eigenvalues(params, [-2.0], 1), [[expected]], rtol=1e-14)
    assert_allclose(state_at(params, 0.0).energies, [[expected]], rtol=1e-14)


def test_sign_convention_is_deterministic():
    params = ModelParams(n_particles=30, lambda_control=-0.8, imbalance=1e-3)
    first = _full(params)
    for _ in range(3):
        again = _full(params)
        assert np.array_equal(first.vectors, again.vectors)
    for vec in first.vectors[0]:
        assert vec[np.argmax(np.abs(vec))] > 0


def test_partial_levels_prefix_full_spectrum():
    params = ModelParams(n_particles=40, lambda_control=-1.2, imbalance=1e-3)
    full = _full(params)
    vals = eigenvalues(params, [params.lambda_control], 5)
    assert vals.shape == (1, 5)
    assert_allclose(vals[0], full.energies[0, :5], rtol=1e-12)
    # the thermal window and the ground state: bisection, inverse iteration
    for temperature in (0.0, 0.05):
        part = state_at(params, temperature)
        k = part.energies.shape[1]
        assert k == 1 if temperature == 0.0 else 1 < k < params.dimension
        assert_allclose(part.energies[0], full.energies[0, :k], rtol=1e-12)
        overlaps = np.abs(
            np.sum(part.vectors[0] * full.vectors[0, :k], axis=1)
        )
        assert_allclose(overlaps, np.ones(k), atol=1e-10)


def test_eigenvalues_only_agrees_with_full_solve():
    params = ModelParams(n_particles=25, lambda_control=-1.5, imbalance=2e-3)
    vals = eigenvalues(params, [params.lambda_control], params.dimension)[0]
    assert_allclose(vals, _full(params).energies[0], rtol=1e-13)
    assert_allclose(eigenvalues(params, [params.lambda_control], 3)[0],
                    vals[:3], rtol=1e-13)


def _oracle_cases(seed, count, min_tilt=0.0):
    """Random parameters, |delta| >= min_tilt, and their Jacobi eigenpairs.

    The tilts are delta / Omega for |delta| <= 0.05 and couplings Omega in
    [0.5, 2], shifted away from zero by ``min_tilt``.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 21))
        omega = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(-3.0, 1.0))
        delta = float(rng.uniform(-0.05, 0.05))
        params = ModelParams(
            n_particles=n,
            lambda_control=lam,
            imbalance=delta / omega + math.copysign(min_tilt, delta),
        )
        ref = jacobi_eigh(dense_hamiltonian(
            n, 1.0, params.lambda_control, params.imbalance
        ))
        yield params, ref


def test_eigenvalues_match_jacobi_oracle():
    for params, (ref, _) in _oracle_cases(23, 10):
        lam = [params.lambda_control]
        scale = max(1.0, float(np.max(np.abs(ref))))
        vals = eigenvalues(params, lam, params.dimension)[0]
        assert np.max(np.abs(vals - ref)) < 1e-10 * scale
        # the lowest levels alone come from bisection
        low = eigenvalues(params, lam, 3)[0]
        assert np.max(np.abs(low - ref[:3])) < 1e-10 * scale


def test_eigenpairs_of_cli_routes_match_jacobi_oracle():
    # The ground state (bisection plus inverse iteration) and a thermal
    # window (bisection over an energy range) against the Jacobi oracle.
    # Tilts of at least 0.01 keep every level apart, so that each
    # eigenvector is defined up to its sign.
    windows = 0
    for params, (ref, ref_vecs) in _oracle_cases(37, 10, min_tilt=0.01):
        scale = max(1.0, float(np.max(np.abs(ref))))
        for temperature in (0.0, 0.1):
            state = state_at(params, temperature)
            k = state.energies.shape[1]
            windows += 1 < k < params.dimension
            assert np.max(np.abs(state.energies[0] - ref[:k])) < 1e-10 * scale
            overlaps = np.abs(
                np.sum(state.vectors[0] * ref_vecs[:, :k].T, axis=1)
            )
            assert_allclose(overlaps, np.ones(k), atol=1e-10)
    assert windows >= 5


PARITY_LAMBDAS = np.linspace(-3.0, 0.5, 8)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 41])
def test_parity_blocks_interleave_to_the_oracle_spectrum(n):
    # Level k of the untilted H is level k // 2 of the block of parity
    # (-1)**k; its slope is <k|J_z**2 / N|k>.  Odd N puts +-t_(-1/2) on the
    # blocks' first diagonal entry, so a wrong sign there swaps the blocks.
    energies, slopes = model._parity_levels(n, PARITY_LAMBDAS, tuple(range(n + 1)))
    v = (np.arange(n + 1) - n / 2.0) ** 2 / n
    for lam, e, s in zip(PARITY_LAMBDAS, energies, slopes):
        ref, vecs = jacobi_eigh(dense_hamiltonian(n, 1.0, lam))
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(e - ref)) < 1e-12 * scale
        assert np.max(np.abs(s - v @ vecs**2)) < 1e-10 * scale


@pytest.mark.parametrize("n", [200, 201])
def test_parity_blocks_interleave_to_the_full_spectrum(n):
    energies, _ = model._parity_levels(n, PARITY_LAMBDAS, tuple(range(n + 1)))
    for lam, e in zip(PARITY_LAMBDAS, energies):
        h = dense_hamiltonian(n, 1.0, lam)
        ref = eigh_tridiagonal(np.diag(h), np.diag(h, 1), eigvals_only=True)
        assert np.max(np.abs(e - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("singular_block", [None, 2])
def test_stacked_solve_equals_solo_solves_bit_for_bit(shared, singular_block):
    # Each block of the stack is eliminated as it would be alone.  The solve
    # overwrites the diagonals and the right-hand sides, which then hold y,
    # and never the couplings.  An exactly zero pivot stops it and names the
    # first block that met one; solved again without that block, every other
    # block gets the y it gets alone.
    rng = np.random.default_rng(5)
    blocks, size = 5, 9
    shifted = rng.uniform(-3.0, 3.0, (blocks, size))
    band = np.zeros((blocks, size))
    band[:, :-1] = rng.uniform(-1.0, 1.0, size - 1 if shared else (blocks, size - 1))
    rhs = rng.standard_normal((blocks, size))
    if singular_block is not None:
        # tridiag(1, [1, 2, ..., 2, 1], 1): every pivot is 1 but the last, 0
        shifted[singular_block] = [1.0] + [2.0] * (size - 2) + [1.0]
        band[singular_block, :-1] = 1.0
        if shared:
            band[:, :-1] = 1.0
    inputs = [a.copy() for a in (shifted, band, rhs)]
    bad = model._solve_shifted(shifted, band, rhs)
    assert band.tobytes() == inputs[1].tobytes()
    rows = np.arange(blocks)
    if singular_block is None:
        assert bad == -1
    else:
        assert bad == singular_block
        rows = rows[rows != singular_block]
        shifted, band, rhs = (a[rows] for a in inputs)
        assert model._solve_shifted(shifted, band, rhs) == -1
    assert shifted.tobytes() != inputs[0][rows].tobytes()
    for b in range(blocks):
        d, e, y = (a[b : b + 1].copy() for a in inputs)
        assert model._solve_shifted(d, e, y) == (0 if b == singular_block else -1)
        if b != singular_block:
            assert rhs[list(rows).index(b)].tobytes() == y[0].tobytes()


def test_warm_window_pays_one_solve_per_step(monkeypatch):
    # A warm window of the tilt search: one dgtsv call per Rayleigh-quotient
    # step (no retry) plus one for its outside systems, one dpttrf call for
    # the certificate, and no bisection, since every point is certified.
    import bjjsense.criticality as criticality

    n = 150
    window = criticality._peak_window(
        n, criticality.locate_critical_gap(n).lambda_c, 21
    )
    start = criticality._points(
        ModelParams(n, imbalance=1e-3), window, 0.0, criticality.METHODS
    )[3]
    counts = {}

    def counting(name):
        real = getattr(model, name)

        def call(*args, **kwargs):
            d = args[1] if name == "dgtsv" else args[0]  # the diagonal
            counts.setdefault(name, []).append(d.size // (n + 1))
            return real(*args, **kwargs)

        monkeypatch.setattr(model, name, call)

    for name in ("dgtsv", "dpttrf", "dstebz"):
        counting(name)
    steps = []
    real_solve = model._solve_shifted

    def solving(shifted, band, rhs):
        steps.append(len(rhs))
        return real_solve(shifted, band, rhs)

    monkeypatch.setattr(model, "_solve_shifted", solving)
    criticality._points(
        ModelParams(n, imbalance=1.5e-3), window, 0.0, criticality.METHODS, start
    )
    assert counts["dgtsv"] == steps  # one call per solve: no zero pivot
    *rqi, outside = steps
    assert 2 <= len(rqi) <= model.RQI_STEPS
    assert rqi[0] == outside == window.size
    assert rqi == sorted(rqi, reverse=True)  # only the rows still stepping
    assert counts["dpttrf"] == [window.size]
    assert "dstebz" not in counts


def test_per_size_arrays_are_built_once_and_read_only():
    for n in (7, 8):
        assert all(a is b for a, b in zip(model._spin(n), model._spin(n)))
        m, v, off = model._spin(n)
        assert_allclose(m, np.arange(n + 1) - n / 2.0, rtol=0, atol=0)
        assert abs(v.mean()) < 1e-15
        for array in (m, v, off):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
    params = ModelParams(8, lambda_control=-1.1, imbalance=1e-3)
    assert model._diagonals(params, np.array([-1.1]))[1] is model._spin(8)[2]


def test_warm_start_from_excited_states_returns_the_ground_state(monkeypatch):
    # Started from the first excited states, Rayleigh-quotient iteration
    # converges to them; the inertia count rejects every one, and the cold
    # start, one coarse bisection per point, finds the ground state.
    params = ModelParams(n_particles=60, imbalance=1e-3)
    diag, off = model._diagonals(params, np.linspace(-1.3, -0.9, 9))
    pairs = [model._eigh(d, off, True, n_levels=2) for d in diag]
    excited = np.array([vecs[:, 1] for _, vecs in pairs])
    real = model.dstebz
    coarse = []

    def bisecting(d, e, *args):
        coarse.append(args[-2])
        return real(d, e, *args)

    monkeypatch.setattr(model, "dstebz", bisecting)
    energies, vectors, solved = model._ground_states(diag, off, excited)
    assert coarse == [model.COARSE_ABSTOL] * len(diag)
    assert solved.all()
    assert_allclose(energies, [vals[0] for vals, _ in pairs], rtol=1e-12)
    want = model._select_sign(np.array([vecs[:, 0] for _, vecs in pairs]))
    assert_allclose(model._select_sign(vectors), want, rtol=1e-12, atol=1e-12)


def test_eigenvectors_solve_the_eigenproblem():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = int(rng.integers(5, 60))
        params = ModelParams(
            n_particles=n,
            lambda_control=float(rng.uniform(-2.0, 0.5)),
            imbalance=float(rng.uniform(-0.01, 0.01)),
        )
        state = _full(params)
        vecs, vals = state.vectors[0].T, state.energies[0]
        dense = dense_hamiltonian(
            n, 1.0, params.lambda_control, params.imbalance
        )
        resid = dense @ vecs - vecs * vals
        scale = max(1.0, float(np.max(np.abs(vals))))
        assert np.max(np.abs(resid)) < 1e-12 * scale
        gram = vecs.T @ vecs
        assert_allclose(gram, np.eye(n + 1), atol=1e-12)


def test_trace_identity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 80))
        params = ModelParams(
            n_particles=n,
            lambda_control=float(rng.uniform(-3.0, 1.0)),
            imbalance=float(rng.uniform(-0.1, 0.1)),
        )
        trace = float(np.sum(state_at(params, 0.0).diagonal))
        total = float(np.sum(
            eigenvalues(params, [params.lambda_control], params.dimension)
        ))
        assert abs(total - trace) <= 1e-8 * max(1.0, abs(trace))


def test_thermal_zero_temperature_is_pure():
    params = ModelParams(n_particles=12, lambda_control=-0.5)
    state = state_at(params, 0.0)
    assert np.array_equal(state.weights, [[1.0]])


def test_thermal_high_temperature_is_uniform():
    params = ModelParams(n_particles=10, lambda_control=-1.0, imbalance=1e-3)
    width = float(np.ptp(eigenvalues(params, [-1.0], params.dimension)))
    state = state_at(params, 1e6 * width)
    assert_allclose(state.weights,
                    np.full((1, params.dimension), 1.0 / params.dimension),
                    rtol=1e-6)


def test_thermal_two_level_ratio():
    rng = np.random.default_rng(5)
    for _ in range(5):
        # tilts delta / Omega of couplings Omega in [0.1, 4]
        omega = float(rng.uniform(0.1, 4.0))
        params = ModelParams(
            n_particles=1,
            lambda_control=float(rng.uniform(-2.0, 2.0)),
            imbalance=float(rng.uniform(-1.0, 1.0)) / omega,
        )
        e0, e1 = eigenvalues(params, [params.lambda_control], 2)[0]
        state = state_at(params, e1 - e0)
        weights = state.weights[0]
        assert_allclose(weights[1] / weights[0], math.exp(-1.0), rtol=1e-12)


def test_thermal_rejects_negative_temperature():
    for temperature in (-0.1, -1.0):
        with pytest.raises(ValueError):
            list(equilibrium_states(ModelParams(n_particles=4), [0.0],
                                    temperature))


def test_equilibrium_matches_direct_gibbs():
    rng = np.random.default_rng(17)
    for n in (30, 120):
        for temperature in (0.0, 0.3, 1.5):
            params = ModelParams(
                n_particles=n,
                lambda_control=float(rng.uniform(-1.5, 0.0)),
                imbalance=2e-3,
            )
            p = state_at(params, temperature).probabilities[0]
            # every level of the Jacobi oracle, none truncated
            q = np.diag(dense_thermal_rho(
                dense_hamiltonian(n, 1.0, params.lambda_control, 2e-3),
                temperature,
            ))
            # truncated tail carries at most dimension * rel_cutoff weight
            assert np.max(np.abs(p - q)) < 1e-9


def test_jz_distribution_noninteracting_is_binomial():
    for n in (6, 13):
        state = state_at(ModelParams(n_particles=n), 0.0)
        expected = np.array(
            [math.comb(n, k) / 2.0 ** n for k in range(n + 1)]
        )
        assert_allclose(state.probabilities[0], expected, atol=1e-10)


def test_jz_distribution_normalized_and_symmetric():
    rng = np.random.default_rng(29)
    for _ in range(8):
        params = ModelParams(
            n_particles=int(rng.integers(4, 60)),
            lambda_control=float(rng.uniform(-2.0, 1.0)),
        )
        probs = state_at(params, float(rng.uniform(0.0, 2.0))).probabilities[0]
        assert abs(probs.sum() - 1.0) < 1e-10
        # delta = 0 leaves the m -> -m symmetry intact
        assert np.max(np.abs(probs - probs[::-1])) < 1e-10


def test_jz_variance_noninteracting():
    for n in (8, 31):
        mean, variance = jz_moments(state_at(ModelParams(n_particles=n), 0.0))
        assert abs(mean[0]) < 1e-10
        assert_allclose(variance[0], n / 4.0, rtol=1e-10)


def test_jz_variance_infinite_temperature_limit():
    n = 10
    j = n / 2.0
    params = ModelParams(n_particles=n, lambda_control=-1.0)
    ref, _ = jacobi_eigh(dense_hamiltonian(n, 1.0, -1.0))
    state = state_at(params, 1e9 * float(ref[-1] - ref[0]))
    assert state.energies.shape == (1, n + 1)
    assert_allclose(jz_moments(state)[1], [j * (j + 1.0) / 3.0], rtol=1e-6)


def test_mean_tilts_against_imbalance():
    # attractive side below the transition: the tilt term delta * m makes
    # the m sign opposite to delta energetically favorable
    for delta in (1e-3, 1e-2, -1e-3, -1e-2):
        params = ModelParams(
            n_particles=60, lambda_control=-1.5, imbalance=delta
        )
        mean = jz_moments(state_at(params, 0.0))[0][0]
        assert mean * delta < 0


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n_particles=0)


@pytest.mark.parametrize("n", [10.5, 10.0, True, "10"])
def test_params_reject_non_integer_particle_number(n):
    with pytest.raises(ValueError, match="n_particles"):
        ModelParams(n_particles=n)


@pytest.mark.parametrize("field", ["lambda_control", "imbalance"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        ModelParams(n_particles=10, **{field: value})
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(ModelParams(n_particles=10), **{field: value})


def test_params_accept_numpy_scalars():
    params = ModelParams(np.int64(10), lambda_control=np.float64(-1.1))
    assert params.dimension == 11


def test_equilibrium_rejects_nan_temperature():
    with pytest.raises(ValueError, match="temperature"):
        list(equilibrium_states(ModelParams(n_particles=10), [0.0], math.nan))


def test_params_replace_and_dimension():
    params = ModelParams(n_particles=20, lambda_control=-1.0, imbalance=1e-3)
    assert params.dimension == 21
    moved = dataclasses.replace(params, lambda_control=-0.5)
    assert moved.lambda_control == -0.5
    assert moved.n_particles == 20
    assert moved.imbalance == 1e-3


def test_gap_requires_available_levels():
    vals = eigenvalues(ModelParams(n_particles=6), [0.0, -1.0], 2)
    assert vals.shape == (2, 2)
    assert np.all(vals[:, 1] - vals[:, 0] > 0)
    with pytest.raises(IndexError):
        vals[0, 2]


def test_diagonalize_rejects_bad_level_count():
    params = ModelParams(n_particles=6)
    with pytest.raises(ValueError):
        eigenvalues(params, [0.0], 0)
    with pytest.raises(ValueError):
        eigenvalues(params, [0.0], 8)


def test_lapack_is_the_openblas_numpy_links():
    # model binds the five routines in the OpenBLAS that numpy has loaded:
    # a process that imports the package maps one OpenBLAS, the routines
    # lie in it, and no scipy module is loaded.
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("reads the process's memory map from /proc")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = """
import ctypes, sys
import bjjsense.model as model
spans = {}
with open("/proc/self/maps") as fh:
    for fields in map(str.split, fh):
        if len(fields) == 6 and "openblas" in fields[5].lower():
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            spans.setdefault(fields[5], []).append((lo, hi))
routines = (model._dgtsv, model._dpttrf, model._dstebz, model._dstein, model._dstevd)
inside = [any(lo <= ctypes.cast(f, ctypes.c_void_p).value < hi
              for ranges in spans.values() for lo, hi in ranges) for f in routines]
print(len(spans), all(inside), [m for m in sys.modules if m.split(".")[0] == "scipy"])
"""
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["1", "True", "[]"]


def test_lapack_is_bound_in_model_only():
    # The linear algebra lives in one module, which alone loads a library,
    # and every tridiagonal linear solve goes through its one dgtsv call
    # site.
    import importlib
    import pkgutil

    import bjjsense

    names = ("dgtsv", "dpttrf", "dstebz", "dstein", "dstevd")
    routines = {id(getattr(model, prefix + name))
                for name in names for prefix in ("", "_")}
    modules = [bjjsense] + [importlib.import_module(f"bjjsense.{info.name}")
                            for info in pkgutil.iter_modules(bjjsense.__path__)]
    calls = {}
    for module in modules:
        with open(module.__file__, encoding="utf-8") as fh:
            source = fh.read()
        if module is not model:
            bound = [k for k, v in vars(module).items() if id(v) in routines]
            assert bound == [], module.__name__
            assert "ctypes" not in source, module.__name__
        calls[module.__name__] = len(re.findall(r"(?<!def )\bdgtsv\(", source))
    assert {name: n for name, n in calls.items() if n} == {"bjjsense.model": 1}
