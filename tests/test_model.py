"""Hamiltonian assembly, diagonalization, thermal states, J_z statistics."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal

from dense_oracle import dense_hamiltonian, jacobi_eigh

import bjjsense.model as model
from bjjsense.model import (
    ModelParams,
    Spectrum,
    TridiagonalHamiltonian,
    build_hamiltonian,
    diagonalize,
    eigenvalues_only,
    equilibrium_state,
    jz_distribution,
    thermal_state,
)

SQRT2_HALF = math.sqrt(2.0) / 2.0


def test_build_n2_noninteracting():
    h = build_hamiltonian(ModelParams(n_particles=2))
    assert_allclose(h.diagonal, [0.0, 0.0, 0.0], atol=0.0)
    assert_allclose(h.offdiagonal, [-SQRT2_HALF, -SQRT2_HALF], rtol=1e-15)
    assert_allclose(h.m_values, [-1.0, 0.0, 1.0], atol=0.0)


def test_build_n2_attractive():
    # lambda = -2 at N = 2, Omega = 1 means zeta = -1
    params = ModelParams(n_particles=2, lambda_control=-2.0)
    assert_allclose(params.interaction, -1.0, rtol=1e-15)
    h = build_hamiltonian(params)
    assert_allclose(h.diagonal, [-1.0, 0.0, -1.0], rtol=1e-15)
    assert_allclose(h.offdiagonal, [-SQRT2_HALF, -SQRT2_HALF], rtol=1e-15)


def test_build_n2_tilt():
    h = build_hamiltonian(ModelParams(n_particles=2, imbalance=0.1))
    assert_allclose(h.diagonal, [-0.1, 0.0, 0.1], rtol=1e-15)


def test_build_matches_dense_ladder_construction():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 25))
        params = ModelParams(
            n_particles=n,
            tunneling=float(rng.uniform(0.2, 3.0)),
            lambda_control=float(rng.uniform(-3.0, 1.0)),
            imbalance=float(rng.uniform(-0.1, 0.1)),
        )
        h = build_hamiltonian(params)
        dense = dense_hamiltonian(
            n, params.tunneling, params.lambda_control, params.imbalance
        )
        assert_allclose(np.diag(dense), h.diagonal, atol=1e-14)
        assert_allclose(np.diag(dense, 1), h.offdiagonal, atol=1e-14)
        # nothing beyond the first off-diagonal
        assert np.all(np.triu(dense, 2) == 0.0)


@pytest.mark.parametrize(
    "overflow",
    [{"lambda_control": 1e308}, {"imbalance": 1e307}, {"tunneling": 1e308}],
)
def test_build_rejects_overflowing_entries(overflow):
    params = ModelParams(n_particles=100, **overflow)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow") as err:
            build_hamiltonian(params)
        with pytest.raises(ValueError, match="overflow"):
            equilibrium_state(params, 0.5)
    message = str(err.value)
    for name in ("N=100", f"lambda={params.lambda_control}",
                 f"delta={params.imbalance}", f"Omega={params.tunneling}"):
        assert name in message


def _solver_cases():
    rng = np.random.default_rng(41)
    for n in (2, 100, 301, 1000):
        params = ModelParams(
            n_particles=n,
            lambda_control=float(rng.uniform(-2.0, 0.0)),
            imbalance=float(rng.uniform(0.0, 1e-2)),
        )
        h = build_hamiltonian(params)
        yield h.diagonal, h.offdiagonal


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


def test_diagonalize_one_by_one():
    h = TridiagonalHamiltonian(
        diagonal=np.array([3.5]),
        offdiagonal=np.zeros(0),
        params=ModelParams(n_particles=1),
    )
    spect = diagonalize(h)
    assert_allclose(spect.eigenvalues, [3.5], atol=0.0)
    assert_allclose(spect.eigenvectors, [[1.0]], atol=0.0)


def test_diagonalize_two_by_two():
    h = TridiagonalHamiltonian(
        diagonal=np.array([0.0, 0.0]),
        offdiagonal=np.array([-1.0]),
        params=ModelParams(n_particles=1),
    )
    spect = diagonalize(h)
    assert_allclose(spect.eigenvalues, [-1.0, 1.0], atol=1e-15)
    s = SQRT2_HALF
    assert_allclose(np.abs(spect.eigenvectors), [[s, s], [s, s]], rtol=1e-14)
    # sign convention: largest-magnitude entry of each column positive
    for k in range(2):
        col = spect.eigenvectors[:, k]
        assert col[np.argmax(np.abs(col))] > 0


def test_ground_energy_n2_attractive():
    params = ModelParams(n_particles=2, lambda_control=-2.0)
    spect = diagonalize(build_hamiltonian(params))
    assert_allclose(spect.ground_energy, (-1.0 - math.sqrt(5.0)) / 2.0,
                    rtol=1e-14)


def test_sign_convention_is_deterministic():
    params = ModelParams(n_particles=30, lambda_control=-0.8, imbalance=1e-3)
    h = build_hamiltonian(params)
    first = diagonalize(h)
    for _ in range(3):
        again = diagonalize(h)
        assert np.array_equal(first.eigenvectors, again.eigenvectors)
    for k in range(first.n_levels):
        col = first.eigenvectors[:, k]
        assert col[np.argmax(np.abs(col))] > 0


def test_partial_levels_prefix_full_spectrum():
    params = ModelParams(n_particles=40, lambda_control=-1.2, imbalance=1e-3)
    h = build_hamiltonian(params)
    full = diagonalize(h)
    part = diagonalize(h, n_levels=5)
    assert part.n_levels == 5
    assert_allclose(part.eigenvalues, full.eigenvalues[:5], rtol=1e-12)
    overlaps = np.abs(np.einsum(
        "ik,ik->k", part.eigenvectors, full.eigenvectors[:, :5]
    ))
    assert_allclose(overlaps, np.ones(5), atol=1e-10)


def test_eigenvalues_only_agrees_with_full_solve():
    params = ModelParams(n_particles=25, lambda_control=-1.5, imbalance=2e-3)
    h = build_hamiltonian(params)
    vals = eigenvalues_only(h)
    assert_allclose(vals, diagonalize(h).eigenvalues, rtol=1e-13)
    assert_allclose(eigenvalues_only(h, n_levels=3), vals[:3], rtol=1e-13)


def test_eigenvalues_match_jacobi_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 21))
        params = ModelParams(
            n_particles=n,
            tunneling=float(rng.uniform(0.5, 2.0)),
            lambda_control=float(rng.uniform(-3.0, 1.0)),
            imbalance=float(rng.uniform(-0.05, 0.05)),
        )
        vals = diagonalize(build_hamiltonian(params)).eigenvalues
        ref, _ = jacobi_eigh(dense_hamiltonian(
            n, params.tunneling, params.lambda_control, params.imbalance
        ))
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(vals - ref)) < 1e-10 * scale


def test_eigenvectors_solve_the_eigenproblem():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = int(rng.integers(5, 60))
        params = ModelParams(
            n_particles=n,
            lambda_control=float(rng.uniform(-2.0, 0.5)),
            imbalance=float(rng.uniform(-0.01, 0.01)),
        )
        h = build_hamiltonian(params)
        spect = diagonalize(h)
        dense = dense_hamiltonian(
            n, params.tunneling, params.lambda_control, params.imbalance
        )
        resid = dense @ spect.eigenvectors - spect.eigenvectors * spect.eigenvalues
        scale = max(1.0, float(np.max(np.abs(spect.eigenvalues))))
        assert np.max(np.abs(resid)) < 1e-12 * scale
        gram = spect.eigenvectors.T @ spect.eigenvectors
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
        h = build_hamiltonian(params)
        trace = float(np.sum(h.diagonal))
        total = float(np.sum(diagonalize(h).eigenvalues))
        assert abs(total - trace) <= 1e-8 * max(1.0, abs(trace))


def test_thermal_zero_temperature_is_pure():
    params = ModelParams(n_particles=12, lambda_control=-0.5)
    spect = diagonalize(build_hamiltonian(params))
    state = thermal_state(spect, 0.0)
    expected = np.zeros(spect.n_levels)
    expected[0] = 1.0
    assert np.array_equal(state.weights, expected)


def test_thermal_high_temperature_is_uniform():
    params = ModelParams(n_particles=10, lambda_control=-1.0, imbalance=1e-3)
    spect = diagonalize(build_hamiltonian(params))
    width = float(spect.eigenvalues[-1] - spect.eigenvalues[0])
    state = thermal_state(spect, 1e6 * width)
    assert_allclose(state.weights, np.full(spect.n_levels, 1.0 / spect.n_levels),
                    rtol=1e-6)


def test_thermal_two_level_ratio():
    rng = np.random.default_rng(5)
    for _ in range(5):
        gap = float(rng.uniform(0.1, 4.0))
        spect = Spectrum(
            eigenvalues=np.array([0.0, gap]),
            eigenvectors=np.eye(2),
            params=ModelParams(n_particles=1),
        )
        state = thermal_state(spect, gap)
        assert_allclose(state.weights[1] / state.weights[0], math.exp(-1.0),
                        rtol=1e-12)


def test_thermal_rejects_negative_temperature():
    spect = diagonalize(build_hamiltonian(ModelParams(n_particles=4)))
    with pytest.raises(ValueError):
        thermal_state(spect, -0.1)
    with pytest.raises(ValueError):
        equilibrium_state(ModelParams(n_particles=4), -1.0)


def test_equilibrium_matches_direct_gibbs():
    rng = np.random.default_rng(17)
    for n in (30, 120):
        for temperature in (0.0, 0.3, 1.5):
            params = ModelParams(
                n_particles=n,
                lambda_control=float(rng.uniform(-1.5, 0.0)),
                imbalance=2e-3,
            )
            state = equilibrium_state(params, temperature)
            full = thermal_state(
                diagonalize(build_hamiltonian(params)), temperature
            )
            p = jz_distribution(state).probabilities
            q = jz_distribution(full).probabilities
            # truncated tail carries at most dimension * rel_cutoff weight
            assert np.max(np.abs(p - q)) < 1e-9


def test_jz_distribution_noninteracting_is_binomial():
    for n in (6, 13):
        state = equilibrium_state(ModelParams(n_particles=n), 0.0)
        dist = jz_distribution(state)
        expected = np.array(
            [math.comb(n, k) / 2.0 ** n for k in range(n + 1)]
        )
        assert_allclose(dist.probabilities, expected, atol=1e-10)


def test_jz_distribution_normalized_and_symmetric():
    rng = np.random.default_rng(29)
    for _ in range(8):
        params = ModelParams(
            n_particles=int(rng.integers(4, 60)),
            lambda_control=float(rng.uniform(-2.0, 1.0)),
        )
        state = equilibrium_state(params, float(rng.uniform(0.0, 2.0)))
        probs = jz_distribution(state).probabilities
        assert abs(probs.sum() - 1.0) < 1e-10
        # delta = 0 leaves the m -> -m symmetry intact
        assert np.max(np.abs(probs - probs[::-1])) < 1e-10


def test_jz_variance_noninteracting():
    for n in (8, 31):
        state = equilibrium_state(ModelParams(n_particles=n), 0.0)
        dist = jz_distribution(state)
        assert abs(dist.mean) < 1e-10
        assert_allclose(dist.variance, n / 4.0, rtol=1e-10)


def test_jz_variance_infinite_temperature_limit():
    n = 10
    j = n / 2.0
    params = ModelParams(n_particles=n, lambda_control=-1.0)
    spect = diagonalize(build_hamiltonian(params))
    width = float(spect.eigenvalues[-1] - spect.eigenvalues[0])
    state = thermal_state(spect, 1e9 * width)
    variance = jz_distribution(state).variance
    assert_allclose(variance, j * (j + 1.0) / 3.0, rtol=1e-6)


def test_mean_tilts_against_imbalance():
    # attractive side below the transition: the tilt term delta * m makes
    # the m sign opposite to delta energetically favorable
    for delta in (1e-3, 1e-2, -1e-3, -1e-2):
        params = ModelParams(
            n_particles=60, lambda_control=-1.5, imbalance=delta
        )
        mean = jz_distribution(equilibrium_state(params, 0.0)).mean
        assert mean * delta < 0


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n_particles=0)
    with pytest.raises(ValueError):
        ModelParams(n_particles=10, tunneling=0.0)
    with pytest.raises(ValueError):
        ModelParams(n_particles=10, tunneling=-1.0)


@pytest.mark.parametrize("n", [10.5, 10.0, True, "10"])
def test_params_reject_non_integer_particle_number(n):
    with pytest.raises(ValueError, match="n_particles"):
        ModelParams(n_particles=n)


@pytest.mark.parametrize("field", ["tunneling", "lambda_control", "imbalance"])
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
        equilibrium_state(ModelParams(n_particles=10), math.nan)


def test_params_replace_and_dimension():
    params = ModelParams(n_particles=20, lambda_control=-1.0, imbalance=1e-3)
    assert params.dimension == 21
    moved = dataclasses.replace(params, lambda_control=-0.5)
    assert moved.lambda_control == -0.5
    assert moved.n_particles == 20
    assert moved.imbalance == 1e-3


def test_gap_requires_available_levels():
    spect = diagonalize(build_hamiltonian(ModelParams(n_particles=6)),
                        n_levels=2)
    assert spect.n_levels == 2
    assert spect.eigenvalues[1] - spect.eigenvalues[0] > 0
    with pytest.raises(IndexError):
        spect.eigenvalues[2]


def test_diagonalize_rejects_bad_level_count():
    h = build_hamiltonian(ModelParams(n_particles=6))
    with pytest.raises(ValueError):
        diagonalize(h, n_levels=0)
    with pytest.raises(ValueError):
        diagonalize(h, n_levels=8)
