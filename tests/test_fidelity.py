"""Bhattacharyya and Uhlmann fidelities and the fidelity chi fit.

The Bhattacharyya coefficient and the fit are the package's; the Uhlmann
fidelity, ``default_epsilons`` and ``susceptibility_from_fidelity`` are the
finite-difference reference of ``fd_reference``.
"""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fd_reference import (
    DensityOperator,
    default_epsilons,
    state_at,
    susceptibility_from_fidelity,
    uhlmann_fidelity,
)

from bjjsense import bhattacharyya_fidelity
from bjjsense.model import ModelParams


def _bjj_operator(n, lam, delta, temperature):
    params = ModelParams(n_particles=n, lambda_control=lam, imbalance=delta)
    return DensityOperator.from_state(state_at(params, temperature))


def test_bhattacharyya_identical_is_one():
    rng = np.random.default_rng(1)
    p = rng.random(17)
    p /= p.sum()
    assert_allclose(bhattacharyya_fidelity(p, p), 1.0, rtol=1e-12)


def test_bhattacharyya_disjoint_is_zero():
    p = [0.5, 0.5, 0.0, 0.0]
    q = [0.0, 0.0, 0.3, 0.7]
    assert bhattacharyya_fidelity(p, q) == 0.0


def test_bhattacharyya_half_half_vs_point():
    assert_allclose(bhattacharyya_fidelity([0.5, 0.5], [1.0, 0.0]),
                    math.sqrt(0.5), rtol=1e-12)


def test_bhattacharyya_broadcasts_over_leading_axes():
    rng = np.random.default_rng(4)
    p = rng.random((3, 2, 9))
    p /= p.sum(axis=-1, keepdims=True)
    q = p[0, 0]
    got = bhattacharyya_fidelity(p, q)
    assert got.shape == (3, 2)
    for i, j in np.ndindex(3, 2):
        assert got[i, j] == bhattacharyya_fidelity(p[i, j], q)
    assert_allclose(got[0, 0], 1.0, rtol=1e-12)


def test_bhattacharyya_rejects_length_mismatch():
    with pytest.raises(ValueError):
        bhattacharyya_fidelity([1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        bhattacharyya_fidelity(np.ones((2, 3)) / 3, np.ones((2, 4)) / 4)


def test_uhlmann_self_fidelity():
    pure = _bjj_operator(20, -1.2, 1e-3, 0.0)
    mixed = _bjj_operator(20, -1.2, 1e-3, 0.7)
    assert_allclose(uhlmann_fidelity(pure, pure), 1.0, atol=1e-8)
    assert_allclose(uhlmann_fidelity(mixed, mixed), 1.0, atol=1e-8)


def test_uhlmann_orthogonal_pure_states():
    e0 = np.zeros((4, 1))
    e0[0, 0] = 1.0
    e2 = np.zeros((4, 1))
    e2[2, 0] = 1.0
    one = np.ones(1)
    f = uhlmann_fidelity(DensityOperator(e0, one), DensityOperator(e2, one))
    assert abs(f) < 1e-8


def test_uhlmann_commuting_diagonal_pair():
    rho1 = DensityOperator(np.eye(2), np.array([0.9, 0.1]))
    rho2 = DensityOperator(np.eye(2), np.array([0.5, 0.5]))
    expected = math.sqrt(0.45) + math.sqrt(0.05)
    assert_allclose(uhlmann_fidelity(rho1, rho2), expected, rtol=1e-12)


def test_uhlmann_symmetry():
    pairs = [
        (_bjj_operator(15, -1.1, 2e-3, 0.5), _bjj_operator(15, -1.0, 2e-3, 0.5)),
        (_bjj_operator(15, -0.6, 1e-3, 1.2), _bjj_operator(15, -0.7, 1e-3, 0.9)),
        (_bjj_operator(15, -1.3, 0.0, 0.0), _bjj_operator(15, -1.3, 5e-3, 0.0)),
    ]
    for rho1, rho2 in pairs:
        f12 = uhlmann_fidelity(rho1, rho2)
        f21 = uhlmann_fidelity(rho2, rho1)
        assert abs(f12 - f21) < 1e-10


def test_uhlmann_pure_states_reduce_to_overlap():
    rng = np.random.default_rng(2)
    for _ in range(5):
        v1 = rng.normal(size=6)
        v1 /= np.linalg.norm(v1)
        v2 = rng.normal(size=6)
        v2 /= np.linalg.norm(v2)
        overlap = abs(float(v1 @ v2))
        shortcut = uhlmann_fidelity(
            DensityOperator(v1[:, None], np.ones(1)),
            DensityOperator(v2[:, None], np.ones(1)),
        )
        assert abs(shortcut - overlap) < 1e-10
        # rank-2 factorization with a zero weight exercises the general path
        pad1 = np.zeros(6)
        pad1[np.argmin(np.abs(v1))] = 1.0
        pad1 -= (pad1 @ v1) * v1
        pad1 /= np.linalg.norm(pad1)
        general = uhlmann_fidelity(
            DensityOperator(np.column_stack([v1, pad1]), np.array([1.0, 0.0])),
            DensityOperator(v2[:, None], np.ones(1)),
        )
        assert abs(general - overlap) < 1e-10


def test_uhlmann_rejects_dimension_mismatch():
    rho1 = DensityOperator(np.eye(2), np.array([0.5, 0.5]))
    rho2 = DensityOperator(np.eye(3), np.array([0.4, 0.3, 0.3]))
    with pytest.raises(ValueError):
        uhlmann_fidelity(rho1, rho2)


def test_density_operator_from_state_unit_trace():
    params = ModelParams(n_particles=12, lambda_control=-1.0, imbalance=1e-3)
    rho = DensityOperator.from_state(state_at(params, 0.4))
    assert abs(rho.weights.sum() - 1.0) < 1e-10
    assert np.all(rho.weights > 0)
    assert rho.basis.shape == (13, rho.rank)


def test_density_operator_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        DensityOperator(np.eye(3), np.array([0.5, 0.5]))


def test_measurement_cannot_increase_distinguishability():
    # measuring J_z discards phase information, so the outcome
    # distributions are no easier to tell apart than the states
    rng = np.random.default_rng(31)
    for _ in range(8):
        lam = float(rng.uniform(-1.6, -0.4))
        temperature = float(rng.choice([0.0, 0.3, 1.0]))
        p1 = ModelParams(n_particles=25, lambda_control=lam, imbalance=2e-3)
        p2 = dataclasses.replace(
            p1, lambda_control=lam + float(rng.uniform(0.005, 0.05))
        )
        s1 = state_at(p1, temperature)
        s2 = state_at(p2, temperature)
        f_cl = bhattacharyya_fidelity(s1.probabilities[0], s2.probabilities[0])
        f_q = uhlmann_fidelity(
            DensityOperator.from_state(s1), DensityOperator.from_state(s2)
        )
        assert f_cl >= f_q - 1e-8


def test_default_epsilons_scaling():
    assert_allclose(default_epsilons(0.0),
                    [-2e-4, -1e-4, 1e-4, 2e-4], rtol=1e-15)
    assert_allclose(default_epsilons(-3.0),
                    [-6e-4, -3e-4, 3e-4, 6e-4], rtol=1e-15)
    assert_allclose(default_epsilons(-0.5, epsilon0=1e-3),
                    [-2e-3, -1e-3, 1e-3, 2e-3], rtol=1e-15)


def test_chi_from_exact_quadratic():
    est = susceptibility_from_fidelity(
        lambda e: 1.0 - 2.0 * e * e, [-2e-3, -1e-3, 1e-3, 2e-3]
    )
    assert_allclose(est.value, 16.0, rtol=1e-10)
    assert est.fit_residual < 1e-12
    assert est.epsilon_grid == (-2e-3, -1e-3, 1e-3, 2e-3)
    assert not est.degenerate


def test_chi_degenerate_when_fidelity_flat():
    est = susceptibility_from_fidelity(lambda e: 1.0, [-1e-3, 1e-3, 2e-3])
    assert est.value == 0.0
    assert est.degenerate


def test_chi_rejects_bad_epsilon_grids():
    with pytest.raises(ValueError):
        susceptibility_from_fidelity(lambda e: 1.0, [1e-3])
    with pytest.raises(ValueError):
        susceptibility_from_fidelity(lambda e: 1.0, [0.0, 1e-3])
    with pytest.raises(ValueError):
        susceptibility_from_fidelity(lambda e: 1.0, [1e-3, -1e-3])


def test_chi_gaussian_location_family():
    # Fisher information of a Gaussian location parameter is 1 / sigma^2
    sigma = 0.1
    x = np.linspace(-1.0, 1.0, 4001)

    def dist(lam):
        p = np.exp(-((x - lam) ** 2) / (2.0 * sigma * sigma))
        return p / p.sum()

    est = susceptibility_from_fidelity(
        lambda e: bhattacharyya_fidelity(dist(0.0), dist(e)),
        default_epsilons(0.0),
    )
    assert_allclose(est.value, 1.0 / sigma**2, rtol=1e-2)


def test_chi_two_level_pure_family():
    def operator(theta):
        v = np.array([[math.cos(theta)], [math.sin(theta)]])
        return DensityOperator(v, np.ones(1))

    for lam in (0.3, 1.0, 2.5):
        est = susceptibility_from_fidelity(
            lambda e: uhlmann_fidelity(operator(lam), operator(lam + e)),
            default_epsilons(lam),
            method="quantum",
        )
        assert_allclose(est.value, 4.0, rtol=1e-5)


def test_chi_stable_under_epsilon_rescaling():
    rho_cache = {}

    def rho(lam):
        if lam not in rho_cache:
            rho_cache[lam] = _bjj_operator(50, lam, 2e-3, 0.0)
        return rho_cache[lam]

    lam0 = -1.2
    values = []
    for eps0 in (5e-5, 1e-4, 2e-4):
        est = susceptibility_from_fidelity(
            lambda e: uhlmann_fidelity(rho(lam0), rho(lam0 + e)),
            default_epsilons(lam0, epsilon0=eps0),
            method="quantum",
        )
        values.append(est.value)
    base = values[1]
    assert abs(values[0] - base) < 5e-3 * base
    assert abs(values[2] - base) < 5e-3 * base
