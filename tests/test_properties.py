"""Exact invariants of the model, checked over random small systems.

* Mirror symmetry: m -> -m maps H(delta) onto H(-delta), so reversing the
  tilt flips <J_z> and leaves Var(J_z) and every susceptibility unchanged.
* At T = 0 the ground state is real and positive (the tunneling couples
  adjacent m with a negative sign), so the Bhattacharyya coefficient of the
  J_z distributions equals the state overlap and chi_cl = chi_Q.

* Dominance chain chi_mom <= chi_cl <= chi_Q: measuring J_z cannot reveal
  more than the quantum state holds, and the first two moments of the J_z
  distribution cannot reveal more than the whole distribution.
* The exact route and the finite-difference reference agree: the
  finite-difference fits carry an O(eps^2) bias, and at the displacement
  scale 1e-3 every chi matches the exact one to rtol 2e-3.

Every chi of ``chi_at_point`` is the exact derivative of the Gibbs state,
so the first two hold to roundoff there and are checked at rtol 1e-9, the
chain with a relative slack of 1e-9.  The finite-difference reference
``fd_reference.fd_chi_point`` keeps both symmetries at any displacement;
it is checked at the displacement scale 1e-3 with rtol 1e-6, because at the
scale 1e-4 the fidelity deficits of a chi near 0.02 are about 1e-10, and
roundoff in the fidelities alone moves chi by up to 2e-6 of its value.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fd_reference import fd_chi_point, jz_moments, state_at

from bjjsense.criticality import METHODS, chi_at_point
from bjjsense.model import ModelParams


def _fd_chi(params, temperature, which):
    return fd_chi_point(params, temperature, which, 1e-3)


# (name, chi(params, temperature, which), rtol): the exact route and the
# finite-difference reference at the displacement scale 1e-3.
ROUTES = (("exact", chi_at_point, 1e-9), ("finite-difference", _fd_chi, 1e-6))

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

lambdas = st.floats(-2.0, 1.0)
temperatures = st.one_of(st.just(0.0), st.floats(0.05, 2.0))


@SETTINGS
@given(
    n=st.integers(2, 40),
    lam=lambdas,
    delta=st.floats(1e-3, 0.1),
    temperature=temperatures,
)
def test_tilt_reversal_is_a_symmetry(n, lam, delta, temperature):
    params = ModelParams(n, lambda_control=lam, imbalance=delta)
    mirrored = dataclasses.replace(params, imbalance=-delta)
    mean, var = jz_moments(state_at(params, temperature))
    mean_m, var_m = jz_moments(state_at(mirrored, temperature))
    assert_allclose(-mean_m, mean, rtol=1e-6)
    assert_allclose(var_m, var, rtol=1e-6)
    for name, chi_of, rtol in ROUTES:
        chi = chi_of(params, temperature, METHODS)
        chi_m = chi_of(mirrored, temperature, METHODS)
        for method in METHODS:
            assert_allclose(chi_m[method], chi[method], rtol=rtol,
                            err_msg=f"{method}, {name}")


@SETTINGS
@given(n=st.integers(1, 40), lam=lambdas, delta=st.floats(-0.1, 0.1))
def test_classical_equals_quantum_at_zero_temperature(n, lam, delta):
    params = ModelParams(n, lambda_control=lam, imbalance=delta)
    for name, chi_of, rtol in ROUTES:
        chi = chi_of(params, 0.0, ("classical", "quantum"))
        assert_allclose(chi["classical"], chi["quantum"], rtol=rtol,
                        err_msg=name)


@SETTINGS
@given(
    n=st.integers(1, 40),
    lam=lambdas,
    delta=st.floats(-0.1, 0.1),
    temperature=temperatures,
)
# Deep in the broken phase at low T the thermal state keeps levels of weight
# ~1e-10; an Uhlmann fidelity taken through the eigenvalues of A A^T put chi_Q
# 2-3% below chi_cl there.
@example(n=38, lam=-1.5884, delta=0.0, temperature=0.05)
@example(n=27, lam=-1.6495, delta=0.0, temperature=0.05)
def test_dominance_chain(n, lam, delta, temperature):
    params = ModelParams(n, lambda_control=lam, imbalance=delta)
    chi = chi_at_point(params, temperature)
    assert chi["moment"] <= chi["classical"] * (1.0 + 1e-9), chi
    assert chi["classical"] <= chi["quantum"] * (1.0 + 1e-9), chi


@SETTINGS
@given(
    n=st.integers(1, 40),
    lam=lambdas,
    delta=st.floats(1e-3, 0.1),
    temperature=temperatures,
)
def test_exact_route_matches_finite_difference_reference(
    n, lam, delta, temperature
):
    params = ModelParams(n, lambda_control=lam, imbalance=delta)
    exact = chi_at_point(params, temperature)
    reference = _fd_chi(params, temperature, METHODS)
    # atol: at N = 1 dH/dlambda is a constant, every exact chi is 0 and the
    # reference's <J_z> slope is roundoff, chi_mom ~ 1e-31
    for method in METHODS:
        assert_allclose(exact[method], reference[method], rtol=2e-3,
                        atol=1e-20, err_msg=method)
