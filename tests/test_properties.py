"""Exact invariants of the model, checked over random small systems.

* Mirror symmetry: m -> -m maps H(delta) onto H(-delta), so reversing the
  tilt flips <J_z> and leaves Var(J_z) and every susceptibility unchanged.
* At T = 0 the ground state is real and positive (the tunneling couples
  adjacent m with a negative sign), so the Bhattacharyya coefficient of the
  J_z distributions equals the state overlap and chi_cl = chi_Q.

* Dominance chain chi_mom <= chi_cl <= chi_Q: measuring J_z cannot reveal
  more than the quantum state holds, and the first two moments of the J_z
  distribution cannot reveal more than the whole distribution.

Every chi is by default the exact derivative of the Gibbs state, so the
first two hold to roundoff there and are checked at rtol 1e-9, the chain
with a relative slack of 1e-9.  The finite-difference route of
``chi_at_point(..., epsilon0=...)`` keeps both symmetries at any
displacement; it is checked at the displacement scale 1e-3 with rtol 1e-6,
because at the scale 1e-4 the fidelity deficits of a chi near 0.02 are
about 1e-10, and roundoff in the fidelities alone moves chi by up to 2e-6
of its value.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bjjsense.criticality import METHODS, chi_at_point
from bjjsense.model import ModelParams, equilibrium_state, jz_moments

# (epsilon0, rtol): the exact default route and the finite-difference one.
ROUTES = ((None, 1e-9), (1e-3, 1e-6))

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
    mean, var = jz_moments(equilibrium_state(params, temperature))
    mean_m, var_m = jz_moments(equilibrium_state(mirrored, temperature))
    assert_allclose(-mean_m, mean, rtol=1e-6)
    assert_allclose(var_m, var, rtol=1e-6)
    for epsilon0, rtol in ROUTES:
        chi = chi_at_point(params, temperature, METHODS, epsilon0)
        chi_m = chi_at_point(mirrored, temperature, METHODS, epsilon0)
        for method in METHODS:
            assert_allclose(chi_m[method], chi[method], rtol=rtol,
                            err_msg=f"{method}, epsilon0={epsilon0}")


@SETTINGS
@given(n=st.integers(1, 40), lam=lambdas, delta=st.floats(-0.1, 0.1))
def test_classical_equals_quantum_at_zero_temperature(n, lam, delta):
    params = ModelParams(n, lambda_control=lam, imbalance=delta)
    for epsilon0, rtol in ROUTES:
        chi = chi_at_point(params, 0.0, ("classical", "quantum"), epsilon0)
        assert_allclose(chi["classical"], chi["quantum"], rtol=rtol,
                        err_msg=f"epsilon0={epsilon0}")


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
