"""Spatial jets: seeding, derivative extraction, agreement with a 60-digit
finite-difference oracle on every problem's initial profile."""

import math

import numpy as np
import pytest

from pdetaylor import (
    BatchAlgebra,
    InsufficientJetOrderError,
    JetAlgebra,
    TruncatedSeries,
    derivative,
    get_problem,
    seed_variable,
    values,
)
from pdetaylor.series import LiftDomainError, exp, sin

from conftest import factorial, mp_derivative, mp_initial_profiles


def test_seed_variable_layout():
    jet = seed_variable(np.array([2.0, -1.0]), 3)
    assert jet.order == 3
    np.testing.assert_array_equal(jet.coeffs[0], [2.0, -1.0])
    np.testing.assert_array_equal(jet.coeffs[1], [1.0, 1.0])
    np.testing.assert_array_equal(jet.coeffs[2], [0.0, 0.0])
    np.testing.assert_array_equal(jet.coeffs[3], [0.0, 0.0])


def test_square_of_seed_and_its_derivative():
    jet = seed_variable(np.array([2.0]), 2)
    sq = jet * jet
    assert [c[0] for c in sq.coeffs] == [4.0, 4.0, 1.0]
    d = derivative(sq)
    assert d.order == 1
    assert [c[0] for c in d.coeffs] == [4.0, 2.0]
    dd = derivative(sq, 2)
    assert dd.order == 0
    assert dd.coeffs[0][0] == 2.0


def test_values_returns_zeroth_coefficient():
    jet = seed_variable(np.array([0.5, 1.5]), 2)
    np.testing.assert_array_equal(values(jet * jet), [0.25, 2.25])


def test_sin_jet_is_maclaurin_at_zero():
    jet = sin(seed_variable(np.array([0.0]), 5))
    got = [c[0] for c in jet.coeffs]
    expected = [0.0, 1.0, 0.0, -1.0 / 6.0, 0.0, 1.0 / 120.0]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-16)


def test_derivative_matches_coefficient_shift():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.2, 0.8, 4)
    jet = exp(seed_variable(x, 6) * 1.3)
    d = derivative(jet, 1)
    for k in range(d.order + 1):
        np.testing.assert_allclose(d.coeffs[k], (k + 1) * jet.coeffs[k + 1], rtol=1e-15)


def test_derivative_order_validation():
    jet = seed_variable(np.array([1.0]), 3)
    with pytest.raises(InsufficientJetOrderError):
        derivative(jet, 4)
    with pytest.raises(ValueError):
        derivative(jet, -1)
    same = derivative(jet, 0)
    assert same.order == jet.order
    for got, want in zip(same.coeffs, jet.coeffs):
        np.testing.assert_array_equal(got, want)


# -- closed-form first and second derivatives of each initial profile ------


def _jet_derivs(problem_name, x, upto):
    prob = get_problem(problem_name)
    jets = prob.ic(seed_variable(x, upto))
    out = []
    for jet in jets:
        rows = [factorial(k) * np.asarray(jet.coeffs[k]) for k in range(upto + 1)]
        out.append(rows)
    return out


def test_heat_profile_derivatives_closed_form():
    x = np.array([0.15, 0.5, 0.85])
    rows = _jet_derivs("heat", x, 2)[0]
    np.testing.assert_allclose(rows[0], np.sin(np.pi * x), rtol=1e-14)
    np.testing.assert_allclose(rows[1], np.pi * np.cos(np.pi * x), rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(rows[2], -np.pi**2 * np.sin(np.pi * x), rtol=1e-13)


def test_allen_cahn_profile_derivatives_closed_form():
    x = np.array([-0.6, 0.25, 0.9])
    rows = _jet_derivs("allen_cahn", x, 2)[0]
    c, s = np.cos(np.pi * x), np.sin(np.pi * x)
    np.testing.assert_allclose(rows[0], x**2 * c, rtol=1e-14)
    np.testing.assert_allclose(rows[1], 2 * x * c - np.pi * x**2 * s, rtol=1e-13)
    np.testing.assert_allclose(
        rows[2], 2 * c - 4 * np.pi * x * s - np.pi**2 * x**2 * c, rtol=1e-13
    )


def test_schrodinger_profile_derivatives_closed_form():
    x = np.array([-1.2, 0.0, 2.0])
    rows = _jet_derivs("schrodinger", x, 2)[0]
    sech, tanh = 1 / np.cosh(x), np.tanh(x)
    np.testing.assert_allclose(rows[0], 2 * sech, rtol=1e-14)
    np.testing.assert_allclose(rows[1], -2 * sech * tanh, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(
        rows[2], 2 * sech * tanh**2 - 2 * sech**3, rtol=1e-12, atol=1e-14
    )


def test_burgers_profile_derivatives_closed_form():
    x = np.array([-0.5, 0.3])
    rows = _jet_derivs("burgers", x, 2)[0]
    np.testing.assert_allclose(rows[0], -np.sin(np.pi * x), rtol=1e-14)
    np.testing.assert_allclose(rows[1], -np.pi * np.cos(np.pi * x), rtol=1e-13)
    np.testing.assert_allclose(rows[2], np.pi**2 * np.sin(np.pi * x), rtol=1e-13)


def test_wave_and_diffusion_profiles_match_heat_family():
    x = np.array([0.2, 0.7])
    wave_rows = _jet_derivs("wave", x, 1)
    np.testing.assert_allclose(wave_rows[0][0], 2 * np.sin(np.pi * x), rtol=1e-14)
    np.testing.assert_array_equal(wave_rows[1][0], np.zeros_like(x))
    np.testing.assert_array_equal(wave_rows[1][1], np.zeros_like(x))
    diff_rows = _jet_derivs("diffusion", np.array([-0.4, 0.6]), 1)[0]
    np.testing.assert_allclose(diff_rows[0], np.sin(np.pi * np.array([-0.4, 0.6])), rtol=1e-14)


# -- high-precision finite-difference agreement ----------------------------

_FD_CASES = [
    ("heat", [0.21, 0.5, 0.83]),
    ("diffusion", [-0.55, 0.11, 0.72]),
    ("wave", [0.17, 0.64]),
    ("burgers", [-0.81, 0.33]),
    ("allen_cahn", [-0.62, 0.27, 0.88]),
    ("schrodinger", [-2.4, 0.0, 1.1]),
]


@pytest.mark.parametrize("name,points", _FD_CASES)
def test_profile_jets_match_finite_differences(name, points):
    x = np.array(points)
    prob = get_problem(name)
    jets = prob.ic(seed_variable(x, 4))
    profiles = mp_initial_profiles(name)
    for comp, jet in enumerate(jets):
        f = profiles[comp]
        for m in range(5):
            got = factorial(m) * np.asarray(jet.coeffs[m])
            want = np.array([mp_derivative(f, xp, m) for xp in x])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-7)


def test_zero_component_profiles_are_exactly_zero():
    for name in ("wave", "schrodinger"):
        jets = get_problem(name).ic(seed_variable(np.array([0.3]), 6))
        assert all(float(np.abs(c).max()) == 0.0 for c in jets[1].coeffs)


# -- calculus identities through jets --------------------------------------


def test_product_rule():
    rng = np.random.default_rng(31)
    x = rng.uniform(-0.8, 0.8, 5)
    seed = seed_variable(x, 6)
    a, b = sin(seed * 2.0), exp(seed * 0.7)
    lhs = derivative(a * b)
    rhs = derivative(a) * b.truncated(5) + a.truncated(5) * derivative(b)
    for k in range(lhs.order + 1):
        np.testing.assert_allclose(lhs.coeffs[k], rhs.coeffs[k], rtol=1e-12, atol=1e-13)


def test_chain_rule_through_composition():
    x = np.array([0.1, -0.45, 0.62])
    jet = sin(exp(seed_variable(x, 3)))
    ex = np.exp(x)
    np.testing.assert_allclose(values(jet), np.sin(ex), rtol=1e-14)
    first = values(derivative(jet))
    np.testing.assert_allclose(first, ex * np.cos(ex), rtol=1e-13)
    second = values(derivative(jet, 2))
    np.testing.assert_allclose(second, ex * np.cos(ex) - ex**2 * np.sin(ex), rtol=1e-12)


# -- batch algebra edge behaviour -------------------------------------------


def test_batch_algebra_invertibility_and_finiteness():
    alg = BatchAlgebra(3)
    assert alg.is_invertible(np.array([1.0, -2.0, 0.5]))
    assert not alg.is_invertible(np.array([1.0, 0.0, 0.5]))
    # the tests are elementwise comparisons, whatever the entries' finiteness;
    # finiteness itself is checked by compute_expansion, not by the algebra
    assert alg.is_invertible(np.array([1.0, np.inf, -np.inf]))
    assert not alg.is_zero(np.array([0.0, np.nan, 0.0]))
    assert alg.is_zero(np.array([0.0, -0.0, 0.0]))


def test_batch_algebra_domain_errors():
    alg = BatchAlgebra(2)
    with pytest.raises(LiftDomainError):
        alg.log(np.array([1.0, -1.0]))
    with pytest.raises(LiftDomainError):
        alg.pow(np.array([-1.0, 2.0]), 0.5)


def test_jet_algebra_builds_series_elements():
    alg = JetAlgebra(BatchAlgebra(2), 3)
    z, o = alg.zero(), alg.one()
    assert isinstance(z, TruncatedSeries) and z.order == 3
    np.testing.assert_array_equal(values(o), [1.0, 1.0])
    assert alg.is_invertible(o)
    assert not alg.is_invertible(z)


def test_seed_variable_rejects_zero_order():
    with pytest.raises(ValueError):
        seed_variable(np.array([1.0]), 0)
