"""Expansion driver: frozen coefficients, convergence behaviour, stability
under order changes, divergence detection, input validation and point blocks."""

import dataclasses
import math

import numpy as np
import pytest

from pdetaylor import (
    DivergenceError,
    PdeProblem,
    TaylorExpansion,
    compute_expansion,
    driver,
    get_problem,
)
from pdetaylor.jets import Jet

PI = math.pi
KAPPA = -0.4 * PI**2  # heat decay rate for the default parameters


def test_heat_coefficients_match_decay_powers():
    x = np.array([0.2, 0.5, 0.8])
    exp = compute_expansion(get_problem("heat"), x, 2)
    g = np.sin(PI * x)
    np.testing.assert_array_equal(exp.coeffs[0][0], g)
    np.testing.assert_allclose(exp.coeffs[0][1], KAPPA * g, rtol=1e-14)
    np.testing.assert_allclose(exp.coeffs[0][2], KAPPA**2 / 2 * g, rtol=1e-13)


def test_diffusion_coefficients_alternate_inverse_factorials():
    x = np.array([-0.35, 0.5])
    exp = compute_expansion(get_problem("diffusion"), x, 3)
    g = np.sin(PI * x)
    for i in range(4):
        np.testing.assert_allclose(
            exp.coeffs[0][i], (-1.0) ** i / math.factorial(i) * g, rtol=1e-11, atol=1e-13
        )


def test_wave_coefficients_standing_pattern():
    x = np.array([0.5])
    exp = compute_expansion(get_problem("wave"), x, 2)
    u, v = exp.coeffs
    assert u[0][0] == pytest.approx(2.0, rel=1e-15)
    assert u[1][0] == 0.0
    assert u[2][0] == pytest.approx(-(PI**2), rel=1e-13)
    assert v[0][0] == 0.0
    assert v[1][0] == pytest.approx(-2 * PI**2, rel=1e-13)
    assert v[2][0] == 0.0


def test_derivatives_are_factorial_scaled_coefficients():
    x = np.linspace(0.1, 0.9, 5)
    exp = compute_expansion(get_problem("heat"), x, 6)
    derivs = exp.derivatives()
    for i in range(7):
        np.testing.assert_array_equal(derivs[0][i], math.factorial(i) * exp.coeffs[0][i])


def test_evaluate_at_zero_returns_initial_profile():
    x = np.linspace(0.15, 0.85, 8)
    exp = compute_expansion(get_problem("heat"), x, 5)
    np.testing.assert_array_equal(exp.evaluate(0.0)[0], np.sin(PI * x))


def test_heat_evaluation_converges_to_exact():
    prob = get_problem("heat")
    x = np.linspace(0.05, 0.95, 21)
    exp = compute_expansion(prob, x, 10)
    got = exp.evaluate(0.1)[0]
    want = prob.exact(0.1, x)[0]
    assert np.max(np.abs(got - want)) < 2e-12


def test_diffusion_evaluation_converges_to_exact():
    prob = get_problem("diffusion")
    x = np.linspace(-0.9, 0.9, 19)
    exp = compute_expansion(prob, x, 10)
    got = exp.evaluate(0.05)[0]
    want = prob.exact(0.05, x)[0]
    assert np.max(np.abs(got - want)) < 1e-14


def test_wave_evaluation_converges_to_exact():
    prob = get_problem("wave")
    x = np.linspace(0.1, 0.9, 9)
    exp = compute_expansion(prob, x, 10)
    for t1 in (0.01, 0.1):
        got = exp.evaluate(t1)
        want = prob.exact(t1, x)
        for m in range(2):
            np.testing.assert_allclose(got[m], want[m], rtol=0, atol=5e-13)


@pytest.mark.parametrize("name", ["heat", "diffusion", "wave", "burgers", "allen_cahn", "schrodinger"])
def test_low_order_coefficients_stable_under_higher_truncation(name):
    # Raising the expansion order must not disturb already-computed
    # coefficients: the convolution never reads above the diagonal, so
    # the overlap is reproduced bit for bit.
    prob = get_problem(name)
    lo, hi = prob.domain
    x = np.linspace(lo + 0.2, hi - 0.2, 4)
    small = compute_expansion(prob, x, 4)
    large = compute_expansion(prob, x, 6)
    for m in range(prob.components):
        for i in range(5):
            np.testing.assert_array_equal(small.coeffs[m][i], large.coeffs[m][i])


def test_linear_problem_scales_linearly():
    heat = get_problem("heat")
    tripled = dataclasses.replace(
        heat,
        ic=lambda seed: [h * 3.0 for h in heat.ic(seed)],
        ic_numpy=lambda x: [3.0 * g for g in heat.ic_numpy(x)],
    )
    x = np.linspace(0.1, 0.9, 6)
    base = compute_expansion(heat, x, 6)
    big = compute_expansion(tripled, x, 6)
    for i in range(7):
        np.testing.assert_allclose(big.coeffs[0][i], 3.0 * base.coeffs[0][i], rtol=1e-14)


def test_remainder_shrinks_at_series_order():
    # With K retained orders the first dropped term dominates, so halving the
    # horizon divides the error by about 2**(K+1).
    prob = get_problem("heat")
    x = np.linspace(0.1, 0.9, 11)
    exp = compute_expansion(prob, x, 4)
    err = {}
    for t1 in (0.1, 0.2):
        err[t1] = np.max(np.abs(exp.evaluate(t1)[0] - prob.exact(t1, x)[0]))
    ratio = err[0.2] / err[0.1]
    assert 2**3 <= ratio <= 2**7


def _toy_problem(ic_value, rhs):
    return PdeProblem(
        name="toy",
        components=1,
        domain=(-1.0, 1.0),
        t_end=1.0,
        params={},
        ic=lambda seed: [seed * 0.0 + ic_value],
        rhs=rhs,
        ic_numpy=lambda x: [np.full_like(x, ic_value)],
        rhs_numpy=lambda u, u_x, u_xx, t, x: [np.zeros_like(x)],
    )


def test_constant_profile_with_diffusion_rhs_stays_put():
    prob = _toy_problem(4.0, lambda u, u_x, u_xx, t, x: [u_xx[0]])
    x = np.array([-0.5, 0.0, 0.5])
    exp = compute_expansion(prob, x, 5)
    np.testing.assert_array_equal(exp.coeffs[0][0], np.full(3, 4.0))
    for i in range(1, 6):
        np.testing.assert_array_equal(exp.coeffs[0][i], np.zeros(3))
    np.testing.assert_array_equal(exp.evaluate(0.7)[0], np.full(3, 4.0))


def test_divergence_error_reports_order_and_component():
    prob = _toy_problem(1e200, lambda u, u_x, u_xx, t, x: [u[0] * u[0]])
    with pytest.raises(DivergenceError) as err:
        compute_expansion(prob, np.array([0.0]), 3)
    assert err.value.order == 1
    assert err.value.component == 0
    assert "order 1" in str(err.value)


def test_divergence_error_can_appear_at_higher_order():
    # growth ~ u^3 squares the magnitude each round: finite at first order,
    # infinite soon after
    prob = _toy_problem(1e120, lambda u, u_x, u_xx, t, x: [u[0] * u[0] * u[0]])
    with pytest.raises(DivergenceError) as err:
        compute_expansion(prob, np.array([0.0]), 5)
    assert err.value.order >= 1


def test_rhs_must_return_series():
    prob = _toy_problem(1.0, lambda u, u_x, u_xx, t, x: [np.zeros(1)])
    with pytest.raises(TypeError, match="series"):
        compute_expansion(prob, np.array([0.0]), 2)


def test_points_must_be_inside_domain():
    prob = get_problem("heat")
    with pytest.raises(ValueError, match="inside"):
        compute_expansion(prob, np.array([0.5, 1.0]), 3)
    with pytest.raises(ValueError, match="inside"):
        compute_expansion(prob, np.array([-0.1]), 3)
    with pytest.raises(ValueError):
        compute_expansion(prob, np.array([]), 3)


def test_order_validation():
    prob = get_problem("heat")
    x = np.array([0.5])
    for bad in (0, -1, 21, 2.5):
        with pytest.raises(ValueError):
            compute_expansion(prob, x, bad)


def test_expansion_metadata():
    x = np.array([0.3, 0.6])
    exp = compute_expansion(get_problem("heat"), x, 3)
    assert isinstance(exp, TaylorExpansion)
    assert exp.problem == "heat"
    assert exp.max_order == 3
    assert exp.components == 1
    np.testing.assert_array_equal(exp.points, x)
    assert len(exp.coeffs[0]) == 4


# -- point blocks -------------------------------------------------------------

BLOCK = driver._BLOCK


@pytest.mark.parametrize("name", ["burgers", "schrodinger"])
def test_blocks_equal_per_block_and_one_pass_expansions(name, monkeypatch):
    prob = get_problem(name)
    lo, hi = prob.domain
    x = np.random.default_rng(41).uniform(lo + 0.01, hi - 0.01, 2 * BLOCK + 37)
    blocked = compute_expansion(prob, x, 8)
    parts = [compute_expansion(prob, x[i : i + BLOCK], 8) for i in range(0, x.size, BLOCK)]
    monkeypatch.setattr(driver, "_BLOCK", x.size)
    one_pass = compute_expansion(prob, x, 8)
    for m in range(prob.components):
        for i in range(9):
            got = blocked.coeffs[m][i].view(np.uint64)
            concatenated = np.concatenate([p.coeffs[m][i] for p in parts])
            np.testing.assert_array_equal(got, concatenated.view(np.uint64))
            np.testing.assert_array_equal(got, one_pass.coeffs[m][i].view(np.uint64))


def test_divergence_names_the_lowest_order_over_all_blocks():
    # u^3 overflows at order 1 from 1e120 (last block only), and at order 2
    # from 1e70 (every other block, which runs first)
    x = np.linspace(-0.99, 0.99, 2 * BLOCK + 37)
    cut = x[2 * BLOCK]

    def ic(seed):
        rows = np.zeros_like(seed.coeffs)
        rows[0] = np.where(seed.coeffs[0] >= cut, 1e120, 1e70)
        return [Jet(seed.algebra, rows)]

    prob = dataclasses.replace(
        _toy_problem(1.0, lambda u, u_x, u_xx, t, x: [u[0] * u[0] * u[0]]), ic=ic
    )
    with pytest.raises(DivergenceError) as err:
        compute_expansion(prob, x[:BLOCK], 3)
    assert err.value.order == 2
    with pytest.raises(DivergenceError) as err:
        compute_expansion(prob, x, 3)
    assert (err.value.order, err.value.component) == (1, 0)


def test_coefficients_own_their_memory():
    # a view of a value row would keep the whole jet it was computed in alive
    x = np.linspace(-0.9, 0.9, BLOCK + 5)
    for n in (3, x.size):
        exp = compute_expansion(get_problem("schrodinger"), x[:n], 4)
        for comp in exp.coeffs:
            for c in comp:
                assert c.flags.owndata and c.shape == (n,)


# -- structural zeros ---------------------------------------------------------


def test_zero_coefficients_of_x_and_t_cost_no_jet_products(monkeypatch):
    # x is zero past C_0 and t is zero except C_1 = 1; convolving those zeros
    # made diffusion's forcing cost O(K**2) jet products
    products = 0
    mul = Jet.__mul__

    def counting(self, other):
        nonlocal products
        products += isinstance(other, Jet)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counting)
    order = 20
    for name, most in (("heat", 0), ("diffusion", 2 * order)):
        prob = get_problem(name)
        products = 0
        compute_expansion(prob, np.linspace(*prob.domain, 9)[1:-1], order)
        assert products <= most, name


def test_integer_power_costs_the_jet_products_of_repeated_products(monkeypatch):
    # square-and-multiply must start from the base: starting from a constant
    # one convolves that one's zero jets (632 jet products here, not 422)
    products = 0
    mul = Jet.__mul__

    def counting(self, other):
        nonlocal products
        products += isinstance(other, Jet)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counting)
    base = get_problem("allen_cahn")
    d, lam = base.params["diffusion"], base.params["reaction"]
    counts = {}
    for spelling, cube in (("power", lambda v: v ** 3), ("products", lambda v: v * v * v)):
        def rhs(u, u_x, u_xx, t, x, cube=cube):
            return [u_xx[0] * d + (u[0] - cube(u[0])) * lam]

        products = 0
        compute_expansion(dataclasses.replace(base, rhs=rhs), np.linspace(-0.9, 0.9, 50), 20)
        counts[spelling] = products
    assert counts["power"] == counts["products"]


@pytest.mark.parametrize(
    "rhs, expected",
    [
        (lambda u, u_x, u_xx, t, x: [x * 2.0], lambda x: {1: 2.0 * x}),
        (lambda u, u_x, u_xx, t, x: [t], lambda x: {2: np.full_like(x, 0.5)}),
    ],
    ids=["x", "t"],
)
def test_rhs_of_x_or_t_alone_gives_exact_coefficients(rhs, expected):
    x = np.array([-0.5, 0.0, 0.25])
    exp = compute_expansion(_toy_problem(3.0, rhs), x, 6)
    want = {0: np.full_like(x, 3.0), **expected(x)}
    for i, c in enumerate(exp.coeffs[0]):
        assert c.flags.owndata
        np.testing.assert_array_equal(c.view(np.uint64), want.get(i, np.zeros_like(x)).view(np.uint64))


def test_divergence_through_x_and_t_is_reported_where_it_enters():
    # node = u^3 from 1e100 is 1e300 at order 0 and overflows at the first
    # order that sees a nonzero higher coefficient of u
    def toy(rhs):
        return _toy_problem(1e100, lambda u, u_x, u_xx, t, x: [rhs(u[0] * u[0] * u[0], t, x)])

    x = np.array([-0.5, 0.3])
    with pytest.raises(DivergenceError) as err:
        compute_expansion(toy(lambda node, t, x: node * t + node * x), x, 5)
    assert (err.value.order, err.value.component) == (2, 0)
    # Through t alone, C_3 is node_1 / 3 = 0 exactly (t's C_0 is a
    # structural zero, not 0 * inf = nan), and the overflowed node_2
    # enters at C_4.
    with pytest.raises(DivergenceError) as err:
        compute_expansion(toy(lambda node, t, x: node * t), x, 5)
    assert (err.value.order, err.value.component) == (4, 0)
