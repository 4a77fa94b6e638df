"""Expansion driver: frozen coefficients, convergence behaviour, stability
under order changes, divergence detection, input validation and point blocks."""

import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest

from pdetaylor import (
    DivergenceError,
    PdeProblem,
    TaylorExpansion,
    available_problems,
    compute_expansion,
    driver,
    get_problem,
    jets,
    sample_points,
    seed_variable,
    series,
)
from pdetaylor.jets import BatchAlgebra, Jet
from pdetaylor.series import ZERO, LazySeries, RealAlgebra, TruncatedSeries, log, power, reciprocal, sin
from pdetaylor.series import exp as exp_

from conftest import (
    allen_cahn_coefficients,
    assert_equal_but_for_zero_signs,
    breather_coefficients,
    cole_hopf_burgers_coefficients,
    ic_jets,
)

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


@pytest.mark.parametrize("name", ["heat", "wave"])
def test_order_20_coefficients_match_the_closed_form(name):
    # measured worst, as a fraction of each order's largest value on these 50
    # points: heat 1.22e-15, wave 1.03e-15 (U) and 1.10e-15 (V)
    prob = get_problem(name)
    x = sample_points(prob, 50, None, 0)
    got = compute_expansion(prob, x, 20).coeffs
    for i in range(21):
        for m, exact in enumerate(prob.exact_derivative(i, 0.0, x)):
            want = exact / math.factorial(i)
            scale = np.max(np.abs(want))
            if scale == 0.0:  # wave's U at odd orders, V at even ones
                np.testing.assert_array_equal(got[m][i], 0.0)
                continue
            err = np.max(np.abs(got[m][i] - want)) / scale
            assert err <= 2e-15, f"{name} component {m} order {i}: {err:.3g}"


def test_order_20_burgers_coefficients_match_cole_hopf():
    # measured worst relative error 4.78e-13, at x = 0.3 and order 2, where
    # C_2 = -0.0052 is left by cancellation; every other order is below 2.5e-14
    x = np.array([0.3, -0.55, 0.9])
    want = cole_hopf_burgers_coefficients(x, 20)
    got = np.array(compute_expansion(get_problem("burgers"), x, 20).coeffs[0])
    rel = np.abs(got - want) / np.abs(want)
    assert rel.max() <= 1e-12, np.array2string(rel.max(axis=1), precision=2)
    assert np.delete(rel, 2, axis=0).max() <= 5e-14


def test_order_20_allen_cahn_coefficients_match_a_60_digit_recursion():
    # measured worst 5.61e-15 relative to each order's largest value (at order 18)
    x = np.array([0.3, -0.55, 0.9, 0.05])
    want = allen_cahn_coefficients(x, 20)
    got = np.array(compute_expansion(get_problem("allen_cahn"), x, 20).coeffs[0])
    rel = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
    assert rel.max() <= 2e-14, np.array2string(rel, precision=2)


# ten times the worst error measured at the points below, rounded up; each
# error is relative to its order's largest true value over both components.
# Measured: 1.1e-16 to 1.9e-15 at orders 0-6, then 3.2e-14, 2.9e-13,
# 1.5e-12, 5.4e-12, 4.4e-11 and 7.7e-11.  Past order 12 rounding takes over
# (1.7e-9 at 13, 2.8e-2 at 20), so those orders are not asserted
_BREATHER_BOUNDS = (2e-14,) * 7 + (4e-13, 3e-12, 2e-11, 6e-11, 5e-10, 8e-10)


def test_order_20_schrodinger_coefficients_match_the_breather():
    x = np.array([0.3, -0.55, 0.9, 0.05, 1.7, -2.4])
    want = breather_coefficients(x, 20)
    got = np.array(compute_expansion(get_problem("schrodinger"), x, 20).coeffs)
    rel = np.max(np.abs(got - want), axis=(0, 2)) / np.max(np.abs(want), axis=(0, 2))
    for order, bound in enumerate(_BREATHER_BOUNDS):
        assert rel[order] <= bound, f"order {order}: {rel[order]:.3g}"


def test_order_20_burgers_values_match_cole_hopf(burgers_truth):
    # measured 2.2e-16 at t1 = 0.0025 and 0.01, and 7.8e-16 at 0.05: inside
    # the radius the truncation is below rounding
    x, truth = burgers_truth
    expansion = compute_expansion(get_problem("burgers"), x, 20)
    for t1, want in truth.items():
        err = np.max(np.abs(expansion.evaluate(t1)[0] - want))
        assert err <= 4e-15, f"t1 = {t1}: {err:.3g}"


def test_derivatives_name_the_lowest_order_that_overflows():
    # C_10 of heat with alpha = 1e30 is finite, 10! * C_10 is not
    prob = get_problem("heat", {"alpha": 1e30})
    exp = compute_expansion(prob, np.array([0.3, 0.6]), 10)
    assert np.isfinite(exp.coeffs[0][10]).all()
    with pytest.raises(OverflowError, match=r"order 10 \(component 0\)"):
        exp.derivatives()
    # the lowest order wins over the components: 9! * 1e303 overflows
    second = np.stack([*exp.coeffs[0][:9], np.full(2, 1e303), np.zeros(2)])
    exp = dataclasses.replace(exp, components=2, coeffs=np.stack([exp.coeffs[0], second]))
    with pytest.raises(OverflowError, match=r"order 9 \(component 1\)"):
        exp.derivatives()


@pytest.mark.parametrize(
    "name, n",
    [(name, 9) for name in available_problems()] + [("schrodinger", 2 * driver._BLOCK + 37)],
)
def test_derivatives_are_factorial_scaled_coefficients(name, n):
    # derivatives() and evaluate() work on the whole array; each value has
    # the bits of the per-component, per-order loop
    prob = get_problem(name)
    x = np.linspace(*prob.domain, n + 2)[1:-1]
    exp = compute_expansion(prob, x, 20)
    assert exp.coeffs.shape == (prob.components, 21, n)
    derivs = exp.derivatives()
    for m in range(prob.components):
        for i in range(21):
            want = math.factorial(i) * exp.coeffs[m][i]
            np.testing.assert_array_equal(derivs[m][i].view(np.uint64), want.view(np.uint64))
    for t1 in (0.01, 0.1):
        values = exp.evaluate(t1)
        for m, comp in enumerate(exp.coeffs):
            acc = comp[20].copy()
            for i in range(19, -1, -1):
                acc = acc * t1 + comp[i]
            np.testing.assert_array_equal(values[m].view(np.uint64), acc.view(np.uint64))


def test_evaluate_at_zero_returns_initial_profile():
    x = np.linspace(0.15, 0.85, 8)
    exp = compute_expansion(get_problem("heat"), x, 5)
    np.testing.assert_array_equal(exp.evaluate(0.0)[0], np.sin(PI * x))


@pytest.mark.parametrize("t1", [math.nan, math.inf, -math.inf])
def test_evaluate_rejects_a_time_that_is_not_finite(t1):
    # heat's evaluate(inf) returned -inf
    exp = compute_expansion(get_problem("heat"), np.array([0.3, 0.6]), 4)
    with pytest.raises(ValueError, match=f"finite time, got {t1!r}"):
        exp.evaluate(t1)


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


@pytest.mark.parametrize(
    "ic, rhs, max_order, expected",
    [
        # V is identically zero; at jet order 6, u^4 from 1e78 * x overflows in
        # row 4 only, and V * u^4 carries that row's inf * 0 into V's C_1
        (
            lambda seed: [seed * 1e78, seed * 0.0],
            lambda u, u_x, u_xx, t, x: [u[0] * u[0] * u[0], u[1] * (u[0] * u[0] * u[0] * u[0])],
            3,
            (1, 1),
        ),
        # V is the constant 2; u^3 * V from 1e60 * x overflows at order 3
        (
            lambda seed: [seed * 1e60, seed * 0.0 + 2.0],
            lambda u, u_x, u_xx, t, x: [u[0] * u[0] * u[0] * u[1], u[1] * 0.0],
            5,
            (3, 0),
        ),
    ],
    ids=["zero", "constant"],
)
def test_divergence_through_a_jet_constant_in_space(ic, rhs, max_order, expected):
    # V is a jet whose rows past 0 are zero, and the kernel convolves them: an
    # inf in the other operand must be reported at the order where it enters
    prob = dataclasses.replace(_toy_problem(1.0, rhs), components=2, ic=ic)
    with pytest.raises(DivergenceError) as err:
        compute_expansion(prob, np.array([-0.01, 0.02]), max_order)
    assert (err.value.order, err.value.component) == expected


def test_rhs_must_return_series():
    prob = _toy_problem(1.0, lambda u, u_x, u_xx, t, x: [np.zeros(1)])
    with pytest.raises(TypeError, match="series"):
        compute_expansion(prob, np.array([0.0]), 2)


def test_rhs_must_return_one_series_per_component():
    prob = _toy_problem(1.0, lambda u, u_x, u_xx, t, x: [u[0], u[0]])
    with pytest.raises(ValueError, match="rhs returned 2 components, expected 1"):
        compute_expansion(prob, np.array([0.0]), 2)


def _heat_with_rhs(rhs):
    return dataclasses.replace(get_problem("heat"), rhs=rhs)


@pytest.mark.parametrize("divisor", [0.0, -0.0, 0])
@pytest.mark.parametrize(
    "divide",
    [
        # a lazy node raises when rhs builds it, before any coefficient exists
        lambda d: compute_expansion(_heat_with_rhs(lambda u, u_x, u_xx, t, x: [u[0] / d]), [0.3], 4),
        # t's coefficients are numbers and ZERO
        lambda d: compute_expansion(_heat_with_rhs(lambda u, u_x, u_xx, t, x: [u[0] + t / d]), [0.3], 4),
        lambda d: TruncatedSeries(RealAlgebra(), [1.0, 2.0, 3.0]) / d,
        lambda d: seed_variable([0.3, 0.5], 3) / d,
    ],
    ids=["lazy-jets", "lazy-numbers", "eager-floats", "eager-jet"],
)
def test_dividing_a_series_by_the_number_zero_raises_one_error(divide, divisor):
    # not numpy's divide-by-zero warning, a DivergenceError, Python's float
    # error or rows of inf and nan, depending on the coefficients
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroDivisionError, match="series was divided by the number zero") as err:
            divide(divisor)
    assert type(err.value) is ZeroDivisionError


def test_points_must_be_inside_domain():
    prob = get_problem("heat")
    with pytest.raises(ValueError, match="inside"):
        compute_expansion(prob, np.array([0.5, 1.0]), 3)
    with pytest.raises(ValueError, match="inside"):
        compute_expansion(prob, np.array([-0.1]), 3)
    with pytest.raises(ValueError):
        compute_expansion(prob, np.array([]), 3)


@pytest.mark.parametrize("points", [np.array([0.3 + 0.2j]), [0.5, 0.3 + 0j]], ids=["complex", "zero-imaginary"])
def test_complex_points_raise_before_any_expansion(points, monkeypatch):
    def no_work(*args):
        raise AssertionError("expanded complex points")

    monkeypatch.setattr(driver, "_expand_block", no_work)
    with pytest.raises(ValueError, match=r"expansion points must be real, got complex points .*\(0\.3\+"):
        compute_expansion(get_problem("heat"), points, 3)


def test_order_validation():
    prob = get_problem("heat")
    x = np.array([0.5])
    for bad in (0, -1, 21, 2.5, True):
        with pytest.raises(ValueError):
            compute_expansion(prob, x, bad)
    exp = compute_expansion(prob, x, np.int64(3))
    assert exp.max_order == 3 and type(exp.max_order) is int


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
        rows = np.zeros((seed.order + 1, seed.algebra.size))
        rows[0] = np.where(seed.constant_term >= cut, 1e120, 1e70)
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
        assert exp.coeffs.flags.owndata and exp.coeffs.flags.c_contiguous
        assert exp.coeffs.dtype == np.float64 and exp.coeffs.shape == (2, 5, n)
        for comp in exp.coeffs:
            for c in comp:
                assert c.base is exp.coeffs


# Kernel work of a K=20 expansion: calls of the one jet-product kernel, and
# its multiply-adds, n(n+1)/2 per column of an n-row product.  A product node
# forms its order-k coefficient at iteration k + 1, on n_k = 2(K - k) - 1 rows,
# from k + 1 jet pairs; a square from floor(k/2) + 1.  On 50 points every
# step's run of jet pairs makes one call.
def _node_work(pairs, above=0, max_order=20):
    """Kernel calls on 50 points and multiply-adds per point of one node whose
    order-k step multiplies ``pairs(k)`` jet pairs on ``n_k + above`` rows."""
    ks = [k for k in range(max_order) if pairs(k)]
    rows = [2 * (max_order - k) - 1 + above for k in ks]
    return len(ks), sum(pairs(k) * n * (n + 1) // 2 for k, n in zip(ks, rows))


def _product_pairs(k):
    return k + 1


def _square_pairs(k):
    return k // 2 + 1


# Schrodinger's U is even in t and V odd: u0*u0 and amp*u0 have k/2 + 1 pairs
# at even k, u1*u1 has k/2, two rows above (it pairs only V_1 .. V_{k-1}), and
# amp*u1 has (k+1)/2 at odd k
_NODES = {
    "heat": [],
    "diffusion": [],
    "wave": [],
    "burgers": [_node_work(_product_pairs)],
    "allen_cahn": [_node_work(_square_pairs), _node_work(_product_pairs)],
    "schrodinger": [
        _node_work(lambda k: 0 if k % 2 else k // 2 + 1),
        _node_work(lambda k: 0 if k % 2 else k // 2, above=2),
        _node_work(lambda k: 0 if k % 2 else k // 2 + 1),
        _node_work(lambda k: (k + 1) // 2 if k % 2 else 0),
    ],
}
KERNEL_WORK_50 = {
    name: (sum(c for c, _ in nodes), 50 * sum(w for _, w in nodes)) for name, nodes in _NODES.items()
}
# multiply-adds on 2100 points, in blocks or in one pass
KERNEL_MULTIPLY_ADDS_2100 = {
    name: 2100 * sum(w for _, w in _NODES[name]) for name in ("burgers", "allen_cahn", "schrodinger")
}


def test_kernel_work_closed_form_gives_the_recorded_counts():
    # per point at K=20: a product 30,800 multiply-adds, a square 16,885
    assert _node_work(_product_pairs) == (20, 30_800)
    assert _node_work(_square_pairs) == (20, 16_885)
    assert KERNEL_WORK_50["burgers"] == (20, 1_540_000)
    assert KERNEL_WORK_50["allen_cahn"] == (40, 2_384_250)
    assert KERNEL_WORK_50["schrodinger"] == (39, 1_688_000)
    assert KERNEL_MULTIPLY_ADDS_2100 == {
        "burgers": 64_680_000, "allen_cahn": 100_138_500, "schrodinger": 70_896_000
    }


def _kernel_work(prob, size):
    """Kernel calls and multiply-adds of one K=20 expansion on ``size`` interior
    points, counted by wrapping the kernel from outside the engine."""
    work = []
    convolve = jets._convolve

    def counting(a, b):
        work.append(len(a) * (len(a) + 1) // 2 * a[0].size)
        return convolve(a, b)

    with mock.patch.object(jets, "_convolve", counting):
        compute_expansion(prob, np.linspace(*prob.domain, size + 2)[1:-1], 20)
    return len(work), sum(work)


@pytest.mark.parametrize("name", list(KERNEL_WORK_50))
def test_kernel_work_on_50_points_is_pinned(name):
    assert _kernel_work(get_problem(name), 50) == KERNEL_WORK_50[name]


@pytest.mark.parametrize("name", list(KERNEL_MULTIPLY_ADDS_2100))
def test_blocks_do_not_change_kernel_work(name, monkeypatch):
    prob = get_problem(name)
    _, blocked = _kernel_work(prob, 2100)
    monkeypatch.setattr(driver, "_BLOCK", 2100)
    _, one_pass = _kernel_work(prob, 2100)
    assert blocked == one_pass == KERNEL_MULTIPLY_ADDS_2100[name]


@pytest.mark.parametrize("name", ["burgers", "allen_cahn", "schrodinger"])
def test_block_working_memory_does_not_grow_with_points(name):
    # a block holds its kept histories, a fixed number of bytes per block
    # point beyond the output: at K=20 about 6.84, 7.02 and 5.59 MiB per
    # block of 1024, against 13.64, 13.96 and 11.10 MiB per block of 2048
    # (a square keeps the one history of its operand)
    prob = get_problem(name)
    compute_expansion(prob, np.linspace(*prob.domain, 9)[1:-1], 20)  # warm-up
    working = []
    for size in (BLOCK, 2 * BLOCK + 37):
        x = np.linspace(*prob.domain, size + 2)[1:-1]
        tracemalloc.start()
        try:
            exp = compute_expansion(prob, x, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        working.append(peak - sum(c.nbytes for comp in exp.coeffs for c in comp))
    assert working[1] == pytest.approx(working[0], rel=0.02)
    assert working[0] < 8 * 2**20


# -- structural zeros ---------------------------------------------------------


@pytest.fixture
def jet_products(monkeypatch):
    """One entry per jet×jet product made in the test: whether each operand is all zero.

    Every jet product, alone or in a stack, goes through the one kernel
    ``jets._convolve``, which is hooked here with one entry per pair: its
    operands are ``(P+1, N)`` jets or ``(P+1, m, N)`` stacks of ``m`` pairs.
    """
    products = []
    convolve = jets._convolve

    def recording(a, b):
        sa, sb = (x.reshape(len(x), -1, x.shape[-1]) for x in (a, b))
        products.extend((not sa[:, p].any(), not sb[:, p].any()) for p in range(sa.shape[1]))
        return convolve(a, b)

    monkeypatch.setattr(jets, "_convolve", recording)
    return products


def test_zero_coefficients_of_x_and_t_cost_no_jet_products(jet_products):
    # x is zero past C_0 and t is zero except C_1 = 1.0, a number; convolving
    # those zeros made diffusion's forcing cost O(K**2) jet products, and
    # carrying exp(-t)'s coefficients as jets still cost 39
    for name in ("heat", "diffusion"):
        prob = get_problem(name)
        jet_products.clear()
        compute_expansion(prob, np.linspace(*prob.domain, 9)[1:-1], 20)
        assert jet_products == [], name


def test_zero_initial_components_cost_no_jet_products(jet_products):
    # V's initial condition is the structural ZERO, and real initial data
    # keep U even and V odd in t, so every term with a zero half of the
    # parity is ZERO too and reaches no jet product (a zero jet for V would
    # make schrodinger's 840)
    for name, count in (("schrodinger", 210), ("wave", 0)):
        prob = get_problem(name)
        jet_products.clear()
        compute_expansion(prob, np.linspace(*prob.domain, 9)[1:-1], 20)
        assert len(jet_products) == count, name
        assert not any(a_zero or b_zero for a_zero, b_zero in jet_products), name


@pytest.mark.parametrize("name, above", [("burgers", 0), ("allen_cahn", 0), ("schrodinger", 2)])
def test_jet_products_run_at_the_working_order(name, above, monkeypatch):
    # Iteration i asks every output node for coefficient k = i - 1, and reads
    # C_{i-1} at the working order W_i = 2(K - i) (plus one order per
    # derivative).  A kept jet of an older coefficient is longer, and a
    # product meets the newest one at the lower order, so every kernel
    # operand has W_i + 1 rows.  Schrodinger's V is odd in t, so in the square
    # u1*u1 the one term that holds V's newest coefficient V_k pairs it with
    # the ZERO V_0: the square of order k pairs only V_1 .. V_{k-1}, the
    # newest of them read at W_{i-1} = W_i + 2 jet orders.
    max_order = 8
    forming, depth, rows = [None], [0], []
    coeff, convolve = LazySeries.coeff, jets._convolve

    def outermost(node, k):
        if depth[0] == 0:
            forming[0] = k + 1
        depth[0] += 1
        try:
            return coeff(node, k)
        finally:
            depth[0] -= 1

    def recording(a, b):
        rows.append((forming[0], len(a), len(b)))
        return convolve(a, b)

    monkeypatch.setattr(LazySeries, "coeff", outermost)
    monkeypatch.setattr(jets, "_convolve", recording)
    prob = get_problem(name)
    # 9 points stack every run in one call, and 1100 make one call per pair in
    # their first block
    for size in (9, 1100):
        rows.clear()
        compute_expansion(prob, np.linspace(*prob.domain, size + 2)[1:-1], max_order)
        assert {i for i, _, _ in rows} == set(range(1, max_order + 1))
        for i, len_a, len_b in rows:
            work_rows = 2 * (max_order - i) + 1
            assert work_rows <= len_a == len_b <= work_rows + above, (size, i)
        if above:
            assert any(len_a > 2 * (max_order - i) + 1 for i, len_a, _ in rows)


def test_integer_power_starts_from_the_base_and_squares_once(jet_products):
    # square-and-multiply starts from the base and multiplies by no constant
    # one; the cube is square(v) * v, 110 square pairs and 210 product pairs
    # over the 20 orders, where v * v * v makes 210 and 210
    base = get_problem("allen_cahn")
    d, lam = base.params["diffusion"], base.params["reaction"]
    counts = {}
    for spelling, cube in (("power", lambda v: v ** 3), ("products", lambda v: v * v * v)):
        def rhs(u, u_x, u_xx, t, x, cube=cube):
            return [u_xx[0] * d + (u[0] - cube(u[0])) * lam]

        jet_products.clear()
        compute_expansion(dataclasses.replace(base, rhs=rhs), np.linspace(-0.9, 0.9, 50), 20)
        counts[spelling] = len(jet_products)
    assert counts == {"power": 320, "products": 420}


def test_a_square_step_forms_each_cross_term_once_at_the_working_order(jet_products, monkeypatch):
    # the order-k coefficient of u ** 2 is formed at iteration k + 1 from
    # floor(k/2) + 1 jet pairs, the middle term in the same stack, so every
    # pair is read at the newest coefficient's W_{k+1} + 1 rows; u * u is a
    # plain product of k + 1 pairs.  On 9 points each step is one call
    max_order = 8
    calls, recording = [], jets._convolve

    def counting(a, b):
        before = len(jet_products)
        c = recording(a, b)
        calls.append((len(a), len(jet_products) - before))
        return c

    monkeypatch.setattr(jets, "_convolve", counting)
    base = get_problem("allen_cahn")
    for square, pairs in ((lambda u: u ** 2, _square_pairs), (lambda u: u * u, _product_pairs)):
        calls.clear()
        prob = dataclasses.replace(base, rhs=lambda u, u_x, u_xx, t, x, f=square: [f(u[0])])
        compute_expansion(prob, np.linspace(-0.9, 0.9, 9), max_order)
        assert calls == [(2 * (max_order - k) - 1, pairs(k)) for k in range(max_order)]


@pytest.fixture
def formed_products(monkeypatch):
    """A function that returns and resets the products that the steps made in
    the test have formed: ``(lone products, jet pairs)``.

    A step adds each product that is not a jet pair alone, through the one
    ``series._accumulate``, and folds runs of jet pairs through the one
    ``Jet._fold_products``; both are hooked here.
    """
    counts = [0, 0]
    accumulate, fold_products = series._accumulate, Jet._fold_products

    def lone(acc, t, w, sub):
        counts[0] += 1
        return accumulate(acc, t, w, sub)

    def pairs(acc, run, sub):
        counts[1] += len(run)
        return fold_products(acc, run, sub)

    def formed():
        seen = tuple(counts)
        counts[:] = [0, 0]
        return seen

    monkeypatch.setattr(series, "_accumulate", lone)
    monkeypatch.setattr(Jet, "_fold_products", staticmethod(pairs))
    return formed


def test_steps_form_only_the_products_they_sum(formed_products):
    # heat's initial condition sin(seed * pi) on the identity (x, 1.0, ZERO,
    # ...) at jet order 40 has one product per order for sine and one for
    # cosine: every other term has a ZERO factor and is skipped unformed
    heat = get_problem("heat")
    x = np.linspace(*heat.domain, 52)[1:-1]
    compute_expansion(heat, x, 20)
    assert formed_products() == (80, 0)

    # diffusion's forcing lifts x, the same identity at the working order
    # W_1 = 38 of K = 20, which costs one product per order for each of sine
    # and cosine where the dense seed jet took 741 each
    diffusion = get_problem("diffusion")
    forcing = dataclasses.replace(
        diffusion, ic=lambda seed: [0.0], rhs=lambda u, u_x, u_xx, t, x_node: [sin(x_node * PI)]
    )
    expansion = compute_expansion(forcing, x, 20)
    assert formed_products() == (2 * 38, 0)
    np.testing.assert_allclose(expansion.coeffs[0][1], np.sin(PI * x), rtol=1e-15, atol=0)

    # and the whole of diffusion: 80 for its initial condition, 76 for the
    # forcing's lift, 19 for exp(-t) and 20 for its product with the forcing
    compute_expansion(diffusion, x, 20)
    assert formed_products() == (195, 0)


def test_a_lift_of_x_is_one_flat_jet():
    # the lift runs on the identity's rows and is converted once, so the
    # forcing's products and sums with U's jets do not convert it again
    history = []

    def rhs(u, u_x, u_xx, t, x):
        lift = sin(x * PI)
        history.append(lift._kept())
        return [u_xx[0] - lift]

    x = np.array([-0.5, 0.25])
    compute_expansion(dataclasses.replace(get_problem("diffusion"), rhs=rhs), x, 3)
    (lifts,) = history
    assert type(lifts[0]) is Jet and lifts[0].order == 4  # W_1 of K = 3
    np.testing.assert_array_equal(lifts[0].coeffs[0], np.sin(PI * x))
    assert all(c is ZERO for c in lifts[1:])


@pytest.mark.parametrize(
    "rhs, expected, rtol",
    [
        (lambda u, u_x, u_xx, t, x: [x * 2.0], lambda x: {1: 2.0 * x}, 0.0),
        (lambda u, u_x, u_xx, t, x: [t], lambda x: {2: np.full_like(x, 0.5)}, 0.0),
        # every C_i past 0 is a number, 1/i!, written at every point
        (
            lambda u, u_x, u_xx, t, x: [exp_(t)],
            lambda x: {i: np.full_like(x, 1.0 / math.factorial(i)) for i in range(1, 7)},
            1e-15,
        ),
    ],
    ids=["x", "t", "exp_t"],
)
def test_rhs_of_x_or_t_alone_gives_exact_coefficients(rhs, expected, rtol):
    x = np.array([-0.5, 0.0, 0.25])
    exp = compute_expansion(_toy_problem(3.0, rhs), x, 6)
    want = {0: np.full_like(x, 3.0), **expected(x)}
    assert exp.coeffs.flags.owndata
    for i, c in enumerate(exp.coeffs[0]):
        assert c.base is exp.coeffs
        w = want.get(i, np.zeros_like(x))
        if rtol:
            np.testing.assert_allclose(c, w, rtol=rtol, atol=0)
        else:
            np.testing.assert_array_equal(c.view(np.uint64), w.view(np.uint64))


def test_number_valued_coefficients_are_constant_in_space():
    # U(0) = 2x and U_t = exp(t), so U's C_i past 0 are the numbers 1/i!: then
    # U_x reads them as ZERO and U as the number itself.  V_t = U_x + U with
    # V(0) = 0 gives V = (1 + 2x) t + exp(t) - 1.
    prob = dataclasses.replace(
        _toy_problem(0.0, lambda u, u_x, u_xx, t, x: [exp_(t), u_x[0] + u[0]]),
        components=2,
        ic=lambda seed: [seed * 2.0, seed * 0.0],
    )
    x = np.array([-0.5, 0.0, 0.25])
    u, v = compute_expansion(prob, x, 8).coeffs
    np.testing.assert_array_equal(u[0], 2.0 * x)
    np.testing.assert_array_equal(v[0], 0.0)
    np.testing.assert_allclose(v[1], 2.0 + 2.0 * x, rtol=1e-15, atol=0)
    for i in range(1, 9):
        inverse_factorial = np.full_like(x, 1.0 / math.factorial(i))
        np.testing.assert_allclose(u[i], inverse_factorial, rtol=1e-15, atol=0)
        if i >= 2:
            np.testing.assert_allclose(v[i], inverse_factorial, rtol=1e-15, atol=0)


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


def _binomial(a, i):
    """The generalised binomial coefficient ``a choose i``."""
    return math.prod(a - j for j in range(i)) / math.factorial(i)


# U(0) = 3 as a jet (the toy's seed * 0.0 + 3.0): each rhs meets x, the
# identity (x, 1.0, ZERO, ...), with a jet at order 0, and x t meets u_1, a
# newer jet of lower order, at order 1; the closed form of U's C_i, i >= 1,
# follows from solving the ODE in t at every point
@pytest.mark.parametrize(
    "rhs, closed_form",
    [
        (lambda u, t, x: x * u, lambda x, i: 3.0 * x**i / math.factorial(i)),
        (lambda u, t, x: x / u, lambda x, i: 3.0 * _binomial(0.5, i) * (2.0 * x / 9.0) ** i),
        (lambda u, t, x: u / (x + 2.0), lambda x, i: 3.0 / (x + 2.0) ** i / math.factorial(i)),
        (lambda u, t, x: exp_(x) * u, lambda x, i: 3.0 * np.exp(i * x) / math.factorial(i)),
        (lambda u, t, x: exp_(x - u), lambda x, i: (-1.0) ** (i + 1) * np.exp(i * (x - 3.0)) / i),
        (lambda u, t, x: x + u, lambda x, i: (3.0 + x) / math.factorial(i)),
        (lambda u, t, x: u - x, lambda x, i: (3.0 - x) / math.factorial(i)),
        (lambda u, t, x: x - u, lambda x, i: (3.0 - x) * (-1.0) ** i / math.factorial(i)),
        (lambda u, t, x: x * t - u,
         lambda x, i: (3.0 + x) * (-1.0) ** i / math.factorial(i) + (x if i == 1 else 0.0)),
    ],
    ids=["product", "quotient-by-jet", "quotient-of-jet", "lift", "lift-of-difference", "sum",
         "difference", "reflected-difference", "times-t"],
)
def test_x_in_rhs_meets_a_jet_at_every_operator(rhs, closed_form):
    # U_t = x U gives 3 exp(x t), x / U gives sqrt(9 + 2 x t), U / (x + 2)
    # gives 3 exp(t / (x + 2)), exp(x) U gives 3 exp(t e^x), exp(x - U) gives
    # log(e^3 + t e^x), U_t = x + U, U - x and x - U are linear, and
    # U_t = x t - U gives x (t - 1) + (3 + x) e^{-t}
    x = np.array([-0.7, -0.2, 0.4, 0.9])
    prob = _toy_problem(3.0, lambda u, u_x, u_xx, t, x_node: [rhs(u[0], t, x_node)])
    coeffs = compute_expansion(prob, x, 6).coeffs[0]
    np.testing.assert_array_equal(coeffs[0], 3.0)
    for i in range(1, 7):
        np.testing.assert_allclose(coeffs[i], closed_form(x, i), rtol=1e-13, atol=0)


# U(0) = 1.5 exp(0.7 x), and each rhs reads U alone, so U solves an ODE in t
# at every point; each closed form is expanded in t by mpmath at 50 digits
@pytest.mark.parametrize(
    "rhs, solution",
    [
        (lambda u: power(u, 1.5), lambda u0, t: (u0 ** -0.5 - t / 2) ** -2),
        (lambda u: power(u, 2), lambda u0, t: u0 / (1 - u0 * t)),
        (lambda u: reciprocal(u), lambda u0, t: mpmath.sqrt(u0**2 + 2 * t)),
        (lambda u: u + 2.0, lambda u0, t: (u0 + 2) * mpmath.exp(t) - 2),
        (lambda u: u * log(u), lambda u0, t: mpmath.exp(mpmath.log(u0) * mpmath.exp(t))),
    ],
    ids=["power-recurrence", "power-square-and-multiply", "lazy-quotient", "plus-number",
         "times-log"],
)
def test_lazy_paths_match_closed_form_ode_solutions(rhs, solution):
    # no run of the six problems reaches these paths; at K = 6 every
    # coefficient was measured within 8.8e-16 of the closed form, relative
    x = np.array([0.2, 0.5, 0.8])
    prob = dataclasses.replace(
        _toy_problem(0.0, lambda u, u_x, u_xx, t, x_node: [rhs(u[0])]),
        ic=lambda seed: [exp_(seed * 0.7) * 1.5],
    )
    coeffs = compute_expansion(prob, x, 6).coeffs[0]
    with mpmath.workdps(50):
        for j, xj in enumerate(x):
            u0 = 1.5 * mpmath.exp(0.7 * mpmath.mpf(xj))
            want = mpmath.taylor(lambda t: solution(u0, t), 0, 6)
            for i, w in enumerate(want):
                assert abs(coeffs[i][j] - w) <= 1e-14 * abs(w), (i, xj)


def test_schrodinger_parity_in_time_gives_exact_zero_coefficients():
    # real initial data make U even in t and V odd; those coefficients are the
    # structural ZERO, whose value row the driver writes as +0.0
    x = np.array([-2.3, -0.4, 0.0, 1.1, 3.7])
    u, v = compute_expansion(get_problem("schrodinger"), x, 20).coeffs
    for i in range(21):
        zero = (v if i % 2 == 0 else u)[i]
        np.testing.assert_array_equal(zero == 0.0, True)
        np.testing.assert_array_equal(np.signbit(zero), False)


def test_non_finite_initial_condition_diverges_at_order_0():
    prob = _toy_problem(np.nan, lambda u, u_x, u_xx, t, x: [u[0]])
    with pytest.raises(DivergenceError) as err:
        compute_expansion(prob, np.array([-0.5, 0.5]), 3)
    assert (err.value.order, err.value.component) == (0, 0)


# -- initial condition ----------------------------------------------------------


def test_ic_receives_the_identity_with_zero_rows_past_1():
    # rows past 1 of the identity are the structural ZERO, so a lift such as
    # sin(seed * PI) skips them instead of convolving zero rows
    heat = get_problem("heat")
    seeds = []

    def ic(seed):
        seeds.append(seed)
        return heat.ic(seed)

    x = np.array([0.2, 0.5, 0.7])
    compute_expansion(dataclasses.replace(heat, ic=ic), x, 5)
    (seed,) = seeds
    assert seed.order == 10
    assert seed.algebra == BatchAlgebra(3)
    np.testing.assert_array_equal(seed.coeffs[0], x)
    np.testing.assert_array_equal(seed.coeffs[1], np.ones(3))
    assert all(r is ZERO for r in seed.coeffs[2:])


@pytest.mark.parametrize("name", available_problems())
def test_initial_condition_matches_the_dense_seed(name):
    # a dense zero row adds +0.0 terms that ZERO skips, so an exact zero
    # (sin's even rows at x = 0) may differ in sign, and nothing else may
    prob = get_problem(name)
    x = np.linspace(*prob.domain, 41)[1:-1]
    got = driver._initial_condition(prob, BatchAlgebra(x.size), x, 40)
    want = ic_jets(prob, seed_variable(x, 40))
    assert len(got) == len(want) == prob.components
    for g, w in zip(got, want):
        if g is ZERO:
            assert not w.coeffs.any()
        else:
            assert isinstance(g, Jet) and g.order == 40
            assert_equal_but_for_zero_signs(g.coeffs, w.coeffs)


@pytest.mark.parametrize(
    "name, ic, message",
    [
        # zero-padding the order-2 jet gave C_2 = 0 instead of 6.30 and 7.41
        ("heat", lambda s: [sin(s.truncated(2) * PI)], "component 0 has jet order 2, expected 10"),
        ("heat", lambda s: [np.sin(PI * s.constant_term)], "component 0 is a ndarray"),
        ("heat", lambda s: [seed_variable(s.constant_term, s.order + 1)],
         "component 0 has jet order 11, expected 10"),
        ("wave", lambda s: [sin(s * PI), np.zeros(s.algebra.size)], "component 1 is a ndarray"),
        ("heat", lambda s: [sin(s * PI), ZERO], "initial condition returned 2 components, expected 1"),
    ],
    ids=["short-series", "array", "long-jet", "second-component", "component-count"],
)
def test_malformed_initial_condition_names_its_component(name, ic, message):
    prob = dataclasses.replace(get_problem(name), ic=ic)
    with pytest.raises(ValueError, match=message):
        compute_expansion(prob, np.array([0.3, 0.6]), 5)


def test_number_initial_component_is_constant_in_space():
    prob = dataclasses.replace(get_problem("heat"), ic=lambda s: [2])
    exp = compute_expansion(prob, np.array([0.3, 0.6]), 3)
    np.testing.assert_array_equal(exp.coeffs[0][0], [2.0, 2.0])
    for i in range(1, 4):
        np.testing.assert_array_equal(exp.coeffs[0][i], [0.0, 0.0])
