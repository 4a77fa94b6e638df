"""Taylor-mode driver: one right-hand-side call, coefficients bit-identical to
re-evaluating the right-hand side at every order."""

import dataclasses
import math
import operator

import numpy as np
import pytest

from pdetaylor import (
    BatchAlgebra,
    JetAlgebra,
    PdeProblem,
    RealAlgebra,
    TruncatedSeries,
    available_problems,
    compute_expansion,
    cos,
    derivative,
    exp,
    get_problem,
    log,
    power,
    reciprocal,
    sech,
    seed_variable,
    sin,
    sin_cos,
)
from pdetaylor.jets import Jet
from pdetaylor.series import LazySeries, SeriesTape

from conftest import assert_equal_but_for_zero_signs, ic_jets

PI = math.pi


def eager_coefficients(problem, x, max_order):
    """Reference: re-evaluate rhs on TruncatedSeries over JetAlgebra at every order i,
    with every operand truncated to the working jet order W_i, and keep the top term."""
    step = 2
    seed = seed_variable(x, step * max_order)
    jets = [[g] for g in ic_jets(problem, seed)]
    for i in range(1, max_order + 1):
        w = step * (max_order - i)
        alg = JetAlgebra(BatchAlgebra(x.size), w)

        def stacked(d):
            return [
                TruncatedSeries(alg, [derivative(j, d).truncated(w) for j in comp])
                for comp in jets
            ]

        n = i - 1
        zero = Jet(alg.inner, np.zeros((w + 1, x.size)))
        one = Jet(alg.inner, np.vstack([np.ones(x.size), np.zeros((w, x.size))]))
        t = TruncatedSeries(alg, [zero, one] + [zero] * (n - 1) if n else [zero])
        x_series = TruncatedSeries(alg, [seed.truncated(w)] + [zero] * n)
        f = problem.rhs(stacked(0), stacked(1), stacked(2), t, x_series)
        for comp, fc in zip(jets, f):
            comp.append(fc.coeffs[n] * (1.0 / i))
    return [[j.coeffs[0] for j in comp] for comp in jets]


def _lifts_rhs(u, u_x, u_xx, t, x):
    v = u[0]
    s, c = sin_cos(x * PI)
    return [
        (exp(-t) * s + cos(v) * u_x[0] - sin(v) * 0.1 + log(v) * c
         + sech(v - 2.0) - reciprocal(v) + sech(t + 0.3)
         + v ** 1.5 - power(v, 3) * 0.01 + v ** -2.0 + power(v, 0.5))
        * 0.05
    ]


def _operators_rhs(u, u_x, u_xx, t, x):
    v, w = u
    return [
        ((u_xx[0] - v * w) / (v + 1.0) + (1.0 - t) * 0.5 - w / 2.0) * 0.1,
        (-(v * u_x[1]) + 3.0 / (2.0 + w * w) + v ** 2 - 4.0 + x * t - u_xx[1] * 0.01) * 0.1,
    ]


def _time_only_rhs(u, u_x, u_xx, t, x):
    # g depends on t alone, so the driver carries its coefficients as plain
    # numbers where the reference has constant jets; they must divide alike
    v = u[0]
    g = exp(t * 3.0) + 0.7
    return [(v / g + g / (v + 2.0) + 1.5 / g - g * v) * 0.1]


def _toy(name, components, rhs):
    return PdeProblem(
        name=name,
        components=components,
        domain=(-1.0, 1.0),
        t_end=1.0,
        params={},
        ic=lambda seed: [sin(seed * PI) * 0.5 + (2.0 + m) for m in range(components)],
        rhs=rhs,
        ic_numpy=lambda x: [0.5 * np.sin(PI * x) + 2.0 + m for m in range(components)],
        rhs_numpy=lambda u, u_x, u_xx, t, x: [np.zeros_like(x)] * components,
    )


# (problem, K): the built-in problems at the top order; the toys, whose eager
# reference is slow, at an order that still reaches every branch of every step
CASES = [(get_problem(name), 20) for name in available_problems()] + [
    (_toy("lifts", 1, _lifts_rhs), 12),
    (_toy("operators", 2, _operators_rhs), 12),
    (_toy("time_only", 1, _time_only_rhs), 12),
]


def _points(problem, n=7):
    lo, hi = problem.domain
    return np.random.default_rng(11).uniform(lo + 0.05, hi - 0.05, n)


@pytest.mark.parametrize("problem, order", CASES, ids=[p.name for p, _ in CASES])
def test_coefficients_bit_identical_to_per_order_reevaluation(problem, order):
    x = _points(problem)
    expansion = compute_expansion(problem, x, order)
    reference = eager_coefficients(problem, x, order)
    for m in range(problem.components):
        for i in range(order + 1):
            got, want = expansion.coeffs[m][i], reference[m][i]
            assert np.isfinite(want).all()
            # the driver carries a zero initial component as the structural
            # ZERO and the reference as a zero jet, so an exact zero may
            # differ in sign and in nothing else
            assert_equal_but_for_zero_signs(got, want)


def _x_meets_jets_rhs(u, u_x, u_xx, t, x):
    # x is the identity (x, 1.0, ZERO, ...) at order 0: a series of rows that
    # each jet operator converts, on either side, and whose lifts are jets
    v = u[0]
    return [
        ((x * x) * v - v * x + v / (x + 2.0) - (x + 1.0) / v + exp(x * 0.5) * u_x[0]
         - (x - v) * t + sin(x * v)) * 0.1
    ]


def test_x_meeting_jets_is_bit_identical_to_the_dense_seed():
    # the reference reads x as the dense seed jet; a product sums each row in
    # order of its left factor, so x on the left must stay the left factor
    problem, order = _toy("x_meets_jets", 1, _x_meets_jets_rhs), 10
    x = _points(problem)
    got = compute_expansion(problem, x, order).coeffs[0]
    want = eager_coefficients(problem, x, order)[0]
    for i in range(order + 1):
        assert_equal_but_for_zero_signs(got[i], want[i])


# the problems whose steps reach the stacked jet products or the lifts: four
# built-in ones at the top order, and the toy with log, powers and quotients
WIDTH_CASES = [(get_problem(name), 20) for name in ("diffusion", "burgers", "allen_cahn", "schrodinger")] + [
    (_toy("lifts", 1, _lifts_rhs), 12)
]


@pytest.mark.parametrize("problem, order", WIDTH_CASES, ids=[p.name for p, _ in WIDTH_CASES])
def test_coefficients_do_not_depend_on_block_width(problem, order):
    # 2100 points expand as two blocks of 1024, whose steps multiply one jet
    # pair per kernel call, and one of 52, which stacks up to 19; a 50-point
    # slice stacks up to 20 pairs, and a single point sums each stack along
    # its one contiguous axis
    lo, hi = problem.domain
    x = np.linspace(lo, hi, 2102)[1:-1]
    whole = compute_expansion(problem, x, order)
    slices = [compute_expansion(problem, x[i : i + 50], order) for i in range(0, x.size, 50)]
    points = (0, 777, 1500, x.size - 1)
    singles = [compute_expansion(problem, x[p : p + 1], order) for p in points]
    for m in range(problem.components):
        for i in range(order + 1):
            concatenated = np.concatenate([s.coeffs[m][i] for s in slices])
            np.testing.assert_array_equal(whole.coeffs[m][i].view(np.uint64), concatenated.view(np.uint64))
            alone = np.concatenate([s.coeffs[m][i] for s in singles])
            np.testing.assert_array_equal(whole.coeffs[m][i][list(points)].view(np.uint64), alone.view(np.uint64))


@pytest.mark.parametrize("problem", [p for p, _ in CASES], ids=[p.name for p, _ in CASES])
def test_rhs_is_called_once_per_expansion(problem):
    calls = []

    def counted(*args):
        calls.append(args)
        return problem.rhs(*args)

    compute_expansion(dataclasses.replace(problem, rhs=counted), _points(problem, 3), 6)
    assert len(calls) == 1
    assert all(isinstance(arg, LazySeries) for group in calls[0][:3] for arg in group)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv],
                         ids=["add", "sub", "mul", "div"])
def test_lazy_series_of_different_tapes_do_not_combine(op):
    a, b = (LazySeries(SeriesTape(), lambda k: 1.0) for _ in range(2))
    with pytest.raises(ValueError, match="different tapes"):
        op(a, b)


def test_only_operands_that_later_steps_read_keep_history():
    tape = SeriesTape()
    a = LazySeries(tape, lambda k: float(k + 1))
    b = LazySeries(tape, lambda k: 0.5 if k == 0 else 0.0)
    linear = (a + b) * 2.0 - 1.0
    product = linear * a
    lifted = exp(b)
    for node in (linear, a, b):
        assert node._history is not None
    # no later step reads these, and a lift keeps its results in histories
    # of its own, which its node reads
    for node in (product, -product, lifted):
        assert node._history is None

    want = TruncatedSeries(RealAlgebra(), [2.0, 4.0, 6.0, 8.0])
    want = want * TruncatedSeries(RealAlgebra(), [1.0, 2.0, 3.0, 4.0])
    for k in range(4):  # in lockstep, as the driver asks
        assert product.coeff(k) == want.coeffs[k]
        assert lifted.coeff(k) == exp(TruncatedSeries(RealAlgebra(), [0.5, 0.0, 0.0, 0.0])).coeffs[k]
    with pytest.raises(ValueError, match="order 4"):
        product.coeff(1)
