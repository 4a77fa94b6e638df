"""Taylor-mode driver: one right-hand-side call, coefficients bit-identical to
re-evaluating the right-hand side at every order."""

import dataclasses
import math

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
from pdetaylor.series import LazySeries, SeriesTape

PI = math.pi


def eager_coefficients(problem, x, max_order):
    """Reference: re-evaluate rhs on TruncatedSeries over JetAlgebra at every order i,
    with every operand truncated to the working jet order W_i, and keep the top term."""
    step = 2
    seed = seed_variable(x, step * max_order)
    jets = [[g] for g in problem.ic(seed)]
    for i in range(1, max_order + 1):
        w = step * (max_order - i)
        alg = JetAlgebra(BatchAlgebra(x.size), w)

        def stacked(d):
            return [
                TruncatedSeries(alg, [derivative(j, d).truncated(w) for j in comp])
                for comp in jets
            ]

        n = i - 1
        t = TruncatedSeries.infinitesimal(alg, n) if n else TruncatedSeries.zeros(alg, 0)
        x_series = TruncatedSeries.constant(alg, seed.truncated(w), n)
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
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("problem", [p for p, _ in CASES], ids=[p.name for p, _ in CASES])
def test_rhs_is_called_once_per_expansion(problem):
    calls = []

    def counted(*args):
        calls.append(args)
        return problem.rhs(*args)

    compute_expansion(dataclasses.replace(problem, rhs=counted), _points(problem, 3), 6)
    assert len(calls) == 1
    assert all(isinstance(arg, LazySeries) for group in calls[0][:3] for arg in group)


def test_only_operands_that_later_steps_read_keep_history():
    tape = SeriesTape()
    a = LazySeries(tape, lambda alg, k: float(k + 1))
    b = LazySeries(tape, lambda alg, k: 0.5 if k == 0 else 0.0)
    linear = (a + b) * 2.0 - 1.0
    product = linear * a
    lifted = exp(b)
    for node in (linear, a, b, lifted):
        assert node._history is not None
    assert product._history is None
    assert (-product)._history is None

    tape.advance(RealAlgebra(), lambda c: c)
    want = TruncatedSeries(RealAlgebra(), [2.0, 4.0, 6.0, 8.0])
    want = want * TruncatedSeries(RealAlgebra(), [1.0, 2.0, 3.0, 4.0])
    for k in range(4):  # in lockstep, as the driver asks
        assert product.coeff(k) == want.coeffs[k]
        assert lifted.coeff(k) == exp(TruncatedSeries(RealAlgebra(), [0.5, 0.0, 0.0, 0.0])).coeffs[k]
    with pytest.raises(ValueError, match="order 4"):
        product.coeff(1)
