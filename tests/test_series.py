"""Truncated-series arithmetic: frozen examples, ring axioms, lift identities."""

import math

import numpy as np
import pytest

from pdetaylor import (
    BatchAlgebra,
    InfinitesimalDivisorError,
    JetAlgebra,
    OrderMismatchError,
    RealAlgebra,
    TruncatedSeries,
)
from pdetaylor.jets import Jet
from pdetaylor.series import (
    ZERO,
    LiftDomainError,
    _real,
    cos,
    exp,
    log,
    power,
    reciprocal,
    sech,
    sin,
    sin_cos,
)

from conftest import assert_equal_but_for_zero_signs, assert_series_close, eval_nested, flatten

R = RealAlgebra()


def s(*coeffs):
    return TruncatedSeries(R, [float(c) for c in coeffs])


def random_series(rng, order, lo=-1.0, hi=1.0):
    return TruncatedSeries(R, rng.uniform(lo, hi, order + 1).tolist())


def random_batch_series(rng, order, size, lo=-1.0, hi=1.0):
    alg = BatchAlgebra(size)
    return TruncatedSeries(alg, [rng.uniform(lo, hi, size) for _ in range(order + 1)])


# -- frozen examples ----------------------------------------------------


def test_mul_convolution_example():
    out = s(1, 2, 0) * s(3, 4, 0)
    assert out.coeffs == (3.0, 10.0, 8.0)


def test_mul_truncates_high_orders():
    # (eps)*(eps) at order 1 has nothing left below the cut
    out = s(0, 1) * s(0, 1)
    assert out.coeffs == (0.0, 0.0)


def test_div_example():
    out = s(1, 0, 0) / s(1, 1, 0)
    assert out.coeffs == (1.0, -1.0, 1.0)


def test_div_by_pure_constant():
    out = s(0, 1, 0) / s(2, 0, 0)
    assert out.coeffs == (0.0, 0.5, 0.0)


def test_div_mul_round_trip_example():
    a, b = s(2, -1, 3), s(1, 1, 0)
    assert_series_close((a * b) / b, a, rtol=1e-14)


def test_exp_of_infinitesimal():
    out = exp(s(0, 1, 0, 0))
    assert out.coeffs == (1.0, 1.0, 0.5, 1.0 / 6.0)


def test_cos_of_infinitesimal():
    out = cos(s(0, 1, 0))
    assert out.coeffs[0] == 1.0
    assert out.coeffs[1] == 0.0
    assert out.coeffs[2] == -0.5


def test_sin_of_infinitesimal():
    out = sin(s(0, 1, 0, 0, 0, 0))
    expected = (0.0, 1.0, 0.0, -1.0 / 6.0, 0.0, 1.0 / 120.0)
    np.testing.assert_allclose(out.coeffs, expected, rtol=0, atol=1e-16)


def test_log_inverts_exp_on_frozen_example():
    out = log(s(1, 1, 0.5, 1.0 / 6.0))
    np.testing.assert_allclose(out.coeffs, (0.0, 1.0, 0.0, 0.0), atol=1e-15)


def test_power_half_matches_binomial_series():
    out = power(s(1, 1, 0, 0), 0.5)
    expected = [math.comb(2 * k, k) * (-1) ** (k + 1) / (4**k * (2 * k - 1)) for k in range(4)]
    expected[0] = 1.0
    np.testing.assert_allclose(out.coeffs, expected, rtol=1e-15)


def test_truncated_drops_or_pads():
    assert s(1, 2, 3).truncated(1).coeffs == (1.0, 2.0)
    assert s(1, 2).truncated(3).coeffs == (1.0, 2.0, 0.0, 0.0)


def test_constructors():
    assert TruncatedSeries.constant(R, 7.0, 2).coeffs == (7.0, 0.0, 0.0)
    assert TruncatedSeries.variable(R, 3.0, 2).coeffs == (3.0, 1.0, 0.0)


def test_scalar_mixing():
    a = s(1, 2, 3)
    assert (a + 1).coeffs == (2.0, 2.0, 3.0)
    assert (1 + a).coeffs == (2.0, 2.0, 3.0)
    assert (a - 1).coeffs == (0.0, 2.0, 3.0)
    assert (1 - a).coeffs == (0.0, -2.0, -3.0)
    assert (2 * a).coeffs == (2.0, 4.0, 6.0)
    assert (a / 2).coeffs == (0.5, 1.0, 1.5)
    assert (-a).coeffs == (-1.0, -2.0, -3.0)
    assert (a**2).coeffs == (a * a).coeffs


def test_reciprocal_of_scalar_over_series():
    out = 3.0 / s(2, 1, 0)
    ref = reciprocal(s(2, 1, 0)) * 3.0
    assert out.coeffs == ref.coeffs


# -- randomized algebraic laws -------------------------------------------


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 10])
def test_ring_axioms_real(order):
    rng = np.random.default_rng(order)
    a, b, c = (random_series(rng, order) for _ in range(3))
    assert_series_close((a + b) + c, a + (b + c), rtol=0, atol=1e-15)
    assert_series_close(a + b, b + a, rtol=0, atol=0)
    assert_series_close((a * b) * c, a * (b * c), rtol=1e-13, atol=1e-15)
    assert_series_close(a * b, b * a, rtol=1e-14, atol=1e-16)
    assert_series_close(a * (b + c), a * b + a * c, rtol=1e-13, atol=1e-15)
    one = TruncatedSeries.constant(R, 1.0, order)
    zero = TruncatedSeries(R, [0.0] * (order + 1))
    assert (a * one).coeffs == a.coeffs
    assert (a + zero).coeffs == a.coeffs
    assert all(v == 0.0 for v in (a * zero).coeffs)
    assert all(v == 0.0 for v in (a - a).coeffs)


@pytest.mark.parametrize("order,size", [(3, 4), (6, 2)])
def test_ring_axioms_batch(order, size):
    rng = np.random.default_rng(order * 100 + size)
    a = random_batch_series(rng, order, size)
    b = random_batch_series(rng, order, size)
    c = random_batch_series(rng, order, size)
    assert_series_close((a * b) * c, a * (b * c), rtol=1e-13, atol=1e-15)
    assert_series_close(a * (b + c), a * b + a * c, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("order", [2, 4, 9])
def test_truncation_commutes_with_mul_bitwise(order):
    # Convolution is triangular: coefficient k never looks above order k, so
    # truncating before or after multiplying gives bit-identical results.
    rng = np.random.default_rng(42 + order)
    a, b = random_series(rng, order), random_series(rng, order)
    for m in range(order + 1):
        full = (a * b).truncated(m)
        cut = a.truncated(m) * b.truncated(m)
        assert full.coeffs == cut.coeffs


@pytest.mark.parametrize("order", [1, 3, 7])
def test_div_inverts_mul(order):
    rng = np.random.default_rng(7 + order)
    a = random_series(rng, order)
    b = random_series(rng, order)
    b = b + (2.0 if b.coeffs[0] >= 0 else -2.0)  # keep the constant term away from 0
    assert_series_close((a * b) / b, a, rtol=1e-12, atol=1e-13)
    one = TruncatedSeries.constant(R, 1.0, order)
    assert_series_close(b / b, one, rtol=1e-13, atol=1e-14)


def test_exp_is_a_homomorphism():
    rng = np.random.default_rng(11)
    a, b = random_series(rng, 6), random_series(rng, 6)
    assert_series_close(exp(a + b), exp(a) * exp(b), rtol=1e-12, atol=1e-13)


def test_log_inverts_exp_randomized():
    rng = np.random.default_rng(13)
    a = random_series(rng, 8)
    assert_series_close(log(exp(a)), a, rtol=1e-12, atol=1e-13)
    b = a + 3.0  # positive constant term for the outer log
    assert_series_close(exp(log(b)), b, rtol=1e-12, atol=1e-13)


def test_sin_cos_pythagorean_identity():
    rng = np.random.default_rng(17)
    a = random_series(rng, 8, -2.0, 2.0)
    sn, cs = sin_cos(a)
    one = TruncatedSeries.constant(R, 1.0, 8)
    assert_series_close(sn * sn + cs * cs, one, rtol=1e-13, atol=1e-14)


def test_integer_power_matches_repeated_mul():
    rng = np.random.default_rng(19)
    a = random_series(rng, 6)
    assert_series_close(power(a, 3), a * a * a, rtol=1e-13, atol=1e-15)
    assert power(a, 0).coeffs == TruncatedSeries.constant(R, 1.0, 6).coeffs
    assert power(a, 1).coeffs == a.coeffs


def test_float_integral_power_uses_recurrence_and_agrees():
    rng = np.random.default_rng(23)
    a = random_series(rng, 5) + 2.0
    assert_series_close(power(a, 2.5), power(a, 0.5) * a * a, rtol=1e-12, atol=1e-13)
    assert_series_close(power(a, -1.0), reciprocal(a), rtol=1e-12, atol=1e-13)


def test_sech_matches_exp_composition():
    rng = np.random.default_rng(29)
    a = random_series(rng, 7)
    e = exp(a)
    expected = reciprocal((e + reciprocal(e)) * 0.5)
    assert_series_close(sech(a), expected, rtol=0, atol=0)
    # and against the scalar function at the constant term for a sanity anchor
    c = sech(TruncatedSeries.constant(R, 0.3, 2))
    assert c.coeffs[0] == pytest.approx(1.0 / math.cosh(0.3), rel=1e-15)


# -- error behaviour ------------------------------------------------------


def test_order_mismatch_raises():
    with pytest.raises(OrderMismatchError):
        s(1, 2) + s(1, 2, 3)
    with pytest.raises(OrderMismatchError):
        s(1, 2) * s(1, 2, 3)


def test_algebra_mismatch_raises_type_error():
    a = s(1, 2)
    b = TruncatedSeries(BatchAlgebra(1), [np.ones(1), np.zeros(1)])
    with pytest.raises(TypeError):
        a + b


def test_division_by_non_invertible_constant():
    with pytest.raises(InfinitesimalDivisorError):
        s(1, 2, 3) / s(0, 1, 0)


def batch_s(*coeffs):
    """A series over two points: the constant 1, then the given coefficients.
    One entry outside a lift's domain fails the whole batch."""
    rows = [np.array([float(k == 0), float(c)]) for k, c in enumerate(coeffs)]
    return TruncatedSeries(BatchAlgebra(2), rows)


# One domain check serves a float and a batch of points.
FLOAT_AND_BATCH = pytest.mark.parametrize("make", [s, batch_s], ids=["float", "batch"])


@FLOAT_AND_BATCH
def test_log_domain_error(make):
    with pytest.raises(LiftDomainError):
        log(make(-1, 1, 0))
    with pytest.raises(LiftDomainError):
        log(make(0, 1, 0))


@FLOAT_AND_BATCH
def test_fractional_power_needs_invertible_constant(make):
    with pytest.raises(LiftDomainError):
        power(make(0, 1, 0), 0.5)


@FLOAT_AND_BATCH
def test_negative_fractional_power_of_negative_base(make):
    with pytest.raises(LiftDomainError):
        power(make(-2, 1, 0), 0.5)


@pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf])
def test_power_rejects_non_finite_exponent(exponent):
    with pytest.raises(ValueError, match=f"finite exponent, got {exponent!r}$"):
        power(s(2, 1, 0), exponent)


@pytest.mark.parametrize("call", [lambda: exp(1.0), lambda: sin_cos(np.ones(3))], ids=["float", "array"])
def test_lifts_reject_what_is_not_a_series(call):
    with pytest.raises(TypeError, match="expected a TruncatedSeries or LazySeries, got "):
        call()


def test_series_is_immutable():
    a = s(1, 2)
    with pytest.raises(AttributeError):
        a.coeffs = (0.0, 0.0)


def test_empty_coefficients_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(R, [])


def test_variable_needs_order_one():
    with pytest.raises(ValueError):
        TruncatedSeries.variable(R, 1.0, 0)


def test_truncated_rejects_negative_order():
    with pytest.raises(ValueError):
        s(1, 2).truncated(-1)


# -- nested coefficients ---------------------------------------------------


def test_nested_series_of_jets_numeric_probe():
    # A series in eps whose coefficients are spatial jets represents a
    # bivariate truncation F(eps, dx).  Applying exp through both layers must
    # agree with the scalar exponential up to the truncation remainder.
    batch = BatchAlgebra(3)
    x = np.array([0.1, -0.3, 0.7])
    jet_alg = JetAlgebra(batch, 2)
    xj = TruncatedSeries.variable(batch, x, 2)  # jet of the identity
    f = TruncatedSeries(jet_alg, [xj, xj * 0.5, xj * xj])  # jets vary with eps
    g = exp(f)
    eps, dx = 1e-3, 1e-3
    probe = eval_nested(g, eps, dx)
    direct = np.exp(eval_nested(f, eps, dx))
    np.testing.assert_allclose(probe, direct, rtol=0, atol=1e-8)


def test_nested_constant_term_is_inner_series():
    batch = BatchAlgebra(2)
    jet_alg = JetAlgebra(batch, 3)
    series = TruncatedSeries(jet_alg, [Jet(batch, np.zeros((4, 2)))] * 5)
    assert isinstance(series.constant_term, TruncatedSeries)
    assert series.constant_term.order == 3
    assert flatten(series).shape == (5 * 4 * 2,)


def test_structural_zero_drops_out_of_every_operation():
    row = np.array([1.0, -0.0, 3.0])
    jet = Jet(BatchAlgebra(3), np.stack([row, row * 2.0]))
    for a in (2.5, row, jet):
        assert ZERO + a is a and a + ZERO is a and a - ZERO is a
        assert ZERO * a is ZERO and a * ZERO is ZERO and ZERO / a is ZERO
    assert ZERO - 2.5 == -2.5
    np.testing.assert_array_equal((ZERO - row).view(np.uint64), (row * -1.0).view(np.uint64))
    np.testing.assert_array_equal((ZERO - jet).coeffs.view(np.uint64), (jet.coeffs * -1.0).view(np.uint64))
    assert -ZERO is ZERO and ZERO * 2.0 is ZERO and ZERO - ZERO is ZERO
    assert _real(ZERO) == 0.0 and not np.signbit(_real(ZERO)) and _real(1.5) == 1.5
    with pytest.raises(TypeError):
        jet / ZERO


def _dense(series):
    """The rows of a series over four points as one array: a number fills its
    row (as ``truncated`` pads with ``0.0``) and ZERO is ``+0.0``."""
    return np.stack([np.broadcast_to(_real(c), (4,)) for c in series.coeffs])


# the eager operations, each on one series over four points
EAGER_OPERATIONS = pytest.mark.parametrize(
    "f",
    [
        lambda s: s * s * s,
        lambda s: s * 0.0 + 1.0,
        lambda s: s - s * 2.0,
        lambda s: (s * 3.0) / (s + 2.0),
        lambda s: 1.5 / (s + 2.0),
        lambda s: exp(s * 0.7),
        lambda s: sin(s * math.pi) + cos(s * math.pi),
        lambda s: log(s + 2.0),
        lambda s: power(s + 2.0, 0.5),
        lambda s: s**4,
        lambda s: sech(s),
        lambda s: reciprocal(s + 2.0),
        lambda s: s.truncated(3),
        lambda s: s.truncated(7),
    ],
    ids=["cube", "constant", "sub", "div", "rdiv", "exp", "sin-cos", "log", "sqrt", "pow4",
         "sech", "reciprocal", "drop", "pad"],
)


@EAGER_OPERATIONS
def test_series_with_structural_zero_rows_matches_zero_rows(f):
    # the driver hands the initial condition the identity with its rows past 1
    # ZERO, and ZERO rows between others put ZERO in either factor of a term;
    # every eager operation computes what it computes on zero rows, but for
    # the sign of an exact zero, since ZERO skips terms that add +0.0
    x = np.array([0.3, -0.4, 0.0, 1.2])
    alg = BatchAlgebra(4)
    for rows in ((x, np.ones(4)) + (ZERO,) * 4, (x, ZERO, 0.5, ZERO, x, ZERO)):
        zeros = tuple(np.zeros(4) if c is ZERO else c for c in rows)
        got, want = f(TruncatedSeries(alg, rows)), f(TruncatedSeries(alg, zeros))
        assert got.order == want.order
        assert_equal_but_for_zero_signs(_dense(got), _dense(want))


@pytest.mark.parametrize(
    "padded, rows",
    [
        (lambda alg, x: TruncatedSeries.constant(alg, x, 5), lambda x: (x,) + (np.zeros(4),) * 5),
        (lambda alg, x: TruncatedSeries.variable(alg, x, 5),
         lambda x: (x, np.ones(4)) + (np.zeros(4),) * 4),
        (lambda alg, x: TruncatedSeries(alg, (x, x + 1.0)).truncated(5),
         lambda x: (x, x + 1.0) + (np.zeros(4),) * 4),
    ],
    ids=["constant", "variable", "truncated"],
)
@EAGER_OPERATIONS
def test_series_padded_with_numbers_matches_zero_and_one_rows(f, padded, rows):
    # constant, variable and truncated pad with 0.0 and seed with 1.0, and a
    # number row gives every point the bits of a row of that number
    x = np.array([0.3, -0.4, 0.0, 1.2])
    alg = BatchAlgebra(4)
    got, want = f(padded(alg, x)), f(TruncatedSeries(alg, rows(x)))
    assert got.order == want.order
    np.testing.assert_array_equal(_dense(got).view(np.uint64), _dense(want).view(np.uint64))
