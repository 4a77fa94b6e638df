"""Property: eager and lazy series give bit-identical coefficients over the reals.

Every operator and lift is computed once on :class:`TruncatedSeries` over
:class:`RealAlgebra` and once on :class:`LazySeries` nodes of a
:class:`SeriesTape`, from random finite coefficients, and the results are
compared as uint64 bit patterns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdetaylor import (
    RealAlgebra,
    TruncatedSeries,
    exp,
    log,
    power,
    reciprocal,
    sech,
    sin_cos,
)
from pdetaylor.series import LazySeries, SeriesTape

REAL = RealAlgebra()

magnitudes = st.floats(0.25, 4.0)
signs = st.sampled_from([1.0, -1.0])
tails = st.floats(-4.0, 4.0)

# each operation maps (a, b, s) to a series or a tuple of series; those in
# POSITIVE need a positive constant term in ``a``
OPERATIONS = {
    "add": lambda a, b, s: a + b,
    "sub": lambda a, b, s: a - b,
    "mul": lambda a, b, s: a * b,
    "div": lambda a, b, s: a / b,
    "add_scalar": lambda a, b, s: a + s,
    "radd": lambda a, b, s: s + a,
    "sub_scalar": lambda a, b, s: a - s,
    "rsub": lambda a, b, s: s - a,
    "mul_scalar": lambda a, b, s: a * s,
    "rmul": lambda a, b, s: s * a,
    "div_scalar": lambda a, b, s: a / s,
    "rdiv": lambda a, b, s: s / a,
    "neg": lambda a, b, s: -a,
    "exp": lambda a, b, s: exp(a),
    "sin_cos": lambda a, b, s: sin_cos(a),
    "log": lambda a, b, s: log(a),
    "power_int": lambda a, b, s: a ** 3,
    "power_neg_int": lambda a, b, s: power(a, -2),
    "power_frac": lambda a, b, s: a ** 1.5,
    "reciprocal": lambda a, b, s: reciprocal(a),
    "sech": lambda a, b, s: sech(a),
}
POSITIVE = {"log", "power_frac"}


@st.composite
def coefficient_lists(draw, order, positive=False):
    head = draw(magnitudes) * (1.0 if positive else draw(signs))
    return [head] + draw(st.lists(tails, min_size=order, max_size=order))


def _lazy_node(tape, coeffs):
    return LazySeries(tape, lambda k: coeffs[k])


def _as_tuple(result):
    return result if isinstance(result, tuple) else (result,)


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("name", sorted(OPERATIONS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), order=st.integers(0, 8))
def test_lazy_and_eager_agree_bit_for_bit(name, data, order):
    a = data.draw(coefficient_lists(order, positive=name in POSITIVE))
    b = data.draw(coefficient_lists(order))
    s = data.draw(magnitudes) * data.draw(signs)
    op = OPERATIONS[name]

    eager = _as_tuple(op(TruncatedSeries(REAL, a), TruncatedSeries(REAL, b), s))

    tape = SeriesTape()
    lazy = _as_tuple(op(_lazy_node(tape, a), _lazy_node(tape, b), s))
    got = [[] for _ in lazy]
    for k in range(order + 1):  # in lockstep, as the expansion driver asks
        for out, node in zip(got, lazy):
            out.append(node.coeff(k))

    assert len(eager) == len(lazy)
    for want, values in zip(eager, got):
        np.testing.assert_array_equal(_bits(values), _bits(want.coeffs))
