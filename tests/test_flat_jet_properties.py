"""Property: flat jets give the coefficients of row-by-row series bit for bit.

A :class:`~pdetaylor.jets.Jet` holds its coefficients as one ``(P+1, N)``
array and multiplies with a slice-accumulate kernel.  Every operation is
computed once on jets and once on a :class:`TruncatedSeries` over
:class:`BatchAlgebra` holding the same rows as separate arrays, which runs the
series recurrence steps row by row, and the results are compared as uint64
bit patterns.  Orders reach 42 (the working jet order of a K=21 expansion)
and batches 70 points; rows are random and finite, with exact and negative
zeros mixed in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdetaylor import BatchAlgebra, TruncatedSeries, derivative, exp, sin_cos
from pdetaylor.jets import Jet

orders = st.integers(0, 42)
sizes = st.integers(1, 70)
seeds = st.integers(0, 2**32 - 1)
scalars = st.sampled_from([1.0, -1.0]).flatmap(
    lambda sign: st.floats(0.25, 4.0).map(lambda m: sign * m)
)

# each operation maps (a, b, s) to a jet or a tuple of jets; b's constant
# term is kept away from zero, so it may divide
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
    "rdiv": lambda a, b, s: s / b,
    "neg": lambda a, b, s: -a,
    "exp": lambda a, b, s: exp(a),
    "sin_cos": lambda a, b, s: sin_cos(a),
}


def _rows(seed, order, size, invertible=False):
    """Random finite rows, about a tenth of them exact or negative zeros."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1.0, 1.0, (order + 1, size))
    rows[rng.random(rows.shape) < 0.1] = 0.0
    rows[rng.random(rows.shape) < 0.05] = -0.0
    rows[0] *= 2.0
    if invertible:
        rows[0] = np.copysign(rng.uniform(0.5, 2.0, size), rng.uniform(-1.0, 1.0, size))
    return rows


def _pair(rows):
    """The same rows as a flat jet and as a row-by-row series."""
    alg = BatchAlgebra(rows.shape[1])
    return Jet(alg, rows.copy()), TruncatedSeries(alg, [r.copy() for r in rows])


def _bits(rows):
    return np.array(rows, dtype=np.float64).view(np.uint64)


def _as_tuple(result):
    return result if isinstance(result, tuple) else (result,)


@pytest.mark.parametrize("name", sorted(OPERATIONS))
@settings(max_examples=40, deadline=None)
@given(order=orders, size=sizes, seed=seeds, s=scalars)
def test_flat_jet_matches_row_by_row_series(name, order, size, seed, s):
    jet_a, ref_a = _pair(_rows(seed, order, size))
    jet_b, ref_b = _pair(_rows(seed + 1, order, size, invertible=True))
    op = OPERATIONS[name]
    with np.errstate(over="ignore", invalid="ignore"):
        got = _as_tuple(op(jet_a, jet_b, s))
        want = _as_tuple(op(ref_a, ref_b, s))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert isinstance(g, Jet) and g.coeffs.flags.c_contiguous
        assert g.coeffs.shape == (order + 1, size)
        np.testing.assert_array_equal(_bits(g.coeffs), _bits(w.coeffs))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), order=orders, size=sizes, seed=seeds)
def test_flat_derivative_and_truncation_match_rows(data, order, size, seed):
    rows = _rows(seed, order, size)
    jet = Jet(BatchAlgebra(size), rows.copy())

    m = data.draw(st.integers(0, order), label="m")
    want = list(rows)
    for _ in range(m):
        want = [want[k + 1] * float(k + 1) for k in range(len(want) - 1)]
    got = derivative(jet, m)
    assert isinstance(got, Jet) and got.order == order - m
    np.testing.assert_array_equal(_bits(got.coeffs), _bits(want))

    cut = data.draw(st.integers(0, order + 3), label="cut")
    got = jet.truncated(cut)
    want = TruncatedSeries(jet.algebra, list(rows)).truncated(cut)
    assert isinstance(got, Jet) and got.order == cut
    np.testing.assert_array_equal(_bits(got.coeffs), _bits(want.coeffs))
