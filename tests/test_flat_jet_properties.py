"""Property: flat jets give the coefficients of row-by-row series bit for bit.

A :class:`~pdetaylor.jets.Jet` holds its coefficients as one ``(P+1, N)``
array and multiplies with a slice-accumulate kernel.  Every operation is
computed once on jets and once on a :class:`TruncatedSeries` over
:class:`BatchAlgebra` holding the same rows as separate arrays, which runs the
series recurrence steps row by row, and the results are compared as uint64
bit patterns.  Orders reach 42 (the working jet order of a K=21 expansion)
and batches 70 points; rows are random and finite, with exact and negative
zeros mixed in.  A quotient converts a series of rows to its flat jet, so
the reference quotients run the division step over the rows as a tuple, term
by term.  A series step forms the terms of one coefficient as one array where
it can, the rows of a flat jet or a stack of jet products, and sums it with
one reduction; its coefficient is compared with the same terms formed row by
row and added one at a time, in order.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdetaylor import BatchAlgebra, TruncatedSeries, derivative, exp, jets, log, power, seed_variable, sin_cos
from pdetaylor.jets import Jet
from pdetaylor.series import ZERO, RealAlgebra, _div_step, _fold, _index, _mul_step, _weighted_sum

orders = st.integers(0, 42)
sizes = st.integers(1, 70)
seeds = st.integers(0, 2**32 - 1)
scalars = st.sampled_from([1.0, -1.0]).flatmap(
    lambda sign: st.floats(0.25, 4.0).map(lambda m: sign * m)
)

# each operation maps (a, b, s) to a jet or a tuple of jets; b's constant
# term is kept away from zero, so it may divide, and is positive for the
# operations in POSITIVE
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
    "log": lambda a, b, s: log(b),
    "power_int": lambda a, b, s: power(a, 3),
    "power_neg_int": lambda a, b, s: power(b, -2),
    "power_frac": lambda a, b, s: power(b, 1.5),
}
POSITIVE = {"log", "power_frac"}


def _quotient_by_terms(a, b):
    """The rows ``a / b`` as a row-by-row series: the division step over the
    rows ``a`` and ``b`` as tuples, one term at a time."""
    q = [None] * len(a)
    for k in range(len(a)):
        q[k] = _div_step(a[k], b, q, k)
    return TruncatedSeries(BatchAlgebra(len(b[0])), q)


# a quotient divides a row-by-row series as its flat jet, so the reference
# quotients run the division step on the rows instead; ``s / b`` divides
# the constant ``s``, whose zero rows are ``0.0 * s``
REFERENCES = {
    "div": lambda a, b, s: _quotient_by_terms(a.coeffs, b.coeffs),
    "rdiv": lambda a, b, s: _quotient_by_terms((s,) + (0.0 * s,) * b.order, b.coeffs),
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
# a zero jet times a jet whose row 1 is negative: the kernel adds 0 * b_0 to
# the -0 of a_0 * b_1, as the row-by-row series does
@example(order=1, size=1, seed=66309899, s=1.0)
# one point with more than 8 terms per coefficient, where a reduction along
# the contiguous term axis could sum pairwise
@example(order=9, size=1, seed=17, s=-1.5)
@example(order=40, size=1, seed=40, s=2.5)
@given(order=orders, size=sizes, seed=seeds, s=scalars)
def test_flat_jet_matches_row_by_row_series(name, order, size, seed, s):
    jet_a, ref_a = _pair(_rows(seed, order, size))
    rows_b = _rows(seed + 1, order, size, invertible=True)
    if name in POSITIVE:
        rows_b[0] = np.abs(rows_b[0])
    jet_b, ref_b = _pair(rows_b)
    op = OPERATIONS[name]
    with np.errstate(over="ignore", invalid="ignore"):
        got = _as_tuple(op(jet_a, jet_b, s))
        want = _as_tuple(REFERENCES.get(name, op)(ref_a, ref_b, s))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert isinstance(g, Jet) and g.coeffs.flags.c_contiguous
        assert g.coeffs.shape == (order + 1, size)
        np.testing.assert_array_equal(_bits(g.coeffs), _bits(w.coeffs))


def test_quotient_of_zero_dimensional_rows():
    # 0-d rows are numbers to the steps, and a series over RealAlgebra is no
    # batch of rows to divide as a jet
    a = TruncatedSeries(RealAlgebra(), [np.array(2.0), np.array(1.0)])
    assert (a / a).coeffs == (1.0, 0.0)
    assert (1.0 / a).coeffs == (0.5, -0.25)


def _lowest_non_finite_row(rows):
    bad = ~np.isfinite(rows).all(axis=1)
    return int(np.argmax(bad)) if bad.any() else None


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    order=orders,
    size=sizes,
    seed=seeds,
    all_zero=st.booleans(),
    constant_first=st.booleans(),
)
def test_product_by_a_jet_constant_in_space(data, order, size, seed, all_zero, constant_first):
    # zeros of both signs past row 0, and in row 0 too for an all-zero jet
    constant = _rows(seed, order, size)
    constant[1:] = np.copysign(0.0, constant[1:])
    if all_zero:
        constant[0] = np.copysign(0.0, constant[0])
    other = _rows(seed + 1, order, size)

    def product(constant, other):
        jet_c, ref_c = _pair(constant)
        jet_o, ref_o = _pair(other)
        with np.errstate(over="ignore", invalid="ignore"):
            if constant_first:
                return (jet_c * jet_o).coeffs, (ref_c * ref_o).coeffs
            return (jet_o * jet_c).coeffs, (ref_o * ref_c).coeffs

    got, want = product(constant, other)
    np.testing.assert_array_equal(_bits(got), _bits(want))

    # an inf in row r of the other operand makes row r of the product
    # non-finite and leaves every row below it finite, as in the kernel
    r = data.draw(st.integers(0, order), label="r")
    point = data.draw(st.integers(0, size - 1), label="point")
    with_inf = other.copy()
    with_inf[r, point] = data.draw(st.sampled_from([np.inf, -np.inf]), label="inf")
    got, want = product(constant, with_inf)
    assert not np.isfinite(got[r, point])
    assert _lowest_non_finite_row(got) == _lowest_non_finite_row(want) == r

    # a NaN past row 0 of the constant operand: still the row-by-row series
    if order > 0:
        constant[data.draw(st.integers(1, order), label="nan_row"), point] = np.nan
        got, want = product(constant, other)
        np.testing.assert_array_equal(_bits(got), _bits(want))


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
    want = list(rows[: cut + 1]) + [np.zeros(size)] * (cut - order)
    assert isinstance(got, Jet) and got.order == cut
    np.testing.assert_array_equal(_bits(got.coeffs), _bits(want))


def _factor(kind, seed, order, size):
    """A coefficient of a series of jets: a jet, ZERO or a number."""
    if kind == "zero":
        return ZERO
    if kind == "number":
        return float(np.random.default_rng(seed).uniform(-2.0, 2.0))
    return _pair(_rows(seed, order, size))[0]


def _row_product(x, y):
    """``x * y`` with each jet as a row-by-row series: the reference product,
    its rows as one array, or a number."""
    ref = [TruncatedSeries(f.algebra, list(f.coeffs)) if isinstance(f, Jet) else f for f in (x, y)]
    product = ref[0] * ref[1]
    return np.array(product.coeffs) if isinstance(product, TruncatedSeries) else product


def _one_at_a_time(acc, t, sub):
    """``acc + t`` (``acc - t`` with ``sub``) as the jet operators form it, for
    ZERO, numbers and jet rows: a number adds to a jet's row 0 only."""
    if acc is ZERO:
        return t * -1.0 if sub else t
    if isinstance(acc, np.ndarray) == isinstance(t, np.ndarray):
        return acc - t if sub else acc + t
    if isinstance(acc, np.ndarray):
        out = acc.copy()
        out[0] = out[0] - t if sub else out[0] + t
        return out
    out = t * -1.0 if sub else t.copy()
    out[0] = out[0] + acc
    return out


def _assert_same_coefficient(got, want):
    if want is ZERO:
        assert got is ZERO
    elif isinstance(want, np.ndarray):
        assert isinstance(got, Jet) and got.coeffs.shape == want.shape
        np.testing.assert_array_equal(_bits(got.coeffs), _bits(want))
    else:
        assert not isinstance(got, (Jet, np.ndarray)) and got is not ZERO
        assert _bits(got) == _bits(want)


@settings(max_examples=60, deadline=None)
# one point and 40 terms: the reduction runs along the contiguous term axis
@example(order=40, size=1, seed=3, weighted=True, sub=False, from_zero=True)
@given(
    order=st.integers(1, 42),
    size=sizes,
    seed=seeds,
    weighted=st.booleans(),
    sub=st.booleans(),
    from_zero=st.booleans(),
)
def test_flat_rows_fold_term_by_term(order, size, seed, weighted, sub, from_zero):
    # a flat lift or quotient forms the terms x_j * y_{k-j} of row k with one
    # multiply and sums them with one reduction
    x, y = _rows(seed, order, size), _rows(seed + 1, order, size)
    acc = ZERO if from_zero else _rows(seed + 2, 0, size)[0]
    want = acc
    for j in range(1, order + 1):
        t = x[j] * y[order - j]
        want = _one_at_a_time(want, t * float(j) if weighted else t, sub)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _fold(acc, x, y, order, 1, order + 1, _index if weighted else None, sub)
    np.testing.assert_array_equal(_bits(got), _bits(want))


@settings(max_examples=60, deadline=None)
# _BLOCK // 3 + 1 points cap a stack at 2 pairs, so 5 jet pairs make stacks
# of 2, 2 and 1
@example(order=3, size=jets._BLOCK // 3 + 1, length=5, seed=5, kinds=["jet"] * 91)
# one point: the 30 terms of a stack sum along a contiguous axis
@example(order=12, size=1, length=30, seed=8, kinds=["jet"] * 91)
# runs of jet pairs cut by lone terms (a jet times a number) and ZERO terms:
# each run is summed before the lone term that follows it is added
@example(order=4, size=3, length=12, seed=13, kinds=["jet", "jet", "number", "jet", "jet", "zero"] * 15 + ["jet"])
@given(
    order=orders,
    size=sizes,
    length=st.integers(1, 45),
    seed=seeds,
    kinds=st.lists(st.sampled_from(["jet", "jet", "jet", "zero", "number"]), min_size=91, max_size=91),
)
def test_stacked_products_match_row_by_row_products(order, size, length, seed, kinds):
    # the terms x_j * y_{k-j} of a step, for j = 0..k, each formed row by row
    # and summed one at a time in order of j, against the step's folded stacks
    k = length - 1
    x = [_factor(kinds[j], seed + 2 * j, order, size) for j in range(length)]
    y = [_factor(kinds[45 + j], seed + 2 * j + 1, order, size) for j in range(length)]
    a_k = _factor(kinds[90], seed + 99, order, size)
    b = [float(np.random.default_rng(seed).choice([-1.5, 0.75]))] + x[1:]  # a divisor: b_0 != 0
    stacks = []
    convolve = jets._convolve

    def recording(a, b):
        stacks.append(a.shape[1] if a.ndim == 3 else 1)
        return convolve(a, b)

    with np.errstate(over="ignore", invalid="ignore"):
        with mock.patch.object(jets, "_convolve", recording):
            got_product = _mul_step(x, y, k)
        got_weighted = _weighted_sum(x, y, k)
        got_quotient = _div_step(a_k, b, y, k)
        terms = {j: _row_product(x[j], y[k - j]) for j in range(length) if x[j] is not ZERO and y[k - j] is not ZERO}
        product = weighted = ZERO
        quotient = a_k.coeffs if isinstance(a_k, Jet) else a_k
        for j, t in sorted(terms.items()):
            product = _one_at_a_time(product, t, False)
            if j >= 1:
                weighted = _one_at_a_time(weighted, t * float(j) if j > 1 else t, False)
                quotient = _one_at_a_time(quotient, _row_product(b[j], y[k - j]), True)
        quotient = quotient / b[0]
    _assert_same_coefficient(got_product, product)
    _assert_same_coefficient(got_weighted, weighted)
    _assert_same_coefficient(got_quotient, quotient)

    # each run of jet pairs is cut into stacks of at most _BLOCK // N pairs
    cap = max(1, jets._BLOCK // size)
    assert all(1 <= n <= cap for n in stacks)
    assert sum(stacks) == sum(isinstance(x[j], Jet) and isinstance(y[k - j], Jet) for j in terms)


def _truncated(factors, order):
    """Every jet of ``factors`` truncated to ``order``; ZERO and numbers as they are."""
    return [f.truncated(order) if isinstance(f, Jet) else f for f in factors]


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div"])
def test_jets_of_different_orders_combine_at_the_lower_order(name):
    # row r of a sum, product or quotient reads only operand rows <= r, so two
    # jets meet at the lower order, as derivative returns a shorter jet
    op = OPERATIONS[name]
    x = np.array([-0.6, 0.2, 0.9])
    long = Jet(BatchAlgebra(3), _rows(1, 7, 3, invertible=True))
    short = Jet(BatchAlgebra(3), _rows(2, 3, 3, invertible=True))
    seed = seed_variable(x, 6)
    for a, b in ((long, short), (short, long), (derivative(seed, 2), seed)):
        n = min(a.order, b.order)
        got = op(a, b, None)
        want = op(a.truncated(n), b.truncated(n), None)
        assert isinstance(got, Jet) and got.order == n and got.coeffs.flags.c_contiguous
        np.testing.assert_array_equal(_bits(got.coeffs), _bits(want.coeffs))

    got = seed * derivative(seed, 2)
    assert got.order == 4
    np.testing.assert_array_equal(_bits(got.coeffs), _bits((seed.truncated(4) * derivative(seed, 2)).coeffs))


@pytest.mark.parametrize("mismatch", ["within a pair", "between pairs"])
def test_stacked_products_of_different_orders_take_the_lower_order(mismatch):
    # five jet pairs: one stack of five on 3 points, and stacks of 2, 2 and 1
    # on _BLOCK // 3 + 1, which caps a stack at 2 pairs; every operand is read
    # at the lowest order in the run, and a jet accumulator at its own order
    # meets the terms at the lower of the two
    for size, widths in ((3, [5]), (jets._BLOCK // 3 + 1, [2, 2, 1])):
        x = [_factor("jet", j, 4, size) for j in range(5)]
        y = [_factor("jet", 10 + j, 4, size) for j in range(5)]
        if mismatch == "within a pair":
            y[1], lowest = _factor("jet", 20, 2, size), 2
        else:
            x[2], y[0], lowest = _factor("jet", 20, 6, size), _factor("jet", 21, 3, size), 3
        stacks = []
        convolve = jets._convolve

        def recording(a, b):
            stacks.append(a.shape[1] if a.ndim == 3 else 1)
            return convolve(a, b)

        with mock.patch.object(jets, "_convolve", recording):
            got = _mul_step(x, y, 4)
        assert stacks == widths
        want = _mul_step(_truncated(x, lowest), _truncated(y, lowest), 4)
        assert got.order == lowest
        np.testing.assert_array_equal(_bits(got.coeffs), _bits(want.coeffs))

        b = [0.75] + x[1:]  # a divisor: b_0 != 0
        for a_order in (1, 5):
            a_k = _factor("jet", 30, a_order, size)
            got = _div_step(a_k, b, y, 4)
            n = min(lowest, a_order)
            want = _div_step(a_k.truncated(n), _truncated(b, n), _truncated(y, n), 4)
            assert got.order == n
            np.testing.assert_array_equal(_bits(got.coeffs), _bits(want.coeffs))
