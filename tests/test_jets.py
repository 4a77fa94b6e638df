"""Spatial jets: seeding, derivative extraction, agreement with a 60-digit
finite-difference oracle on every problem's initial profile."""

import math
import operator
import tracemalloc

import numpy as np
import pytest

from pdetaylor import (
    BatchAlgebra,
    InfinitesimalDivisorError,
    InsufficientJetOrderError,
    JetAlgebra,
    TruncatedSeries,
    derivative,
    get_problem,
    jets,
    seed_variable,
)
from pdetaylor.jets import Jet
from pdetaylor.series import (
    ZERO,
    LazySeries,
    LiftDomainError,
    OrderMismatchError,
    SeriesTape,
    exp,
    log,
    power,
    reciprocal,
    sin,
)

from conftest import factorial, ic_jets, mp_derivative, mp_initial_profiles


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


@pytest.mark.parametrize("exponent", [2, 3, 4, 5])
def test_integer_power_is_bit_identical_lazy_eager_and_flat(exponent):
    # a square sums its doubled cross terms and its middle term in one order
    # on every path: term by term on a lazy node or a series of rows, and as
    # one broadcast array on a flat jet; 4 squares a square, and 5 squares
    # twice and multiplies once
    rows = np.random.default_rng(7).uniform(-2.0, 2.0, (9, 5))
    alg = BatchAlgebra(5)
    want = power(Jet(alg, rows), exponent).coeffs.view(np.uint64)
    eager = power(TruncatedSeries(alg, list(rows)), exponent)
    lazy = power(LazySeries(SeriesTape(), lambda k: rows[k]), exponent)
    assert np.array_equal(np.array(eager.coeffs).view(np.uint64), want)
    assert np.array_equal(np.array([lazy.coeff(k) for k in range(9)]).view(np.uint64), want)


def test_values_returns_zeroth_coefficient():
    jet = seed_variable(np.array([0.5, 1.5]), 2)
    np.testing.assert_array_equal((jet * jet).coeffs[0], [0.25, 2.25])


def test_sin_jet_is_maclaurin_at_zero():
    jet = sin(seed_variable(np.array([0.0]), 5))
    got = [c[0] for c in jet.coeffs]
    expected = [0.0, 1.0, 0.0, -1.0 / 6.0, 0.0, 1.0 / 120.0]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-16)


def test_derivative_reads_its_order_as_an_index():
    jet = seed_variable(np.array([0.4, 0.7]), 3) ** 3
    for m in (np.int64(2), np.uint8(2)):
        np.testing.assert_array_equal(derivative(jet, m).coeffs, derivative(jet, 2).coeffs)
    for m in (np.bool_(True), 1.0, "1"):
        with pytest.raises(ValueError, match="non-negative integer"):
            derivative(jet, m)


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
    with pytest.raises(ValueError):  # a bool is an int, but not an order
        derivative(jet, True)
    same = derivative(jet, 0)
    assert same.order == jet.order
    for got, want in zip(same.coeffs, jet.coeffs):
        np.testing.assert_array_equal(got, want)


# -- closed-form first and second derivatives of each initial profile ------


def _jet_derivs(problem_name, x, upto):
    prob = get_problem(problem_name)
    jets = ic_jets(prob, seed_variable(x, upto))
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
    jets = ic_jets(prob, seed_variable(x, 4))
    profiles = mp_initial_profiles(name)
    for comp, jet in enumerate(jets):
        f = profiles[comp]
        for m in range(5):
            got = factorial(m) * np.asarray(jet.coeffs[m])
            want = np.array([mp_derivative(f, xp, m) for xp in x])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-7)


def test_zero_component_profiles_are_exactly_zero():
    # zero whatever the data, so the series path carries the structural zero
    for name in ("wave", "schrodinger"):
        prob = get_problem(name)
        assert prob.ic(seed_variable(np.array([0.3]), 6))[1] is ZERO
        assert float(np.abs(prob.ic_numpy(np.array([0.3]))[1]).max()) == 0.0


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
    np.testing.assert_allclose(jet.coeffs[0], np.sin(ex), rtol=1e-14)
    first = derivative(jet).coeffs[0]
    np.testing.assert_allclose(first, ex * np.cos(ex), rtol=1e-13)
    second = derivative(jet, 2).coeffs[0]
    np.testing.assert_allclose(second, ex * np.cos(ex) - ex**2 * np.sin(ex), rtol=1e-12)


# -- batch algebra edge behaviour -------------------------------------------


def test_batch_algebra_invertibility_and_finiteness():
    def constant(row):
        return TruncatedSeries(BatchAlgebra(3), [np.array(row)])

    np.testing.assert_array_equal(reciprocal(constant([1.0, -2.0, 0.5])).coeffs[0], [1.0, -0.5, 2.0])
    with pytest.raises(InfinitesimalDivisorError):
        reciprocal(constant([1.0, 0.0, 0.5]))
    # the test is an elementwise comparison, whatever the entries' finiteness;
    # finiteness itself is checked by compute_expansion, not by the division
    np.testing.assert_array_equal(reciprocal(constant([1.0, np.inf, -np.inf])).coeffs[0], [1.0, 0.0, -0.0])


def test_batch_algebra_domain_errors():
    alg = BatchAlgebra(2)
    with pytest.raises(LiftDomainError):
        log(TruncatedSeries(alg, [np.array([1.0, -1.0]), np.ones(2)]))
    with pytest.raises(LiftDomainError):
        power(TruncatedSeries(alg, [np.array([-1.0, 2.0]), np.ones(2)]), 0.5)


@pytest.mark.parametrize("nested", ["jet", "lazy"])
@pytest.mark.parametrize(
    "lift, entry, message",
    [
        (log, 0.0, "every constant-term entry positive"),
        (log, -1.0, "every constant-term entry positive"),
        (lambda a: power(a, 0.5), 0.0, "needs an invertible constant term"),
        (lambda a: power(a, -2), 0.0, "needs an invertible constant term"),
        (lambda a: power(a, 0.5), -1.0, "non-integer power of a negative entry"),
    ],
    ids=["log-zero", "log-negative", "sqrt-zero", "inverse_square-zero", "sqrt-negative"],
)
def test_lift_domain_errors_reach_the_value_row_of_a_jet(nested, lift, entry, message):
    # the domain is checked on the innermost constant term, the jet's value
    # row, whether the jet is lifted itself or is coefficient 0 of a lazy node
    jet = seed_variable(np.array([0.5, entry]), 3)
    with pytest.raises(LiftDomainError, match=message):
        if nested == "jet":
            lift(jet)
        else:
            lift(LazySeries(SeriesTape(), lambda k: jet if k == 0 else ZERO)).coeff(0)


def test_jet_algebra_builds_series_elements():
    batch = BatchAlgebra(2)
    alg = JetAlgebra(batch, 3)
    z = Jet(batch, np.zeros((4, 2)))
    o = Jet(batch, np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    # a series of jets is invertible when its constant jet's value row is
    np.testing.assert_array_equal(reciprocal(TruncatedSeries(alg, [o, z, z])).coeffs[0].coeffs, o.coeffs)
    with pytest.raises(InfinitesimalDivisorError):
        reciprocal(TruncatedSeries(alg, [z, z, z]))


@pytest.mark.parametrize("k", [1, 5])
def test_jet_writes_number_and_zero_rows(k):
    # a number fills its row and ZERO is +0.0, so the identity with ZERO past
    # row 1 is the seed jet bit for bit, and a padded constant is dense
    x = np.array([0.5, -0.0, -2.0])
    batch = BatchAlgebra(3)
    got = Jet(batch, (x, 1.0) + (ZERO,) * k)
    dense = np.zeros((k + 2, 3))
    dense[0], dense[1] = x, 1.0
    for want in (seed_variable(x, k + 1).coeffs, dense):
        np.testing.assert_array_equal(got.coeffs.view(np.uint64), want.view(np.uint64))
    dense[0], dense[1] = 1.0, 0.0
    np.testing.assert_array_equal(Jet.constant(batch, 1.0, k + 1).coeffs.view(np.uint64), dense.view(np.uint64))


def test_jet_rows_keep_their_zero_signs():
    # only ZERO is left at the array's +0.0: a number or array row of -0.0
    # is written as it is
    batch = BatchAlgebra(2)
    got = Jet(batch, [-0.0, ZERO, np.array([-0.0, 0.0]), 0.0, np.float64(-0.0), -0])
    want = np.array([[-0.0, -0.0], [0.0, 0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(got.coeffs.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Jet(BatchAlgebra(2), np.zeros((3, 3))), ValueError,
         r"jet over 2 points needs a \(P\+1, 2\) array, got shape \(3, 3\)$"),
        (lambda: Jet(BatchAlgebra(2), np.zeros(2)), ValueError, r"needs a \(P\+1, 2\) array, got shape \(2,\)$"),
        (lambda: Jet(BatchAlgebra(2), np.zeros((0, 2))), ValueError, r"got shape \(0, 2\)$"),
        (lambda: Jet(BatchAlgebra(2), [np.zeros(2), 1.0, np.zeros(3), ZERO]), ValueError,
         r"jet over 2 points needs a \(P\+1, 2\) array, got shape \(4, 3\)$"),
        (lambda: Jet(BatchAlgebra(2), [np.zeros((2, 2))]), ValueError, r"got shape \(1, 2, 2\)$"),
        (lambda: Jet(BatchAlgebra(2), []), ValueError, r"got shape \(0, 2\)$"),
        (lambda: seed_variable(np.array([]), 3), ValueError, "at least one point"),
        (lambda: derivative(TruncatedSeries(BatchAlgebra(1), [np.ones(1), np.zeros(1)])), TypeError,
         "derivative needs a Jet, got TruncatedSeries"),
        (lambda: Jet(BatchAlgebra(2), [1.0, [0.0, 1.0, 2.0]]), ValueError,
         r"jet over 2 points needs a \(P\+1, 2\) array, got shape \(2, 3\)$"),
        # a row of 2**50 values is reported from its shape, never allocated
        (lambda: jets.flat(TruncatedSeries(BatchAlgebra(3), [np.broadcast_to(np.zeros(1), (2**50,)), 1.0])),
         ValueError, rf"jet over 3 points needs a \(P\+1, 3\) array, got shape \(2, {2**50}\)$"),
    ],
    ids=["array-shape", "one-axis", "no-rows", "row-length", "row-axes", "empty-rows", "no-points",
         "not-a-jet", "list-row-length", "huge-broadcast-row"],
)
def test_jet_input_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=["add", "sub", "mul"])
def test_jets_over_different_batches_do_not_combine(op):
    a = seed_variable(np.linspace(-0.5, 0.5, 3), 4)
    b = seed_variable(np.linspace(-0.5, 0.5, 4), 4)
    for left, right in ((a, b), (b, a)):
        with pytest.raises(TypeError, match="incompatible coefficient algebras"):
            op(left, right)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv],
                         ids=["add", "sub", "mul", "div"])
def test_series_of_rows_meets_a_jet_as_its_flat_jet(op):
    # the identity with ZERO rows, as the driver's x node holds it, on either
    # side of a jet of lower order: the operator converts it, and the result
    # is the dense seed's, bit for bit
    x = np.array([0.3, -0.4, 1.2])
    seed = seed_variable(x, 5)
    rows = TruncatedSeries(BatchAlgebra(3), (x, 1.0) + (ZERO,) * 4)
    jet = exp(seed_variable(x, 3) * 0.5)
    cases = [(rows, jet, seed, jet), (jet, rows, jet, seed)]
    # two dense series of rows of different orders: a quotient divides them
    # as their flat jets, where the other operators raise
    dense_a, dense_b = (TruncatedSeries(BatchAlgebra(3), tuple(j.coeffs)) for j in (seed, jet))
    if op is operator.truediv:
        cases.append((dense_a, dense_b, seed, jet))
    else:
        with pytest.raises(OrderMismatchError):
            op(dense_a, dense_b)
    for a, b, jet_a, jet_b in cases:
        got = op(a, b)
        want = op(jet_a, jet_b)
        assert type(got) is Jet and got.order == 3
        np.testing.assert_array_equal(got.coeffs.view(np.uint64), want.coeffs.view(np.uint64))
    assert jets.flat(rows).coeffs.tobytes() == seed.coeffs.tobytes()


@pytest.mark.parametrize("order", [0, 40])
@pytest.mark.parametrize("size", [1, 2048])
def test_jet_divided_by_a_number_is_its_rows_divided(order, size):
    # one array division: the same IEEE quotient per entry as dividing row by
    # row, where multiplying by the reciprocal would round differently; a
    # lazy node divides each jet coefficient the same way
    rng = np.random.default_rng(order + size)
    jet = Jet(BatchAlgebra(size), rng.standard_normal((order + 1, size)))
    want = np.stack([row / 3.0 for row in jet.coeffs])
    got = jet / 3.0
    assert type(got) is Jet and "__truediv__" not in Jet.__dict__
    np.testing.assert_array_equal(got.coeffs.view(np.uint64), want.view(np.uint64))
    node = LazySeries(SeriesTape(), lambda k: jet) / 3.0
    np.testing.assert_array_equal(node.coeff(0).coeffs.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("points", [np.array([0.3 + 0.2j]), [0.5, 0.3 + 0j]], ids=["complex", "zero-imaginary"])
def test_seed_variable_rejects_complex_points(points):
    # a cast to float64 would drop the imaginary part with only a warning
    with pytest.raises(ValueError, match=r"seed points must be real, got complex points .*\(0\.3\+"):
        seed_variable(points, 2)


def test_seed_variable_rejects_zero_order():
    with pytest.raises(ValueError):
        seed_variable(np.array([1.0]), 0)


def _reference_convolve(a, b):
    # the kernel's summation order, each product in a fresh temporary
    n = len(a)
    c = a[0] * b
    for i in range(1, n):
        c[i:] += a[i] * b[: n - i]
    return c


def _operands(rng, rows, size, shape):
    # random rows, a -0.0 row and a +0.0 row, and scattered +-0.0, +-inf and nan
    x = rng.standard_normal((rows,) + shape + (size,))
    if rows > 2:
        x[1], x[-1] = -0.0, 0.0
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    hit = rng.random(x.shape) < 0.03
    x[hit] = rng.choice(specials, size=hit.sum())
    return x


@pytest.mark.parametrize("rows", [1, 2, 21, 41])
@pytest.mark.parametrize("size", [1, 7, 50, 784, 1024])
def test_convolve_is_the_reference_loop_bit_for_bit(rows, size):
    # the kernel writes into 64-byte-aligned buffers, with the same ufuncs in
    # the same order as the loop above: single pairs, (P+1, m, N) stacks and
    # a non-contiguous view of a wider stack, as Jet._fold_products passes
    rng = np.random.default_rng(rows * 10_000 + size)
    wide = [_operands(rng, rows, size, (5,)) for _ in range(2)]
    cases = {
        "pair": [_operands(rng, rows, size, ()) for _ in range(2)],
        "stack": [_operands(rng, rows, size, (3,)) for _ in range(2)],
        "stack view": [w[:, ::2] for w in wide],
    }
    assert not cases["stack view"][0].flags.c_contiguous
    for layout, (a, b) in cases.items():
        before = [a.copy(), b.copy()]
        with np.errstate(all="ignore"):
            want = _reference_convolve(a, b)
            got = jets._convolve(a, b)
        assert got.dtype == np.float64 and got.flags.c_contiguous, layout
        assert got.shape == a.shape and got.ctypes.data % 64 == 0, layout
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), err_msg=layout)
        for x, x0 in zip((a, b), before):
            np.testing.assert_array_equal(x.view(np.uint64), x0.view(np.uint64), err_msg=layout)


def test_convolve_holds_its_result_and_one_scratch_array():
    # the result and the products' scratch rows, each over-allocated by 8
    # floats for the 64-byte boundary, and no temporary per product; while a
    # ufunc broadcasts a row over the rows below it, numpy's iterator may hold
    # one buffer of np.getbufsize() elements (numpy 2.4 does, 64 KiB)
    rng = np.random.default_rng(41)
    a, b = rng.standard_normal((2, 41, 1024))
    jets._convolve(a, b)  # warm-up
    tracemalloc.start()
    try:
        jets._convolve(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 41 * 1024 * 8 + 128 + 8 * np.getbufsize()
