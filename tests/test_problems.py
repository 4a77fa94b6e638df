"""Problem registry: metadata, closed-form oracles, and the twin right-hand
sides (series route vs plain-array route) staying consistent."""

import dataclasses
import math

import numpy as np
import pytest

from pdetaylor import (
    NoExactOracleError,
    UnknownProblemError,
    available_problems,
    compute_expansion,
    derivative,
    driver,
    get_problem,
    sample_points,
    seed_variable,
)
from pdetaylor.jets import BatchAlgebra, Jet
from pdetaylor.series import ZERO

from conftest import ic_jets

PI = math.pi

ALL_NAMES = ["allen_cahn", "burgers", "diffusion", "heat", "schrodinger", "wave"]
ORACLE_NAMES = ["heat", "diffusion", "wave"]
NO_ORACLE_NAMES = ["burgers", "allen_cahn", "schrodinger"]


def test_registry_lists_all_problems_sorted():
    assert available_problems() == ALL_NAMES


def test_unknown_problem_error_names_the_options():
    with pytest.raises(UnknownProblemError) as err:
        get_problem("advection")
    for name in ALL_NAMES:
        assert name in str(err.value)


def test_problem_metadata():
    heat = get_problem("heat")
    assert heat.components == 1
    assert heat.domain == (0.0, 1.0)
    assert heat.boundary == "dirichlet"
    assert heat.params == {"alpha": 0.4, "length": 1.0, "mode": 1.0}

    diffusion = get_problem("diffusion")
    assert diffusion.domain == (-1.0, 1.0)
    assert diffusion.components == 1
    assert diffusion.params == {}

    wave = get_problem("wave")
    assert wave.components == 2
    assert wave.domain == (0.0, 1.0)
    assert wave.params == {"speed": 1.0, "second_mode": 1.0}

    burgers = get_problem("burgers")
    assert burgers.domain == (-1.0, 1.0)
    assert burgers.params == {"viscosity": 0.01 / PI}
    assert burgers.boundary == "dirichlet"

    allen_cahn = get_problem("allen_cahn")
    assert allen_cahn.boundary == "periodic"
    assert allen_cahn.params == {"diffusion": 1e-4, "reaction": 5.0}

    schrodinger = get_problem("schrodinger")
    assert schrodinger.components == 2
    assert schrodinger.domain == (-5.0, 5.0)
    assert schrodinger.boundary == "periodic"
    assert schrodinger.t_end == pytest.approx(PI / 2)


def test_spatial_order_is_not_a_problem_setting():
    # the driver budgets jet orders for U_xx, which rhs may read; a lower
    # budget would return zero coefficients without an error
    with pytest.raises(TypeError):
        dataclasses.replace(get_problem("heat"), spatial_order=1)


def test_oracle_availability_split():
    for name in ORACLE_NAMES:
        assert get_problem(name).has_exact_oracle
    for name in NO_ORACLE_NAMES:
        prob = get_problem(name)
        assert not prob.has_exact_oracle
        with pytest.raises(NoExactOracleError):
            prob.exact(0.01, np.array([0.3]))
        with pytest.raises(NoExactOracleError):
            prob.exact_derivative(1, 0.0, np.array([0.3]))


def test_param_overrides_change_the_problem():
    fast = get_problem("heat", {"alpha": 0.2})
    assert fast.params["alpha"] == 0.2
    x = np.array([0.25])
    base = get_problem("heat").exact_derivative(1, 0.0, x)[0][0]
    slow = fast.exact_derivative(1, 0.0, x)[0][0]
    assert slow == pytest.approx(base / 2, rel=1e-15)


def test_unknown_param_rejected():
    with pytest.raises(ValueError, match="unknown parameter"):
        get_problem("heat", {"beta": 1.0})
    with pytest.raises(ValueError, match="unknown parameter"):
        get_problem("diffusion", {"alpha": 1.0})


@pytest.mark.parametrize("speed", [1.5, -1.5])
def test_wave_advection_speed_is_never_negative(speed):
    # a negative speed poses the same equation; the reference solver's CFL
    # bound applies only to a positive advection speed
    assert get_problem("wave", {"speed": speed}).advection_speed == 1.5


# -- frozen closed-form derivative values -----------------------------------


def test_heat_first_derivative_value():
    x = np.array([0.25])
    got = get_problem("heat").exact_derivative(1, 0.0, x)[0][0]
    kappa = -0.4 * PI**2
    assert got == pytest.approx(kappa * math.sin(PI / 4), rel=1e-15)


def test_heat_derivative_powers_of_kappa():
    prob = get_problem("heat")
    x = np.linspace(0.1, 0.9, 7)
    kappa = -0.4 * PI**2
    for i in range(6):
        got = prob.exact_derivative(i, 0.0, x)[0]
        np.testing.assert_allclose(got, kappa**i * np.sin(PI * x), rtol=1e-13)


def test_diffusion_alternating_derivatives():
    prob = get_problem("diffusion")
    x = np.array([0.5])
    assert prob.exact_derivative(3, 0.0, x)[0][0] == pytest.approx(-1.0, rel=1e-15)
    for i in range(8):
        got = prob.exact_derivative(i, 0.2, x)[0][0]
        want = (-1.0) ** i * math.exp(-0.2) * math.sin(PI * 0.5)
        assert got == pytest.approx(want, rel=1e-14)


def test_wave_standing_pattern():
    prob = get_problem("wave")
    x = np.array([0.5])
    u2 = prob.exact_derivative(2, 0.0, x)[0][0]
    assert u2 == pytest.approx(-2 * PI**2, rel=1e-14)
    for i in (1, 3, 5):
        assert prob.exact_derivative(i, 0.0, x)[0][0] == 0.0
    # the second component is the first's time derivative, one order up
    for i in range(5):
        lhs = prob.exact_derivative(i, 0.13, x)[1][0]
        rhs = prob.exact_derivative(i + 1, 0.13, x)[0][0]
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_zeroth_derivative_is_the_solution():
    rng = np.random.default_rng(3)
    for name in ORACLE_NAMES:
        prob = get_problem(name)
        lo, hi = prob.domain
        x = rng.uniform(lo + 0.05, hi - 0.05, 9)
        t = 0.07
        sol = prob.exact(t, x)
        der = prob.exact_derivative(0, t, x)
        for m in range(prob.components):
            np.testing.assert_allclose(der[m], sol[m], rtol=0, atol=0)


# -- the exact solutions satisfy their own equations -------------------------


def _fd_x(f, x, h=1e-3):
    """Fourth-order central first and second x-derivatives of f: x -> array."""
    fm2, fm1, fp1, fp2 = f(x - 2 * h), f(x - h), f(x + h), f(x + 2 * h)
    f0 = f(x)
    d1 = (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)
    d2 = (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h**2)
    return d1, d2


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_exact_solution_satisfies_pde(name):
    prob = get_problem(name)
    lo, hi = prob.domain
    x = np.linspace(lo + 0.1, hi - 0.1, 11)
    t = 0.04
    u = prob.exact(t, x)
    u_t = prob.exact_derivative(1, t, x)
    u_x, u_xx = [], []
    for m in range(prob.components):
        d1, d2 = _fd_x(lambda q, m=m: prob.exact(t, q)[m], x)
        u_x.append(d1)
        u_xx.append(d2)
    f = prob.rhs_numpy(u, u_x, u_xx, t, x)
    for m in range(prob.components):
        np.testing.assert_allclose(f[m], u_t[m], rtol=0, atol=1e-8)


# -- twin right-hand sides agree ---------------------------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
def test_series_rhs_matches_array_rhs_at_start(name):
    # Route one: the expansion driver's first coefficient, C_1 = F(g).
    # Route two: the plain-array right-hand side fed with the same profile
    # values and spatial derivatives.  They are written independently, so
    # agreement pins both down.
    prob = get_problem(name)
    lo, hi = prob.domain
    x = np.linspace(lo + 0.07, hi - 0.07, 13)
    c1 = [c[1] for c in compute_expansion(prob, x, 1).coeffs]

    jets = ic_jets(prob, seed_variable(x, 2))
    u = [j.coeffs[0] for j in jets]
    u_x = [derivative(j, 1).coeffs[0] for j in jets]
    u_xx = [derivative(j, 2).coeffs[0] for j in jets]
    f = prob.rhs_numpy(u, u_x, u_xx, 0.0, x)
    for m in range(prob.components):
        np.testing.assert_allclose(c1[m], f[m], rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_array_rhs_on_the_initial_jet_rows_is_the_first_coefficient(name):
    # rhs_numpy at t = 0 on the rows of the driver's own C_0 (the values, u_x,
    # and u_xx as twice row 2) gives the engine's C_1 bit for bit; the two
    # right-hand sides are written apart, so this checks each against the
    # other at order 1
    prob = get_problem(name)
    x = sample_points(prob, 200, None, 0)
    u, u_x, u_xx = [], [], []
    for c0 in driver._initial_condition(prob, BatchAlgebra(x.size), x, 2):
        if isinstance(c0, Jet):
            rows = c0.coeffs
        else:  # ZERO or a number: the same value at every point, flat in x
            rows = np.zeros((3, x.size))
            rows[0] = 0.0 if c0 is ZERO else c0
        u.append(rows[0])
        u_x.append(rows[1])
        u_xx.append(2 * rows[2])
    f = prob.rhs_numpy(u, u_x, u_xx, 0.0, x)
    c1 = compute_expansion(prob, x, 1).coeffs
    for m in range(prob.components):
        if (name, m) == ("schrodinger", 0):
            # -0.5 * V_xx - |H|^2 V with V = +0.0 is -0.0 in numpy, and the
            # engine stores that ZERO product as +0.0: equal values, other bits
            np.testing.assert_array_equal(f[m], c1[m][1])
            assert not np.any(c1[m][1])
        else:
            np.testing.assert_array_equal(f[m].view(np.uint64), c1[m][1].view(np.uint64))


@pytest.mark.parametrize("name", ["schrodinger", "allen_cahn"])
def test_periodic_data_are_continuous_but_not_c1_across_the_seam(name):
    # the series solves the whole-line problem with the same data; the
    # periodic problem is the same only where the data's jets at lo and hi
    # agree, and for these two they first differ at row 1, the slope
    prob = get_problem(name)
    assert prob.boundary == "periodic"
    at_lo, at_hi = np.asarray(prob.ic(seed_variable(np.array(prob.domain), 2))[0].coeffs).T
    np.testing.assert_allclose(at_lo[0], at_hi[0], rtol=1e-15, atol=0)
    assert abs(at_lo[1] - at_hi[1]) > 0.05 * abs(at_lo[1])


def test_burgers_initial_rate_frozen_value():
    prob = get_problem("burgers")
    x = np.array([-0.5])
    c = compute_expansion(prob, x, 1).coeffs[0]
    assert c[1][0] == pytest.approx(-0.01 * PI, rel=1e-13)


def test_schrodinger_initial_rates_frozen_values():
    prob = get_problem("schrodinger")
    x = np.array([0.0])
    coeffs = compute_expansion(prob, x, 1).coeffs
    assert coeffs[0][1][0] == 0.0  # first component initially stationary
    assert coeffs[1][1][0] == pytest.approx(7.0, rel=1e-14)


def test_allen_cahn_initial_rate_matches_hand_formula():
    prob = get_problem("allen_cahn")
    x = np.array([0.4, -0.7])
    c1 = compute_expansion(prob, x, 1).coeffs[0][1]
    g = x**2 * np.cos(PI * x)
    gxx = 2 * np.cos(PI * x) - 4 * PI * x * np.sin(PI * x) - PI**2 * x**2 * np.cos(PI * x)
    want = 1e-4 * gxx + 5 * (g - g**3)
    np.testing.assert_allclose(c1, want, rtol=1e-13)


@pytest.mark.parametrize("points", [np.array([0.3 + 0.2j]), [0.5, 0.3 + 0j]], ids=["complex", "zero-imaginary"])
def test_exact_solution_rejects_complex_points(points):
    # a cast to float64 would drop the imaginary part with only a warning and
    # return sin(0.3 pi) for heat at 0.3 + 0.2i
    heat = get_problem("heat")
    for call in (lambda: heat.exact(0.0, points), lambda: heat.exact_derivative(2, 0.0, points)):
        with pytest.raises(ValueError, match=r"exact solution points must be real, got complex points"):
            call()


def test_exact_solution_keeps_the_shape_of_its_points():
    heat = get_problem("heat")
    (u,) = heat.exact(0.0, [[0.25], [0.5]])
    assert u.shape == (2, 1)
    np.testing.assert_array_equal(u[:, 0], np.sin(PI * np.array([0.25, 0.5])))


def test_exact_derivative_rejects_negative_order():
    with pytest.raises(ValueError):
        get_problem("heat").exact_derivative(-1, 0.0, np.array([0.5]))
    # a fractional order once gave heat a complex derivative and wave zeros,
    # and True counted as order 1
    for name in ("heat", "wave"):
        for order in (1.5, True, np.bool_(True), "1"):
            with pytest.raises(ValueError, match=r"derivative order must be a non-negative integer, got "):
                get_problem(name).exact_derivative(order, 0.0, np.array([0.3]))
    for order in (np.int64(2), np.uint8(2)):
        np.testing.assert_array_equal(
            get_problem("heat").exact_derivative(order, 0.0, np.array([0.3]))[0],
            get_problem("heat").exact_derivative(2, 0.0, np.array([0.3]))[0],
        )
