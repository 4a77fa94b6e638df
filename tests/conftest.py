"""Shared test helpers: series comparison, high-precision derivative oracle.

The derivative oracle is deliberately independent of the package's own jet
machinery: central finite differences evaluated in 60-digit arithmetic and
Richardson-extrapolated to kill the even-power error terms.  That gives
reference values good to far better than 1e-7 absolute for derivative orders
up to 4, which float-precision differences cannot reach for pi-scaled
initial profiles.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from pdetaylor import TruncatedSeries, get_problem, reference_solve, sample_points
from pdetaylor.bench import default_exclusion
from pdetaylor.jets import Jet
from pdetaylor.series import ZERO


def flatten(series: TruncatedSeries) -> np.ndarray:
    """All leaf floats of a (possibly nested) series, in coefficient order."""
    leaves = []
    for c in series.coeffs:
        if isinstance(c, TruncatedSeries):
            leaves.append(flatten(c))
        else:
            leaves.append(np.asarray(c, dtype=np.float64).ravel())
    return np.concatenate(leaves)


def assert_series_close(a: TruncatedSeries, b: TruncatedSeries, rtol=1e-14, atol=1e-14):
    assert a.order == b.order
    fa, fb = flatten(a), flatten(b)
    np.testing.assert_allclose(fa, fb, rtol=rtol, atol=atol)


def assert_equal_but_for_zero_signs(got, want):
    """Bit for bit wherever ``want`` is nonzero, and ``==`` at its zeros."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    zero = want == 0.0
    np.testing.assert_array_equal(got[~zero].view(np.uint64), want[~zero].view(np.uint64))
    np.testing.assert_array_equal(got[zero], want[zero])


def eval_jet(jet: TruncatedSeries, dx: float):
    """Numerically evaluate a spatial jet at offset dx (Horner)."""
    acc = jet.coeffs[-1]
    for c in reversed(jet.coeffs[:-1]):
        acc = acc * dx + c
    return acc


def eval_nested(series: TruncatedSeries, eps: float, dx: float):
    """Evaluate a series whose coefficients are spatial jets at (eps, dx)."""
    vals = [eval_jet(c, dx) for c in series.coeffs]
    acc = vals[-1]
    for v in reversed(vals[:-1]):
        acc = acc * eps + v
    return acc


def ic_jets(problem, seed: Jet) -> list[Jet]:
    """The problem's initial condition on ``seed`` as jets: a component that
    ``ic`` returns as the structural zero ``ZERO`` becomes a zero jet."""
    zero = Jet(seed.algebra, np.zeros((seed.order + 1, seed.algebra.size)))
    return [zero if g is ZERO else g for g in problem.ic(seed)]


def mp_derivative(f, x: float, m: int, base_step=0.25, levels: int = 8) -> float:
    """m-th derivative of f at x: central differences + Richardson, 60 digits.

    f maps an mpmath float to an mpmath float and must be smooth on
    [x - m*base_step/2, x + m*base_step/2].  The symmetric m-th difference has
    an error series in even powers of the step, so each Richardson level
    multiplies the effective order by h^2; eight levels leave a residual far
    below 1e-20 for the profiles used here.
    """
    if m == 0:
        return float(f(mp.mpf(x)))
    with mp.workdps(60):
        xm = mp.mpf(x)
        h0 = mp.mpf(base_step)
        rows = []
        for j in range(levels):
            h = h0 / 2**j
            acc = mp.mpf(0)
            for i in range(m + 1):
                w = (-1) ** i * mp.binomial(m, i)
                acc += w * f(xm + (mp.mpf(m) / 2 - i) * h)
            rows.append(acc / h**m)
        for k in range(1, levels):
            rows = [
                (4**k * rows[j + 1] - rows[j]) / (4**k - 1)
                for j in range(len(rows) - 1)
            ]
        return float(rows[0])


def mp_initial_profiles(problem_name: str):
    """Component initial profiles as mpmath closures, from first principles."""
    prob = get_problem(problem_name)
    p = prob.params
    if problem_name == "heat":
        c = p["mode"] * mp.pi / p["length"]
        return [lambda x: mp.sin(c * x)]
    if problem_name == "diffusion":
        return [lambda x: mp.sin(mp.pi * x)]
    if problem_name == "wave":
        k2 = p["second_mode"]
        return [lambda x: mp.sin(mp.pi * x) + mp.sin(k2 * mp.pi * x), lambda x: mp.mpf(0)]
    if problem_name == "burgers":
        return [lambda x: -mp.sin(mp.pi * x)]
    if problem_name == "allen_cahn":
        return [lambda x: x**2 * mp.cos(mp.pi * x)]
    if problem_name == "schrodinger":
        return [lambda x: 2 * mp.sech(x), lambda x: mp.mpf(0)]
    raise KeyError(problem_name)


@pytest.fixture(scope="session")
def heat_reference_error() -> float:
    """Max-abs gap between the numerical reference and the heat closed form.

    Computed once per session; validates the reference solver before any test
    leans on it for problems without a closed form.
    """
    prob = get_problem("heat")
    pts = sample_points(prob, 20, tau=default_exclusion(prob), seed=2)
    ref = reference_solve(prob, pts, 0.01)
    exact = prob.exact(0.01, pts)
    return float(np.max(np.abs(ref[0] - exact[0])))


def factorial(i: int) -> int:
    return math.factorial(i)


def cole_hopf_burgers_coefficients(points, max_order: int, digits: int = 120) -> np.ndarray:
    """Time-Taylor coefficients ``C_0..C_K`` of burgers at t = 0, by Cole-Hopf.

    ``u = -2 nu phi_x / phi``, where ``phi`` solves ``phi_t = nu phi_xx`` from
    ``phi_0 = exp(-cos(pi x) / (2 pi nu))``, so the t-coefficients of ``phi`` are
    ``nu**k phi_0^(2k) / k!`` and ``u``'s are one series division in t.  The
    x-derivatives of ``phi_0`` come from the exp recurrence on the Taylor
    coefficients of its exponent, in ``digits``-digit mpmath: the terms cancel
    over a range of about ``e**(+-50)``.  ``pi`` and ``nu = 0.01 / pi`` are the
    float64 values the problem uses.  Returns an array of shape ``(K+1, N)``.
    """
    pi_f = math.pi
    out = np.empty((max_order + 1, len(points)))
    with mp.workdps(digits):
        pi, nu = mp.mpf(pi_f), mp.mpf(0.01 / pi_f)
        n = 2 * max_order + 1  # phi_x needs x-derivatives up to order 2K+1
        for col, x in enumerate(points):
            x = mp.mpf(float(x))
            # Taylor coefficients in h of -cos(pi (x + h)) / (2 pi nu), then of its exp
            g = [-(pi**j) * mp.cos(pi * x + j * pi / 2) / (2 * pi * nu * mp.factorial(j))
                 for j in range(n + 1)]
            e = [mp.exp(g[0])]
            for k in range(1, n + 1):
                e.append(mp.fsum(j * g[j] * e[k - j] for j in range(1, k + 1)) / k)
            d = [mp.factorial(m) * e[m] for m in range(n + 1)]  # phi_0^(m)
            a = [nu**k * d[2 * k] / mp.factorial(k) for k in range(max_order + 1)]
            b = [nu**k * d[2 * k + 1] / mp.factorial(k) for k in range(max_order + 1)]
            q = []
            for k in range(max_order + 1):
                q.append((b[k] - mp.fsum(a[j] * q[k - j] for j in range(1, k + 1))) / a[0])
            out[:, col] = [float(-2 * nu * qk) for qk in q]
    return out


def allen_cahn_coefficients(points, max_order: int, digits: int = 60) -> np.ndarray:
    """Time-Taylor coefficients ``C_0..C_K`` of allen_cahn at t = 0, in mpmath.

    Each ``C_k`` is a jet at the point: its Taylor coefficients in a space
    increment, as a list of ``digits``-digit mpf.  ``C_0`` is ``mp.taylor`` of
    ``x**2 cos(pi x)``.  ``U**2`` and ``U**3`` are running sums of jet products,
    and ``C_{k+1} = (d U_xx + lam (U - U**3))_k / (k + 1)``, each jet truncated
    at ``W = 2 (K - k - 1)``, the orders that the later ``C`` read.  ``pi``, ``d``
    and ``lam`` are the float64 values the problem uses.  Returns an array of
    shape ``(K+1, N)``.
    """
    params = get_problem("allen_cahn").params
    out = np.empty((max_order + 1, len(points)))
    with mp.workdps(digits):
        pi, d, lam = mp.mpf(math.pi), mp.mpf(params["diffusion"]), mp.mpf(params["reaction"])

        def products(pairs, w):
            # the jet sum_(a, b) a * b, truncated at order w
            return [mp.fsum(a[i] * b[n - i] for a, b in pairs for i in range(n + 1))
                    for n in range(w + 1)]

        for col, x in enumerate(points):
            c = [mp.taylor(lambda y: y**2 * mp.cos(pi * y), mp.mpf(float(x)), 2 * max_order)]
            sq, cube = [], []  # (U**2)_k and (U**3)_k
            for k in range(max_order):
                w = 2 * (max_order - k - 1)
                sq.append(products([(c[i], c[k - i]) for i in range(k + 1)], w))
                cube.append(products([(c[i], sq[k - i]) for i in range(k + 1)], w))
                u = c[k]
                c.append([(d * (n + 2) * (n + 1) * u[n + 2] + lam * (u[n] - cube[k][n])) / (k + 1)
                          for n in range(w + 1)])
            out[:, col] = [float(ck[0]) for ck in c]
    return out


def breather_coefficients(points, max_order: int, digits: int = 60) -> np.ndarray:
    """Time-Taylor coefficients ``C_0..C_K`` of schrodinger at t = 0, from the
    breather.

    ``H = U + iV = 4 e^{it/2} (cosh 3x + 3 e^{4it} cosh x) / (cosh 4x +
    4 cosh 2x + 3 cos 4t)`` solves the cubic Schrodinger equation on the whole
    line from ``H(0, x) = 2 sech x`` (Satsuma & Yajima).  The numerator's
    t-coefficients are ``4 (cosh 3x (i/2)**k + 3 cosh x (9i/2)**k) / k!``, the
    denominator's past order 0 are ``3 Re (4i)**k / k!``, and ``H``'s are one
    series division in t, in ``digits``-digit mpmath.  Returns an array of
    shape ``(2, K+1, N)``: the coefficients of ``U`` and of ``V``.
    """
    out = np.empty((2, max_order + 1, len(points)))
    with mp.workdps(digits):
        half, nine_halves, four = mp.mpc(0, 0.5), mp.mpc(0, 4.5), mp.mpc(0, 4)
        ks = range(max_order + 1)
        fact = [mp.factorial(k) for k in ks]
        den_t = [3 * mp.re(four**k) / fact[k] for k in ks]
        for col, x in enumerate(points):
            x = mp.mpf(float(x))
            num = [4 * (mp.cosh(3 * x) * half**k + 3 * mp.cosh(x) * nine_halves**k) / fact[k]
                   for k in ks]
            den0 = mp.cosh(4 * x) + 4 * mp.cosh(2 * x) + 3
            q = []
            for k in ks:
                q.append((num[k] - mp.fsum(den_t[j] * q[k - j] for j in range(1, k + 1))) / den0)
            out[0, :, col] = [float(mp.re(qk)) for qk in q]
            out[1, :, col] = [float(mp.im(qk)) for qk in q]
    return out


def cole_hopf_burgers_values(points, t: float, digits: int = 90, terms: int = 200) -> np.ndarray:
    """Values of burgers at time ``t``, by the Fourier-Bessel form of Cole-Hopf.

    With ``a = 1 / (2 pi nu)``, ``phi_0 = exp(-a cos(pi x))`` is
    ``I_0(a) + 2 sum_n (-1)**n I_n(a) cos(n pi x)``; each mode of the heat
    equation ``phi_t = nu phi_xx`` decays by ``exp(-nu n**2 pi**2 t)``, and
    ``u = -2 nu phi_x / phi``.  The terms cancel over a range of about
    ``e**(+-50)``, so the sum runs in ``digits``-digit mpmath; ``terms`` modes
    leave a tail far below float64 at ``a = 50``.  ``pi`` and ``nu = 0.01 / pi``
    are the float64 values the problem uses.  Returns an array of shape ``(N,)``.
    """
    pi_f = math.pi
    out = np.empty(len(points))
    with mp.workdps(digits):
        pi, nu = mp.mpf(pi_f), mp.mpf(0.01 / pi_f)
        a = 1 / (2 * pi * nu)
        modes = [(-1) ** n * mp.besseli(n, a) * mp.exp(-nu * n**2 * pi**2 * t)
                 for n in range(terms + 1)]
        for col, x in enumerate(points):
            x = mp.mpf(float(x))
            phi = modes[0] + 2 * mp.fsum(modes[n] * mp.cos(n * pi * x) for n in range(1, terms + 1))
            phi_x = -2 * pi * mp.fsum(n * modes[n] * mp.sin(n * pi * x) for n in range(1, terms + 1))
            out[col] = float(-2 * nu * phi_x / phi)
    return out


@pytest.fixture(scope="session")
def burgers_truth():
    """The 40 burgers ``sample_points`` of seed 0 and their Cole-Hopf values at
    t = 0.0025, 0.01 and 0.05, computed once per session (about 0.7 s each)."""
    prob = get_problem("burgers")
    x = sample_points(prob, 40, default_exclusion(prob), 0)
    return x, {t: cole_hopf_burgers_values(x, t) for t in (0.0025, 0.01, 0.05)}
