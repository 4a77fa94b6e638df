"""Built-in evolution problems ``U_t = F(U, U_x, U_xx, t, x)``.

Each problem bundles the pieces the expansion driver and the benchmark
harness need:

* ``ic``          initial condition evaluated on the spatial series of the
  identity, whose coefficients past order 1 are the structural zero
  :data:`~pdetaylor.series.ZERO`, so its lifts skip them; a component that is
  zero whatever the data is ``ZERO`` too, which the driver carries without
  multiplying it,
* ``rhs``         right-hand side evaluated on lazy series-of-jets arguments,
* ``ic_numpy``    the same initial condition on plain arrays,
* ``rhs_numpy``   the same right-hand side on plain arrays: ``u`` is a list
  of rows, and ``u_x`` and ``u_xx`` are read-only sequences of one row per
  component, each row computed the first time it is read,
* closed-form ``exact_time_derivative`` where one exists; its order 0 is the
  solution itself.

``rhs`` is called once per block of points of an expansion, with
:class:`~pdetaylor.series.LazySeries` nodes in the time infinitesimal whose
coefficients are flat spatial jets over that block, and must return one node
per component.  It builds the expression graph that the driver then
evaluates one order at a time, so it may use only arithmetic operators (with
other nodes or plain numbers) and the lifts from :mod:`pdetaylor.series`:
nodes have no ``coeffs`` or ``order``.  The numpy pair is deliberately a
separate implementation of the same equations: it backs the finite-difference
reference solver, which must not share code with the series path it
cross-checks.

Second-order problems are posed as first-order systems in time (wave and the
split real/imaginary Schrodinger system have two components).

The series at a point is built from the jets of the initial data there, so it
solves the whole-line problem with the same data.  Where periodic data are
C^1 across the seam, the periodic problem is the same one.  Where they are
not, the two part at t > 0: schrodinger's ``2 sech(x)`` at +-5 and
allen_cahn's ``x^2 cos(pi x)`` at +-1 have slopes of opposite signs at the
two ends.  The reference solver solves the periodic problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .jets import _as_int, _real_points
from .series import ZERO, TruncatedSeries, cos, exp, sech, sin

__all__ = [
    "NoExactOracleError",
    "PdeProblem",
    "UnknownProblemError",
    "available_problems",
    "get_problem",
]

PI = math.pi


class UnknownProblemError(ValueError):
    """Requested problem name is not registered."""


class NoExactOracleError(ValueError):
    """Problem has no closed-form solution to compare against."""


@dataclass(frozen=True)
class PdeProblem:
    """One evolution problem plus its evaluators and oracle metadata.

    ``boundary`` is either ``"dirichlet"`` (solution vanishes at both ends,
    oddly extendable) or ``"periodic"``; the reference solver uses it to close
    its finite-difference stencils, and the series path, which solves the
    whole-line problem with the same data, never reads it.  ``diffusivity``
    and ``advection_speed`` bound the stiffest second- and first-order terms
    for time-step selection; they play no role in the series path.  ``ic``
    receives the identity at a block of points as a
    :class:`~pdetaylor.series.TruncatedSeries` over
    :class:`~pdetaylor.jets.BatchAlgebra` of jet order ``2K``, ``(X, 1.0,
    ZERO, ..., ZERO)``: the points, the number ``1.0`` and the structural
    zero, and builds its result with series operations and lifts.  It
    returns per component a series over those points of that order (a
    :class:`~pdetaylor.jets.Jet` is one), a number that is the same at every
    point, or :data:`~pdetaylor.series.ZERO` for a component that is zero
    whatever the data (wave's and Schrodinger's second); anything else is a
    ``ValueError`` that names the component.  ``ic_numpy`` returns arrays
    throughout.  ``rhs`` receives ``U``, ``U_x`` and ``U_xx`` and no
    higher spatial derivative.  ``rhs_numpy`` receives ``U`` as a list of
    rows and ``U_x`` and ``U_xx`` as read-only sequences of one row per
    component, each row computed the first time it is read and then kept,
    so an equation that reads no ``U_x`` pays for none; they answer ``len``,
    indexing, slices and iteration as a list does.  It returns one array
    per component, and may return an argument row itself.  The reference
    solver passes the same read-only grid ``x`` at every stage of a solve,
    so that no equation can change it between stages.  Both numpy
    evaluators return ``components`` rows, or the reference solver raises
    ``ValueError``.  ``exact_time_derivative(i, t, x)``, where given, is the
    closed-form ``d^i U / dt^i``; :meth:`exact` is its order 0.
    """

    name: str
    components: int
    domain: tuple[float, float]
    t_end: float
    params: dict[str, float]
    ic: Callable[[TruncatedSeries], list[TruncatedSeries]]
    rhs: Callable[..., list[TruncatedSeries]]
    ic_numpy: Callable[[np.ndarray], list[np.ndarray]]
    rhs_numpy: Callable[..., list[np.ndarray]]
    boundary: str = "dirichlet"
    diffusivity: float = 0.0
    advection_speed: float = 0.0
    exact_time_derivative: Callable[[int, float, np.ndarray], list[np.ndarray]] | None = None

    @property
    def has_exact_oracle(self) -> bool:
        return self.exact_time_derivative is not None

    def exact(self, t: float, x) -> list[np.ndarray]:
        if self.exact_time_derivative is None:
            raise NoExactOracleError(f"problem {self.name!r} has no closed-form solution")
        return self.exact_time_derivative(0, t, _real_points(x, "exact solution points"))

    def exact_derivative(self, order: int, t: float, x) -> list[np.ndarray]:
        """Closed-form ``d^order U / dt^order`` at time ``t``, per component."""
        if self.exact_time_derivative is None:
            raise NoExactOracleError(f"problem {self.name!r} has no closed-form derivatives")
        k = _as_int(order)
        if k is None or k < 0:
            raise ValueError(f"derivative order must be a non-negative integer, got {order!r}")
        return self.exact_time_derivative(k, t, _real_points(x, "exact solution points"))


def _merge_params(defaults: dict[str, float], overrides: dict[str, float] | None, name: str):
    params = dict(defaults)
    if overrides:
        unknown = set(overrides) - set(defaults)
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {sorted(unknown)} for problem {name!r}; "
                f"valid: {sorted(defaults)}"
            )
        for k, v in overrides.items():
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"parameter {k!r} of problem {name!r} must be finite, got {v}")
            params[k] = v
    return params


def _non_negative(params: dict[str, float], key: str, name: str) -> float:
    """A diffusion coefficient; a negative one poses ill-posed backward diffusion."""
    v = params[key]
    if v < 0:
        raise ValueError(f"parameter {key!r} of problem {name!r} must be non-negative, got {v}")
    return v


def _integer(params: dict[str, float], key: str, name: str) -> float:
    """A Dirichlet mode number; any other gives a profile that does not vanish at x = L."""
    v = params[key]
    if not v.is_integer():
        raise ValueError(f"parameter {key!r} of problem {name!r} must be an integer, got {v}")
    return v


def _heat(overrides=None) -> PdeProblem:
    """U_t = alpha * U_xx on [0, length], U(0, x) = sin(mode*pi*x/length).

    Exact solution exp(kappa*t) * sin(c*x) with c = mode*pi/length and
    kappa = -alpha*c**2, so every time derivative is kappa**i times U.
    """
    params = _merge_params({"alpha": 0.4, "length": 1.0, "mode": 1.0}, overrides, "heat")
    alpha, length = _non_negative(params, "alpha", "heat"), params["length"]
    mode = _integer(params, "mode", "heat")
    if length <= 0:
        raise ValueError(f"parameter 'length' of problem 'heat' must be positive, got {length}")
    c = mode * PI / length
    kappa = -alpha * c * c

    def ic(seed):
        return [sin(seed * c)]

    def rhs(u, u_x, u_xx, t, x):
        return [u_xx[0] * alpha]

    def ic_numpy(x):
        return [np.sin(c * x)]

    def rhs_numpy(u, u_x, u_xx, t, x):
        return [alpha * u_xx[0]]

    def exact_time_derivative(i, t, x):
        return [kappa**i * math.exp(kappa * t) * np.sin(c * x)]

    return PdeProblem(
        name="heat",
        components=1,
        domain=(0.0, length),
        t_end=1.0,
        params=params,
        ic=ic,
        rhs=rhs,
        ic_numpy=ic_numpy,
        rhs_numpy=rhs_numpy,
        boundary="dirichlet",
        diffusivity=alpha,
        exact_time_derivative=exact_time_derivative,
    )


def _diffusion(overrides=None) -> PdeProblem:
    """U_t = U_xx - exp(-t)*(sin(pi x) - pi^2 sin(pi x)) on [-1, 1].

    Forced so that the exact solution is exp(-t)*sin(pi x); its time
    derivatives simply alternate sign, which makes the problem a sharp probe
    of round-off growth across expansion orders.
    """
    params = _merge_params({}, overrides, "diffusion")

    def ic(seed):
        return [sin(seed * PI)]

    def rhs(u, u_x, u_xx, t, x):
        s = sin(x * PI)
        return [u_xx[0] - exp(-t) * (s - s * (PI * PI))]

    def ic_numpy(x):
        return [np.sin(PI * x)]

    def rhs_numpy(u, u_x, u_xx, t, x):
        s = np.sin(PI * x)
        return [u_xx[0] - math.exp(-t) * (s - PI * PI * s)]

    def exact_time_derivative(i, t, x):
        return [(-1.0) ** i * math.exp(-t) * np.sin(PI * x)]

    return PdeProblem(
        name="diffusion",
        components=1,
        domain=(-1.0, 1.0),
        t_end=1.0,
        params=params,
        ic=ic,
        rhs=rhs,
        ic_numpy=ic_numpy,
        rhs_numpy=rhs_numpy,
        boundary="dirichlet",
        diffusivity=1.0,
        exact_time_derivative=exact_time_derivative,
    )


def _wave(overrides=None) -> PdeProblem:
    """U_tt = speed^2 * U_xx on [0, 1], split into (U, V) with U_t = V.

    Initial displacement sin(pi x) + sin(second_mode*pi x), zero initial
    velocity.  With angular frequencies w1 = speed*pi and w2 =
    second_mode*speed*pi the solution is a sum of standing waves, and the
    i-th time derivative cycles through cos/-sin/-cos/sin prefactors.
    """
    params = _merge_params({"speed": 1.0, "second_mode": 1.0}, overrides, "wave")
    speed, second_mode = params["speed"], _integer(params, "second_mode", "wave")
    c2 = speed * speed
    w1 = speed * PI
    w2 = second_mode * speed * PI

    def ic(seed):
        return [sin(seed * PI) + sin(seed * (second_mode * PI)), ZERO]

    def rhs(u, u_x, u_xx, t, x):
        return [u[1], u_xx[0] * c2]

    def ic_numpy(x):
        return [np.sin(PI * x) + np.sin(second_mode * PI * x), np.zeros_like(x)]

    def rhs_numpy(u, u_x, u_xx, t, x):
        return [u[1], c2 * u_xx[0]]

    def _standing(i, t, x):
        # d^i/dt^i of sin(k x) * cos(w t), summed over the two modes
        phase = i % 4
        if phase == 0:
            f1, f2 = math.cos(w1 * t), math.cos(w2 * t)
        elif phase == 1:
            f1, f2 = -math.sin(w1 * t), -math.sin(w2 * t)
        elif phase == 2:
            f1, f2 = -math.cos(w1 * t), -math.cos(w2 * t)
        else:
            f1, f2 = math.sin(w1 * t), math.sin(w2 * t)
        return (w1**i * f1) * np.sin(PI * x) + (w2**i * f2) * np.sin(second_mode * PI * x)

    def exact_time_derivative(i, t, x):
        return [_standing(i, t, x), _standing(i + 1, t, x)]

    return PdeProblem(
        name="wave",
        components=2,
        domain=(0.0, 1.0),
        t_end=1.0,
        params=params,
        ic=ic,
        rhs=rhs,
        ic_numpy=ic_numpy,
        rhs_numpy=rhs_numpy,
        boundary="dirichlet",
        advection_speed=abs(speed),
        exact_time_derivative=exact_time_derivative,
    )


def _burgers(overrides=None) -> PdeProblem:
    """U_t = -U*U_x + viscosity*U_xx on [-1, 1], U(0, x) = -sin(pi x)."""
    params = _merge_params({"viscosity": 0.01 / PI}, overrides, "burgers")
    nu = _non_negative(params, "viscosity", "burgers")

    def ic(seed):
        return [-sin(seed * PI)]

    def rhs(u, u_x, u_xx, t, x):
        return [u_xx[0] * nu - u[0] * u_x[0]]

    def ic_numpy(x):
        return [-np.sin(PI * x)]

    def rhs_numpy(u, u_x, u_xx, t, x):
        return [nu * u_xx[0] - u[0] * u_x[0]]

    return PdeProblem(
        name="burgers",
        components=1,
        domain=(-1.0, 1.0),
        t_end=1.0,
        params=params,
        ic=ic,
        rhs=rhs,
        ic_numpy=ic_numpy,
        rhs_numpy=rhs_numpy,
        boundary="dirichlet",
        diffusivity=nu,
        advection_speed=1.0,
    )


def _allen_cahn(overrides=None) -> PdeProblem:
    """U_t = diffusion*U_xx + reaction*(U - U^3) on [-1, 1], periodic.

    U(0, x) = x^2 * cos(pi x), whose slope is -2 at x = 1 and 2 at x = -1, so
    the series, which solves the whole-line problem, and the periodic problem
    part at t > 0 near the seam.  Against ``reference_solve`` on 2001 evenly
    spaced points at K=20: at t1 = 0.01 the gap is 6.6e-4 at the seam, above
    1e-12 only within 0.0100 of it and 6.7e-15 or less farther than 0.0125;
    at t1 = 0.1 it is above 1e-10 only within 0.023 of the seam, and the
    1e-12 misses out to 0.216 are the size of the last term |C_20| t1^20.

    ``rhs`` writes the cube as ``v ** 3``, which :func:`~pdetaylor.series.power`
    forms as ``square(v) * v``: the square forms each cross term once and
    doubles it, where ``v * v`` is a plain product.  ``rhs_numpy`` keeps
    ``v * v * v``, independent of the series path.
    """
    params = _merge_params({"diffusion": 1e-4, "reaction": 5.0}, overrides, "allen_cahn")
    d, lam = _non_negative(params, "diffusion", "allen_cahn"), params["reaction"]

    def ic(seed):
        return [seed * seed * cos(seed * PI)]

    def rhs(u, u_x, u_xx, t, x):
        v = u[0]
        return [u_xx[0] * d + (v - v ** 3) * lam]

    def ic_numpy(x):
        return [x * x * np.cos(PI * x)]

    def rhs_numpy(u, u_x, u_xx, t, x):
        v = u[0]
        return [d * u_xx[0] + lam * (v - v * v * v)]

    return PdeProblem(
        name="allen_cahn",
        components=1,
        domain=(-1.0, 1.0),
        t_end=1.0,
        params=params,
        ic=ic,
        rhs=rhs,
        ic_numpy=ic_numpy,
        rhs_numpy=rhs_numpy,
        boundary="periodic",
        diffusivity=d,
    )


def _schrodinger(overrides=None) -> PdeProblem:
    """Cubic Schrodinger i*H_t = -0.5*H_xx - |H|^2 H on [-5, 5], periodic.

    Split into real and imaginary parts H = U + i*V:

        U_t = -0.5*V_xx - (U^2 + V^2)*V
        V_t =  0.5*U_xx + (U^2 + V^2)*U

    with H(0, x) = 2*sech(x).  The series solves the whole-line problem,
    whose solution is the breather; 2*sech(x) is not C^1 across the periodic
    seam at +-5, so the periodic problem parts from it at t > 0.
    """
    params = _merge_params({}, overrides, "schrodinger")

    def ic(seed):
        return [sech(seed) * 2.0, ZERO]

    def rhs(u, u_x, u_xx, t, x):
        amp = u[0] * u[0] + u[1] * u[1]
        return [u_xx[1] * (-0.5) - amp * u[1], u_xx[0] * 0.5 + amp * u[0]]

    def ic_numpy(x):
        return [2.0 / np.cosh(x), np.zeros_like(x)]

    def rhs_numpy(u, u_x, u_xx, t, x):
        amp = u[0] * u[0] + u[1] * u[1]
        return [-0.5 * u_xx[1] - amp * u[1], 0.5 * u_xx[0] + amp * u[0]]

    return PdeProblem(
        name="schrodinger",
        components=2,
        domain=(-5.0, 5.0),
        t_end=PI / 2,
        params=params,
        ic=ic,
        rhs=rhs,
        ic_numpy=ic_numpy,
        rhs_numpy=rhs_numpy,
        boundary="periodic",
        diffusivity=0.5,
    )


_FACTORIES: dict[str, Callable[..., PdeProblem]] = {
    "heat": _heat,
    "diffusion": _diffusion,
    "wave": _wave,
    "burgers": _burgers,
    "allen_cahn": _allen_cahn,
    "schrodinger": _schrodinger,
}


def available_problems() -> list[str]:
    return sorted(_FACTORIES)


def get_problem(name: str, params: dict[str, float] | None = None) -> PdeProblem:
    """Build a registered problem, optionally overriding its parameters."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise UnknownProblemError(
            f"unknown problem {name!r}; available: {', '.join(available_problems())}"
        ) from None
    return factory(params)
