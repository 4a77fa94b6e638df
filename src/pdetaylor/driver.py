"""Taylor expansion in time of an evolution problem at t = 0.

The state of a problem ``U_t = F(U, U_x, U_xx, t, x)`` advanced by an
infinitesimal step ``h`` is a truncated series ``U(h, X) = C_0 + C_1*h + ...
+ C_K*h**K`` whose coefficients are spatial jets at the batch points ``X``.
The right-hand side is called once per block of points and the coefficients
are then grown one order per iteration (Taylor-mode propagation):

1. seed ``C_0`` with the initial condition evaluated on the series of the
   identity ``[X, 1, ZERO, ..., ZERO]``, whose coefficients past order 1 are
   the structural zero :data:`~pdetaylor.series.ZERO`, so a lift such as
   ``sin(seed * PI)`` makes one row product per order instead of one per
   term; each series component it returns becomes one flat jet, with zero
   rows for ``ZERO``, and a component that is zero whatever the data may be
   ``ZERO`` itself instead of a jet;
2. call ``F`` once on :class:`~pdetaylor.series.LazySeries` nodes for ``U``,
   ``U_x``, ``U_xx``, ``t`` and ``x``; the ``U`` nodes read the newest
   coefficient at the working jet order (below), differentiating it in space
   only when it is first read, and read a coefficient that is not a jet
   (``ZERO`` or a number) as constant in space.  ``x`` is the same series of
   the identity at order 0 and ``ZERO`` above it, and ``t`` is ``1.0`` at
   order 1 and ``ZERO`` elsewhere, so ``x`` or ``t`` convolves no zeros, a
   lift of ``x`` makes one term per order and becomes one flat jet, and a
   function of ``t`` alone has numbers for coefficients; a jet operator
   converts ``x``, or a product of it with numbers, where it meets a jet;
3. at iteration ``i``, ask each output node of ``F`` for its coefficient
   ``F_{i-1}``; each node in the graph computes exactly one new coefficient
   from the ones it has memoised, and ``C_i = F_{i-1} / i``, kept as it is
   for the next iteration to read, a series of rows made one flat jet.
   ``C_i`` is checked finite, and its value row is row 0 of a jet, or a
   number (``+0.0`` for ``ZERO``) at every point.

A ``ZERO`` initial component carries through the graph: with real initial
data, Schrodinger's ``V`` starts as ``ZERO``, so every time coefficient of
the opposite parity (``U``'s odd and ``V``'s even ones) is ``ZERO`` too, and
the products, sums and derivatives of that half cost nothing.

That costs ``O(K**2)`` jet products per product in ``F`` instead of the
``O(K**3)`` of re-evaluating ``F`` at every order: ``k + 1`` at order ``k``
for a product, and ``k // 2 + 1`` for a square of
:func:`~pdetaylor.series.power`, which forms each cross term once and
doubles it; ``v * v`` stays a plain product.  So allen_cahn's cube ``v **
3``, ``square(v) * v``, makes 22.6 % fewer kernel multiply-adds at K=20
than ``v * v * v``.  A step forms the jet
products of its coefficient in stacks of up to ``_BLOCK // N`` pairs, and
each stack costs one kernel call and one summing reduction
(:mod:`pdetaylor.jets`): on up to 51 points, the jet pairs of one product
node's order-``k`` coefficient, up to ``k + 1 <= MAX_ORDER`` of them, make
one call and one sum, and a full block makes one call per pair and adds each
product into the sum in place.  Every recurrence step is the one
:class:`~pdetaylor.series.TruncatedSeries` uses, in the same summation
order, and the coefficient of order ``k`` of any product depends
only on input coefficients of order ``<= k``; so the computed ``C_0 ... C_K``
are those of re-evaluating ``F`` at every order, and they do not change if
the expansion is re-run with a larger ``K``.

Each spatial differentiation consumes jet orders.  ``F`` reads at most
``U_xx``, so ``C_0`` is seeded with ``2*K`` jet orders and iteration ``i``
works at jet order ``W_i = 2*(K - i)``.  That order is set where ``C_{i-1}``
is read: the ``U`` nodes read it as a view of ``W_i + d`` orders before
differentiating it ``d`` times, and ``x`` is the identity at ``W_1``.
Nothing else is truncated, because two jets combine at the lower of their orders
(:mod:`pdetaylor.jets`): row ``r`` of a sum, product, quotient or lift reads
only operand rows ``<= r``.  So a product of the newest coefficient with an
older, longer one that a node keeps runs at ``W_i``, and no kept coefficient
is narrowed or copied.  A term that pairs only older coefficients runs
higher: Schrodinger's odd-parity product ``u1*u1`` has no term that holds
``V``'s newest coefficient, and runs two orders above ``W_i``.  ``C_i`` has
order ``W_i`` or more, and ``C_K`` is never differentiated.  Coefficient
values are exact to the end regardless, for the same triangularity reason.
Iteration ``i`` reads only ``C_{i-1}``, so the driver holds one jet (or
number, or ``ZERO``) per component, and of older orders only the values.

A jet is one ``(P+1, N)`` array (:class:`~pdetaylor.jets.Jet`), and the
points are expanded in blocks of ``_BLOCK`` = 1024, each with its own ``rhs``
call and tape.  Every operation is elementwise across points, and a stack of
jet products across its pairs, so the blocks give the coefficients of one
pass bit for bit.  Only one block's histories are held at a time, and they
are what a block holds: each product node keeps both operand histories, so
beyond its output a block holds a fixed number of bytes per point, about
7 kB at K=20, whatever the number of points.  The expansion is one
``(components, K+1, N)`` float64 array, allocated once; each block writes
its columns of it in place, copying value rows out of the jets, so the
expansion keeps none of them alive; a node's kept coefficients stay at the
order they were computed at until its block ends.

The expansion stores the raw coefficients ``C_i``; multiplying by ``i!`` only
when actual derivatives are requested keeps the factorial round-off out of
the stored data.  ``K`` is capped at ``MAX_ORDER`` = 20, the highest order
the tests and the benchmark run.  The cap is not a float64 limit: ``i!`` is
exact in float64 up to ``22!``, and the stored ``C_i`` do not include it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import _BLOCK, BatchAlgebra, Jet, _as_int, _real_points, derivative, flat
from .problems import PdeProblem
from .series import ZERO, LazySeries, SeriesTape, TruncatedSeries, _as_scalar, _real

__all__ = [
    "DivergenceError",
    "MAX_ORDER",
    "TaylorExpansion",
    "compute_expansion",
]

MAX_ORDER = 20
# Jet orders one time order consumes: ``rhs`` reads at most ``U_xx``.
_SPATIAL_ORDER = 2


class DivergenceError(ArithmeticError):
    """Expansion produced a non-finite coefficient at some order."""

    def __init__(self, order: int, component: int):
        self.order = order
        self.component = component
        super().__init__(
            f"non-finite expansion coefficient at order {order} (component {component})"
        )


@dataclass(frozen=True)
class TaylorExpansion:
    """Time-Taylor coefficients of a problem's solution at t = 0.

    ``coeffs`` is one C-contiguous float64 array of shape
    ``(components, max_order + 1, N)``, and ``coeffs[m][i]`` is the batch of
    values of ``C_i`` for component ``m``: the i-th Taylor coefficient (not
    the derivative) at each point.  The coefficients come from one call of
    the problem's ``rhs`` on lazy series per block of points, followed by one
    new coefficient per node and order; the spatial jets they were computed
    as are not kept.
    """

    problem: str
    points: np.ndarray
    max_order: int
    components: int
    coeffs: np.ndarray

    def derivatives(self) -> np.ndarray:
        """Time derivatives ``d^i U/dt^i = i! * C_i``, an array shaped like
        ``coeffs``; :class:`OverflowError` names the lowest order, then
        component, that overflows."""
        # i! is exact in float64 through 22!, so each value is math.factorial(i) * C_i
        factorials = np.array([math.factorial(i) for i in range(self.max_order + 1)], float)
        with np.errstate(over="ignore"):
            derivs = self.coeffs * factorials[:, None]
        overflows = np.argwhere(~np.isfinite(derivs).all(axis=2).T)
        if overflows.size:
            i, m = overflows[0]
            raise OverflowError(f"time derivative of order {i} (component {m}) overflows")
        return derivs

    def evaluate(self, t1: float) -> list[np.ndarray]:
        """Evaluate the truncated series at a finite time by Horner's rule."""
        t1 = float(t1)
        if not math.isfinite(t1):
            raise ValueError(f"evaluate needs a finite time, got {t1!r}")
        acc = self.coeffs[:, self.max_order]
        for i in range(self.max_order - 1, -1, -1):
            acc = acc * t1 + self.coeffs[:, i]
        return list(acc)


def compute_expansion(problem: PdeProblem, points, max_order: int) -> TaylorExpansion:
    """Expand the problem's solution in time around t = 0 at the given points.

    ``points`` must be real and lie strictly inside the problem domain;
    ``max_order`` is the highest retained time order K, between 1 and 20.  The
    points are expanded in blocks of ``_BLOCK``; a non-finite coefficient raises
    :class:`DivergenceError` for the lowest order, and then component, at
    which any point diverges.
    """
    x = _real_points(points, "expansion points").ravel()
    if x.size == 0:
        raise ValueError("need at least one expansion point")
    lo, hi = problem.domain
    if not bool(np.all((x > lo) & (x < hi))):
        raise ValueError(f"expansion points must lie strictly inside ({lo}, {hi})")
    max_order = _as_int(max_order)
    if max_order is None or not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be an integer in 1..{MAX_ORDER}")

    coeffs = np.empty((problem.components, max_order + 1, x.size))
    failure = None
    for start in range(0, x.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        try:
            # an overflow or NaN is reported once, as DivergenceError, not as numpy warnings
            with np.errstate(over="ignore", invalid="ignore"):
                _expand_block(problem, x[block], max_order, coeffs[:, :, block])
        except DivergenceError as exc:
            if failure is None or (exc.order, exc.component) < (failure.order, failure.component):
                failure = exc
    if failure is not None:
        raise failure

    return TaylorExpansion(
        problem=problem.name,
        points=x,
        max_order=max_order,
        components=problem.components,
        coeffs=coeffs,
    )


def _expand_block(problem: PdeProblem, x: np.ndarray, max_order: int, out: np.ndarray) -> None:
    """Expand at one block of points, writing ``C_i`` of component ``c`` into ``out[c, i]``."""
    m = problem.components
    seed_order = _SPATIAL_ORDER * max_order
    batch = BatchAlgebra(x.size)
    identity = _identity(batch, x, seed_order - _SPATIAL_ORDER)

    # Per component: the newest coefficient, C_i as a jet of order W_i or
    # more, a number or ZERO.  Only its value row is kept of older orders,
    # copied out into ``out``.
    newest = _initial_condition(problem, batch, x, seed_order)
    for c, coeff in enumerate(newest):
        _store(coeff, out, 0, c)
    tape = SeriesTape()

    def spatial(c, d):
        # d-th x-derivative of component c.  Every node is asked for coefficient
        # k = i - 1 at iteration i, while ``newest`` still holds C_k; it is read
        # at W_{k+1} + d jet orders, a view, so its derivative has order W_{k+1}.
        def rule(k):
            coeff = newest[c]
            if isinstance(coeff, Jet):
                return derivative(coeff.truncated(seed_order - _SPATIAL_ORDER * (k + 1) + d), d)
            return ZERO if d else coeff

        return LazySeries(tape, rule)

    u = [spatial(c, 0) for c in range(m)]
    u_x = [spatial(c, 1) for c in range(m)]
    u_xx = [spatial(c, 2) for c in range(m)]
    t_node = LazySeries(tape, lambda k: 1.0 if k == 1 else ZERO)
    x_node = LazySeries(tape, lambda k: identity if k == 0 else ZERO)

    f = problem.rhs(u, u_x, u_xx, t_node, x_node)
    if len(f) != m:
        raise ValueError(f"rhs returned {len(f)} components, expected {m}")
    if not all(isinstance(fc, LazySeries) and fc.tape is tape for fc in f):
        raise TypeError(
            "rhs must return lazy series built from its arguments; "
            "write it entirely in series operations"
        )

    for i in range(1, max_order + 1):
        new = []
        for c in range(m):
            new.append(flat(f[c].coeff(i - 1) * (1.0 / i)))
            _store(new[c], out, i, c)
        newest[:] = new


def _identity(batch: BatchAlgebra, x: np.ndarray, order: int) -> TruncatedSeries:
    """The identity at ``x`` as a series of ``order``, ``(x, 1.0, ZERO, ...,
    ZERO)``: its lifts make one term per order, where zero rows make one per
    term, and :func:`~pdetaylor.jets.flat` makes a jet of such a lift."""
    return TruncatedSeries(batch, ((x, 1.0) + (ZERO,) * order)[: order + 1])


def _initial_condition(problem: PdeProblem, batch: BatchAlgebra, x: np.ndarray, order: int) -> list:
    """``C_0`` per component: the problem's ``ic`` on the identity at ``x`` of
    ``order``, and each series it returns as one flat jet
    (:func:`~pdetaylor.jets.flat`).  A ``ZERO`` or number component is kept."""
    g = problem.ic(_identity(batch, x, order))
    if len(g) != problem.components:
        raise ValueError(
            f"initial condition returned {len(g)} components, expected {problem.components}"
        )
    out = []
    for c, gc in enumerate(g):
        if _as_scalar(gc) is not None:
            gc = _as_scalar(gc)
        elif gc is not ZERO:
            if not isinstance(gc, TruncatedSeries) or gc.algebra != batch:
                raise ValueError(
                    f"initial condition component {c} is a {type(gc).__name__}; expected "
                    f"ZERO, a number or a series over the {batch.size} expansion points"
                )
            if gc.order != order:
                raise ValueError(
                    f"initial condition component {c} has jet order {gc.order}, expected {order}"
                )
            gc = flat(gc)
        out.append(gc)
    return out


def _store(coeff, out: np.ndarray, order: int, component: int) -> None:
    """Write the values of ``C_order`` into ``out[component, order]`` once its
    whole jet is checked finite: row 0 of a jet, or a number (``+0.0`` for
    ZERO) at every point."""
    rows = coeff.coeffs if isinstance(coeff, Jet) else np.full((1, 1), _real(coeff))
    if not np.isfinite(rows).all():
        raise DivergenceError(order=order, component=component)
    out[component, order] = rows[0]
