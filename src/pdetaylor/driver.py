"""Taylor expansion in time of an evolution problem at t = 0.

The state of a problem ``U_t = F(U, U_x, U_xx, t, x)`` advanced by an
infinitesimal step ``h`` is a truncated series ``U(h, X) = C_0 + C_1*h + ...
+ C_K*h**K`` whose coefficients are spatial jets at the batch points ``X``.
The right-hand side is called once per block of points and the coefficients
are then grown one order per iteration (Taylor-mode propagation):

1. seed ``C_0`` with the initial condition evaluated on a jet of ``x``;
2. call ``F`` once on :class:`~pdetaylor.series.LazySeries` nodes for ``U``,
   ``U_x``, ``U_xx``, ``t`` and ``x``; the ``U`` nodes read the coefficients
   stored so far, differentiating each in space only when it is first read.
   ``x`` is the seed jet at order 0 and :data:`~pdetaylor.series.ZERO` (a
   structural zero) above it, ``t`` is one at order 1 and ``ZERO`` elsewhere,
   so an explicit ``x`` or ``t`` in ``F`` convolves no zeros;
3. at iteration ``i``, ask each output node of ``F`` for its coefficient
   ``F_{i-1}``; each node in the graph computes exactly one new coefficient
   from the ones it has memoised, and ``C_i = F_{i-1} / i`` (a ``ZERO``
   output becomes a zero jet, so no caller ever sees the sentinel).

That costs ``O(K**2)`` jet products per product in ``F`` instead of the
``O(K**3)`` of re-evaluating ``F`` at every order.  Every recurrence step is
the one :class:`~pdetaylor.series.TruncatedSeries` uses, in the same
summation order, and the coefficient of order ``k`` of any product depends
only on input coefficients of order ``<= k``; so the computed ``C_0 ... C_K``
are those of re-evaluating ``F`` at every order, and they do not change if
the expansion is re-run with a larger ``K``.

Each spatial differentiation consumes jet orders.  ``F`` reads at most
``U_xx``, so ``C_0`` is seeded with ``2*K`` jet orders and iteration ``i``
works at jet order ``W_i = 2*(K - i)``: every operand,
including the stored history of every node, is truncated to ``W_i`` before
the step, and ``C_i`` is computed at ``W_i``.  ``C_K`` is never
differentiated.  Coefficient values are exact to the end regardless, for the
same triangularity reason.  Iteration ``i`` reads only ``C_{i-1}``, so the
driver holds one jet per component, and of older orders only the values.

A jet is one ``(P+1, N)`` array (:class:`~pdetaylor.jets.Jet`), and the
points are expanded in blocks of ``_BLOCK``, each with its own ``rhs`` call
and tape.  Every operation is elementwise across points, so the blocks give
the coefficients of one pass bit for bit; a block's jets stay in cache, and
only one block's histories are held at a time.  Value rows are copied out of
the jets, and kept histories are narrowed into copies, because a view would
keep its whole jet alive.

The expansion stores the raw coefficients ``C_i``; multiplying by ``i!`` only
when actual derivatives are requested keeps the factorial round-off out of
the stored data.  ``K`` is capped where ``K!`` stops being exact in float64
terms of interest (20).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import BatchAlgebra, Jet, JetAlgebra, derivative, seed_variable
from .problems import PdeProblem
from .series import ZERO, LazySeries, SeriesTape, _real

MAX_ORDER = 20
# Points expanded together.  Every operation is elementwise across points, so
# blocks give the coefficients of one pass bit for bit; at jet order 40 a
# block's jet is about 0.7 MB, which stays in cache, and the histories the
# tape keeps are those of one block.  Of 1024, 2048, 4096 and one pass,
# 2048 expanded allen_cahn and schrodinger fastest at K=20, N=10**4 on a
# two-core Xeon VM.
_BLOCK = 2048
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

    ``coeffs[m][i]`` is the batch of values of ``C_i`` for component ``m``:
    the i-th Taylor coefficient (not the derivative) at each point, an array
    of its own.  The coefficients come from one call of the problem's ``rhs``
    on lazy series per block of points, followed by one new coefficient per
    node and order; the spatial jets they were computed as are not kept.
    """

    problem: str
    points: np.ndarray
    max_order: int
    components: int
    coeffs: tuple[tuple[np.ndarray, ...], ...]

    def derivatives(self) -> list[list[np.ndarray]]:
        """Time derivatives ``d^i U/dt^i = i! * C_i`` per component and order."""
        return [
            [math.factorial(i) * c for i, c in enumerate(comp)]
            for comp in self.coeffs
        ]

    def evaluate(self, t1: float) -> list[np.ndarray]:
        """Evaluate the truncated series at a finite time by Horner's rule."""
        t1 = float(t1)
        out = []
        for comp in self.coeffs:
            acc = comp[self.max_order].copy()
            for i in range(self.max_order - 1, -1, -1):
                acc = acc * t1 + comp[i]
            out.append(acc)
        return out


def compute_expansion(problem: PdeProblem, points, max_order: int) -> TaylorExpansion:
    """Expand the problem's solution in time around t = 0 at the given points.

    ``points`` must lie strictly inside the problem domain; ``max_order`` is
    the highest retained time order K, between 1 and 20.  The points are
    expanded in blocks of ``_BLOCK``; a non-finite coefficient raises
    :class:`DivergenceError` for the lowest order, and then component, at
    which any point diverges.
    """
    x = np.asarray(points, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("need at least one expansion point")
    lo, hi = problem.domain
    if not bool(np.all((x > lo) & (x < hi))):
        raise ValueError(f"expansion points must lie strictly inside ({lo}, {hi})")
    if not isinstance(max_order, int) or not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be an integer in 1..{MAX_ORDER}")

    m = problem.components
    coeffs = tuple(tuple(np.empty(x.size) for _ in range(max_order + 1)) for _ in range(m))
    failure = None
    for start in range(0, x.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        rows = [[c[block] for c in comp] for comp in coeffs]
        try:
            # an overflow or NaN is reported once, as DivergenceError, not as numpy warnings
            with np.errstate(over="ignore", invalid="ignore"):
                _expand_block(problem, x[block], max_order, rows)
        except DivergenceError as exc:
            if failure is None or (exc.order, exc.component) < (failure.order, failure.component):
                failure = exc
    if failure is not None:
        raise failure

    return TaylorExpansion(
        problem=problem.name,
        points=x,
        max_order=max_order,
        components=m,
        coeffs=coeffs,
    )


def _expand_block(problem: PdeProblem, x: np.ndarray, max_order: int, rows) -> None:
    """Expand at one block of points, writing ``C_i`` of component ``c`` into ``rows[c][i]``."""
    m = problem.components
    seed_order = _SPATIAL_ORDER * max_order
    batch = BatchAlgebra(x.size)
    seed = seed_variable(x, seed_order)

    g = problem.ic(seed)
    if len(g) != m:
        raise ValueError(f"initial condition returned {len(g)} components, expected {m}")

    # Per component: the newest coefficient jet, C_i stored at jet order W_i.
    # Only its value row is kept of older orders, copied out into ``rows``.
    newest = list(g)
    for c, jet in enumerate(newest):
        rows[c][0][:] = jet.coeffs[0]
    tape = SeriesTape()

    def spatial(c, d):
        # d-th x-derivative of component c.  Every node is asked for coefficient
        # k = i - 1 at iteration i, while ``newest`` still holds C_k; it is read
        # at W_{k+1}, from C_k stored at W_k = W_{k+1} + 2 jet orders.
        return LazySeries(
            tape, lambda alg, k: derivative(newest[c].truncated(alg.order + d), d)
        )

    u = [spatial(c, 0) for c in range(m)]
    u_x = [spatial(c, 1) for c in range(m)]
    u_xx = [spatial(c, 2) for c in range(m)]
    t_node = LazySeries(tape, lambda alg, k: alg.one() if k == 1 else ZERO)
    x_node = LazySeries(tape, lambda alg, k: seed.truncated(alg.order) if k == 0 else ZERO)

    f = problem.rhs(u, u_x, u_xx, t_node, x_node)
    if len(f) != m:
        raise ValueError(f"rhs returned {len(f)} components, expected {m}")
    if not all(isinstance(fc, LazySeries) and fc.tape is tape for fc in f):
        raise TypeError(
            "rhs must return lazy series built from its arguments; "
            "write it entirely in series operations"
        )

    for i in range(1, max_order + 1):
        work_order = seed_order - _SPATIAL_ORDER * i
        alg = JetAlgebra(batch, work_order)
        # a copy of each kept jet: a view would keep its untruncated array alive
        tape.advance(alg, lambda jet: Jet(batch, jet.coeffs[: work_order + 1].copy()))
        new_jets = []
        for c in range(m):
            new_jet = _real(alg, f[c].coeff(i - 1) * (1.0 / i))
            if not np.isfinite(new_jet.coeffs).all():
                raise DivergenceError(order=i, component=c)
            new_jets.append(new_jet)
            rows[c][i][:] = new_jet.coeffs[0]
        newest[:] = new_jets
