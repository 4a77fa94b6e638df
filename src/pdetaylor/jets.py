"""Spatial jets: truncated series in a space increment over batches of points.

A jet at points ``X`` (a 1-D float64 array of ``N`` points) truncated at
order ``P`` stores the scaled derivatives ``f(X), f'(X), f''(X)/2!, ...,
f^(P)(X)/P!`` of some function ``f``.  A :class:`Jet` holds them flat, as one
C-contiguous ``(P+1, N)`` float64 array whose row ``k`` is the order-``k``
coefficient at every point.  Storing ``f^(k)/k!`` keeps the product rule a
plain convolution with no factorial bookkeeping, and the flat layout makes
that convolution one slice-accumulate kernel: ``P+1`` array multiplies and
adds over whole blocks of rows, instead of ``(P+1)(P+2)/2`` of each on single
rows.  The kernel sums ``a_0 b_k + a_1 b_{k-1} + ...`` in the order of
:class:`~pdetaylor.series.TruncatedSeries`, so every product of two jets, and
so every jet operation, gives bit for bit the coefficients of a series over
:class:`BatchAlgebra` on the same rows.  The same kernel runs on a stack of
``m`` jet pairs held as two ``(P+1, m, N)`` arrays, order first, so each of
its array operations spans all ``m * N`` columns of a row; it is the only jet
product, and ``a * b`` is the stack of one.  A series step forms and sums the
jet products of one coefficient through :meth:`Jet._fold_products`: in stacks
of up to ``_BLOCK // N`` pairs, each filled pair by pair into one preallocated
``(P+1, m, N)`` array per operand side and multiplied by one kernel call,
whose order-first result is handed to the reduction as the pair-first view
``(m, P+1, N)`` that :func:`~pdetaylor.series._sum_terms` reads, weighted
and summed over its ``m`` products along its first axis.  So 50-point jets
make one kernel call and one sum for up to 20 products, where a call, a jet
and an addition per product spent their time in Python dispatch, and a
driver block of ``_BLOCK`` points still multiplies one pair at a time,
adding each product into the sum in its own array.  Only that method sums
jet products, and it is the only method that folds a run of terms; a lone
term, such as a jet times a number, is added by one ``+`` as the step meets
it.  A coefficient that does not vary in space is not a jet at all: it is the
structural zero of :mod:`pdetaylor.series` when it is zero whatever the data,
such as Schrodinger's parity zeros, or a plain number, such as those of
diffusion's ``exp(-t)``, and a jet times or over a number is one scaling or
one division of its array.

A jet is a :class:`~pdetaylor.series.TruncatedSeries` over
:class:`BatchAlgebra`, so the quotient and the analytic lifts of
:mod:`pdetaylor.series` apply unchanged: they run the series recurrence steps
on the whole ``(P+1, N)`` array, forming the terms of each new row with one
broadcast multiply and summing them with one reduction into a preallocated
array, and evaluate each function on the constant row with NumPy.
:class:`BatchAlgebra` names the batch by its size.

:func:`flat` is the one conversion of a series of rows over a batch to a flat
jet, ``Jet(batch, rows)``: a number fills its row and the structural zero is
``+0.0``.  :func:`seed_variable` builds the jet of the identity, ``[X, 1, 0,
..., 0]``; evaluating an expression on the seed yields the jet of that
expression.  The expansion driver uses the identity as a series ``(X, 1.0,
ZERO, ..., ZERO)`` instead, for the initial condition and for its ``x`` node,
so that a lift of it forms products only for the rows that are not ``ZERO``:
one term per order.  The driver converts each series that the initial
condition returns and each new coefficient, a lift converts its result when
its constant term is such a series, every jet operator, ``+``, ``-`` and
``*`` on either side, converts one that it meets, and a quotient, which jets
inherit from :class:`~pdetaylor.series.TruncatedSeries`, converts both of its
operands, so ``x`` works wherever a jet does; the left factor of a product
stays the left one, since the kernel sums each row in the order of its rows.
:func:`derivative` extracts the jet of ``f^(m)``, which is ``m`` orders
shorter than its input.

Two jets over one batch combine at the lower of their orders: row ``r`` of a
sum, product, quotient or lift reads only operand rows ``<= r`` (Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 13), so each row of
the result is the one of first truncating both.  :meth:`Jet._check_compatible`
checks the batch and returns that row count, for a series of rows that a
jet converts too, and every operator, stacked product and sum reads its
operands' first rows as views.  The expansion
driver sets its working order only where it reads a new coefficient, and
the older, longer jets that a lazy node keeps meet it there as they are.

Jets add, subtract, multiply, divide and scale, so they serve as the
coefficients of a series in time, giving the nesting time-series ->
space-jet -> point-batch of the expansion driver; a lift of such a series
lifts its constant jet again.  :class:`JetAlgebra` names only the jet order
and the batch, which an eager series of jets compares its operands by.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .series import ZERO, TruncatedSeries, _as_scalar, _sum_terms

__all__ = [
    "BatchAlgebra",
    "InsufficientJetOrderError",
    "JetAlgebra",
    "derivative",
    "seed_variable",
]


# The width of one array operation on jets, in points times stacked pairs.
# The driver expands points in blocks of ``_BLOCK``, and what a block holds
# is set by its kept histories, not by one jet: a product node keeps both
# operand histories, 441 jet rows per kept node at K=20, so a block holds a
# fixed number of bytes per point beyond its output (about 7 kB for
# allen_cahn and burgers, 5.7 kB for schrodinger).  At 2048 a block held
# about 14 MB; 1024 halves that, and every coefficient keeps its bits.  A
# series step stacks up to ``_BLOCK // N`` jet products of ``N`` points into
# one kernel call: on 50 points that cap is 20 = ``MAX_ORDER``, the most pairs
# any step at K <= 20 has, so 50 points make one call per step, and a
# full block multiplies one pair per call.  At K=20, N=10**4 on a two-core
# Xeon VM, 1024 expanded 3-5 % slower than 2048 and 512 about 16 %.
_BLOCK = 1024


class InsufficientJetOrderError(ValueError):
    """Asked for more derivative orders than the jet retains."""


@dataclass(frozen=True)
class BatchAlgebra:
    """Float64 arrays over one batch of ``size`` points, or numbers, the same at
    every point; two batch algebras of one size compare equal."""

    size: int


def _row_shape(r) -> tuple:
    """``np.shape(r)``, read without a call into numpy for the rows a series
    holds: an array, a float or ``ZERO``."""
    if isinstance(r, np.ndarray):
        return r.shape
    if r is ZERO or isinstance(r, float):
        return ()
    return np.shape(r)


class Jet(TruncatedSeries):
    """A jet stored flat: ``coeffs`` is one ``(P+1, N)`` float64 array.

    ``coeffs[k]`` is the row of order ``k``.  From a sequence of rows, a
    number fills its row and :data:`~pdetaylor.series.ZERO` is ``+0.0``.
    Jets are immutable, so :meth:`truncated` may return a view of the same
    array.  Operators take jets over the same batch, series of rows over it,
    which :func:`flat` converts, or plain numbers, on either side, and two
    jets combine at the lower of their orders, reading the first rows of the
    longer one as a view.
    """

    __slots__ = ()

    def __init__(self, algebra: BatchAlgebra, coeffs):
        n = algebra.size
        if not isinstance(coeffs, np.ndarray):
            # rows of n values or numbers, each ZERO left at the array's +0.0;
            # a row of any other shape leaves an unwritten array of that shape
            # for the check
            rows = list(coeffs)
            bad = [s for s in map(_row_shape, rows) if s not in ((), (n,))]
            if bad:
                coeffs = np.empty((len(rows),) + bad[0])
            else:
                coeffs = np.zeros((len(rows), n))
                for k, r in enumerate(rows):
                    if r is not ZERO:
                        coeffs[k] = r
        coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
        if coeffs.ndim != 2 or coeffs.shape[0] == 0 or coeffs.shape[1] != n:
            raise ValueError(f"a jet over {n} points needs a (P+1, {n}) array, got shape {coeffs.shape}")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", coeffs)

    def __repr__(self):
        return f"Jet({self.algebra!r}, {self.coeffs!r})"

    def _buffer(self):
        return np.empty_like(self.coeffs)

    def _check_compatible(self, other) -> int:
        """Check that ``other`` is over the same batch, and return the number of
        rows the two combine at: the lower order's, since row ``r`` of a sum,
        product, quotient or lift reads only operand rows ``<= r``."""
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise TypeError(
                f"incompatible coefficient algebras: {self.algebra!r} vs {other.algebra!r}"
            )
        return min(len(self.coeffs), len(other.coeffs))

    def _rows(self, other):
        """This jet's rows and ``other``'s, at the lower of their orders, when
        ``other`` is a jet or a series of rows over this batch, which
        :func:`flat` converts; None when it is not a series."""
        if not isinstance(other, TruncatedSeries):
            return None
        n = self._check_compatible(other)
        return self.coeffs[:n], flat(other).coeffs[:n]

    def __add__(self, other):
        s = _as_scalar(other)
        if s is not None:
            c = self.coeffs.copy()
            c[0] += s
            return Jet(self.algebra, c)
        rows = self._rows(other)
        if rows is None:
            return NotImplemented
        return Jet(self.algebra, rows[0] + rows[1])

    __radd__ = __add__

    def __sub__(self, other):
        s = _as_scalar(other)
        if s is not None:
            return self + -s
        rows = self._rows(other)
        if rows is None:
            return NotImplemented
        return Jet(self.algebra, rows[0] - rows[1])

    def __rsub__(self, other):
        rows = self._rows(other)
        if rows is None:
            return TruncatedSeries.__rsub__(self, other)
        return Jet(self.algebra, rows[1] - rows[0])

    def __mul__(self, other):
        s = _as_scalar(other)
        if s is not None:
            return Jet(self.algebra, self.coeffs * s)
        rows = self._rows(other)
        if rows is None:
            return NotImplemented
        return Jet(self.algebra, _convolve(*rows))

    def __rmul__(self, other):
        # the kernel sums a row's terms in order of the left factor's rows
        rows = self._rows(other)
        if rows is None:
            return self.__mul__(other)
        return Jet(self.algebra, _convolve(rows[1], rows[0]))

    @staticmethod
    def _fold_products(acc, pairs, sub):
        """``acc + w * x * y`` for each ``(w, x, y)`` of jet pairs, in order, or
        ``-`` with ``sub``; a ``w`` of None weighs nothing.

        Every pair and a jet ``acc`` are checked before any is multiplied, and
        every operand is read at the lowest order among them, which sizes the
        stacks.  The products are formed in stacks of ``_BLOCK // N`` pairs:
        each pair's rows are copied into one preallocated ``(n, m, N)`` array
        per operand side, and one kernel call multiplies the stack.  Its
        ``(n, m, N)`` result is handed over as the pair-first view ``(m, n,
        N)``, a single pair's as ``(1, n, N)``, and weighted and summed into
        ``acc`` in its own array with one reduction along that first axis
        (:func:`~pdetaylor.series._sum_terms`) before the next is formed, so a
        block of ``_BLOCK`` points holds one product at a time and, one pair
        per stack, copies no operand.
        """
        first = pairs[0][1]
        size = first.algebra.size
        n = len(first.coeffs)
        for _, x, y in pairs:
            n = min(n, first._check_compatible(x), x._check_compatible(y))
        if isinstance(acc, TruncatedSeries):
            n = min(n, first._check_compatible(acc))
            acc = flat(acc).coeffs[:n]
        per_stack = max(1, _BLOCK // size)
        m = min(per_stack, len(pairs))
        xs, ys = (np.empty((n, m, size)), np.empty((n, m, size))) if m > 1 else (None, None)
        for start in range(0, len(pairs), per_stack):
            stack = pairs[start : start + per_stack]
            if len(stack) == 1:
                c = _convolve(stack[0][1].coeffs[:n], stack[0][2].coeffs[:n])[None]
            else:
                for p, (_, x, y) in enumerate(stack):
                    xs[:, p] = x.coeffs[:n]
                    ys[:, p] = y.coeffs[:n]
                c = _convolve(xs[:, : len(stack)], ys[:, : len(stack)]).swapaxes(0, 1)
            w = None if stack[0][0] is None else [w for w, _, _ in stack]
            acc = _sum_terms(acc, c, w, sub)
        return Jet(first.algebra, acc)


def _convolve(a, b):
    """Jet products, row by row: ``a`` and ``b`` are ``(P+1, N)`` jets, or ``(P+1, m, N)``
    stacks of ``m`` jets each, and the result has their shape.

    Row ``k`` of each product accumulates ``a_0 b_k + a_1 b_{k-1} + ... +
    a_k b_0`` in that order, the order of the row-by-row series product;
    every axis after the first is elementwise, so a stack changes no bit.
    """
    n = len(a)
    c = a[0] * b
    for i in range(1, n):
        c[i:] += a[i] * b[: n - i]
    return c


def flat(series):
    """The one conversion of a series to a flat jet.

    A series of rows over a batch of points, such as the identity ``(X, 1.0,
    ZERO, ..., ZERO)`` or a lift of it, becomes one :class:`Jet`: a number
    fills its row and :data:`~pdetaylor.series.ZERO` is ``+0.0``.  A jet, a
    series over other coefficients, a number and ``ZERO`` are returned as
    they are.
    """
    if type(series) is TruncatedSeries and isinstance(series.algebra, BatchAlgebra):
        return Jet(series.algebra, series.coeffs)
    return series


def _real_points(points, what: str) -> np.ndarray:
    """``points`` as a float64 array of their shape; complex points raise, where
    numpy would only warn and drop the imaginary part."""
    x = np.asarray(points)
    if np.iscomplexobj(x):
        raise ValueError(f"{what} must be real, got complex points {x.ravel()[:3].tolist()}")
    return x.astype(np.float64, copy=False)


def _as_int(value):
    """``value`` as an int when it is an integer, read by ``operator.index``,
    else None: a bool is not one here, so ``True`` is not the integer 1."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def seed_variable(points, order: int) -> Jet:
    """Jet of the identity at the given points: ``[X, 1, 0, ..., 0]``."""
    x = _real_points(points, "seed points").ravel()
    if x.size == 0:
        raise ValueError("need at least one point")
    return Jet.variable(BatchAlgebra(x.size), x, order)


def derivative(jet: Jet, m: int = 1) -> Jet:
    """Jet of the m-th spatial derivative, truncated ``m`` orders lower.

    With coefficients storing ``f^(k)/k!``, one differentiation maps row
    ``k+1`` to ``(k+1) * a[k+1]`` at row ``k``: one row-scaled multiply.
    """
    if not isinstance(jet, Jet):
        raise TypeError(f"derivative needs a Jet, got {type(jet).__name__}")
    m = _as_int(m)
    if m is None or m < 0:
        raise ValueError("derivative order must be a non-negative integer")
    if m > jet.order:
        raise InsufficientJetOrderError(
            f"jet of order {jet.order} cannot produce derivative order {m}"
        )
    coeffs = jet.coeffs
    for _ in range(m):
        coeffs = coeffs[1:] * np.arange(1.0, len(coeffs))[:, None]
    return Jet(jet.algebra, coeffs)


@dataclass(frozen=True)
class JetAlgebra:
    """Flat jets of a fixed order over one batch of points as series coefficients.

    An element is a :class:`Jet` over ``inner`` with truncation order
    ``order``, or a number, the same at every point; two jet algebras of one
    batch and order compare equal.
    """

    inner: BatchAlgebra
    order: int
