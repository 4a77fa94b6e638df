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
:class:`~pdetaylor.series.TruncatedSeries`, so a jet's coefficients are bit
for bit those of a series over :class:`BatchAlgebra` on the same rows.

A jet is a :class:`~pdetaylor.series.TruncatedSeries` over
:class:`BatchAlgebra`, so the quotient and the analytic lifts of
:mod:`pdetaylor.series` apply unchanged: they run the series recurrence steps
over the rows of a preallocated array.  :class:`BatchAlgebra` is the
elementwise :class:`~pdetaylor.series.RealAlgebra` with a batch size and
array constants; the tests and primitives are stated once, there.

:func:`seed_variable` builds the jet of the identity function, ``[X, 1, 0,
..., 0]``; evaluating an expression on the seed yields the jet of that
expression.  :func:`derivative` extracts the jet of ``f^(m)``, which is ``m``
orders shorter than its input.

:class:`JetAlgebra` lets jets serve as series coefficients, giving the
nesting time-series -> space-jet -> point-batch used by the expansion
driver.  Jets already add, subtract, multiply, divide and scale, so the
algebra supplies only the jet order, the constant jets and the lifts that
evaluate an analytic function on a jet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import (
    CoefficientAlgebra,
    RealAlgebra,
    TruncatedSeries,
    _as_scalar,
    exp,
    log,
    power,
    sin_cos,
)


class InsufficientJetOrderError(ValueError):
    """Asked for more derivative orders than the jet retains."""


@dataclass(frozen=True)
class BatchAlgebra(RealAlgebra):
    """Float64 arrays over one batch of points: :class:`RealAlgebra` with array constants."""

    size: int

    def zero(self):
        return np.zeros(self.size)

    def one(self):
        return np.ones(self.size)


class Jet(TruncatedSeries):
    """A jet stored flat: ``coeffs`` is one ``(P+1, N)`` float64 array.

    ``coeffs[k]`` is the row of order ``k``.  Jets are immutable, so
    :meth:`truncated` may return a view of the same array.  Operators take
    jets of the same order over the same batch, or plain numbers.
    """

    __slots__ = ()

    def __init__(self, algebra: BatchAlgebra, coeffs):
        coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
        if coeffs.ndim != 2 or coeffs.shape[0] == 0 or coeffs.shape[1] != algebra.size:
            raise ValueError(
                f"a jet over {algebra.size} points needs a (P+1, {algebra.size}) array, "
                f"got shape {coeffs.shape}"
            )
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", coeffs)

    def __repr__(self):
        return f"Jet({self.algebra!r}, {self.coeffs!r})"

    def _buffer(self):
        return np.empty_like(self.coeffs)

    def _operand(self, other):
        if not isinstance(other, Jet):
            return None
        self._check_compatible(other)
        return other.coeffs

    def __add__(self, other):
        s = _as_scalar(other)
        if s is not None:
            c = self.coeffs.copy()
            c[0] += s
            return Jet(self.algebra, c)
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return Jet(self.algebra, self.coeffs + b)

    __radd__ = __add__

    def __sub__(self, other):
        s = _as_scalar(other)
        if s is not None:
            c = self.coeffs.copy()
            c[0] -= s
            return Jet(self.algebra, c)
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return Jet(self.algebra, self.coeffs - b)

    def __neg__(self):
        return Jet(self.algebra, self.coeffs * -1.0)

    def __mul__(self, other):
        s = _as_scalar(other)
        if s is not None:
            return Jet(self.algebra, self.coeffs * s)
        b = self._operand(other)
        if b is None:
            return NotImplemented
        a = self.coeffs
        n = len(a)
        # row k accumulates a_0 b_k + a_1 b_{k-1} + ... + a_k b_0 in that order
        c = a[0] * b
        for i in range(1, n):
            c[i:] += a[i] * b[: n - i]
        return Jet(self.algebra, c)

    __rmul__ = __mul__


def seed_variable(points, order: int) -> Jet:
    """Jet of the identity at the given points: ``[X, 1, 0, ..., 0]``."""
    x = np.asarray(points, dtype=np.float64).ravel()
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
    if not isinstance(m, int) or m < 0:
        raise ValueError("derivative order must be a non-negative integer")
    if m > jet.order:
        raise InsufficientJetOrderError(
            f"jet of order {jet.order} cannot produce derivative order {m}"
        )
    coeffs = jet.coeffs
    for _ in range(m):
        coeffs = coeffs[1:] * np.arange(1.0, len(coeffs))[:, None]
    return Jet(jet.algebra, coeffs)


def values(jet: Jet) -> np.ndarray:
    """The order-zero row, copied: plain function values at the batch points.

    A copy, because a view of the row would keep the whole jet alive.
    """
    return jet.coeffs[0].copy()


@dataclass(frozen=True)
class JetAlgebra(CoefficientAlgebra):
    """Flat jets of a fixed order over one batch of points as series coefficients.

    Every element is a :class:`Jet` over ``inner`` with truncation order
    ``order``; an analytic lift of a series-of-jets evaluates its constant
    term by lifting again inside the jet.
    """

    inner: BatchAlgebra
    order: int

    def zero(self):
        return Jet(self.inner, np.zeros((self.order + 1, self.inner.size)))

    def one(self):
        c = np.zeros((self.order + 1, self.inner.size))
        c[0] = 1.0
        return Jet(self.inner, c)

    def is_zero(self, a):
        return bool(np.all(a.coeffs == 0.0))

    def is_invertible(self, a):
        return self.inner.is_invertible(a.coeffs[0])

    def exp(self, a):
        return exp(a)

    def sin_cos(self, a):
        return sin_cos(a)

    def log(self, a):
        return log(a)

    def pow(self, a, exponent):
        return power(a, exponent)
