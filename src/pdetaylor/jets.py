"""Spatial jets: truncated series in a space increment over batches of points.

A jet at points ``X`` (a 1-D float64 array) truncated at order ``p`` stores
the scaled derivatives ``f(X), f'(X), f''(X)/2!, ..., f^(p)(X)/p!`` of some
function ``f``, one batch array per order.  Jets are ordinary
:class:`~pdetaylor.series.TruncatedSeries` instances whose coefficients are
NumPy arrays combined by NumPy's own operators, so all series arithmetic and
analytic lifts apply unchanged; :class:`BatchAlgebra` adds only the batch
size, the constants and the elementwise analytic primitives.  Storing
``f^(k)/k!`` keeps the product rule a plain convolution with no factorial
bookkeeping.

:func:`seed_variable` builds the jet of the identity function, ``[X, 1, 0,
..., 0]``; evaluating an expression on the seed yields the jet of that
expression.  :func:`derivative` extracts the jet of ``f^(m)``, which is ``m``
orders shorter than its input.

:class:`JetAlgebra` lets jets themselves serve as series coefficients, giving
the nesting time-series -> space-jet -> point-batch used by the expansion
driver.  Jets already add, subtract, multiply, divide and scale as series, so
the algebra supplies only the jet order, the constant jets and the lifts
that evaluate an analytic function on a jet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import (
    CoefficientAlgebra,
    LiftDomainError,
    TruncatedSeries,
    exp,
    log,
    power,
    sech,
    sin_cos,
)


class InsufficientJetOrderError(ValueError):
    """Asked for more derivative orders than the jet retains."""


@dataclass(frozen=True)
class BatchAlgebra(CoefficientAlgebra):
    """Elementwise float64 arithmetic over a fixed batch of points."""

    size: int

    def zero(self):
        return np.zeros(self.size)

    def one(self):
        return np.ones(self.size)

    def is_zero(self, a):
        return bool(np.all(a == 0.0))

    def is_invertible(self, a):
        return bool(np.all(a != 0.0))

    def finite(self, a):
        return bool(np.isfinite(a).all())

    def exp(self, a):
        return np.exp(a)

    def sin_cos(self, a):
        return np.sin(a), np.cos(a)

    def log(self, a):
        if np.any(a <= 0.0):
            raise LiftDomainError("log requires every constant-term entry positive")
        return np.log(a)

    def pow(self, a, exponent):
        if not float(exponent).is_integer():
            if np.any(a < 0.0):
                raise LiftDomainError("non-integer power of a negative entry")
        elif exponent < 0 and np.any(a == 0.0):
            raise LiftDomainError("negative power of a zero entry")
        return np.power(a, exponent)

    def sech(self, a):
        return 1.0 / np.cosh(a)


def seed_variable(points, order: int) -> TruncatedSeries:
    """Jet of the identity at the given points: ``[X, 1, 0, ..., 0]``."""
    x = np.asarray(points, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("need at least one point")
    return TruncatedSeries.variable(BatchAlgebra(x.size), x, order)


def derivative(jet: TruncatedSeries, m: int = 1) -> TruncatedSeries:
    """Jet of the m-th spatial derivative, truncated ``m`` orders lower.

    With coefficients storing ``f^(k)/k!``, one differentiation maps
    coefficient ``k+1`` to ``(k+1) * a[k+1]`` at slot ``k``.
    """
    if not isinstance(m, int) or m < 0:
        raise ValueError("derivative order must be a non-negative integer")
    if m > jet.order:
        raise InsufficientJetOrderError(
            f"jet of order {jet.order} cannot produce derivative order {m}"
        )
    coeffs = jet.coeffs
    for _ in range(m):
        coeffs = tuple(coeffs[k + 1] * float(k + 1) for k in range(len(coeffs) - 1))
    return TruncatedSeries(jet.algebra, coeffs)


def values(jet: TruncatedSeries) -> np.ndarray:
    """The order-zero coefficient: plain function values at the batch points."""
    return jet.coeffs[0]


@dataclass(frozen=True)
class JetAlgebra(CoefficientAlgebra):
    """Jets of a fixed order as series coefficients.

    Every element is a TruncatedSeries over ``inner`` with truncation order
    ``order``; the series machinery applied to those elements recurses, so an
    analytic lift of a series-of-jets evaluates its constant term by lifting
    again inside the jet.
    """

    inner: CoefficientAlgebra
    order: int

    def zero(self):
        return TruncatedSeries.zeros(self.inner, self.order)

    def one(self):
        return TruncatedSeries.constant(self.inner, self.inner.one(), self.order)

    def is_zero(self, a):
        return all(self.inner.is_zero(c) for c in a.coeffs)

    def is_invertible(self, a):
        return self.inner.is_invertible(a.coeffs[0])

    def finite(self, a):
        return all(self.inner.finite(c) for c in a.coeffs)

    def exp(self, a):
        return exp(a)

    def sin_cos(self, a):
        return sin_cos(a)

    def log(self, a):
        return log(a)

    def pow(self, a, exponent):
        return power(a, exponent)

    def sech(self, a):
        return sech(a)
