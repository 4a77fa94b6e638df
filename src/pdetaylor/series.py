"""Truncated power series in a single infinitesimal.

A :class:`TruncatedSeries` stores the coefficients ``[c0, c1, ..., cn]`` of

    c0 + c1*eps + c2*eps**2 + ... + cn*eps**n,

where ``eps`` is an infinitesimal whose powers above ``n`` are discarded.
Addition is componentwise and multiplication is the convolution truncated at
order ``n``, so the coefficient of ``eps**k`` in a product only ever involves
input coefficients of order ``<= k``.  Division inverts the convolution and
requires an invertible leading coefficient; dividing by a pure infinitesimal
is an error rather than a renormalisation.

Coefficients combine through their own ``+``, ``-``, ``*``, ``/`` and
``* float`` operators, so Python floats, NumPy batches and jets all work
unchanged.  A series also carries an algebra, which supplies only the
constants zero and one for padding and seeding and, by equality, the
compatibility check of binary operations: :class:`RealAlgebra` for floats,
and the batch and spatial-jet algebras of :mod:`pdetaylor.jets`.  Because a
jet is itself a truncated series, series can nest: a series in the time
infinitesimal whose coefficients are jets in a space increment, whose
coefficients are batches of reals.

Analytic functions (exp, sin, cos, ln, constant powers) extend to series
through the usual Taylor-composition recurrences, and reciprocal and sech are
composed from them.  Only the constant term evaluates the function itself,
and its type says how: a series is lifted again and anything else goes to
NumPy elementwise, so a lift recurses through nested series (Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 13).  Division tests
the innermost constant term for invertibility the same way.

Series are immutable once constructed; share them freely.

A :class:`LazySeries` is the same arithmetic evaluated one order at a time:
an expression over lazy nodes is built once, and each node then computes
and memoises one new coefficient per request (McIlroy, "Power series, power
serious", 1999; Griewank & Walther, *Evaluating Derivatives*, ch. 13).  Both
kinds run each recurrence through one per-coefficient step function, so they
produce bit-identical coefficients.  A lazy coefficient that is zero whatever
the data is the structural zero :data:`ZERO`, which sums drop and products pass
on, so the shared steps skip its terms; one that is the same at every point may
be a plain number (activity analysis; Hascoet & Pascual, ACM TOMS 39(3), 2013).
Each step lists the terms ``x_j * y_{k-j}`` of its coefficient and leaves out
every one with a ``ZERO`` factor before multiplying, since ``acc + ZERO`` is
``acc`` and ``ZERO + t`` is ``t``; it forms the products of each run of series
pairs through that series class's ``_products``, which a flat jet answers with
stacked kernel calls, and adds them up in the order of the terms, one at a
time, so the stacking changes no bit.
A :class:`TruncatedSeries` may hold ``ZERO`` too, and its operations skip those
terms the same way: the expansion driver hands a problem's initial condition
the identity with every coefficient past order 1 ``ZERO``, so a lift of it
makes one product per order where zero rows would make one per term.  A
skipped term would have added ``0.0 * f``, so an exact zero may keep the sign
``-0.0`` where zero rows give ``+0.0``, and a non-finite ``f`` reaches no
result; every other value is the same.  A constant term that is ``ZERO``
is evaluated as ``0.0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class OrderMismatchError(ValueError):
    """Binary operation on series of different truncation orders."""


class InfinitesimalDivisorError(ZeroDivisionError):
    """Division by a series whose leading coefficient is not invertible."""


class LiftDomainError(ValueError):
    """Constant term lies outside the domain of the lifted function."""


@dataclass(frozen=True)
class RealAlgebra:
    """Float coefficients, with the constants zero and one.

    :class:`~pdetaylor.jets.BatchAlgebra` adds a batch size and array
    constants.  Two algebras compare equal when they describe the same
    coefficient space, which is what series compatibility checks rely on.
    """

    def zero(self):
        return 0.0

    def one(self):
        return 1.0


class _StructuralZero:
    """The type of :data:`ZERO`: ``ZERO + a`` is ``a``, ``ZERO - a`` is ``a * -1.0``,
    and its products, quotients and negation are ``ZERO``."""

    __slots__ = ()
    __array_ufunc__ = None  # ndarray operators return NotImplemented and defer here

    def __add__(self, other):
        return other

    __radd__ = __rsub__ = __add__

    def __sub__(self, other):
        return other * -1.0

    def __mul__(self, other):
        return self

    __rmul__ = __truediv__ = __mul__

    def __neg__(self):
        return self


ZERO = _StructuralZero()


def _real(c):
    """``c`` with the structural zero as ``0.0``, which numpy evaluates."""
    return 0.0 if c is ZERO else c


def _as_scalar(x):
    """Return x as a float when it is an ordinary number, else None."""
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        return float(x)
    return None


class TruncatedSeries:
    """Coefficients of a power series in one infinitesimal, truncated at a fixed order.

    ``coeffs`` is a tuple of ``order + 1`` algebra elements, constant term
    first (:class:`~pdetaylor.jets.Jet` holds them as the rows of one array).
    Instances are immutable; every operation returns a new series of the same
    kind, order and algebra.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least its constant term")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, algebra, value, order: int) -> "TruncatedSeries":
        tail = tuple(algebra.zero() for _ in range(order))
        return cls(algebra, (value,) + tail)

    @classmethod
    def variable(cls, algebra, value, order: int) -> "TruncatedSeries":
        """Series ``value + eps``: the seed for differentiating through ``value``."""
        if order < 1:
            raise ValueError("a variable seed needs order >= 1")
        tail = tuple(algebra.zero() for _ in range(order - 1))
        return cls(algebra, (value, algebra.one()) + tail)

    # -- basic queries -------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant_term(self):
        return self.coeffs[0]

    def __len__(self):
        return len(self.coeffs)

    def __repr__(self):
        return f"TruncatedSeries({self.algebra!r}, {list(self.coeffs)!r})"

    def _new(self, coeffs) -> "TruncatedSeries":
        """A series of the same kind and algebra with the given coefficients."""
        return type(self)(self.algebra, coeffs)

    def _buffer(self):
        """A writable sequence of ``order + 1`` coefficient slots for :meth:`_new`."""
        return [None] * len(self.coeffs)

    def _check_compatible(self, other: "TruncatedSeries"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise TypeError(
                f"incompatible coefficient algebras: {self.algebra!r} vs {other.algebra!r}"
            )
        if self.order != other.order:
            raise OrderMismatchError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        s = _as_scalar(other)
        alg = self.algebra
        if s is not None:
            head = self.coeffs[0] + s
            return TruncatedSeries(alg, (head,) + self.coeffs[1:])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        return TruncatedSeries(alg, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        s = _as_scalar(other)
        alg = self.algebra
        if s is not None:
            head = self.coeffs[0] - s
            return TruncatedSeries(alg, (head,) + self.coeffs[1:])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        return TruncatedSeries(alg, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        s = _as_scalar(other)
        if s is None:
            return NotImplemented
        return (-self) + s

    def __neg__(self):
        return TruncatedSeries(self.algebra, tuple(c * -1.0 for c in self.coeffs))

    def __mul__(self, other):
        s = _as_scalar(other)
        if s is not None:
            return TruncatedSeries(self.algebra, tuple(c * s for c in self.coeffs))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries(self.algebra, [_mul_step(a, b, k) for k in range(len(a))])

    __rmul__ = __mul__

    @staticmethod
    def _products(pairs):
        """``x * y`` for each pair of series of this kind, in order.

        The recurrence steps form the products of a coefficient through this
        method; :class:`~pdetaylor.jets.Jet` overrides it to stack them.
        """
        return [x * y for x, y in pairs]

    def __truediv__(self, other):
        s = _as_scalar(other)
        if s is not None:
            return self._new([c / s for c in self.coeffs])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        a, b = self.coeffs, other.coeffs
        q = self._buffer()
        for k in range(len(a)):
            q[k] = _div_step(a[k], b, q, k)
        return self._new(q)

    def __rtruediv__(self, other):
        s = _as_scalar(other)
        if s is None:
            return NotImplemented
        return (_one_like(self) * s) / self

    def __pow__(self, exponent):
        s = _as_scalar(exponent)
        if s is None:
            return NotImplemented
        return power(self, s)

    # -- truncation ----------------------------------------------------

    def truncated(self, order: int) -> "TruncatedSeries":
        """The series at the given truncation order (dropping or zero-padding).

        Dropping orders may share coefficients with ``self``; a jet returns a
        view of its array.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        if order <= self.order:
            return self._new(self.coeffs[: order + 1])
        pad = tuple(self.algebra.zero() for _ in range(order - self.order))
        return self._new(tuple(self.coeffs) + pad)


# -- recurrence steps -------------------------------------------------------
#
# Each step computes coefficient k of a result from indexable sequences that
# hold orders 0..k of its input and 0..k-1 of the result.  TruncatedSeries runs
# a step for every k at once and LazySeries for one new k at a time; sharing
# the step keeps the two bit-identical.  Steps combine coefficients with their
# own operators, so they run unchanged on floats, arrays and jets.  Only the
# constant term of a lift ever evaluates the function itself, and its type
# says how: a series (a jet, in the expansion driver) is lifted again, and a
# number or an array goes to numpy.  So a lift over nested series recurses.


def _is_invertible(a) -> bool:
    """Whether every entry of the innermost constant term of ``a`` is nonzero.

    The test is a comparison, so an infinite entry counts as invertible.
    """
    while isinstance(a, TruncatedSeries):
        a = a.coeffs[0]
    return bool(np.all(_real(a) != 0.0))


def _exp0(a):
    return exp(a) if isinstance(a, TruncatedSeries) else np.exp(a)


def _sin_cos0(a):
    return sin_cos(a) if isinstance(a, TruncatedSeries) else (np.sin(a), np.cos(a))


def _log0(a):
    if isinstance(a, TruncatedSeries):
        return log(a)
    if np.any(a <= 0.0):
        raise LiftDomainError("log requires every constant-term entry positive")
    return np.log(a)


def _pow0(a, e: float):
    if isinstance(a, TruncatedSeries):
        return power(a, e)
    if not e.is_integer() and np.any(a < 0.0):
        raise LiftDomainError("non-integer power of a negative entry")
    return np.power(a, e)


def _terms(x, y, k, lo, hi):
    """Yield ``(j, x_j * y_{k-j})`` for ``lo <= j < hi`` in order of ``j``, leaving
    out every term with a ZERO factor.

    Such a term is ZERO, which a sum drops, so leaving it out changes no bit.
    Each run of consecutive terms whose two factors are series of one class is
    formed by that class's ``_products``, which a flat jet stacks into one
    kernel call; any other term is one multiply.
    """
    run = []
    for j in range(lo, hi):
        xj, yj = x[j], y[k - j]
        if xj is ZERO or yj is ZERO:
            continue
        if isinstance(xj, TruncatedSeries) and type(yj) is type(xj):
            if run and type(run[0][1]) is not type(xj):
                yield from _run_products(run)
                run = []
            run.append((j, xj, yj))
            continue
        if run:
            yield from _run_products(run)
            run = []
        yield j, xj * yj
    if run:
        yield from _run_products(run)


def _run_products(run):
    """``(j, x_j * y_{k-j})`` for a run of terms whose factors are series of one class."""
    return zip([j for j, _, _ in run], type(run[0][1])._products([(xj, yj) for _, xj, yj in run]))


def _mul_step(a, b, k):
    """Coefficient k of a product: a_0*b_k + a_1*b_{k-1} + ... + a_k*b_0."""
    acc = ZERO
    for _, p in _terms(a, b, k, 0, k + 1):
        acc = acc + p
    return acc


def _div_step(a_k, b, q, k):
    """Coefficient k of a quotient q = a / b: (a_k - sum_{j=1..k} b_j*q_{k-j}) / b_0."""
    if k == 0 and not _is_invertible(b[0]):
        raise InfinitesimalDivisorError(
            "division by a series with non-invertible leading coefficient"
        )
    acc = a_k
    for _, p in _terms(b, q, k, 1, k + 1):
        acc = acc - p
    return acc / b[0]


def _weighted_sum(a, f, k):
    """sum_{j=1..k} j*a_j*f_{k-j}, shared by the exp, sin and cos recurrences."""
    acc = ZERO
    for j, p in _terms(a, f, k, 1, k + 1):
        acc = acc + (p * float(j) if j > 1 else p)
    return acc


def _exp_step(a, out, k):
    """k*E_k = sum_{j=1..k} j*A_j*E_{k-j}, E_0 = exp(A_0)."""
    if k == 0:
        return _exp0(_real(a[0]))
    return _weighted_sum(a, out, k) * (1.0 / k)


def _sin_cos_step(a, s, c, k):
    """(S_k, C_k) with k*S_k = sum j*A_j*C_{k-j} and k*C_k = -sum j*A_j*S_{k-j}."""
    if k == 0:
        return _sin_cos0(_real(a[0]))
    return _weighted_sum(a, c, k) * (1.0 / k), _weighted_sum(a, s, k) * (-1.0 / k)


def _log_step(a, out, k):
    """L_k = (A_k - (1/k) sum_{j<k} j*L_j*A_{k-j}) / A_0."""
    if k == 0:
        return _log0(_real(a[0]))
    acc = ZERO
    for j, p in _terms(out, a, k, 1, k):
        acc = acc + p * float(j)
    return (a[k] - acc * (1.0 / k)) / a[0]


def _power_step(a, out, k, e):
    """k*A_0*P_k = sum_{j=1..k} ((e+1)*j - k) * A_j * P_{k-j}, P_0 = A_0**e."""
    if k == 0:
        if not _is_invertible(a[0]):
            raise LiftDomainError(
                "power with non-integer or negative exponent needs an invertible constant term"
            )
        return _pow0(a[0], e)
    acc = ZERO
    for j, p in _terms(a, out, k, 1, k + 1):
        acc = acc + p * ((e + 1.0) * j - k)
    return (acc * (1.0 / k)) / a[0]


# -- lazy series ---------------------------------------------------------------


class SeriesTape:
    """Shared state of one graph of :class:`LazySeries`.

    The coefficient histories that later steps read are registered here, and
    :meth:`advance` maps every stored coefficient through ``narrow`` before
    the next order is computed, so a step only ever combines coefficients of
    one kind.  The expansion driver narrows jets to its shrinking working
    order this way.
    """

    def __init__(self):
        self._histories = []

    def advance(self, narrow) -> None:
        """Map every kept coefficient through ``narrow``."""
        for history in self._histories:
            history[:] = [narrow(c) for c in history]

    def history(self) -> list:
        """A new coefficient list that :meth:`advance` keeps narrowed."""
        h = []
        self._histories.append(h)
        return h


class LazySeries:
    """A series in one infinitesimal whose coefficients are computed on demand.

    ``coeff(k)`` computes coefficient ``k`` as ``rule(k)`` once every lower
    one exists, and memoises it.  Operators and the analytic
    lifts build new nodes and compute nothing, so an expression is evaluated
    once into a graph, which then yields one new coefficient per order: about
    ``n**2`` coefficient products for ``n`` orders, where re-evaluating a
    :class:`TruncatedSeries` expression at every order costs about ``n**3``.
    Each operation computes its coefficients with the same recurrence step as
    the :class:`TruncatedSeries` operation, so the values are bit-identical.

    A node keeps only its newest coefficient, unless a later step reads its
    older ones: operands of series products and quotients and the inputs and
    outputs of lifts keep their whole history on the tape.  A node has no
    order or coefficient tuple; only operators and lifts apply.

    A rule may return :data:`ZERO` for a coefficient that is zero whatever the
    data; a node is then ``ZERO`` where its inputs force it, at no product
    cost.  Unlike a zero element, ``ZERO * inf`` is ``ZERO``, not NaN.  A rule
    may also return a plain number, such as a coefficient of ``t``, which every
    coefficient combines with and a lift evaluates with numpy.
    """

    __slots__ = ("tape", "_rule", "_history", "_newest", "_count")

    def __init__(self, tape: SeriesTape, rule):
        self.tape = tape
        self._rule = rule
        self._history = None
        self._newest = None
        self._count = 0

    def coeff(self, k: int):
        """Coefficient ``k``: the newest one, or the next one, computed now."""
        if k == self._count:
            self._newest = self._rule(k)
            self._count += 1
            if self._history is not None:
                self._history.append(self._newest)
        elif k != self._count - 1:
            raise ValueError(
                f"coefficient {k} requested, but only order {self._count} can be computed next"
            )
        return self._newest

    def _kept(self) -> list:
        """The coefficient history, kept from now on because a later step reads it."""
        if self._history is None:
            if self._count:
                raise RuntimeError("a node's history must be requested before evaluation starts")
            self._history = self.tape.history()
        return self._history

    def _operand(self, other):
        if not isinstance(other, LazySeries):
            return None
        if other.tape is not self.tape:
            raise ValueError("lazy series of different tapes cannot be combined")
        return other

    def __add__(self, other):
        s = _as_scalar(other)
        if s is not None:
            def shifted(k):
                a = self.coeff(k)
                return _real(a) + s if k == 0 else a
            return LazySeries(self.tape, shifted)
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return LazySeries(self.tape, lambda k: self.coeff(k) + b.coeff(k))

    __radd__ = __add__

    def __sub__(self, other):
        s = _as_scalar(other)
        if s is not None:
            def shifted(k):
                a = self.coeff(k)
                return _real(a) - s if k == 0 else a
            return LazySeries(self.tape, shifted)
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return LazySeries(self.tape, lambda k: self.coeff(k) - b.coeff(k))

    def __neg__(self):
        return LazySeries(self.tape, lambda k: self.coeff(k) * -1.0)

    def __mul__(self, other):
        s = _as_scalar(other)
        if s is not None:
            return LazySeries(self.tape, lambda k: self.coeff(k) * s)
        b = self._operand(other)
        if b is None:
            return NotImplemented
        ha, hb = self._kept(), b._kept()

        def product(k):
            self.coeff(k)
            b.coeff(k)
            return _mul_step(ha, hb, k)

        return LazySeries(self.tape, product)

    __rmul__ = __mul__

    def __truediv__(self, other):
        s = _as_scalar(other)
        if s is not None:
            return LazySeries(self.tape, lambda k: self.coeff(k) / s)
        b = self._operand(other)
        if b is None:
            return NotImplemented
        hb = b._kept()

        def quotient(k):
            a_k = self.coeff(k)
            b.coeff(k)
            return _div_step(a_k, hb, hq, k)

        q = LazySeries(self.tape, quotient)
        hq = q._kept()
        return q

    __rsub__ = TruncatedSeries.__rsub__
    __rtruediv__ = TruncatedSeries.__rtruediv__
    __pow__ = TruncatedSeries.__pow__


# -- analytic lifts -----------------------------------------------------
#
# Every public lift accepts a TruncatedSeries and returns one, or accepts a
# LazySeries and returns a new node of the same tape.


def _lift(series, step):
    """Apply a lift whose step reads its input and its own earlier output."""
    if isinstance(series, LazySeries):
        a = series._kept()

        def lifted(k):
            series.coeff(k)
            return step(a, out, k)

        node = LazySeries(series.tape, lifted)
        out = node._kept()
        return node
    _require_series(series)
    a = list(series.coeffs)  # a jet's row views made once, not at every read
    out = series._buffer()
    for k in range(len(a)):
        out[k] = step(a, out, k)
    return series._new(out)


def _one_like(series):
    """The constant series 1 of the same kind, algebra and order as ``series``."""
    if isinstance(series, LazySeries):
        return LazySeries(series.tape, lambda k: 1.0 if k == 0 else 0.0)
    _require_series(series)
    return type(series).constant(series.algebra, series.algebra.one(), series.order)


def exp(series):
    """Exponential: k*E_k = sum_{j=1..k} j*A_j*E_{k-j}, E_0 = exp(A_0)."""
    return _lift(series, _exp_step)


def sin_cos(series):
    """Sine and cosine together; their recurrences are coupled."""
    if isinstance(series, LazySeries):
        a = series._kept()
        s, c = series.tape.history(), series.tape.history()

        def pair(k):
            if k == len(s):
                series.coeff(k)
                s_k, c_k = _sin_cos_step(a, s, c, k)
                s.append(s_k)
                c.append(c_k)
            return s[k], c[k]

        return (
            LazySeries(series.tape, lambda k: pair(k)[0]),
            LazySeries(series.tape, lambda k: pair(k)[1]),
        )
    _require_series(series)
    a = list(series.coeffs)
    s, c = series._buffer(), series._buffer()
    for k in range(len(a)):
        s[k], c[k] = _sin_cos_step(a, s, c, k)
    return series._new(s), series._new(c)


def sin(series):
    return sin_cos(series)[0]


def cos(series):
    return sin_cos(series)[1]


def log(series):
    """Natural logarithm: L_k = (A_k - (1/k) sum_{j<k} j*L_j*A_{k-j}) / A_0."""
    return _lift(series, _log_step)


def power(series, exponent: float):
    """Raise a series to a constant real power.

    Non-negative integer exponents use square-and-multiply starting from the
    series itself, which needs no invertible constant term and multiplies by
    no constant one; anything else uses the recurrence
    k*A_0*P_k = sum_{j=1..k} ((e+1)*j - k) * A_j * P_{k-j}.
    """
    e = float(exponent)
    if not math.isfinite(e):
        raise ValueError(f"power needs a finite exponent, got {exponent!r}")
    if e.is_integer() and e >= 0:
        if e == 0:
            return _one_like(series)
        if not isinstance(series, LazySeries):
            _require_series(series)
        result, base, n = None, series, int(e)
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base
    return _lift(series, lambda a, out, k: _power_step(a, out, k, e))


def reciprocal(series):
    return _one_like(series) / series


def sech(series):
    """Hyperbolic secant via 1 / cosh, with cosh built from exp."""
    e = exp(series)
    cosh = (e + reciprocal(e)) * 0.5
    return reciprocal(cosh)


def _require_series(obj):
    if not isinstance(obj, TruncatedSeries):
        raise TypeError(f"expected a TruncatedSeries or LazySeries, got {type(obj).__name__}")
