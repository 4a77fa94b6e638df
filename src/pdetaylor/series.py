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
unchanged.  A :class:`CoefficientAlgebra` supplies only what differs between
those spaces: the constants zero and one, the zero and invertibility tests,
and the analytic primitives.  :class:`RealAlgebra` states these once,
elementwise on NumPy, so it serves a float and a batch of points alike; the
batch algebra, which only adds a size, and the spatial-jet algebra live in
:mod:`pdetaylor.jets`.  Because a jet is itself a truncated series, series
can nest: a series in the time infinitesimal whose coefficients are jets in a
space increment, whose coefficients are batches of reals.

Analytic functions (exp, sin, cos, ln, constant powers) extend to series
through the usual Taylor-composition recurrences, and reciprocal and sech are
composed from them; the constant term is evaluated in the coefficient
algebra, which recurses through nested series automatically.

Series are immutable once constructed; share them freely.

A :class:`LazySeries` is the same arithmetic evaluated one order at a time:
an expression over lazy nodes is built once, and each node then computes
and memoises one new coefficient per request (McIlroy, "Power series, power
serious", 1999; Griewank & Walther, *Evaluating Derivatives*, ch. 13).  Both
kinds run each recurrence through one per-coefficient step function, so they
produce bit-identical coefficients.  A lazy coefficient that is zero whatever
the data is the structural zero :data:`ZERO`, which sums drop and products pass
on, so the shared steps skip its terms (activity analysis; Hascoet & Pascual,
ACM TOMS 39(3), 2013).  Algebra methods and :class:`TruncatedSeries` never see it.
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


class OrderMismatchError(ValueError):
    """Binary operation on series of different truncation orders."""


class InfinitesimalDivisorError(ZeroDivisionError):
    """Division by a series whose leading coefficient is not invertible."""


class InfinitePartError(ArithmeticError):
    """Downward shift would discard a nonzero low-order coefficient."""


class LiftDomainError(ValueError):
    """Constant term lies outside the domain of the lifted function."""


class TruncationWarning(RuntimeWarning):
    """An operation truncated every stored order away."""


class CoefficientAlgebra(ABC):
    """What differs between the coefficient spaces a series can sit over.

    Ring arithmetic is not part of it: coefficients combine with each other
    and with a float through their own ``+``, ``-``, ``*`` and ``/``
    operators.  An algebra supplies the constants ``zero`` and ``one``, the
    predicates ``is_zero`` and ``is_invertible``, and the analytic primitives
    evaluated on the constant term of a lift.  Implementations are small
    stateless (or shape-carrying) objects; two algebra instances compare
    equal when they describe the same coefficient space, which is what series
    compatibility checks rely on.
    """

    @abstractmethod
    def zero(self): ...

    @abstractmethod
    def one(self): ...

    @abstractmethod
    def is_zero(self, a) -> bool: ...

    @abstractmethod
    def is_invertible(self, a) -> bool: ...

    # analytic primitives, used for the constant term of lifted functions

    @abstractmethod
    def exp(self, a): ...

    @abstractmethod
    def sin_cos(self, a):
        """Return ``(sin(a), cos(a))`` as a pair."""

    @abstractmethod
    def log(self, a): ...

    @abstractmethod
    def pow(self, a, exponent: float): ...


@dataclass(frozen=True)
class RealAlgebra(CoefficientAlgebra):
    """Real coefficients, as floats or NumPy arrays, combined elementwise.

    Every method works the same on a float as on an array, so
    :class:`~pdetaylor.jets.BatchAlgebra` adds only its batch size and
    constants.  A test holds when it holds at every entry, and a lift's
    domain check fails when any entry lies outside the domain.
    """

    def zero(self):
        return 0.0

    def one(self):
        return 1.0

    def is_zero(self, a):
        return bool(np.all(a == 0.0))

    def is_invertible(self, a):
        return bool(np.all(a != 0.0))

    def exp(self, a):
        return np.exp(a)

    def sin_cos(self, a):
        return np.sin(a), np.cos(a)

    def log(self, a):
        if np.any(a <= 0.0):
            raise LiftDomainError("log requires every constant-term entry positive")
        return np.log(a)

    def pow(self, a, exponent):
        if not float(exponent).is_integer() and np.any(a < 0.0):
            raise LiftDomainError("non-integer power of a negative entry")
        return np.power(a, exponent)


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


def _real(alg, c):
    """``c`` as an element of ``alg``: the structural zero becomes ``alg.zero()``."""
    return alg.zero() if c is ZERO else c


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

    def __init__(self, algebra: CoefficientAlgebra, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least its constant term")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, algebra, order: int) -> "TruncatedSeries":
        return cls(algebra, tuple(algebra.zero() for _ in range(order + 1)))

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

    @classmethod
    def infinitesimal(cls, algebra, order: int) -> "TruncatedSeries":
        """The series ``eps`` itself: ``[0, 1, 0, ..., 0]``."""
        return cls.variable(algebra, algebra.zero(), order)

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
        if self.algebra != other.algebra:
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

    def __truediv__(self, other):
        s = _as_scalar(other)
        alg = self.algebra
        if s is not None:
            return self * (1.0 / s)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        a, b = self.coeffs, other.coeffs
        q = self._buffer()
        for k in range(len(a)):
            q[k] = _div_step(alg, a[k], b, q, k)
        return self._new(q)

    def __rtruediv__(self, other):
        s = _as_scalar(other)
        if s is None:
            return NotImplemented
        return reciprocal(self) * s

    def __pow__(self, exponent):
        s = _as_scalar(exponent)
        if s is None:
            return NotImplemented
        return power(self, s)

    # -- shifts and truncation -------------------------------------------

    def shift_up(self, k: int) -> "TruncatedSeries":
        """Multiply by ``eps**k``: shift coefficients towards higher order."""
        if not isinstance(k, int) or k <= 0:
            raise ValueError("shift_up needs a positive integer shift")
        alg = self.algebra
        n = self.order
        if k > n:
            warnings.warn(
                f"shift_up by {k} exceeds order {n}; every coefficient truncated",
                TruncationWarning,
                stacklevel=2,
            )
            return type(self).zeros(alg, n)
        zeros = tuple(alg.zero() for _ in range(k))
        return self._new(zeros + tuple(self.coeffs[: n + 1 - k]))

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Divide by ``eps**k``; the k lowest coefficients must be zero."""
        if not isinstance(k, int) or k <= 0:
            raise ValueError("shift_down needs a positive integer shift")
        alg = self.algebra
        n = self.order
        if k > n:
            raise ValueError(f"shift_down by {k} exceeds order {n}")
        for j in range(k):
            if not alg.is_zero(self.coeffs[j]):
                raise InfinitePartError(
                    f"shift_down by {k} discards nonzero coefficient at order {j}"
                )
        zeros = tuple(alg.zero() for _ in range(k))
        return self._new(tuple(self.coeffs[k:]) + zeros)

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
# constant term of a lift ever evaluates the function itself, through the
# algebra, so a lift over nested series recurses.


def _mul_step(a, b, k):
    """Coefficient k of a product: a_0*b_k + a_1*b_{k-1} + ... + a_k*b_0."""
    acc = a[0] * b[k]
    for i in range(1, k + 1):
        acc = acc + a[i] * b[k - i]
    return acc


def _div_step(alg, a_k, b, q, k):
    """Coefficient k of a quotient q = a / b: (a_k - sum_{j=1..k} b_j*q_{k-j}) / b_0."""
    if k == 0 and not alg.is_invertible(_real(alg, b[0])):
        raise InfinitesimalDivisorError(
            "division by a series with non-invertible leading coefficient"
        )
    acc = a_k
    for j in range(1, k + 1):
        acc = acc - b[j] * q[k - j]
    return acc / b[0]


def _weighted_sum(a, f, k):
    """sum_{j=1..k} j*a_j*f_{k-j}, shared by the exp, sin and cos recurrences."""
    acc = a[1] * f[k - 1]
    for j in range(2, k + 1):
        acc = acc + (a[j] * f[k - j]) * float(j)
    return acc


def _exp_step(alg, a, out, k):
    """k*E_k = sum_{j=1..k} j*A_j*E_{k-j}, E_0 = exp(A_0)."""
    if k == 0:
        # exp of a zero element is exactly one() in every algebra
        return alg.one() if a[0] is ZERO else alg.exp(a[0])
    return _weighted_sum(a, out, k) * (1.0 / k)


def _sin_cos_step(alg, a, s, c, k):
    """(S_k, C_k) with k*S_k = sum j*A_j*C_{k-j} and k*C_k = -sum j*A_j*S_{k-j}."""
    if k == 0:
        return alg.sin_cos(_real(alg, a[0]))
    return _weighted_sum(a, c, k) * (1.0 / k), _weighted_sum(a, s, k) * (-1.0 / k)


def _log_step(alg, a, out, k):
    """L_k = (A_k - (1/k) sum_{j<k} j*L_j*A_{k-j}) / A_0."""
    if k == 0:
        return alg.log(_real(alg, a[0]))
    acc = None
    for j in range(1, k):
        term = (out[j] * a[k - j]) * float(j)
        acc = term if acc is None else acc + term
    num = a[k] if acc is None else a[k] - acc * (1.0 / k)
    return num / a[0]


def _power_step(alg, a, out, k, e):
    """k*A_0*P_k = sum_{j=1..k} ((e+1)*j - k) * A_j * P_{k-j}, P_0 = A_0**e."""
    if k == 0:
        if not alg.is_invertible(_real(alg, a[0])):
            raise LiftDomainError(
                "power with non-integer or negative exponent needs an invertible constant term"
            )
        return alg.pow(a[0], e)
    acc = None
    for j in range(1, k + 1):
        w = (e + 1.0) * j - k
        term = (a[j] * out[k - j]) * w
        acc = term if acc is None else acc + term
    return (acc * (1.0 / k)) / a[0]


# -- lazy series ---------------------------------------------------------------


class SeriesTape:
    """Shared state of one graph of :class:`LazySeries`.

    ``algebra`` is the coefficient algebra of the order being computed now.
    The coefficient histories that later steps read are registered here, and
    :meth:`advance` re-expresses every stored coefficient in the next algebra
    with ``narrow``, so a step only ever combines elements of one algebra.
    The expansion driver narrows jets to its shrinking working order this way.
    :data:`ZERO` belongs to every algebra and is kept as it is.
    """

    def __init__(self):
        self.algebra = None
        self._histories = []

    def advance(self, algebra, narrow) -> None:
        """Move to ``algebra``, mapping every kept coefficient through ``narrow``."""
        self.algebra = algebra
        for history in self._histories:
            history[:] = [c if c is ZERO else narrow(c) for c in history]

    def history(self) -> list:
        """A new coefficient list that :meth:`advance` keeps narrowed."""
        h = []
        self._histories.append(h)
        return h


class LazySeries:
    """A series in one infinitesimal whose coefficients are computed on demand.

    ``coeff(k)`` computes coefficient ``k`` as ``rule(tape.algebra, k)`` once
    every lower one exists, and memoises it.  Operators and the analytic
    lifts build new nodes and compute nothing, so an expression is evaluated
    once into a graph, which then yields one new coefficient per order: about
    ``n**2`` coefficient products for ``n`` orders, where re-evaluating a
    :class:`TruncatedSeries` expression at every order costs about ``n**3``.
    Each operation computes its coefficients with the same recurrence step as
    the :class:`TruncatedSeries` operation, so the values are bit-identical.

    A node keeps only its newest coefficient, unless a later step reads its
    older ones: operands of series products and quotients and the inputs and
    outputs of lifts keep their whole history on the tape.  A node has no
    order, coefficient tuple or shifts; only operators and lifts apply.

    A rule may return :data:`ZERO` for a coefficient that is zero whatever the
    data; a node is then ``ZERO`` where its inputs force it, at no product
    cost.  Unlike a zero element, ``ZERO * inf`` is ``ZERO``, not NaN.
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
            self._newest = self._rule(self.tape.algebra, k)
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
            def shifted(alg, k):
                a = self.coeff(k)
                return _real(alg, a) + s if k == 0 else a
            return LazySeries(self.tape, shifted)
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return LazySeries(self.tape, lambda alg, k: self.coeff(k) + b.coeff(k))

    __radd__ = __add__

    def __sub__(self, other):
        s = _as_scalar(other)
        if s is not None:
            def shifted(alg, k):
                a = self.coeff(k)
                return _real(alg, a) - s if k == 0 else a
            return LazySeries(self.tape, shifted)
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return LazySeries(self.tape, lambda alg, k: self.coeff(k) - b.coeff(k))

    def __neg__(self):
        return LazySeries(self.tape, lambda alg, k: self.coeff(k) * -1.0)

    def __mul__(self, other):
        s = _as_scalar(other)
        if s is not None:
            return LazySeries(self.tape, lambda alg, k: self.coeff(k) * s)
        b = self._operand(other)
        if b is None:
            return NotImplemented
        ha, hb = self._kept(), b._kept()

        def product(alg, k):
            self.coeff(k)
            b.coeff(k)
            return _mul_step(ha, hb, k)

        return LazySeries(self.tape, product)

    __rmul__ = __mul__

    def __truediv__(self, other):
        s = _as_scalar(other)
        if s is not None:
            return self * (1.0 / s)
        b = self._operand(other)
        if b is None:
            return NotImplemented
        hb = b._kept()

        def quotient(alg, k):
            a_k = self.coeff(k)
            b.coeff(k)
            return _div_step(alg, a_k, hb, hq, k)

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

        def lifted(alg, k):
            series.coeff(k)
            return step(alg, a, out, k)

        node = LazySeries(series.tape, lifted)
        out = node._kept()
        return node
    _require_series(series)
    alg = series.algebra
    a = list(series.coeffs)  # a jet's row views made once, not at every read
    out = series._buffer()
    for k in range(len(a)):
        out[k] = step(alg, a, out, k)
    return series._new(out)


def _one_like(series):
    """The constant series 1 of the same kind, algebra and order as ``series``."""
    if isinstance(series, LazySeries):
        return LazySeries(series.tape, lambda alg, k: alg.one() if k == 0 else alg.zero())
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

        def pair(alg, k):
            if k == len(s):
                series.coeff(k)
                s_k, c_k = _sin_cos_step(alg, a, s, c, k)
                s.append(s_k)
                c.append(c_k)
            return s[k], c[k]

        return (
            LazySeries(series.tape, lambda alg, k: pair(alg, k)[0]),
            LazySeries(series.tape, lambda alg, k: pair(alg, k)[1]),
        )
    _require_series(series)
    alg = series.algebra
    a = list(series.coeffs)
    s, c = series._buffer(), series._buffer()
    for k in range(len(a)):
        s[k], c[k] = _sin_cos_step(alg, a, s, c, k)
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
    return _lift(series, lambda alg, a, out, k: _power_step(alg, a, out, k, e))


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
