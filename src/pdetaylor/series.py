"""Truncated power series in a single infinitesimal.

A :class:`TruncatedSeries` stores the coefficients ``[c0, c1, ..., cn]`` of

    c0 + c1*eps + c2*eps**2 + ... + cn*eps**n,

where ``eps`` is an infinitesimal whose powers above ``n`` are discarded.
Addition is componentwise and multiplication is the convolution truncated at
order ``n``, so the coefficient of ``eps**k`` in a product only ever involves
input coefficients of order ``<= k``.  Division inverts the convolution and
requires an invertible leading coefficient; dividing by a pure infinitesimal
is an error rather than a renormalisation, and dividing by the number zero
raises :class:`ZeroDivisionError`, whatever the coefficients.

Coefficients combine through their own ``+``, ``-``, ``*``, ``/`` and
``* float`` operators, so Python floats, NumPy batches and jets all work
unchanged, and mix with plain numbers: every series pads with ``0.0`` and
seeds with ``1.0``, whatever its coefficients, and a number combines with a
batch or a jet as the same number at every point.  A series also carries an
algebra, which binary operations compare by equality: :class:`RealAlgebra`
for floats, and the batch and spatial-jet algebras of :mod:`pdetaylor.jets`,
where a batch's also gives a jet its point count.  Two series of different
orders raise :class:`OrderMismatchError`, except flat jets, which combine at
the lower order: the check returns the number of coefficients two operands
combine at, and every binary operation reads that many.  A quotient divides each
series of rows over a batch of points as its flat jet, so it is a jet when
one is on either side, and two series of rows of different orders divide at
the lower order, where ``+``, ``-`` and ``*`` raise.  Because a jet is
itself a truncated series, series can nest: a series in the time
infinitesimal whose coefficients are jets in a space increment, whose
coefficients are batches of reals.

Analytic functions (exp, sin and cos, ln, constant powers) extend to series
through the usual Taylor-composition recurrences, and reciprocal and sech are
composed from them (Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
2008, ch. 13).  A lift is two parts: its value at a constant term that is a
number or an array, which NumPy evaluates elementwise after the domain
checks of ln and of powers, and its recurrence for every later coefficient.
One function runs every lift, eager or lazy, with one or two results (sin
and cos share a recurrence); a constant term that is itself a series is
lifted again by the same function and made flat, so a lift recurses through
nested series.  Division tests the innermost constant term for invertibility.

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
Each step sums the terms ``x_j * y_{k-j}`` of its coefficient in the order of
``j`` and leaves out every one with a ``ZERO`` factor before multiplying, since
``acc + ZERO`` is ``acc`` and ``ZERO + t`` is ``t``: it walks every ``j`` and
skips such a term with one identity test of each factor, so a lift of the
identity ``(x, 1.0, ZERO, ...)`` forms one product per order.  Where the terms
are arrays it forms them as one array, one term after another along its first
axis: the rows of flat jets with one broadcast multiply, and each run of
consecutive jet pairs in stacked kernel calls, through
:meth:`~pdetaylor.jets.Jet._fold_products`, the only method that folds a run.
It sums such an array with one ``np.subtract.reduce``, which numpy defines as
the loop ``r = r - t``, every added term negated first; any other term, such
as a jet times a number, is added alone with one ``+`` or ``-``.  Each term
and each sum is the same float operation in the same order as one term at a
time, so neither changes a bit, and nor does negating as ``* -1.0`` or
subtracting a number ``s`` as ``+ -s`` (IEEE 754 exact).
A :class:`TruncatedSeries` may hold ``ZERO`` too, and its operations skip those
terms the same way: the expansion driver hands a problem's initial condition
the identity with every coefficient past order 1 ``ZERO``, and its ``x`` node
reads the same identity, so a lift of it makes one product per order where
zero rows would make one per term.  Such a lift of a constant term that is a
series of rows over a batch is made a flat jet once, by
:func:`pdetaylor.jets.flat`, which the jets module builds on this one, and so
is each operand of a quotient over a batch, which divides dense rows.  A
skipped term would have added ``0.0 * f``, so an exact zero may keep the sign
``-0.0`` where zero rows give ``+0.0``, and a non-finite ``f`` reaches no
result; every other value is the same.  A constant term that is ``ZERO``
is evaluated as ``0.0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "InfinitesimalDivisorError",
    "LiftDomainError",
    "OrderMismatchError",
    "RealAlgebra",
    "TruncatedSeries",
    "cos",
    "exp",
    "log",
    "power",
    "reciprocal",
    "sech",
    "sin",
    "sin_cos",
]


class OrderMismatchError(ValueError):
    """Binary operation on series of different truncation orders."""


class InfinitesimalDivisorError(ZeroDivisionError):
    """Division by a series whose leading coefficient is not invertible."""


class LiftDomainError(ValueError):
    """Constant term lies outside the domain of the lifted function."""


@dataclass(frozen=True)
class RealAlgebra:
    """Float coefficients.

    An algebra only names a coefficient space: two algebras compare equal
    when they describe the same one, which is what series compatibility
    checks rely on.
    """


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


def _number_divisor(x):
    """:func:`_as_scalar` of a divisor; the number zero raises, for a series
    of any coefficients, instead of numpy's warning or Python's float error."""
    s = _as_scalar(x)
    if s == 0.0:
        raise ZeroDivisionError("a series was divided by the number zero")
    return s


class TruncatedSeries:
    """Coefficients of a power series in one infinitesimal, truncated at a fixed order.

    ``coeffs`` is a tuple of ``order + 1`` algebra elements or :data:`ZERO`,
    constant term first (:class:`~pdetaylor.jets.Jet` holds them as the rows
    of one array).  Instances are immutable; every operation returns a new
    series of the same kind and algebra, and of the same order (two jets: the
    lower of theirs).
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
        """Series ``value``: every coefficient past the constant term is ``0.0``."""
        return cls(algebra, (value,) + (0.0,) * order)

    @classmethod
    def variable(cls, algebra, value, order: int) -> "TruncatedSeries":
        """Series ``value + eps``: the seed for differentiating through ``value``."""
        if order < 1:
            raise ValueError("a variable seed needs order >= 1")
        return cls(algebra, (value, 1.0) + (0.0,) * (order - 1))

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

    def _check_compatible(self, other: "TruncatedSeries") -> int:
        """Check that ``other`` has this series' algebra and order, and return
        the number of coefficients the two combine at."""
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise TypeError(
                f"incompatible coefficient algebras: {self.algebra!r} vs {other.algebra!r}"
            )
        if self.order != other.order:
            raise OrderMismatchError(
                f"series orders differ: {self.order} vs {other.order}"
            )
        return len(self.coeffs)

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
            return self + -s
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
        return self * -1.0

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
        s = _number_divisor(other)
        if s is not None:
            # a jet's rows are one array, divided at once
            c = self.coeffs
            return self._new(c / s if isinstance(c, np.ndarray) else [a / s for a in c])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        # a series of rows over a batch divides as its flat jet, so a quotient
        # with one on either side is a jet, at the lower of the two orders
        num, den = _flat(self), _flat(other)
        n = num._check_compatible(den)
        a, b, q = num.coeffs, den.coeffs, num._buffer()[:n]
        for k in range(n):
            q[k] = _div_step(a[k], b, q, k)
        return num._new(q)

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
        return self._new(tuple(self.coeffs) + (0.0,) * (order - self.order))


# -- recurrence steps -------------------------------------------------------
#
# Each step computes coefficient k of a result from indexable sequences that
# hold orders 0..k of its input and 0..k-1 of the result.  TruncatedSeries runs
# a step for every k at once and LazySeries for one new k at a time; sharing
# the step keeps the two bit-identical.  Steps combine coefficients with their
# own operators, or with the same numpy operations on whole arrays of terms
# (_fold), so they run unchanged on floats, arrays and jets.  A lift's step
# starts at k = 1 and returns a tuple, one coefficient per result; _lift
# evaluates the constant term, where a series (a jet, in the expansion driver)
# is lifted again and a number or an array goes to numpy.


def _is_invertible(a) -> bool:
    """Whether every entry of the innermost constant term of ``a`` is nonzero.

    The test is a comparison, so an infinite entry counts as invertible.
    """
    while isinstance(a, TruncatedSeries):
        a = a.coeffs[0]
    return bool(np.all(_real(a) != 0.0))


def _flat(series):
    """A series as :func:`pdetaylor.jets.flat` makes it: one flat jet when its
    rows are over a batch of points, such as the expansion driver's ``x`` node
    or a lift of it, and as it is otherwise."""
    from .jets import flat  # jets builds on this module

    return flat(series)


def _log0(a):
    if np.any(a <= 0.0):
        raise LiftDomainError("log requires every constant-term entry positive")
    return (np.log(a),)


def _pow0(e: float, a):
    if not np.all(a != 0.0):
        raise LiftDomainError(
            "power with non-integer or negative exponent needs an invertible constant term"
        )
    if not e.is_integer() and np.any(a < 0.0):
        raise LiftDomainError("non-integer power of a negative entry")
    return (np.power(a, e),)


def _fold(acc, x, y, k, lo, hi, w=None, sub=False):
    """``acc + w(j) * x_j * y_{k-j}`` for ``lo <= j < hi``, added in order of
    ``j``, or subtracted with ``sub``; ``w`` maps an index, or an array of them,
    to its weight, and None weighs nothing.

    Terms with a ZERO factor are left out, by one identity test of each
    factor and without a product: such a term is ZERO, which a sum drops, so
    leaving it out changes no bit.  When ``x`` and ``y`` are the ``(P+1, N)``
    arrays of flat jets, all the terms are formed by one broadcast multiply and
    summed by :func:`_sum_terms`.  Otherwise each run of consecutive terms
    whose two factors are jets (of one type, with a ``_fold_products``) is
    folded by :meth:`~pdetaylor.jets.Jet._fold_products` in stacked kernel
    calls, one sum per stack, and every other term is added alone, as it
    comes, after the run before it.
    """
    if isinstance(x, np.ndarray) and isinstance(y, np.ndarray):
        if lo >= hi:
            return acc
        terms = x[lo:hi] * y[k - hi + 1 : k - lo + 1][::-1]
        return _sum_terms(acc, terms, None if w is None else w(np.arange(lo, hi)), sub)
    run = []  # consecutive jet pairs (w_j, x_j, y_{k-j}), folded as stacks
    for j in range(lo, hi):
        xj, yj = x[j], y[k - j]
        if xj is ZERO or yj is ZERO:
            continue
        wj = None if w is None else w(j)
        if hasattr(xj, "_fold_products") and type(yj) is type(xj):
            run.append((wj, xj, yj))
            continue
        if run:
            acc, run = run[0][1]._fold_products(acc, run, sub), []
        acc = _accumulate(acc, xj * yj, wj, sub)
    return run[0][1]._fold_products(acc, run, sub) if run else acc


def _accumulate(acc, t, w, sub):
    """``acc + w * t``, or ``acc - w * t`` with ``sub``, through the operands' own
    ``*``, ``+`` and ``-``, so ``ZERO + t`` is ``t``.  A weight of 1.0 is not
    multiplied, since that changes no bit."""
    if w is not None and w != 1.0:
        t = t * w
    return acc - t if sub else acc + t


def _sum_terms(acc, terms, w, sub):
    """``acc + w_0 t_0 + w_1 t_1 + ...``, added in that order, or with ``-`` for
    every ``+`` under ``sub``, over the terms ``t_i = terms[i]`` along the
    first axis of the array ``terms``, which is overwritten.

    A term is an array like ``acc``: a row of a flat jet, or a flat jet,
    order first, to which a number ``acc`` adds at order 0 only, as a jet
    plus a number does.  numpy defines ``np.subtract.reduce`` as the loop
    ``r = r - t_i`` along the axis, whatever the shape and memory layout, and
    ``r + u`` is ``r - u * -1.0`` bit for bit, so every added term after the
    first is negated (with its weight, in one multiply) and the sum is one
    reduction.  ``np.add.reduce`` would sum pairwise along a contiguous axis,
    as it is for the terms of a single point, which changes bits.
    """
    n = len(terms)
    first = terms[0]
    # ZERO, or a number that a jet adds at order 0: not summed elementwise
    constant = not isinstance(acc, np.ndarray)
    if w is not None or (sub and constant) or (n > 1 and not sub):
        c = np.ones(n) if w is None else np.array(w, dtype=np.float64)
        if not sub:
            c[1:] *= -1.0
        elif constant:
            c[0] *= -1.0
        terms *= c.reshape((n,) + (1,) * (terms.ndim - 1))
    if constant:
        if acc is not ZERO:
            first[0] += acc
    else:
        (np.subtract if sub else np.add)(acc, first, out=first)
    return first if n == 1 else np.subtract.reduce(terms, axis=0)


def _index(j):
    """The weight ``j`` of term ``j``, as a float."""
    return j * 1.0


def _mul_step(a, b, k):
    """Coefficient k of a product: a_0*b_k + a_1*b_{k-1} + ... + a_k*b_0."""
    return _fold(ZERO, a, b, k, 0, k + 1)


def _sq_step(a, k):
    """Coefficient k of a square: each cross term a_j*a_{k-j} with j < k-j
    formed once at weight 2.0, and for an even k the middle term a_{k/2}**2
    at weight 1.0, in one sum."""
    return _fold(ZERO, a, a, k, 0, k // 2 + 1, lambda j: 2.0 - (2 * j == k))


def _div_step(a_k, b, q, k):
    """Coefficient k of a quotient q = a / b: (a_k - sum_{j=1..k} b_j*q_{k-j}) / b_0."""
    if k == 0 and not _is_invertible(b[0]):
        raise InfinitesimalDivisorError(
            "division by a series with non-invertible leading coefficient"
        )
    return _fold(a_k, b, q, k, 1, k + 1, sub=True) / b[0]


def _weighted_sum(a, f, k):
    """sum_{j=1..k} j*a_j*f_{k-j}, shared by the exp, sin and cos recurrences."""
    return _fold(ZERO, a, f, k, 1, k + 1, _index)


def _exp_step(a, k, e):
    """k*E_k = sum_{j=1..k} j*A_j*E_{k-j}."""
    return (_weighted_sum(a, e, k) * (1.0 / k),)


def _sin_cos_step(a, k, s, c):
    """(S_k, C_k) with k*S_k = sum j*A_j*C_{k-j} and k*C_k = -sum j*A_j*S_{k-j}."""
    return _weighted_sum(a, c, k) * (1.0 / k), _weighted_sum(a, s, k) * (-1.0 / k)


def _log_step(a, k, out):
    """L_k = (A_k - (1/k) sum_{j<k} j*L_j*A_{k-j}) / A_0."""
    acc = _fold(ZERO, out, a, k, 1, k, _index)
    return ((a[k] - acc * (1.0 / k)) / a[0],)


def _power_step(e, a, k, out):
    """k*A_0*P_k = sum_{j=1..k} ((e+1)*j - k) * A_j * P_{k-j}."""
    acc = _fold(ZERO, a, out, k, 1, k + 1, lambda j: (e + 1.0) * j - k)
    return ((acc * (1.0 / k)) / a[0],)


# -- lazy series ---------------------------------------------------------------


class SeriesTape:
    """The mark of one graph of :class:`LazySeries`: nodes of different tapes
    do not combine, since each graph is asked for its coefficients in its
    own lockstep."""


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
    older ones: operands of series products and quotients, a quotient itself,
    the input of a lift and the lift's own nodes keep their whole history, in
    a list of the coefficients as they were computed.  A lift fills its nodes'
    lists itself, and a product that reads such a node reads the same list,
    so no coefficient is kept twice.  Nothing rewrites them, so kept jets
    keep their orders, and a step meets them with newer, shorter jets at the
    lower order.  A node has no order or coefficient tuple; only operators
    and lifts apply, and only between nodes of one :class:`SeriesTape`.

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
            # a lift's rule fills its nodes' histories itself
            if self._history is not None and len(self._history) == k:
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
            self._history = []
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
            return self + -s
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return LazySeries(self.tape, lambda k: self.coeff(k) - b.coeff(k))

    __neg__ = TruncatedSeries.__neg__

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
        s = _number_divisor(other)
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
# LazySeries and returns a new node of the same tape, and each is one call of
# _lift with its value at a constant term and its recurrence.


def _lift(series, f0, step, outputs=1):
    """The ``outputs`` results of a lift, as a list of series or nodes.

    Coefficient 0 of the results is the tuple ``f0(a_0)``, where ``f0`` takes
    a number or an array and checks its domain; a constant term that is
    itself a series (a jet, or the ``x`` node's series of rows) is lifted
    again by this function and made flat.  Coefficient ``k >= 1`` is the tuple
    ``step(a, k, *results)``, which reads the input and the results' earlier
    coefficients.  A lazy lift keeps its results in its nodes' histories, which
    its rule fills and a later product or quotient reads as they are.
    """

    def first(c):
        c = _real(c)
        if isinstance(c, TruncatedSeries):
            return [_flat(r) for r in _lift(c, f0, step, outputs)]
        return f0(c)

    if isinstance(series, LazySeries):
        a = series._kept()

        def rule(i, k):
            if k == len(outs[0]):
                c = series.coeff(k)
                for h, v in zip(outs, step(a, k, *outs) if k else first(c)):
                    h.append(v)
            return outs[i][k]

        nodes = [LazySeries(series.tape, partial(rule, i)) for i in range(outputs)]
        outs = [node._kept() for node in nodes]
        return nodes
    _require_series(series)
    a, outs = series.coeffs, [series._buffer() for _ in range(outputs)]
    for k in range(len(a)):
        for out, v in zip(outs, step(a, k, *outs) if k else first(a[0])):
            out[k] = v
    return [series._new(out) for out in outs]


def _one_like(series):
    """The constant series 1 of the same kind, algebra and order as ``series``."""
    if isinstance(series, LazySeries):
        return LazySeries(series.tape, lambda k: 1.0 if k == 0 else 0.0)
    _require_series(series)
    return type(series).constant(series.algebra, 1.0, series.order)


def exp(series):
    """Exponential: k*E_k = sum_{j=1..k} j*A_j*E_{k-j}, E_0 = exp(A_0)."""
    return _lift(series, lambda a: (np.exp(a),), _exp_step)[0]


def sin_cos(series):
    """Sine and cosine together; their recurrences are coupled."""
    return tuple(_lift(series, lambda a: (np.sin(a), np.cos(a)), _sin_cos_step, 2))


def sin(series):
    return sin_cos(series)[0]


def cos(series):
    return sin_cos(series)[1]


def log(series):
    """Natural logarithm: L_k = (A_k - (1/k) sum_{j<k} j*L_j*A_{k-j}) / A_0."""
    return _lift(series, _log0, _log_step)[0]


def power(series, exponent: float):
    """Raise a series to a constant real power.

    Non-negative integer exponents use square-and-multiply starting from the
    series itself, which needs no invertible constant term and multiplies by
    no constant one.  A square forms each cross term ``a_j * a_{k-j}`` once
    and doubles it (:func:`_sq_step`), about half the products of ``x * x``,
    which stays a plain product.  The higher power is the left factor, so
    ``power(v, 3)`` is ``square(v) * v``, the association and operand order
    of ``v * v * v``; only the square's summation order differs.  Anything
    else uses the recurrence
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
                result = base if result is None else base * result
            n >>= 1
            if not n:
                return result
            base = _square(base)
    return _lift(series, partial(_pow0, e), partial(_power_step, e))[0]


def _square(series):
    """``series * series`` through :func:`_sq_step`, as a node of the same tape
    or as a series of the same kind."""
    if isinstance(series, LazySeries):
        h = series._kept()

        def square(k):
            series.coeff(k)
            return _sq_step(h, k)

        return LazySeries(series.tape, square)
    a, out = series.coeffs, series._buffer()
    for k in range(len(a)):
        out[k] = _sq_step(a, k)
    return series._new(out)


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
