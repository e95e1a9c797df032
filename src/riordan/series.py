"""Truncated formal power series over exact rationals.

A :class:`Series` stores exactly ``order`` coefficients and every operation
is exact modulo ``x**order``.  Binary operations truncate to the smaller of
the two operand orders; nothing ever extends precision silently, so a zero
tail coefficient is always a computed zero, never padding.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import isqrt


class ZeroConstantTerm(ValueError):
    """Division by a series whose constant term is zero."""


class NonzeroLowOrder(ValueError):
    """compose(g, f) needs f(0) = 0."""


class NotReversible(ValueError):
    """revert(f) needs f(0) = 0 and a nonzero linear coefficient."""


class BadConstantTerm(ValueError):
    """sqrt(g) needs g(0) = 1."""


class InsufficientOrder(ValueError):
    """The stored truncation order is too small for the request."""


def _frac(c) -> Fraction:
    """Exact rational from an exact number; a float is refused, not rounded."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}: pass an int or a Fraction")
    return Fraction(c)


def _mul_lists(a, b, n):
    """First n coefficients of the Cauchy product of coefficient lists.

    The arithmetic is the operands' own: int lists give ints, and any
    Fraction operand makes the touched entries Fractions.
    """
    out = [0] * n
    for i, ai in enumerate(a):
        if i >= n:
            break
        if not ai:
            continue
        for j, bj in enumerate(b):
            k = i + j
            if k >= n:
                break
            if bj:
                out[k] += ai * bj
    return out


class Series:
    """Power series truncated to ``order`` exact rational coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [_frac(c) for c in coeffs]
        if order is None:
            order = len(coeffs)
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) < order:
            coeffs = coeffs + [Fraction(0)] * (order - len(coeffs))
        else:
            coeffs = coeffs[:order]
        self.coeffs = coeffs
        self.order = order

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coeffs)
        return f"Series([{body}]; order={self.order})"

    def __len__(self):
        return self.order

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    __hash__ = None

    def constant_term(self) -> Fraction:
        if self.order == 0:
            raise InsufficientOrder("series of order 0 has no stored coefficients")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def truncate(self, n: int) -> "Series":
        if n > self.order:
            raise InsufficientOrder(f"cannot extend order {self.order} to {n}")
        return Series(self.coeffs[:n], n)

    def _coerce(self, other):
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Fraction)):
            return Series([other], self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return Series([self.coeffs[k] + o.coeffs[k] for k in range(n)], n)

    __radd__ = __add__

    def __neg__(self):
        return Series([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return Series([self.coeffs[k] - o.coeffs[k] for k in range(n)], n)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series([c * other for c in self.coeffs], self.order)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series(_mul_lists(self.coeffs, other.coeffs, n), n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a series by zero")
            return Series([c / other for c in self.coeffs], self.order)
        if not isinstance(other, Series):
            return NotImplemented
        return div(self, other)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return div(Series([other], self.order), self)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("series powers must be nonnegative integers")
        out = Series([1], self.order)
        for _ in range(k):
            out = out * self
        return out


def poly(coeff_list, order: int) -> Series:
    """Series with the given coefficients, zero-padded or truncated to order."""
    return Series(coeff_list, order)


def mul(a: Series, b: Series) -> Series:
    """Cauchy product, truncated to the smaller operand order."""
    return a * b


def _integral(coeffs):
    """The coefficients as ints when every one is integral, else unchanged.

    Kernels fed int lists stay on int arithmetic; a Fraction anywhere keeps
    the exact Fraction path.
    """
    if all(c.denominator == 1 for c in coeffs):
        return [int(c) for c in coeffs]
    return coeffs


def _div_lists(a, b, n):
    """First n coefficients of a / b for coefficient lists of length >= n;
    needs b[0] != 0.

    Int lists with b[0] = +-1 give ints (1/b[0] = b[0]); anything else is
    exact over Fraction, seeded with Fraction(1) / b[0] so that an int b[0]
    never turns the quotient into a float.
    """
    b0 = b[0]
    inv = b0 if b0 in (1, -1) else Fraction(1) / b0
    q = []
    for k in range(n):
        s = a[k]
        for j in range(1, k + 1):
            bj = b[j]
            if bj:
                s -= bj * q[k - j]
        q.append(s * inv)
    return q


def div(a: Series, b: Series) -> Series:
    """Quotient q with q*b = a to the shared truncation; needs b(0) != 0."""
    if b.order == 0 or b.coeffs[0] == 0:
        raise ZeroConstantTerm("divisor has zero constant term")
    n = min(a.order, b.order)
    return Series(_div_lists(_integral(a.coeffs[:n]), _integral(b.coeffs[:n]), n), n)


def compose(g: Series, f: Series) -> Series:
    """g(f(x)) to the shared truncation, by Horner evaluation; needs f(0) = 0.

    Horner nests g_0 + f (g_1 + f (g_2 + ...)).  The partial sum built from
    g_k .. g_{n-1} is later multiplied by k factors of f, each starting at
    x^1, so only its first n - k coefficients can reach the result: step k
    works at length n - k.
    """
    if f.order == 0 or f.coeffs[0] != 0:
        raise NonzeroLowOrder("inner series must have zero constant term")
    n = min(g.order, f.order)
    if n == 0:
        return Series([], 0)
    gs, fs = _integral(g.coeffs[:n]), _integral(f.coeffs[:n])
    acc = [gs[n - 1]]
    for k in range(n - 2, -1, -1):
        acc = _mul_lists(acc, fs, n - k)
        acc[0] += gs[k]
    return Series(acc, n)


def revert(f: Series) -> Series:
    """Compositional inverse v with f(v) = v(f) = x to the truncation order.

    Lagrange inversion: with h = x / f (one division),
    v_m = [x^(m-1)] h^m / m.  The powers are split baby-step/giant-step,
    h^m = h^(s*i) * h^j with s = isqrt(n - 1) and j < s: about 2s series
    products to order n - 1, then one dot product per coefficient, so
    O(n^2.5) coefficient products in all.  With integral f and f_1 = +-1,
    h and its powers are integral, v is integral and each division by m is
    exact (checked); otherwise the work is exact over Fraction.
    """
    n = f.order
    if n < 2 or f.coeffs[0] != 0 or f.coeffs[1] == 0:
        raise NotReversible("need f(0) = 0 and a nonzero linear coefficient")
    one = [1] + [0] * (n - 2)
    h = _div_lists(one, _integral(f.coeffs[1:]), n - 1)
    s = isqrt(n - 1)
    baby = [one]
    for _ in range(s):
        baby.append(_mul_lists(baby[-1], h, n - 1))
    v = [0] * n
    giant = one
    for m in range(1, n):
        j = m % s
        if j == 0:
            giant = _mul_lists(giant, baby[s], n - 1)
        c = sum(map(operator.mul, giant[:m], reversed(baby[j][:m])))
        if isinstance(c, int):
            vm, rem = divmod(c, m)
            if rem:
                raise ArithmeticError(f"Lagrange coefficient {c} is not divisible by {m}")
            v[m] = vm
        else:
            v[m] = c / m
    return Series(v, n)


def sqrt(g: Series) -> Series:
    """Square root with constant term 1, by the coefficient recurrence."""
    n = g.order
    if n == 0 or g.coeffs[0] != 1:
        raise BadConstantTerm("sqrt needs constant term 1")
    s = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for m in range(1, n):
        acc = Fraction(0)
        for k in range(1, m):
            acc += s[k] * s[m - k]
        s[m] = (g.coeffs[m] - acc) / 2
    return Series(s, n)


def derivative(g: Series) -> Series:
    """Termwise derivative; the order drops by one."""
    if g.order == 0:
        return Series([], 0)
    return Series([k * g.coeffs[k] for k in range(1, g.order)], g.order - 1)


def rational(p, q, order: int) -> Series:
    """Expansion of the rational function p(x)/q(x); needs q(0) != 0."""
    return div(poly(p, order), poly(q, order))
