"""Truncated formal power series over exact rationals.

A :class:`Series` stores exactly ``order`` coefficients and every operation
is exact modulo ``x**order``.  Binary operations truncate to the smaller of
the two operand orders; nothing ever extends precision silently, so a zero
tail coefficient is always a computed zero, never padding.

A series is stored as integers over one denominator: ``nums`` (ints) and
``den > 0`` in lowest terms, ``gcd(den, *nums) == 1``, with coefficient k
equal to ``nums[k] / den``.  The public constructor scales its input once
(:func:`_scaled`); every kernel reads ``nums`` and ``den``, runs its inner
loops on ``int`` and returns through :func:`_series`, which divides out one
gcd and makes ``den`` positive.  :func:`sqrt` and :func:`revert` fix their
result's denominator before their loop, for integral and rational input
alike, so each has one path.  The read-only ``coeffs`` follows the package
rule for every stored value (:func:`_exact`): an ``int`` when it is
integral, a ``Fraction`` otherwise, and a float is refused.  It is derived
on first read, and is ``nums`` itself when ``den == 1``.

The kernels whose operand is often a polynomial read it without its
trailing zeros: the divisor of :func:`div`, the radicand of :func:`sqrt`
and the inner series of :func:`compose`.  A quotient or a square root at
order n then costs O(n deg) coefficient products, O(n) for a polynomial
of bounded degree.
"""

from __future__ import annotations

import operator
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, isqrt, lcm


def _exact(c):
    """An exact number in normal form: an int when integral, else a Fraction.
    A float is refused, not rounded."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}: pass an int or a Fraction")
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


@contextmanager
def unlimited_int_digits():
    """Convert ints to and from decimal text at any length inside the block.

    CPython 3.10.7 and later refuse ``str(int)`` and ``int(str)`` past 4300
    digits by default (``sys.set_int_max_str_digits``); the caller's limit is
    restored on exit.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    saved = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _scaled(c):
    """Integers over a common denominator: (ints, d) with c[i] == ints[i] / d,
    d the lcm of the denominators (in lowest terms for exact c)."""
    d = lcm(*[x.denominator for x in c])
    if d == 1:
        return [x.numerator for x in c], 1
    return [x.numerator * (d // x.denominator) for x in c], d


def _mul_lists(a, b, n):
    """First n coefficients of the Cauchy product of int coefficient lists."""
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


def _trim(nums):
    """nums without its trailing zeros."""
    end = len(nums)
    while end and not nums[end - 1]:
        end -= 1
    return nums[:end]


def _series(nums, den):
    """Kernel constructor: the series nums / den (den != 0) to order
    len(nums), reduced by one gcd and with den made positive."""
    if den != 1:
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [v // g for v in nums]
            den //= g
    s = Series.__new__(Series)
    s.nums, s.den, s.order, s._coeffs = nums, den, len(nums), None
    return s


class Series:
    """Power series truncated to ``order`` exact coefficients, stored as the
    ints ``nums`` over one positive denominator ``den`` in lowest terms.
    ``Series(coeffs, order)`` zero-pads or truncates ``coeffs`` to ``order``."""

    __slots__ = ("nums", "den", "order", "_coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [_exact(c) for c in coeffs]
        if order is None:
            order = len(coeffs)
        if order < 0:
            raise ValueError("order must be nonnegative")
        nums, self.den = _scaled(coeffs[:order])
        self.nums = nums + [0] * (order - len(nums))
        self.order = order
        self._coeffs = None

    @property
    def coeffs(self) -> list:
        """The coefficients under the :func:`_exact` rule, derived on first
        read; read-only (it is ``nums`` itself when ``den == 1``)."""
        if self._coeffs is None:
            d = self.den
            self._coeffs = self.nums if d == 1 else [_exact(Fraction(v, d)) for v in self.nums]
        return self._coeffs

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coeffs)
        return f"Series([{body}]; order={self.order})"

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self.den == other.den and self.nums == other.nums

    __hash__ = None

    def truncate(self, n: int) -> "Series":
        """The first n coefficients, reduced; the series itself when n is its
        order, as no kernel writes to ``nums``."""
        if n < 0:
            raise ValueError("order must be nonnegative")
        if n > self.order:
            raise ValueError(f"cannot extend order {self.order} to {n}")
        if n == self.order:
            return self
        return _series(self.nums[:n], self.den)

    def _coerce(self, other):
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Fraction)):
            return Series([other], self.order)
        return None

    def _plus(self, o, sign):
        d = lcm(self.den, o.den)
        sa, sb = d // self.den, sign * (d // o.den)
        nums = [x * sa + y * sb for x, y in zip(self.nums, o.nums)]
        return _series(nums, d)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _series([-v for v in self.nums], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _series([v * p for v in self.nums], self.den * other.denominator)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return _series(_mul_lists(self.nums, other.nums, n), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a series by zero")
            q = other.denominator
            return _series([v * q for v in self.nums], self.den * other.numerator)
        if not isinstance(other, Series):
            return NotImplemented
        return div(self, other)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return div(Series([other], self.order), self)
        return NotImplemented


def _div_lists(a, b, n):
    """(nums, den) with nums / den the first n coefficients of a / b, for int
    coefficient lists of length >= n; needs b[0] != 0.

    Fraction-free: Q_k = [x^k](a / b) * b_0^(k+1) is an integer, and

        Q_k = a_k b_0^k - sum over 0 < j <= min(k, deg b) of b_j b_0^(j-1) Q_(k-j),

    so nums[k] = Q_k * b_0^(n-1-k) over den = b_0^n (not reduced, and
    negative for b_0 < 0 and odd n).  b loses its trailing zeros (and its
    terms past x^(n-1)) first, so the quotient costs O(n deg b) products:
    O(n) for a polynomial divisor, O(n^2) for a dense one.
    """
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * b[0])
    bs = [0] + [bj * p for bj, p in zip(_trim(b[1:n]), powers)]  # b_j b_0^(j-1)
    deg = len(bs) - 1
    q = []
    for k in range(n):
        s = a[k] * powers[k]
        for j in range(1, min(k, deg) + 1):
            bj = bs[j]
            if bj:
                s -= bj * q[k - j]
        q.append(s)
    return [v * p for v, p in zip(q, reversed(powers[:n]))], powers[n]


def div(a: Series, b: Series) -> Series:
    """Quotient q with q*b = a to the shared truncation; needs b(0) != 0.

    With a = A / da and b = B / db, q = (A / B) * db / da."""
    if b.order == 0 or b.nums[0] == 0:
        raise ValueError("divisor has zero constant term")
    n = min(a.order, b.order)
    nums, d = _div_lists(a.nums, b.nums, n)
    return _series([v * b.den for v in nums], a.den * d)


def compose(g: Series, f: Series) -> Series:
    """g(f(x)) to the shared truncation, by Horner evaluation; needs f(0) = 0.

    Horner nests g_0 + f (g_1 + f (g_2 + ...)).  The partial sum built from
    g_k .. g_{n-1} is later multiplied by k factors of f, each starting at
    x^1, so only its first n - k coefficients can reach the result: step k
    works at length n - k.  With g = G / dg and f = F / df over the
    integers, the steps run on G and F, g_k enters as G_k * df^(n-1-k), and
    the sum is over dg * df^(n-1).  F loses its trailing zeros first, so a
    polynomial f costs O(deg f) a coefficient.
    """
    if f.order == 0 or f.nums[0] != 0:
        raise ValueError("inner series must have zero constant term")
    n = min(g.order, f.order)
    if n == 0:
        return _series([], 1)
    gs, fs, df = g.nums, _trim(f.nums), f.den
    acc = [gs[n - 1]]
    scale = 1
    for k in range(n - 2, -1, -1):
        acc = _mul_lists(acc, fs, n - k)
        scale *= df
        acc[0] += gs[k] * scale
    return _series(acc, g.den * scale)


def revert(f: Series) -> Series:
    """Compositional inverse v with f(v) = v(f) = x to the truncation order.

    Lagrange inversion: with h = x / f (one division),
    v_m = [x^(m-1)] h^m / m.  The powers are split baby-step/giant-step,
    h^m = h^(s*i) * h^j with s = isqrt(n - 1) and j < s: about 2s series
    products to order n - 1, then one dot product per coefficient, so
    O(n^2.5) coefficient products in all.  The powers are taken of the
    integers H = h * dh, dh the denominator of h, and
    v_m = [x^(m-1)] H^m / (m * dh^m), all over den = lcm(1..n-1) * dh^(n-1),
    which m * dh^m divides for every m < n.
    """
    n = f.order
    if n < 2 or f.nums[0] != 0 or f.nums[1] == 0:
        raise ValueError("revert needs f(0) = 0 and a nonzero linear coefficient")
    one = [1] + [0] * (n - 2)
    q, d = _div_lists(one, f.nums[1:], n - 1)
    h = _series([v * f.den for v in q], d)
    hs, dh = h.nums, h.den
    den = lcm(*range(1, n)) * dh ** (n - 1)
    s = isqrt(n - 1)
    baby = [one]
    for _ in range(s):
        baby.append(_mul_lists(baby[-1], hs, n - 1))
    v = [0] * n
    giant = one
    for m in range(1, n):
        j = m % s
        if j == 0:
            giant = _mul_lists(giant, baby[s], n - 1)
        c = sum(map(operator.mul, giant[:m], reversed(baby[j][:m])))
        v[m] = c * (den // (m * dh**m))
    return _series(v, den)


def sqrt(g: Series) -> Series:
    """Square root with constant term 1, by a recurrence of length deg g.

    s^2 = g gives 2 g s' = g' s, and with g_0 = 1 its x^(m-1) coefficient
    reads 2m s_m = sum over 0 < j <= m of (3j - 2m) g_j s_(m-j).  g loses
    its trailing zeros first, so each coefficient costs O(deg g) products:
    O(n) for a polynomial radicand, O(n^2) for a dense one.  The recurrence
    runs on int for t(x) = s(c x), the root of g(c x), with c = 4d for
    g = G / d: g(c x) = 1 + 4u with u integral, and the root of 1 + 4u has
    integer coefficients (2 (-1)^(k-1) C_(k-1) at u^k, C the Catalan
    numbers), so each division by 2m is exact.
    """
    n = g.order
    if n == 0 or g.nums[0] != g.den:
        raise ValueError("sqrt needs constant term 1")
    gs, d = _trim(g.nums), g.den
    c = 4 * d
    h = [gj * c**j // d for j, gj in enumerate(gs)]  # g(c x), integral
    t = [1] + [0] * (n - 1)
    for m in range(1, n):
        acc = 0
        for j in range(1, min(m, len(h) - 1) + 1):
            acc += (3 * j - 2 * m) * h[j] * t[m - j]
        t[m], rem = divmod(acc, 2 * m)
        if rem:
            raise ArithmeticError(f"root coefficient {acc} is not divisible by {2 * m}")
    return _series([tm * c ** (n - 1 - m) for m, tm in enumerate(t)], c ** (n - 1))

