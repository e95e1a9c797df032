"""Bivariate polynomials, rational generating functions, and their expansions.

The rational functions that appear in this package all have tiny polynomial
numerators and denominators, so :class:`BivarPoly` is a sparse table keyed by
``(x_degree, y_degree)``.  :func:`expand` turns a ratio of two such
polynomials into the dense matrix of its power series coefficients via the
linear recurrence obtained from ``Q * S = P``.  Polynomial coefficients
follow the package rule (``series._exact``): an int when integral, else a
Fraction, never a float.  A :class:`CoeffMatrix` is stored as int rows over
one positive denominator in lowest terms, like a ``Series``; its read-only
``rows`` follow the same rule.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul

from .series import _all_int, _exact, _scaled


class ZeroConstant(ValueError):
    """Denominator vanishes at the origin, so no power series expansion exists."""


class DimensionError(ValueError):
    """Matrix shapes do not match the request."""


class BivarPoly:
    """Sparse bivariate polynomial with exact coefficients, each an int when
    integral and a Fraction otherwise."""

    __slots__ = ("coeffs", "dx", "dy")

    def __init__(self, table=None):
        coeffs = {}
        if table:
            for (i, j), c in table.items():
                c = _exact(c)
                if c:
                    coeffs[(i, j)] = c
        self.coeffs = coeffs
        self.dx = max((i for i, _ in coeffs), default=0)
        self.dy = max((j for _, j in coeffs), default=0)

    def __repr__(self):
        if not self.coeffs:
            return "BivarPoly(0)"
        terms = []
        for (i, j) in sorted(self.coeffs):
            c = self.coeffs[(i, j)]
            mono = "".join(
                p
                for p in (
                    f"x^{i}" if i > 1 else ("x" if i == 1 else ""),
                    f"y^{j}" if j > 1 else ("y" if j == 1 else ""),
                )
                if p
            )
            terms.append(f"{c}{'*' if mono else ''}{mono}")
        return "BivarPoly(" + " + ".join(terms) + ")"

    def coefficient(self, i: int, j: int) -> int | Fraction:
        return self.coeffs.get((i, j), 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _coerce(self, other):
        if isinstance(other, BivarPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BivarPoly({(0, 0): other})
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    __hash__ = None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = dict(self.coeffs)
        for k, c in o.coeffs.items():
            t[k] = t.get(k, 0) + c
        return BivarPoly(t)

    __radd__ = __add__

    def __neg__(self):
        return BivarPoly({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in o.coeffs.items():
                k = (i1 + i2, j1 + j2)
                t[k] = t.get(k, 0) + c1 * c2
        return BivarPoly(t)

    __rmul__ = __mul__


ONE = BivarPoly({(0, 0): 1})
X = BivarPoly({(1, 0): 1})
Y = BivarPoly({(0, 1): 1})


def from_univariate(coeff_list, var: str = "x") -> BivarPoly:
    """Embed a univariate coefficient list as a polynomial in x or in y."""
    if var == "x":
        return BivarPoly({(i, 0): c for i, c in enumerate(coeff_list)})
    if var == "y":
        return BivarPoly({(0, j): c for j, c in enumerate(coeff_list)})
    raise ValueError("var must be 'x' or 'y'")


class CoeffMatrix:
    """Dense square matrix of exact numbers, stored as the int rows ``ints``
    over one positive denominator ``den`` in lowest terms.  The read-only
    ``rows`` holds each entry as an int when integral and a Fraction
    otherwise (it is ``ints`` itself when ``den == 1``, so an integer
    triangle goes to the minor sweep as is)."""

    __slots__ = ("ints", "den", "_rows")

    def __init__(self, rows):
        rows = [[_exact(c) for c in row] for row in rows]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionError("matrix must be square and fully populated")
        flat, den = _scaled([c for row in rows for c in row])
        self._set([flat[i * n : (i + 1) * n] for i in range(n)], den)

    @classmethod
    def _of(cls, ints, den):
        """Kernel constructor: the matrix ints / den."""
        M = cls.__new__(cls)
        M._set(ints, den)
        return M

    def _set(self, ints, den):
        """Store ints / den (den > 0), reduced by one gcd."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(ints))
            if g != 1:
                ints = [[v // g for v in row] for row in ints]
                den //= g
        self.ints, self.den, self._rows = ints, den, None

    @property
    def rows(self) -> list:
        """The entries under the ``_exact`` rule, derived on first read;
        read-only (it is ``ints`` itself when ``den == 1``)."""
        if self._rows is None:
            d = self.den
            self._rows = (
                self.ints if d == 1 else [[_exact(Fraction(v, d)) for v in row] for row in self.ints]
            )
        return self._rows

    @classmethod
    def identity(cls, n: int) -> "CoeffMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.ints)

    def __repr__(self):
        return f"CoeffMatrix({self.n}x{self.n})"

    def __getitem__(self, i: int):
        return self.rows[i]

    def __eq__(self, other):
        if not isinstance(other, CoeffMatrix):
            return NotImplemented
        return self.den == other.den and self.ints == other.ints

    __hash__ = None

    def __mul__(self, other):
        """Matrix product, over int: (A / da) (B / db) = A B / (da db)."""
        if not isinstance(other, CoeffMatrix):
            return NotImplemented
        if self.n != other.n:
            raise DimensionError("size mismatch in matrix product")
        cols = list(zip(*other.ints))
        out = [[sum(map(mul, row, col)) for col in cols] for row in self.ints]
        return CoeffMatrix._of(out, self.den * other.den)

    def transpose(self) -> "CoeffMatrix":
        return CoeffMatrix._of([list(col) for col in zip(*self.ints)], self.den)

    def leading(self, m: int) -> "CoeffMatrix":
        if not 0 <= m <= self.n:
            raise DimensionError(f"leading {m}x{m} block of a {self.n}x{self.n} matrix")
        return CoeffMatrix._of([row[:m] for row in self.ints[:m]], self.den)

    def is_symmetric(self) -> bool:
        a = self.ints
        return all(a[i][j] == a[j][i] for i in range(self.n) for j in range(i))

    def is_lower_triangular(self) -> bool:
        a = self.ints
        return all(a[i][j] == 0 for i in range(self.n) for j in range(i + 1, self.n))


class BivariateRational:
    """Ratio P/Q of bivariate polynomials with Q(0,0) != 0."""

    __slots__ = ("num", "den")

    def __init__(self, num: BivarPoly, den: BivarPoly):
        if den.coefficient(0, 0) == 0:
            raise ZeroConstant("denominator vanishes at the origin")
        self.num = num
        self.den = den

    def __repr__(self):
        return f"BivariateRational({self.num!r} / {self.den!r})"

    def __add__(self, other):
        if not isinstance(other, BivariateRational):
            return NotImplemented
        return BivariateRational(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        if not isinstance(other, BivariateRational):
            return NotImplemented
        return BivariateRational(
            self.num * other.den - other.num * self.den, self.den * other.den
        )


def expand(r: BivariateRational, N: int) -> CoeffMatrix:
    """N x N coefficient matrix of the power series expansion of r.

    Uses the recurrence from Q*S = P: with q = Q(0,0),

        s[n][k] = (p[n][k] - sum over (i,j) != (0,0) of q[i][j]*s[n-i][k-j]) / q

    Row-major order visits every needed earlier entry first.  With an
    integral numerator and denominator and q = +-1 the recurrence runs on
    int (1/q = q); otherwise it multiplies by the Fraction 1/q.
    """
    q0 = r.den.coefficient(0, 0)
    if q0 == 0:
        raise ZeroConstant("denominator vanishes at the origin")
    num, den = r.num.coeffs, r.den.coeffs
    inv = q0 if q0 in (1, -1) and _all_int(num.values(), den.values()) else Fraction(1, q0)
    qterms = [(i, j, c) for (i, j), c in den.items() if (i, j) != (0, 0)]
    s = [[0] * N for _ in range(N)]
    for n in range(N):
        for k in range(N):
            acc = num.get((n, k), 0)
            for i, j, c in qterms:
                if i <= n and j <= k:
                    acc -= c * s[n - i][k - j]
            s[n][k] = acc * inv
    return CoeffMatrix._of(s, 1) if type(inv) is int else CoeffMatrix(s)


def gf_identity_check(lhs: BivariateRational, rhs: BivariateRational) -> bool:
    """Decide whether two rational generating functions are equal.

    P1/Q1 = P2/Q2 exactly when P1 * Q2 = P2 * Q1, so cross-multiplying the
    numerators decides the identity for the whole infinite expansion.
    """
    return lhs.num * rhs.den == rhs.num * lhs.den
