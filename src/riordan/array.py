"""The Riordan group: pairs (g, f), their matrices, and the group operations.

A Riordan pair is (g, f) with g(0) != 0, f(0) = 0 and f'(0) != 0, realized
as the lower triangular matrix whose (n, k) entry is the x^n coefficient of
g * f^k.  The group product is (g, f) . (u, v) = (g * u(f), v(f)), inverse
(1/g(fbar), fbar) with fbar the compositional inverse of f.

``matrix`` and ``inverse`` each take one of two routes, read from f.  On the
relation route, an integral f with f - f^2 = x(1 + s f) mod x^n, the map
phi(y) = (y - y^2)/(1 + s y) has phi(f) = x, so fbar = x(1 - x)/(1 + s x)
in closed form.  One generator yields the triangle's rows, each built from
the row before by running sums with no series product: ``matrix`` pads each
row to N, and ``inverse`` reads 1/g(fbar), column 0 of the inverse
triangle, by one forward substitution that takes each row as it comes, so
only two rows are alive at once and the route needs O(n) memory.  Every
other pair takes the product route: series products for the triangle,
reversion and composition for the inverse.

The gf functions ``gf_right_transform``, ``gf_conjugate`` and
``bivariate_gf`` act on rational bivariate gfs, so they take a pair as its
forms g_form and f_form, the (numerator, denominator) coefficient lists of
g and f, not as truncated series.
"""

from __future__ import annotations

import operator
from itertools import accumulate, repeat

from . import series
from .bivar import ONE, X, Y, BivarPoly, BivariateRational, CoeffMatrix, from_univariate
from .series import Series


class RiordanPair:
    """Element (g, f) of the Riordan group, stored as truncated series."""

    __slots__ = ("g", "f", "order")

    def __init__(self, g: Series, f: Series):
        order = min(g.order, f.order)
        if order < 2:
            raise ValueError("a Riordan pair needs order >= 2")
        g = g.truncate(order)
        f = f.truncate(order)
        if g.nums[0] == 0:
            raise ValueError("g must have a nonzero constant term")
        if f.nums[0] != 0:
            raise ValueError("f must have zero constant term")
        if f.nums[1] == 0:
            raise ValueError("f must have a nonzero linear coefficient")
        self.g = g
        self.f = f
        self.order = order

    def __repr__(self):
        return f"RiordanPair(g={self.g!r}, f={self.f!r})"

    def __eq__(self, other):
        if not isinstance(other, RiordanPair):
            return NotImplemented
        return self.g == other.g and self.f == other.f

    __hash__ = None


def rational_pair(g_form, f_form, order: int) -> RiordanPair:
    """The pair (p/q, u/v) from its forms g_form = (p, q) and f_form = (u, v),
    each a (numerator, denominator) pair of coefficient lists, expanded to
    order as one quotient per form, Series(p, order) / Series(q, order)."""
    if order < 2:
        raise ValueError("a Riordan pair needs order >= 2")
    (p, q), (u, v) = g_form, f_form
    return RiordanPair(Series(p, order) / Series(q, order), Series(u, order) / Series(v, order))


def identity_pair(order: int) -> RiordanPair:
    """The group identity (1, x)."""
    return rational_pair(([1], [1]), ([0, 1], [1]), order)


def matrix(a: RiordanPair, N: int) -> CoeffMatrix:
    """N x N truncation of the matrix with entries [x^n] g * f^k.

    Needs order N.  Column k is C_k = g * f^k; it starts at x^k (f(0) = 0),
    so only its rows n >= k are written.  The route is read from f.

    * Relation route, for an integral f with f - f^2 = x(1 + s f) mod x^N,
      i.e. fbar = x(1-x)/(1+sx): R_r, the Catalan triangle and A361654 have
      s = 0, the tilde family s = r.  Its x and x^2 terms give f_1 = 1 and
      s = f_2 - 1; the higher terms are checked in turn, stopping at the
      first that fails.  Times g f^(k-1) the relation gives
      C_k - C_(k+1) = x (C_(k-1) + s C_k), i.e. for k >= 1
      T[n][k] = T[n-1][k-1] + s T[n-1][k] + T[n][k+1].  T[n][n+1] = 0 above
      the diagonal, so row n is g_n followed by running sums, right to
      left, of terms from row n-1: ``_relation_rows`` yields each row up to
      the diagonal and it is padded to N, O(N^2) int steps and no series
      product.  Only the first N coefficients are read, so at small N a
      pair such as (g, x - x^2) may take this route; the entries are the
      same on either route.
    * Product route, for every other pair: one series product per column,
      O(N^3).  With g = G / dg and f = F / df over the integers, column k is
      G * F^k / (dg * df^k), written as G * F^k * df^(N-1-k) over the one
      denominator dg * df^(N-1).
    """
    if N > a.order:
        raise ValueError(f"order {a.order} cannot fill an {N}x{N} matrix")
    s = _relation_s(a.f, N)
    if s is not None:
        rows = [row + [0] * (N - len(row)) for row in _relation_rows(a.g.nums, s, N)]
        return CoeffMatrix._of(rows, a.g.den)
    rows = [[0] * N for _ in range(N)]
    f, df = series._trim(a.f.nums), a.f.den
    col = a.g.nums[:N]
    for k in range(N):
        scale = df ** (N - 1 - k)
        for n in range(k, N):
            rows[n][k] = col[n] * scale
        if k + 1 < N:
            col = series._mul_lists(col, f, N)
    return CoeffMatrix._of(rows, a.g.den * df ** max(N - 1, 0))


def _relation_s(f: Series, n: int) -> int | None:
    """s = f_2 - 1 when f is integral, n > 2 and f - f^2 = x (1 + s f)
    mod x^n (the x and x^2 terms hold by f_1 = 1 and the choice of s), else
    None; O(n), stopping at the first coefficient that fails.

    With y = 1 - sx - 2f and D = 1 - 2(s+2)x + s^2 x^2, E = y^2 - D is
    -4(f - f^2 - x - sxf), and 2D y' - D' y = E' y - 2E y'.  As y_0 = 1, the
    lowest term c x^m of E gives m c x^(m-1) on the right, so the relation
    holds mod x^n exactly when 2D y' = D' y mod x^(n-1).  At x^(i-1) that
    reads i f_i = (s+2)(2i-3) f_(i-1) - s^2 (i-3) f_(i-2) for i >= 3."""
    if f.den != 1 or n <= 2 or f.nums[1] != 1:
        return None
    f = f.nums
    s = f[2] - 1
    a, b = s + 2, s * s
    for i in range(3, n):
        if i * f[i] != a * (2 * i - 3) * f[i - 1] - b * (i - 3) * f[i - 2]:
            return None
    return s


def _relation_rows(g, s, n):
    """Rows 0..n-1 of the relation-route triangle, row m as its m + 1 entries
    up to the diagonal, each built from the row before alone.

    Row m is g[m] followed by T[m][k] = T[m-1][k-1] + s T[m-1][k] + T[m][k+1]
    for k = m..1, from T[m][m+1] = 0: row m-1 reversed gives the T[m-1][k-1]
    terms right to left, the same list shifted by one the T[m-1][k] terms
    (T[m-1][m] = 0), and accumulate the running sum along row m."""
    row = [g[0]]
    yield row
    for m in range(1, n):
        above = row[::-1]
        if s:
            above = [u + s * v for u, v in zip(above, [0, *above])]
        row = list(accumulate(above))
        row.append(g[m])
        row.reverse()
        yield row


def product(a: RiordanPair, b: RiordanPair) -> RiordanPair:
    """Group product (g, f) . (u, v) = (g * u(f), v(f))."""
    return RiordanPair(a.g * series.compose(b.g, a.f), series.compose(b.f, a.f))


def inverse(a: RiordanPair) -> RiordanPair:
    """Group inverse (1/g(fbar), fbar), to the pair's order n.

    * Relation route, when ``matrix`` at order n would take it: f is
      integral with f - f^2 = x(1 + s f) mod x^n, s = f_2 - 1.  Then
      phi(y) = (y - y^2)/(1 + s y) has phi(f) = x mod x^n, so
      fbar = x(1 - x)/(1 + s x) = x - (s + 1) * sum over m >= 2 of
      (-s)^(m-2) x^m, written out term by term (n > 2 on this route).  The
      inverse matrix is the matrix of the inverse pair, so 1/g(fbar) is
      column 0 of T^(-1), T the n x n triangle (from the relation, all int
      over the denominator of g).  T has the constant diagonal d = g_0
      (f_1 = 1), and T y = e_0 is solved fraction-free with y_j = z_j / p:
      y_0 = 1/d, and row m > 0 gives t_m = -(sum over j < m of T[m][j] z_j)
      and y_m = t_m / (d p), so when d != 1 every z is scaled by d and p by
      d before z_m = t_m.  Row m is taken from ``_relation_rows`` as it is
      built from row m - 1, and no n x n table is held: two rows and z are
      alive at once, O(n) memory beside the entries' bits, and O(n^2) int
      steps.
    * Product route, for every other pair: fbar by ``series.revert`` and
      g(fbar) by ``series.compose``.
    """
    n = a.order
    s = _relation_s(a.f, n)
    if s is None:
        fbar = series.revert(a.f)
        return RiordanPair(1 / series.compose(a.g, fbar), fbar)
    rows = _relation_rows(a.g.nums, s, n)
    d = next(rows)[0]
    p, z = d, [1]
    for row in rows:
        t = -sum(map(operator.mul, row, z))
        if d != 1:
            z = [v * d for v in z]
            p *= d
        z.append(t)
    tail = accumulate(repeat(-s, n - 3), operator.mul, initial=-s - 1)
    fbar = series._series([0, 1, *tail], 1)
    return RiordanPair(series._series([a.g.den * v for v in z], p), fbar)


def bivariate_gf(g_form, f_form) -> BivariateRational:
    """Bivariate generating function g(x) / (1 - y f(x)) of the matrix of the
    pair with forms g_form and f_form, each a (numerator, denominator) pair
    of coefficient lists.

    The right transform of 1/(1 - xy), the identity matrix, is the gf of the
    transposed matrix.
    """
    return gf_right_transform(BivariateRational(ONE, ONE - X * Y), g_form, f_form).transpose()


def conjugate(M: CoeffMatrix, a: RiordanPair) -> CoeffMatrix:
    """A * M * A^T where A is the N x N matrix of the pair."""
    A = matrix(a, M.n)
    return A * M * A.transpose()


def gf_conjugate(m: BivariateRational, g_form, f_form) -> BivariateRational:
    """The gf g(x) g(y) m(f(x), f(y)) of A M A^T, A the matrix of the pair
    with forms g_form and f_form: (M A^T)^T = A M^T, so a second right
    transform and a transpose give it."""
    once = gf_right_transform(m, g_form, f_form).transpose()
    return gf_right_transform(once, g_form, f_form).transpose()


def gf_right_transform(m: BivariateRational, g_form, f_form) -> BivariateRational:
    """Right-multiply the matrix of m by the transpose of the matrix of the
    pair with forms g_form = (pp, qp) and f_form = (pq, qq), each a
    (numerator, denominator) pair of coefficient lists.

    On generating functions, for the pair (p, q): m(x, y) goes to
    p(y) * m(x, q(y)).  Substituting y -> q(y) into P/Q is done by clearing
    q's denominator to the largest y-degree d of P and Q: each monomial
    c x^i y^j goes to c x^i pq^j qq^(d-j).
    """
    pp, qp = map(from_univariate, g_form)
    pq, qq = map(from_univariate, f_form)
    d = max((j for poly in (m.num, m.den) for _, j in poly.coeffs), default=0)
    pq_pow, qq_pow = [ONE], [ONE]
    for _ in range(d):
        pq_pow.append(pq_pow[-1] * pq)
        qq_pow.append(qq_pow[-1] * qq)
    # y^j -> pq^j qq^(d-j)
    y_pow = [p * q for p, q in zip(pq_pow, reversed(qq_pow))]

    def substitute(poly: BivarPoly) -> BivarPoly:
        out = {}
        for (i, j), c in poly.coeffs.items():
            for (_, k), v in y_pow[j].coeffs.items():
                out[i, k] = out.get((i, k), 0) + c * v
        return BivarPoly(out)

    return BivariateRational(pp * substitute(m.num), qp * substitute(m.den))
