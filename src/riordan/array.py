"""The Riordan group: pairs (g, f), their matrices, and the group operations.

A Riordan pair is (g, f) with g(0) != 0, f(0) = 0 and f'(0) != 0, realized
as the lower triangular matrix whose (n, k) entry is the x^n coefficient of
g * f^k.  The group product is (g, f) . (u, v) = (g * u(f), v(f)), inverse
(1/g(fbar), fbar) with fbar the compositional inverse of f.
"""

from __future__ import annotations

from itertools import accumulate, islice

from . import series
from .bivar import BivarPoly, BivariateRational, CoeffMatrix, from_univariate
from .series import InsufficientOrder, Series


class RiordanPair:
    """Element (g, f) of the Riordan group, stored as truncated series.

    ``g_rational`` / ``f_rational`` optionally record closed rational forms
    as (numerator, denominator) coefficient lists; they are only used to
    produce exact bivariate generating functions and are checked against the
    stored series on construction.

    ``f_inverse = (p, q)`` optionally declares the compositional inverse of
    f as the rational function fbar = p/q, i.e. the relation p(f) = x q(f).
    It costs nothing here: :func:`matrix` checks it to the order it builds
    (``ValueError`` if it is false) and, for an integral f and a relation
    quadratic in f with leading coefficient +-1, fills the triangle's
    columns from it (see there).  Results of :func:`product` and
    :func:`inverse` carry no declaration.
    """

    __slots__ = ("g", "f", "order", "g_rational", "f_rational", "f_inverse")

    def __init__(self, g: Series, f: Series, g_rational=None, f_rational=None, f_inverse=None):
        order = min(g.order, f.order)
        if order < 2:
            raise InsufficientOrder("a Riordan pair needs order >= 2")
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
        for rat, s in ((g_rational, g), (f_rational, f)):
            if rat is not None:
                p, q = rat
                if series.rational(p, q, order) != s:
                    raise ValueError("declared rational form disagrees with the series")
        self.g_rational = g_rational
        self.f_rational = f_rational
        self.f_inverse = f_inverse

    def __repr__(self):
        return f"RiordanPair(g={self.g!r}, f={self.f!r})"

    def __eq__(self, other):
        if not isinstance(other, RiordanPair):
            return NotImplemented
        return self.g == other.g and self.f == other.f

    __hash__ = None

    def is_unipotent(self) -> bool:
        return self.g.coeffs[0] == 1 and self.f.coeffs[1] == 1


def identity_pair(order: int) -> RiordanPair:
    """The group identity (1, x)."""
    return RiordanPair(
        series.poly([1], order),
        series.poly([0, 1], order),
        g_rational=([1], [1]),
        f_rational=([0, 1], [1]),
    )


def require_unipotent(a: RiordanPair) -> None:
    """Guard used before minor-invariance arguments: g0 = 1 and f1 = 1."""
    if not a.is_unipotent():
        raise ValueError("pair is not unipotent (needs g(0) = 1 and f'(0) = 1)")


def matrix(a: RiordanPair, N: int) -> CoeffMatrix:
    """N x N truncation of the matrix with entries [x^n] g * f^k.

    Needs order N.  Column k is C_k = g * f^k; it starts at x^k (f(0) = 0),
    so only its rows n >= k are written.  There are two routes.

    * Relation route, for a pair that declares ``f_inverse = (p, q)`` with
      integral f, p = p0 + p1 x + p2 x^2, p2 = +-1 and q = q0 + q1 x.  The
      relation p(f) = x q(f), times g f^k, gives
      p2 C_(k+2) = (q1 x - p1) C_(k+1) + q0 x C_k, so after C_0 = g and
      C_1 = g * f each entry is a few int steps from the entries to its
      left and above: O(N^2) in all.  R_r, the Catalan triangle and
      A361654 have fbar = x(1-x), the tilde family x(1-x)/(1+rx).
    * Product route, for every other pair: one series product per column,
      O(N^3).  With g = G / dg and f = F / df over the integers, column k is
      G * F^k / (dg * df^k), written as G * F^k * df^(N-1-k) over the one
      denominator dg * df^(N-1).

    A declared ``f_inverse`` of any degree is first checked to order N with
    one series product (two for a cubic relation, and so on); a false one
    raises ``ValueError``.
    """
    if N > a.order:
        raise InsufficientOrder(f"order {a.order} cannot fill an {N}x{N} matrix")
    f, df = series._trim(a.f.nums), a.f.den
    rows = [[0] * N for _ in range(N)]
    if a.f_inverse is not None:
        if not _relation_holds(f, df, *a.f_inverse, N):
            raise ValueError("declared f_inverse is not the compositional inverse of f")
        steps = _relation_steps(df, *a.f_inverse)
        if steps is not None:
            _fill_from_relation(rows, a.g.nums, series._mul_lists(a.g.nums, f, N), *steps)
            return CoeffMatrix._of(rows, a.g.den)
    col = a.g.nums[:N]
    for k in range(N):
        scale = df ** (N - 1 - k)
        for n in range(k, N):
            rows[n][k] = col[n] * scale
        if k + 1 < N:
            col = series._mul_lists(col, f, N)
    return CoeffMatrix._of(rows, a.g.den * df ** max(N - 1, 0))


def _relation_holds(f, df, p, q, n) -> bool:
    """Whether sum_i (p_i - x q_i) (f/df)^i = 0 mod x^n, by Horner over int
    after scaling by df^d, d the degree of the relation."""
    if n == 0:
        return True
    d = max(len(p), len(q)) - 1
    acc = [0] * n
    for i in range(d, -1, -1):
        if i < d:
            acc = series._mul_lists(acc, f, n)
        scale = df ** (d - i)
        if i < len(p):
            acc[0] += p[i] * scale
        if i < len(q) and n > 1:
            acc[1] -= q[i] * scale
    return not any(acc)


def _relation_steps(df, p, q):
    """(alpha, b1, b0) with C_(k+2) = alpha C_(k+1) + x (b1 C_(k+1) + b0 C_k),
    when a relation that holds allows the relation route; else None.  The
    constant term p0 is 0 once the relation holds, since f(0) = 0."""
    if df != 1 or len(p) != 3 or len(q) > 2 or p[2] not in (1, -1):
        return None
    if not series._all_int(p, q):
        return None
    q0, q1 = (*q, 0, 0)[:2]
    return -p[2] * p[1], p[2] * q1, p[2] * q0


def _fill_from_relation(rows, g, c1, alpha, b1, b0):
    """Write C_0 = g and C_1 = c1 into rows, then every later entry from
    rows[n][k] = alpha rows[n][k-1] + b1 rows[n-1][k-1] + b0 rows[n-1][k-2]:
    the terms from row n-1 in one pass, the chain along row n by accumulate."""
    step = None if alpha == 1 else (lambda s, t: alpha * s + t)
    prev = None
    for n, row in enumerate(rows):
        row[0] = g[n]
        if n:
            row[1] = c1[n]
        if n > 1:
            if b1:
                above = [b1 * u + b0 * v for u, v in zip(prev[1:n], prev[: n - 1])]
            else:
                above = [b0 * v for v in prev[: n - 1]]
            row[2 : n + 1] = islice(accumulate(above, step, initial=row[1]), 1, None)
        prev = row


def product(a: RiordanPair, b: RiordanPair) -> RiordanPair:
    """Group product (g, f) . (u, v) = (g * u(f), v(f))."""
    return RiordanPair(a.g * series.compose(b.g, a.f), series.compose(b.f, a.f))


def inverse(a: RiordanPair) -> RiordanPair:
    """Group inverse (1/g(fbar), fbar)."""
    fbar = series.revert(a.f)
    return RiordanPair(1 / series.compose(a.g, fbar), fbar)


def apply(a: RiordanPair, h: Series) -> Series:
    """Action of the pair on a series: g * h(f).

    Equals the matrix of the pair times the coefficient column of h.
    """
    return a.g * series.compose(h, a.f)


def bivariate_gf(a: RiordanPair) -> BivariateRational:
    """Bivariate generating function g(x) / (1 - y f(x)).

    Requires rational forms for g and f; the expansion of the result equals
    the matrix of the pair.
    """
    if a.g_rational is None or a.f_rational is None:
        raise ValueError("bivariate_gf needs a pair with rational g and f")
    pg, qg = a.g_rational
    pf, qf = a.f_rational
    num = from_univariate(pg) * from_univariate(qf)
    den = from_univariate(qg) * (
        from_univariate(qf) - BivarPoly({(0, 1): 1}) * from_univariate(pf)
    )
    return BivariateRational(num, den)


def conjugate(M: CoeffMatrix, a: RiordanPair) -> CoeffMatrix:
    """A * M * A^T where A is the N x N matrix of the pair."""
    A = matrix(a, M.n)
    return A * M * A.transpose()


def gf_right_transform(m: BivariateRational, a: RiordanPair) -> BivariateRational:
    """Right-multiply the matrix of m by the transpose of the pair's matrix.

    On generating functions, for a = (p, q): m(x, y) goes to p(y) * m(x, q(y)).
    Requires rational forms for p and q.  Substituting y -> q(y) into P/Q is
    done by clearing q's denominator to the larger of the two y-degrees.
    """
    if a.g_rational is None or a.f_rational is None:
        raise ValueError("gf_right_transform needs a pair with rational g and f")
    pp, qp = (from_univariate(c, "y") for c in a.g_rational)
    pq, qq = (from_univariate(c, "y") for c in a.f_rational)
    d = max(m.num.dy, m.den.dy)

    def substitute(poly: BivarPoly) -> BivarPoly:
        # rows of poly by y-degree: sum_j P_j(x) y^j -> sum_j P_j(x) pq^j qq^(d-j)
        out = BivarPoly()
        by_deg: dict[int, BivarPoly] = {}
        for (i, j), c in poly.coeffs.items():
            by_deg.setdefault(j, BivarPoly())
            by_deg[j] = by_deg[j] + BivarPoly({(i, 0): c})
        pq_pow = {0: BivarPoly({(0, 0): 1})}
        qq_pow = {0: BivarPoly({(0, 0): 1})}
        for t in range(1, d + 1):
            pq_pow[t] = pq_pow[t - 1] * pq
            qq_pow[t] = qq_pow[t - 1] * qq
        for j, pj in by_deg.items():
            out = out + pj * pq_pow[j] * qq_pow[d - j]
        return out

    return BivariateRational(pp * substitute(m.num), qp * substitute(m.den))
