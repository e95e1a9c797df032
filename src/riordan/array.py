"""The Riordan group: pairs (g, f), their matrices, and the group operations.

A Riordan pair is (g, f) with g(0) != 0, f(0) = 0 and f'(0) != 0, realized
as the lower triangular matrix whose (n, k) entry is the x^n coefficient of
g * f^k.  The group product is (g, f) . (u, v) = (g * u(f), v(f)), inverse
(1/g(fbar), fbar) with fbar the compositional inverse of f.
"""

from __future__ import annotations

from . import series
from .bivar import BivarPoly, BivariateRational, CoeffMatrix, from_univariate
from .series import InsufficientOrder, Series


class RiordanPair:
    """Element (g, f) of the Riordan group, stored as truncated series.

    ``g_rational`` / ``f_rational`` optionally record closed rational forms
    as (numerator, denominator) coefficient lists; they are only used to
    produce exact bivariate generating functions and are checked against the
    stored series on construction.
    """

    __slots__ = ("g", "f", "order", "g_rational", "f_rational")

    def __init__(self, g: Series, f: Series, g_rational=None, f_rational=None):
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

    Needs order N.  The columns are built over int: with g = G / dg and
    f = F / df over the integers, column k is G * F^k / (dg * df^k), written
    as G * F^k * df^(N-1-k) over the one denominator dg * df^(N-1).
    Column k starts at x^k (f(0) = 0), so only its rows n >= k are written.
    """
    if N > a.order:
        raise InsufficientOrder(f"order {a.order} cannot fill an {N}x{N} matrix")
    f, df = series._trim(a.f.nums), a.f.den
    rows = [[0] * N for _ in range(N)]
    col = a.g.nums[:N]
    for k in range(N):
        scale = df ** (N - 1 - k)
        for n in range(k, N):
            rows[n][k] = col[n] * scale
        if k + 1 < N:
            col = series._mul_lists(col, f, N)
    return CoeffMatrix._of(rows, a.g.den * df ** max(N - 1, 0))


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


def row_sums(a: RiordanPair, N: int) -> Series:
    """Row sums of the matrix, via the generating function g / (1 - f)."""
    if N > a.order:
        raise InsufficientOrder(f"order {a.order} < requested length {N}")
    return series.div(a.g, 1 - a.f).truncate(N)


def diagonal_sums(a: RiordanPair, N: int) -> Series:
    """Anti-diagonal sums, via the generating function g / (1 - x*f)."""
    if N > a.order:
        raise InsufficientOrder(f"order {a.order} < requested length {N}")
    x = series.poly([0, 1], a.order)
    return series.div(a.g, 1 - x * a.f).truncate(N)


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
