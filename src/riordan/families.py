"""Constructors for the specific arrays under study, plus reference oracles.

Every constructor takes an explicit truncation order.  The matrix route to
an N x N block (``array.matrix``, ``symmetry.symmetrize``, the minors) needs
order N, and so does the generating function route ``symmetry.symmetrize_gf``.
The command line front end sizes orders as max(N, 2), since a Riordan pair
needs order 2 or more.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial

from . import series
from .array import RiordanPair, inverse
from .bivar import ONE, X, Y, BivariateRational, CoeffMatrix, expand
from .minors import principal_minors
from .series import Series
from .symmetry import symmetrize


class TooLarge(ValueError):
    """Brute force enumeration guard."""


def catalan_gf(order: int) -> Series:
    """Catalan number generating function (1 - sqrt(1 - 4x)) / (2x)."""
    s = series.sqrt(series.poly([1, -4], order + 1))
    return Series([Fraction(-c, 2) for c in s.coeffs[1:]], order)


def catalan_shift(order: int) -> Series:
    """x times the Catalan generating function; fixed point of reversion tests."""
    c = catalan_gf(order)
    return Series([0] + c.coeffs[: order - 1], order)


def catalan_pair(order: int) -> RiordanPair:
    """The Catalan matrix pair (c(x), x c(x))."""
    return RiordanPair(catalan_gf(order), catalan_shift(order))


def pascal_pair(order: int) -> RiordanPair:
    """Pascal's triangle as the pair (1/(1-x), x/(1-x))."""
    return RiordanPair(
        series.rational([1], [1, -1], order),
        series.rational([0, 1], [1, -1], order),
        g_rational=([1], [1, -1]),
        f_rational=([0, 1], [1, -1]),
    )


def make_R(r: int, order: int) -> RiordanPair:
    """The one-parameter family (1/((1-rx) sqrt(1-4x)), x c(x))."""
    root = series.sqrt(series.poly([1, -4], order))
    g = 1 / (series.poly([1, -r], order) * root)
    return RiordanPair(g, catalan_shift(order))


def make_R_inverse_closed(r: int, order: int) -> RiordanPair:
    """Closed form of the inverse of make_R(r): ((1-2x)(1-rx+rx^2), x(1-x))."""
    g = series.poly([1, -2], order) * series.poly([1, -r, r], order)
    return RiordanPair(
        g,
        series.poly([0, 1, -1], order),
        g_rational=([1, -r - 2, 3 * r, -2 * r], [1]),
        f_rational=([0, 1, -1], [1]),
    )


def make_tilde_R(r: int, order: int) -> RiordanPair:
    """The companion family with g = 1/((1-x) sqrt(1-2(r+2)x+r^2 x^2))
    and f = (1 - rx - sqrt(1-2(r+2)x+r^2 x^2)) / 2."""
    root = series.sqrt(series.poly([1, -2 * (r + 2), r * r], order))
    g = 1 / (series.poly([1, -1], order) * root)
    f = (series.poly([1, -r], order) - root) / 2
    return RiordanPair(g, f)


def tilde_inverse_closed(r: int, order: int) -> RiordanPair:
    """Inverse of make_tilde_R in closed form:
    ((1-x+rx+x^2) * d/dx(x(1-x)/(1+rx)), x(1-x)/(1+rx))."""
    inner = series.rational([0, 1, -1], [1, r], order + 1)
    g = series.poly([1, r - 1, 1], order) * series.derivative(inner)
    f = series.rational([0, 1, -1], [1, r], order)
    return RiordanPair(g, f)


def make_example1(order: int) -> RiordanPair:
    """The first worked array: (1/(1+x+x^2), x/(1+x))."""
    return RiordanPair(
        series.rational([1], [1, 1, 1], order),
        series.rational([0, 1], [1, 1], order),
        g_rational=([1], [1, 1, 1]),
        f_rational=([0, 1], [1, 1]),
    )


def classical_asm_gf() -> BivariateRational:
    """Generating function 1/(1-x-y) - y/(1-xy) of the classical
    alternating sign matrix determinant."""
    return BivariateRational(ONE, ONE - X - Y) - BivariateRational(Y, ONE - X * Y)


def classical_asm_matrix(N: int) -> CoeffMatrix:
    """Entries binom(n+k, k) - [n == k+1].

    Note the generating function above expands to the transpose of this
    matrix (the delta sits on the other side of the diagonal); the principal
    minors agree either way.
    """
    return CoeffMatrix(
        [[comb(n + k, k) - (1 if n == k + 1 else 0) for k in range(N)] for n in range(N)]
    )


def twenty_vertex_gf() -> BivariateRational:
    """Generating function 2y/((1-y)(1-x-y-xy)) + 1/(1-xy)."""
    lhs = BivariateRational(2 * Y, (ONE - Y) * (ONE - X - Y - X * Y))
    return lhs + BivariateRational(ONE, ONE - X * Y)


def twenty_vertex_matrix(N: int) -> CoeffMatrix:
    """Expansion of the twenty-vertex generating function."""
    return expand(twenty_vertex_gf(), N)


def make_A361654_embed(order: int) -> RiordanPair:
    """Inverse of (((1-x)^3 - x^3)/(1-x), x(1-x)), the triangle the r=1
    array embeds into (OEIS A361654)."""
    g = series.rational([1, -3, 3, -2], [1, -1], order)
    pre = RiordanPair(g, series.poly([0, 1, -1], order))
    return inverse(pre)


def robbins(n: int) -> int:
    """Robbins number: product over k < n of (3k+1)! / (n+k)!."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    value = Fraction(1)
    for k in range(n):
        value *= Fraction(factorial(3 * k + 1), factorial(n + k))
    if value.denominator != 1:
        raise ArithmeticError(f"Robbins product for n={n} is not integral")
    return int(value)


def reference_B20() -> list[int]:
    """The nine published twenty-vertex numbers (no closed form is used)."""
    return [
        1,
        3,
        23,
        433,
        19705,
        2151843,
        561696335,
        349667866305,
        518369549769169,
    ]


def _alternating_rows(n: int):
    # a row with entries in {-1,0,1}, nonzeros alternating and summing to 1,
    # is determined by the odd-sized set of its nonzero positions
    rows = []
    for mask in range(1, 1 << n):
        positions = [i for i in range(n) if mask >> i & 1]
        if len(positions) % 2 == 0:
            continue
        row = [0] * n
        sign = 1
        for p in positions:
            row[p] = sign
            sign = -sign
        rows.append(tuple(row))
    return rows


def asm_count_bruteforce(n: int) -> int:
    """Exhaustive count of n x n alternating sign matrices, n <= 5.

    Rows are drawn from the alternating-row catalog; columns are pruned via
    partial sums, which must stay in {0, 1} and end at 1.  The count of
    completions depends only on (depth, partial column sums), so it is
    memoized for the duration of the call.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 5:
        raise TooLarge("brute force enumeration is capped at n = 5")
    rows = _alternating_rows(n)

    @cache
    def walk(depth: int, colsums: tuple) -> int:
        if depth == n:
            return 1 if all(s == 1 for s in colsums) else 0
        total = 0
        for row in rows:
            nxt = tuple(s + e for s, e in zip(colsums, row))
            if all(0 <= s <= 1 for s in nxt):
                total += walk(depth + 1, nxt)
        return total

    return walk(0, (0,) * n)


def minor_polynomial_table() -> list[list[int]]:
    """Six-by-six table: row r holds the first six symmetrization minors of
    make_R(r), for r = 0..5."""
    table = []
    for r in range(6):
        table.append(list(principal_minors(symmetrize(make_R(r, 6), 6), 6)))
    return table
