"""Constructors for the specific arrays under study, plus reference oracles.

Each family is built once from its defining forms: a rational pair from its
(numerator, denominator) coefficient lists by ``array.rational_pair``, every
other pair from one two-parameter family Q(a, s) (``quadratic_pair``,
inverted in closed form by ``quadratic_inverse``).  R_r and tilde-R_r are
its lines Q(r, 0) and Q(1, r), the Catalan pairs read x c(x) off the f of
Q(0, 0), and the A361654 pair reads both series off R_1 = Q(1, 0).  Q(a, s)
runs its own integer recurrences: 1/sqrt(D_s) by the three-term recurrence
of its differential equation, g by a running sum and f by a three-term
combination, O(1) products a coefficient and no square root or series
division, so each pair builds in O(n) products at order n.

Every constructor takes an explicit truncation order.  The matrix route to
an N x N block (``array.matrix``, ``symmetry.symmetrize``, the minors) needs
order N, and so does the generating function route ``symmetry.symmetrize_gf``.
The command line front end sizes orders as max(N, 2), since a Riordan pair
needs order 2 or more.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from math import comb, factorial
from operator import index

from . import series
from .array import RiordanPair, rational_pair
from .bivar import ONE, X, Y, BivariateRational, CoeffMatrix, expand
from .series import Series


def catalan_shift(order: int) -> Series:
    """x times the Catalan generating function, (1 - sqrt(1 - 4x)) / 2: the f
    of Q(0, 0), built at order 2 or more so that order 0 and 1 work too;
    fixed point of reversion tests."""
    return quadratic_pair(0, 0, max(order, 2)).f.truncate(order)


def catalan_gf(order: int) -> Series:
    """Catalan number generating function c(x) = (1 - sqrt(1 - 4x)) / (2x),
    read off x c(x) one order up."""
    return Series(catalan_shift(order + 1).coeffs[1:], order)


def catalan_pair(order: int) -> RiordanPair:
    """The Catalan matrix pair (c(x), x c(x)), read off x c(x) one order up."""
    if order < 2:
        raise ValueError("a Riordan pair needs order >= 2")
    xc = catalan_shift(order + 1)
    return RiordanPair(Series(xc.coeffs[1:], order), xc)


def pascal_pair(order: int) -> RiordanPair:
    """Pascal's triangle as the pair (1/(1-x), x/(1-x))."""
    return rational_pair(([1], [1, -1]), ([0, 1], [1, -1]), order)


def quadratic_pair(a: int, s: int, order: int) -> RiordanPair:
    """Q(a, s) = (1/((1-ax) sqrt(D_s)), (1 - sx - sqrt(D_s))/2), with
    D_s = 1 - 2(s+2)x + s^2 x^2, so that f - f^2 = x(1 + sf).
    R_r = Q(r, 0) and tilde-R_r = Q(1, r).

    Built on int by three recurrences, with no square root and no division
    by a series.  h = 1/sqrt(D_s) satisfies 2 D_s h' = -D_s' h, whose
    x^(m-1) coefficient reads

        m h_m = (s+2)(2m-1) h_(m-1) - s^2 (m-1) h_(m-2),  h_0 = 1, h_1 = s+2.

    The division by m is exact: h_m = sum over k of
    C(m, 2k) C(2k, k) (s+2)^(m-2k) (s+1)^k.  Then g = h/(1-ax) is the
    running sum g_m = a g_(m-1) + h_m, and since sqrt(D_s) = D_s h,
    f = (1 - sx - D_s h)/2: f_1 = 1 and, for m >= 2,
    f_m = -(h_m - 2(s+2) h_(m-1) + s^2 h_(m-2))/2, an exact halving as f
    is integral.  Each coefficient costs O(1) products.  h starts with two
    terms, so g and f are cut to ``order`` and ``RiordanPair`` refuses the
    pair below order 2."""
    a, s = index(a), index(s)
    b, c = s + 2, s * s
    h = [1, b]
    for m in range(2, order):
        h.append(((2 * m - 1) * b * h[m - 1] - (m - 1) * c * h[m - 2]) // m)
    g = list(accumulate(h, lambda t, v: a * t + v))
    f = [0, 1] + [(2 * b * u - c * w - v) // 2 for w, u, v in zip(h, h[1:], h[2:])]
    return RiordanPair(series._series(g[:order], 1), series._series(f[:order], 1))


def quadratic_inverse(a: int, s: int, order: int) -> RiordanPair:
    """The inverse of Q(a, s) from its rational forms: fbar = x(1-x)/(1+sx),
    and sqrt(D_s)(fbar) = 1 - s fbar - 2x, so 1/g(fbar) =
    (1 - a fbar)(1 - s fbar - 2x) =
    (1 + (s-a)x + ax^2)(1 - 2x - sx^2)/(1+sx)^2, written out here."""
    g_num = [1, s - a - 2, 3 * (a - s), a * s - 2 * a - s * s, -a * s]
    return rational_pair((g_num, [1, 2 * s, s * s]), ([0, 1, -1], [1, s]), order)


def make_R(r: int, order: int) -> RiordanPair:
    """The family (1/((1-rx) sqrt(1-4x)), x c(x)): Q(r, 0)."""
    return quadratic_pair(r, 0, order)


def make_R_inverse_closed(r: int, order: int) -> RiordanPair:
    """The inverse ((1-2x)(1-rx+rx^2), x(1-x)) of make_R(r) = Q(r, 0)."""
    return quadratic_inverse(r, 0, order)


def make_tilde_R(r: int, order: int) -> RiordanPair:
    """The companion family (1/((1-x) sqrt(D_r)), (1 - rx - sqrt(D_r))/2): Q(1, r)."""
    return quadratic_pair(1, r, order)


def tilde_inverse_closed(r: int, order: int) -> RiordanPair:
    """The inverse of make_tilde_R(r) = Q(1, r)."""
    return quadratic_inverse(1, r, order)


def make_example1(order: int) -> RiordanPair:
    """The first worked array: (1/(1+x+x^2), x/(1+x))."""
    return rational_pair(([1], [1, 1, 1]), ([0, 1], [1, 1]), order)


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
    array embeds into (OEIS A361654): ((g_R1 + 1/(1-x))/2, f_R1) with
    R_1 = Q(1, 0).

    The inverse is (1/h(u), u) with h = (1-3x+3x^2-2x^3)/(1-x) and
    u = x c(x), the f of R_1.  Since 1-3u+3u^2-2u^3 = (1-x)(1-2u), with
    1-2u = sqrt(1-4x) and 2(1-u) = 1 + (1-2u),
    g = (1-u)/((1-x)(1-2u)) = (1 + 1/sqrt(1-4x))/(2(1-x)), and
    g_R1 = 1/((1-x) sqrt(1-4x)).  Each halving (v + 1) // 2 is exact: a
    coefficient of g_R1 is 1 plus a sum of even central binomials, so odd."""
    r1 = quadratic_pair(1, 0, order)
    g = [(v + 1) // 2 for v in r1.g.nums]
    return RiordanPair(series._series(g, 1), r1.f)


def robbins(n: int) -> int:
    """Robbins number: product over k < n of (3k+1)! / (n+k)!."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    num = den = 1
    for k in range(n):
        num *= factorial(3 * k + 1)
        den *= factorial(n + k)
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"Robbins product for n={n} is not integral")
    return value


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


def _alternating_rows(n: int) -> list:
    """Every row of an n x n alternating sign matrix as a pair of column bit
    masks (plus, minus): its nonzero entries alternate +1, -1, ..., +1 from
    the left, so the row is determined by the odd-sized set of its nonzero
    positions."""
    rows = []
    for mask in range(1, 1 << n):
        bits = [1 << p for p in range(n) if mask >> p & 1]
        if len(bits) % 2:
            rows.append((sum(bits[0::2]), sum(bits[1::2])))
    return rows


def asm_count_bruteforce(n: int) -> int:
    """Exhaustive count of n x n alternating sign matrices, n <= 5.

    Rows are drawn from the alternating-row catalog; columns are pruned via
    partial sums, which must stay in {0, 1} and end at 1.  The partial sums
    are the bit mask ``ones`` of the columns at 1: a row (plus, minus) fits
    when it adds 1 only to columns at 0 and takes 1 only from columns at 1.
    The count of completions depends only on (depth, ones), so it is
    memoized for the duration of the call.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 5:
        raise ValueError("brute force enumeration is capped at n = 5")
    rows = _alternating_rows(n)
    full = (1 << n) - 1

    @cache
    def walk(depth: int, ones: int) -> int:
        if depth == n:
            return 1 if ones == full else 0
        total = 0
        for plus, minus in rows:
            if plus & ones == 0 and minus & ~ones == 0:
                total += walk(depth + 1, (ones | plus) & ~minus)
        return total

    return walk(0, 0)
