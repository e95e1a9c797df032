"""Square symmetrization of Riordan arrays.

Two routes produce the same symmetric matrix:

* the generating function route, B(xy, 1/y) + B(xy, 1/x) - g(xy) by one
  ``bivar.expand`` of the rational gf g(xy) / (1 - f(xy)/y) plus its
  transpose (no Laurent series is ever formed: because f(0) = 0,
  f(xy)/y is a polynomial with nonnegative powers);
* the matrix route, ``symmetrize``, mirroring each reversed row of the
  pair's triangle across the diagonal.

The matrix route is the production path; the gf route is the definitional
oracle the tests hold it against.  Both return a plain ``CoeffMatrix``,
symmetric by construction: the matrix route writes s[n][k] and s[k][n] from
one triangle entry, the gf route adds an expansion to its own transpose.

The closed forms of Q(a, s) (``families.quadratic_pair``) read one table,
Del_s(p, q) = sum_j C(p, j) C(q, j) (1 + s)^j, by Horner's rule in a: down
each column for the triangle, and down each diagonal for the symmetrization,
whose entry at (n, k) is sum over i <= min(n, k) of a^i Del_s(n - i, k - i),
a polynomial of total degree <= min(n, k) in (a, s).
"""

from __future__ import annotations

from operator import add, index, mul

from .array import RiordanPair, matrix
from .bivar import ONE, BivarPoly, BivariateRational, CoeffMatrix, expand


def symmetrize_gf(a: RiordanPair, N: int) -> CoeffMatrix:
    """N x N matrix of B(xy, 1/y) + B(xy, 1/x) - g(xy), where B = g/(1 - yf).

    B(xy, 1/y) = g(xy) / (1 - u) with u = f(xy)/y = sum f_k x^k y^(k-1), a
    polynomial once f is truncated, so it is one expansion of a rational
    gf.  The mirror term B(xy, 1/x) is its transpose, and g(xy) sits on
    the diagonal.
    """
    if a.order < N:
        raise ValueError(f"symmetrization to {N}x{N} needs order >= {N}, have {a.order}")
    f, g = a.f.coeffs, a.g
    u = BivarPoly({(k, k - 1): f[k] for k in range(1, N)})
    gxy = BivarPoly({(j, j): g.coeffs[j] for j in range(N)})
    half = expand(BivariateRational(gxy, ONE - u), N)
    h, d = half.ints, half.den
    rows = [
        [(h[n][k] + h[k][n]) * g.den - (g.nums[n] * d if n == k else 0) for k in range(N)]
        for n in range(N)
    ]
    return CoeffMatrix._of(rows, d * g.den)


def symmetrize(a: RiordanPair, N: int) -> CoeffMatrix:
    """Production route: the lower triangle L[n][k] = T[n][n-k] of the pair's
    N x N triangle T (row n reversed up to the diagonal, zero past it),
    mirrored across the diagonal."""
    T = matrix(a, N)
    lower = [row[n::-1] + row[n + 1 :] for n, row in enumerate(T.ints)]
    return CoeffMatrix._of(_mirror(lower), T.den)


def _mirror(lower: list) -> list:
    """Row n: the N x N ``lower``'s row n up to the diagonal, then its column n."""
    cols = list(zip(*lower))
    return [row[: n + 1] + list(cols[n][n + 1 :]) for n, row in enumerate(lower)]


def _delannoy(s: int, N: int) -> list:
    """Rows p < N of Del_s(p, q), q <= p: Pascal row p, scaled by the powers
    of 1 + s, dotted with Pascal row q.  Del_s(p, q) = Del_s(q, p)."""
    pascal = [[1]]
    for _ in range(1, N):
        last = pascal[-1]
        pascal.append([1, *map(add, last, last[1:]), 1])
    powers = [(s + 1) ** i for i in range(N)]
    scaled = [list(map(mul, row, powers)) for row in pascal[:N]]
    return [[sum(map(mul, row, q)) for q in pascal[: p + 1]] for p, row in enumerate(scaled)]


def closed_form_rows(a: int, s: int, N: int) -> list:
    """N x N rows of Q(a, s), by Lagrange inversion and Horner's rule in a.

    At a = 0, fbar = x(1 - x)/(1 + sx) gives f = x phi(f) with
    phi(t) = (1 + st)/(1 - t) and 1 - x phi'(f) = sqrt(D_s)/(1 - f), so
    g f^k = H(f)/(1 - x phi'(f)) with H(t) = t^k/(1 - t), whence
    T0[n][k] = [t^(n-k)] (1 + st)^n/(1 - t)^(n+1), which
    (1 + st)^n = ((1 - t) + (1 + s)t)^n turns into Del_s(n, n - k).  Then
    T[n][k] = a T[n-1][k] + T0[n][k] down each column, from T[k-1][k] = 0.
    At s = 0, R_a's case, T[n][k] = sum_j a^(n-k-j) C(k+2j, j)."""
    a, s = index(a), index(s)
    rows, above = [], [0] * N
    for n, dels in enumerate(_delannoy(s, N)):
        above = [a * u + d for u, d in zip(above, dels[::-1])] + [0] * (N - 1 - n)
        rows.append(above)
    return rows


def closed_form_sym_rows(a: int, s: int, N: int) -> list:
    """N x N rows of Sym(Q(a, s)), the gf 1/((1 - axy)(1 - x - y - sxy)), by Horner in a
    down each diagonal, S[n][k] = a S[n-1][k-1] + Del_s(n, k) for k <= n, then the mirror.
    Del_s(p, q) has degree min(p, q) in s: entry (n, k) has degree <= min(n, k) in (a, s)."""
    a, s = index(a), index(s)
    lower, up = [], []
    for n, dels in enumerate(_delannoy(s, N)):
        up = [a * u + d for u, d in zip([0, *up], dels)] + [0] * (N - 1 - n)
        lower.append(up)
    return _mirror(lower)
