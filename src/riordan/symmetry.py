"""Square symmetrization of Riordan arrays.

Two routes produce the same symmetric matrix:

* the generating function route, B(xy, 1/y) + B(xy, 1/x) - g(xy) by one
  ``bivar.expand`` of the rational gf g(xy) / (1 - f(xy)/y) plus its
  transpose (no Laurent series is ever formed: because f(0) = 0,
  f(xy)/y is a polynomial with nonnegative powers);
* the matrix route, mirroring each reversed row of the triangle across the
  diagonal.

The matrix route is the production path; the gf route is the definitional
oracle the tests hold it against.  Both return a plain ``CoeffMatrix``,
symmetric by construction: the matrix route writes s[n][k] and s[k][n] from
one triangle entry, the gf route adds an expansion to its own transpose.
"""

from __future__ import annotations

from math import comb

from .array import RiordanPair, matrix
from .bivar import ONE, BivarPoly, BivariateRational, CoeffMatrix, expand
from .series import InsufficientOrder


class NotLowerTriangular(ValueError):
    """symmetrize_matrix needs a lower triangular input."""


def symmetrize_gf(a: RiordanPair, N: int) -> CoeffMatrix:
    """N x N matrix of B(xy, 1/y) + B(xy, 1/x) - g(xy), where B = g/(1 - yf).

    B(xy, 1/y) = g(xy) / (1 - u) with u = f(xy)/y = sum f_k x^k y^(k-1), a
    polynomial once f is truncated, so it is one expansion of a rational
    gf.  The mirror term B(xy, 1/x) is its transpose, and g(xy) sits on
    the diagonal.
    """
    if a.order < N:
        raise InsufficientOrder(f"symmetrization to {N}x{N} needs order >= {N}, have {a.order}")
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


def symmetrize_matrix(T: CoeffMatrix) -> CoeffMatrix:
    """Mirror the reversed rows of a lower triangular matrix across the diagonal.

    s[n][k] = T[n][n-k] for k <= n, and T[k][k-n] above the diagonal.
    """
    if not T.is_lower_triangular():
        raise NotLowerTriangular("matrix route needs a lower triangular input")
    N, t = T.n, T.ints
    rows = [[t[n][n - k] if k <= n else t[k][k - n] for k in range(N)] for n in range(N)]
    return CoeffMatrix._of(rows, T.den)


def symmetrize(a: RiordanPair, N: int) -> CoeffMatrix:
    """Production route: symmetrize the N x N matrix of the pair."""
    return symmetrize_matrix(matrix(a, N))


def closed_form_rows(r: int, N: int) -> list:
    """N x N rows of the r-parameter array, T[n][k] = sum_j r^(n-k-j) C(k+2j, j).

    The sum is evaluated column by column by Horner's rule in r:
    T[n][k] = r T[n-1][k] + C(2n-k, n-k), from T[k-1][k] = 0.
    """
    rows = [[0] * N for _ in range(N)]
    for k in range(N):
        t = 0
        for n in range(k, N):
            t = r * t + comb(2 * n - k, n - k)
            rows[n][k] = t
    return rows


def closed_form_tilde_rows(r: int, N: int) -> list:
    """N x N rows of the companion array tilde-R_r, by Lagrange inversion.

    fbar = x(1 - x)/(1 + rx), so f = x phi(f) with phi(t) = (1 + rt)/(1 - t);
    1 - x phi'(f) = sqrt(1 - 2(r+2)x + r^2 x^2)/(1 - f) and 1 - x = (1 + (r-1)f + f^2)/(1 + rf)
    give g f^k = H(f)/(1 - x phi'(f)), H(t) = t^k phi(t)/(1 + (r-1)t + t^2), whence by
    Lagrange T[n][k] = [t^(n-k)] (1 + rt)^(n+1) / ((1 - t)^(n+1) (1 + (r-1)t + t^2)).
    """
    # e = 1/(1 + (r-1)t + t^2), expanded once
    e = [1, 1 - r]
    for _ in range(N - 2):
        e.append((1 - r) * e[-1] - e[-2])
    rows = [[0] * N for _ in range(N)]
    for n in range(N):
        # [t^j] (1 + rt)^(n+1)/(1 - t)^(n+1) = sum_i C(n+1, i) r^i C(n+j-i, n)
        a = [
            sum(comb(n + 1, i) * r**i * comb(n + j - i, n) for i in range(j + 1))
            for j in range(n + 1)
        ]
        for k in range(n + 1):
            rows[n][k] = sum(a[j] * e[n - k - j] for j in range(n - k + 1))
    return rows


def closed_form_sym_rows(N: int) -> list:
    """N x N rows of the symmetrized r=1 array, by the bracketed binomial sum:
    the entry at (n, k), k <= n, is sum_{j <= k} C(n-k+2j, j), and the matrix
    is symmetric.  Down the diagonal n - k = d the entries are the running
    sums of C(d+2j, j)."""
    rows = [[0] * N for _ in range(N)]
    for d in range(N):
        t = 0
        for k in range(N - d):
            t += comb(d + 2 * k, k)
            rows[d + k][k] = rows[k][d + k] = t
    return rows
