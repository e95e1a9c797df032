"""Square symmetrization of Riordan arrays.

Two routes produce the same symmetric matrix:

* the generating function route, expanding B(xy, 1/y) + B(xy, 1/x) - g(xy)
  structurally (no Laurent series is ever formed: because the array is lower
  triangular, f(xy)/y only carries nonnegative powers into the result);
* the matrix route, mirroring each reversed row of the triangle across the
  diagonal.

The matrix route is the production path; the gf route is the definitional
oracle the tests hold it against.  Both return a plain ``CoeffMatrix``,
symmetric by construction: the matrix route writes s[n][k] and s[k][n] from
one triangle entry, the gf route adds a table to its own transpose.
"""

from __future__ import annotations

from math import comb

from .array import RiordanPair, matrix
from .bivar import CoeffMatrix
from .series import InsufficientOrder


class NotLowerTriangular(ValueError):
    """symmetrize_matrix needs a lower triangular input."""


def _mul_trunc(a: dict, b: dict, N: int) -> dict:
    """Product of sparse bivariate tables, truncated to degrees < N in x and y."""
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i < N and j < N:
                key = (i, j)
                out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def symmetrize_gf(a: RiordanPair, N: int) -> CoeffMatrix:
    """N x N matrix of B(xy, 1/y) + B(xy, 1/x) - g(xy), where B = g/(1 - yf).

    B(xy, 1/y) = g(xy) / (1 - f(xy)/y), and f(xy)/y = sum f_k x^k y^(k-1)
    has positive x-degree in every monomial, so the geometric sum terminates
    within the truncation.  The mirror term is the x <-> y swap.
    """
    if a.order < N:
        raise InsufficientOrder(f"symmetrization to {N}x{N} needs order >= {N}, have {a.order}")
    f, g = a.f, a.g
    u = {(k, k - 1): f.coeffs[k] for k in range(1, N) if f.coeffs[k]}
    acc = {(0, 0): 1}
    term = {(0, 0): 1}
    for _ in range(1, N):
        term = _mul_trunc(term, u, N)
        if not term:
            break
        for k, c in term.items():
            acc[k] = acc.get(k, 0) + c
    gxy = {(j, j): g.coeffs[j] for j in range(N) if g.coeffs[j]}
    half = _mul_trunc(gxy, acc, N)
    rows = [[0] * N for _ in range(N)]
    for n in range(N):
        for k in range(N):
            s = half.get((n, k), 0) + half.get((k, n), 0)
            if n == k:
                s -= g.coeffs[n]
            rows[n][k] = s
    return CoeffMatrix(rows)


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
