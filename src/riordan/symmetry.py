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
"""

from __future__ import annotations

from math import comb
from operator import add, mul

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
    """Production route: mirror the reversed rows of the pair's N x N
    triangle across the diagonal, s[n][k] = T[n][n-k] for k <= n and
    T[k][k-n] above it.

    T is lower triangular, so reversing the head of row n up to the
    diagonal gives the lower triangle L[n][k] = T[n][n-k], zero past k = n;
    row n of the result is L's row n up to the diagonal, then L's column n
    below it.  Both are slices, with no per-entry test.
    """
    T = matrix(a, N)
    lower = [row[n::-1] + row[n + 1 :] for n, row in enumerate(T.ints)]
    cols = list(zip(*lower))
    rows = [lower[n][: n + 1] + list(cols[n][n + 1 :]) for n in range(N)]
    return CoeffMatrix._of(rows, T.den)


def closed_form_rows(a: int, s: int, N: int) -> list:
    """N x N rows of Q(a, s) (``families.quadratic_pair``), by Lagrange
    inversion, the Vandermonde form of its sum and Horner's rule in a.

    At a = 0, fbar = x(1 - x)/(1 + sx) gives f = x phi(f) with
    phi(t) = (1 + st)/(1 - t), and 1 - x phi'(f) = sqrt(D_s)/(1 - f), so
    g f^k = H(f)/(1 - x phi'(f)) with H(t) = t^k/(1 - t), whence
    T0[n][k] = [t^(n-k)] (1 + st)^n/(1 - t)^(n+1).  Writing
    (1 + st)^n = ((1 - t) + (1 + s)t)^n turns this into
    T0[n][k] = sum over i <= n-k of C(n, i) C(n-k, i) (1+s)^i, one dot
    product of Pascal row n, scaled by the powers of 1 + s, with Pascal
    row n - k.  The factor 1/(1 - ax) sums down each column:
    T[n][k] = a T[n-1][k] + T0[n][k], from T[k-1][k] = 0.  At s = 0, R_a's
    case, T[n][k] = sum_j a^(n-k-j) C(k+2j, j).
    """
    pascal = [[1]]
    for _ in range(1, N):
        last = pascal[-1]
        pascal.append([1, *map(add, last, last[1:]), 1])
    powers = [(s + 1) ** i for i in range(N)]
    rows, above = [], [0] * N
    for n in range(N):
        scaled = list(map(mul, pascal[n], powers))
        row = [a * above[k] + sum(map(mul, scaled, pascal[n - k])) for k in range(n + 1)]
        above = row + [0] * (N - 1 - n)
        rows.append(above)
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
