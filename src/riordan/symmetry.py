"""Square symmetrization of Riordan arrays.

Two routes produce the same symmetric matrix:

* the generating function route, expanding B(xy, 1/y) + B(xy, 1/x) - g(xy)
  structurally (no Laurent series is ever formed: because the array is lower
  triangular, f(xy)/y only carries nonnegative powers into the result);
* the matrix route, mirroring each reversed row of the triangle across the
  diagonal.

The matrix route is the production path; the gf route is the definitional
oracle the tests hold it against.
"""

from __future__ import annotations

from math import comb

from .array import RiordanPair, matrix
from .bivar import CoeffMatrix
from .series import InsufficientOrder


class NotLowerTriangular(ValueError):
    """symmetrize_matrix needs a lower triangular input."""


class SymmetrizedMatrix(CoeffMatrix):
    """Coefficient matrix checked to be symmetric on construction."""

    __slots__ = ()

    def _set(self, ints, den):
        super()._set(ints, den)
        if not self.is_symmetric():
            raise ValueError("symmetrization produced an asymmetric matrix")

    def __repr__(self):
        return f"SymmetrizedMatrix({self.n}x{self.n})"


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


def symmetrize_gf(a: RiordanPair, N: int) -> SymmetrizedMatrix:
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
    return SymmetrizedMatrix(rows)


def symmetrize_matrix(T: CoeffMatrix) -> SymmetrizedMatrix:
    """Mirror the reversed rows of a lower triangular matrix across the diagonal.

    s[n][k] = T[n][n-k] for k <= n, and T[k][k-n] above the diagonal.
    """
    if not T.is_lower_triangular():
        raise NotLowerTriangular("matrix route needs a lower triangular input")
    N, t = T.n, T.ints
    rows = [[t[n][n - k] if k <= n else t[k][k - n] for k in range(N)] for n in range(N)]
    return SymmetrizedMatrix._of(rows, T.den)


def symmetrize(a: RiordanPair, N: int) -> SymmetrizedMatrix:
    """Production route: symmetrize the N x N matrix of the pair."""
    return symmetrize_matrix(matrix(a, N))


def closed_form_entry(r: int, n: int, k: int) -> int:
    """Entry (n, k) of the r-parameter array: sum of r^(n-j-k) * C(k+2j, j)."""
    if k > n:
        return 0
    return sum(r ** (n - j - k) * comb(k + 2 * j, j) for j in range(n - k + 1))


def closed_form_sym_entry(n: int, k: int) -> int:
    """Entry (n, k) of the symmetrized r=1 array, by the bracketed binomial sum."""
    if k <= n:
        return sum(comb(n - k + 2 * j, j) for j in range(k + 1))
    return sum(comb(k - n + 2 * j, j) for j in range(n + 1))
