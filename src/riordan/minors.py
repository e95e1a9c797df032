"""Exact leading principal minor sequences.

values[n] is the determinant of the leading (n+1) x (n+1) submatrix.  The
workhorse is a single fraction-free (Bareiss) elimination sweep over an
integer copy of the matrix: after k steps the next pivot equals the (k+1)-st
leading minor, so one O(N^3) pass yields the whole sequence.  A matrix is
stored as int rows over one denominator d (``CoeffMatrix.ints`` and
``.den``; d = 1 for an integer matrix), so the sweep copies ``M.ints`` once
and the (m+1) x (m+1) minor is its raw value divided by d^(m+1).

The sweep has two modes, chosen from the entries by one comparison of the
leading block with its transpose, whatever built the matrix (the
symmetrizations return a plain `CoeffMatrix`).  A symmetric block takes the
symmetric mode: a Bareiss step maps a symmetric state to a symmetric state,
so each step updates only the entries on and above the diagonal and reads
a[i][k] as a[k][i], about half the big-integer work (the fraction-free
LDL^T view of the same elimination).  A non-symmetric block takes the
general mode, which updates the whole active block.

A zero pivot takes one rule in both modes.  After k steps the active entry
a[i][j] is the bordered minor det A[K+i, K+j], K = {0..k-1}, and by
Sylvester's identity the active block on rows and columns k..m-1 has
determinant D_m prev^(m-k-1), D_m the m x m leading minor (Bareiss, Math.
Comp. 1968).  At a zero pivot a[k][k] let t be the first j > k with
a[k][j] != 0 (row k is current in both modes).  With no t, row k of every
later block is zero: every later minor is 0 and the sweep stops.  Otherwise
the minors at indices k..t-1 are 0, and column t is added to column k; the
symmetric mode first mirrors the stale lower half, then adds u row t to
row k and u column t to column k, with u = +-1 so that the new pivot
2u a[k][t] + a[t][t] is nonzero.  Bordered minors are linear in their
border row and column, so this is the Bareiss state of a matrix whose
leading minors of size > t are unchanged; minors are recorded again from
the largest such t on.
"""

from __future__ import annotations

from fractions import Fraction

from .bivar import CoeffMatrix, DimensionError
from .series import _exact


class MinorSequence(list):
    """Leading principal minors; entry n is the (n+1) x (n+1) determinant."""

    def __repr__(self):
        return f"MinorSequence({list.__repr__(self)})"


def det_cofactor(rows) -> int | Fraction:
    """Determinant by cofactor expansion along the first row (test oracle)."""
    return _exact(_cofactor(rows))


def _cofactor(rows):
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for j in range(n):
        c = rows[0][j]
        if not c:
            continue
        sub = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * c * _cofactor(sub)
    return total


def _det_int(rows) -> int:
    """Exact determinant of an integer matrix: Bareiss with row pivoting."""
    a = [row[:] for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for t in range(k + 1, n):
                if a[t][k] != 0:
                    a[k], a[t] = a[t], a[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * piv - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = piv
    return sign * a[n - 1][n - 1]


def _bareiss_minor_sweep(rows, count: int, symmetric: bool = False):
    """Integer minors of the leading blocks, from one elimination sweep.

    With ``symmetric`` (the caller has checked the block is symmetric) each
    step updates only the upper half, j >= i, and reads a[i][k] as a[k][i];
    the entries below the diagonal go stale until a zero pivot mirrors them.
    """
    a = [row[:count] for row in rows[:count]]
    minors = [0] * count
    zero_to = 0
    prev = 1
    for k in range(count):
        row_k = a[k]
        if row_k[k] == 0:
            t = next((j for j in range(k + 1, count) if row_k[j]), None)
            if t is None:
                break
            zero_to = max(zero_to, t)
            u = 1
            if symmetric:
                for i in range(k + 1, count):
                    for j in range(k, i):
                        a[i][j] = a[j][i]
                u = 1 if 2 * row_k[t] + a[t][t] else -1
                for j in range(k, count):
                    row_k[j] += u * a[t][j]
            for i in range(k, count):
                a[i][k] += u * a[i][t]
        piv = row_k[k]
        if k >= zero_to:
            minors[k] = piv
        for i in range(k + 1, count):
            row_i = a[i]
            if symmetric:
                aik, start = row_k[i], i
            else:
                aik, start = row_i[k], k + 1
            for j in range(start, count):
                row_i[j] = (row_i[j] * piv - aik * row_k[j]) // prev
        prev = piv
    return minors


def principal_minors(M: CoeffMatrix, count: int) -> MinorSequence:
    """First `count` leading principal minors, exactly."""
    if count < 0 or count > M.n:
        raise DimensionError(f"requested {count} minors of a {M.n}x{M.n} matrix")
    raw = _bareiss_minor_sweep(M.ints, count, M.is_symmetric(count))
    d = M.den
    if d == 1:
        return MinorSequence(raw)
    return MinorSequence(_exact(Fraction(v, d ** (m + 1))) for m, v in enumerate(raw))


def det(M: CoeffMatrix):
    """Exact determinant of the whole matrix."""
    value = _det_int(M.ints)
    return value if M.den == 1 else _exact(Fraction(value, M.den**M.n))
