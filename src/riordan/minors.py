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

A zero pivot means that leading minor is genuinely zero.  The sweep then
swaps row and column k symmetrically with a later index whose diagonal entry
is nonzero; such a swap maps bordered minors to bordered minors, so the
elimination state stays a valid Bareiss state and the sweep continues.  In
the symmetric mode the stale lower half of the active block is first
mirrored from the upper half, so the swapped rows and columns are current.
Only the block sizes strictly between the swapped indices see a different
"leading" submatrix afterwards, and those few minors are recomputed
independently by row-pivoted elimination.  When no symmetric pivot exists
at all, every remaining minor is computed independently.
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
    the entries below the diagonal go stale and are never read.
    """
    a = [row[:count] for row in rows[:count]]
    minors = [0] * count
    fix = set()
    prev = 1
    for k in range(count):
        if a[k][k] == 0:
            minors[k] = 0
            t = next((i for i in range(k + 1, count) if a[i][i] != 0), None)
            if t is None:
                fix.update(range(k + 1, count))
                break
            if symmetric:
                for i in range(k + 1, count):
                    for j in range(k, i):
                        a[i][j] = a[j][i]
            a[k], a[t] = a[t], a[k]
            for row in a:
                row[k], row[t] = row[t], row[k]
            fix.update(range(k + 1, t))
        else:
            minors[k] = a[k][k]
        piv = a[k][k]
        row_k = a[k]
        for i in range(k + 1, count):
            row_i = a[i]
            if symmetric:
                aik, start = row_k[i], i
            else:
                aik, start = row_i[k], k + 1
            for j in range(start, count):
                row_i[j] = (row_i[j] * piv - aik * row_k[j]) // prev
        prev = piv
    for m in fix:
        minors[m] = _det_int([row[: m + 1] for row in rows[: m + 1]])
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
