"""Exact leading principal minor sequences.

values[n] is the determinant of the leading (n+1) x (n+1) submatrix.  The
workhorse is a single fraction-free (Bareiss) elimination sweep over an
integer copy of the matrix: after k steps the next pivot equals the (k+1)-st
leading minor, so one O(N^3) pass yields the whole sequence.  A matrix is
stored as int rows over one denominator d (``CoeffMatrix.ints`` and
``.den``; d = 1 for an integer matrix), so the sweep copies ``M.ints`` once
and the (m+1) x (m+1) minor is its raw value divided by d^(m+1).

The sweep advances two pivots at a time, Bareiss's two-step form.  With
p = a[k][k] != 0 it first computes the next pivot
q = (p a[k+1][k+1] - a[k+1][k] a[k][k+1]) / prev.  When q != 0, each row
i > k+1 gets e_i = (a[k+1][k] a[i][k+1] - a[k+1][k+1] a[i][k]) / prev and
f_i = (p a[i][k+1] - a[k][k+1] a[i][k]) / prev, and then
a[i][j] = (a[k][j] e_i - a[k+1][j] f_i + a[i][j] q) / prev: the 3 x 3
minor on rows k, k+1, i and columns k, k+1, j, expanded along column j,
over prev^2.  Every division is exact by Sylvester's identity, and an
entry costs 3 products and 1 division where two single steps cost 4 and 2.
When q = 0, and at the last index of an odd count, the sweep takes one
step by the same update, with e_i = -a[i][k], f_i = 0 and the pivot p for
q: a[i][j] = (p a[i][j] - a[i][k] a[k][j]) / prev.  A zero q is folded
away as a zero pivot at the next step.

The sweep has two modes, chosen from the entries by one comparison of the
leading block with its transpose, whatever built the matrix (the
symmetrizations return a plain `CoeffMatrix`).  A symmetric block takes the
symmetric mode: a Bareiss step maps a symmetric state to a symmetric state,
so each step updates only the entries on and above the diagonal and reads
a[i][k] as a[k][i], about half the big-integer work (the fraction-free
LDL^T view of the same elimination).  A non-symmetric block takes the
general mode, which updates the whole active block.  Both modes read
columns k and k+1 through one rule, as row k and k+1 in the symmetric mode
and as copies out of the general mode's block, so the row updates differ
only in their first column: i in the symmetric mode, k+1 or k+2 otherwise.

A zero pivot takes one rule in both modes.  After k steps the active entry
a[i][j] is the bordered minor det A[K+i, K+j], K = {0..k-1}, and by
Sylvester's identity the active block on rows and columns k..m-1 has
determinant D_m prev^(m-k-1), D_m the m x m leading minor (Bareiss, Math.
Comp. 1968).  At a zero pivot a[k][k] let t be the first j > k with
a[j][k] != 0, read down column k.  With no t, column k of every later
block is zero: every later minor is 0 and the sweep stops.  Otherwise the
minors at indices k..t-1 are 0, and u row t is added to row k, with u = 1
in the general mode.  The symmetric mode also adds u column t to column k,
with u = +-1 so that the new pivot 2u a[k][t] + a[t][t] is nonzero; it
reads row t left of the diagonal as column t above it, and of column k it
updates only the pivot, the one entry on or above the diagonal.  Bordered
minors are linear in their border row and column, so this is the Bareiss
state of a matrix changed by row and column operations inside its leading
(t+1) x (t+1) block, whose leading minors of size > t are unchanged; minors
are recorded again from the largest such t on.

`det` is the last minor of the same sweep, with no second elimination.  It
is exact: every fold keeps the minors of size > t, and the last index N-1
is never below t; with no t, every later minor, the last one too, is 0.
"""

from __future__ import annotations

from fractions import Fraction

from .bivar import CoeffMatrix
from .series import _exact


def det_cofactor(rows) -> int | Fraction:
    """Determinant by cofactor expansion along successive rows (test oracle).

    The minor on the last m rows and a set of m columns is memoised on the
    bit mask of those columns: it expands along its first row, with the
    sign alternating over the columns in the set.  Every set is reached
    from a smaller one, so one pass over the masks in increasing order
    gives the determinant in O(n 2^n) products and no division.
    """
    n = len(rows)
    minor = [1] * (1 << n)
    for mask in range(1, 1 << n):
        row = rows[n - mask.bit_count()]
        total = 0
        sign = 1
        for j in range(n):
            if mask >> j & 1:
                total += sign * row[j] * minor[mask ^ (1 << j)]
                sign = -sign
        minor[mask] = total
    return _exact(minor[-1])


def _bareiss_minor_sweep(rows, count: int, symmetric: bool = False):
    """Integer minors of the leading blocks, from one elimination sweep.

    Each step folds a zero pivot p = a[k][k] away, then computes the next
    pivot q = (p a[k+1][k+1] - a[k+1][k] a[k][k+1]) // prev.  With q != 0 it
    eliminates columns k and k+1 together and advances by two; otherwise
    (q = 0, or k the last index) it takes one step, by the same row update
    with e = -a[i][k], f = 0 and the pivot p.  Rows k and k+1 are left at
    level k: no later step reads them.

    With ``symmetric`` (the caller has checked the block is symmetric) each
    step updates only the upper half, j >= i, and reads column k as row k;
    the entries below the diagonal go stale and are never read, a zero-pivot
    fold included.  Otherwise columns k and k+1 are copied out of ``a``: a
    fold changes only row k, and no update reads the copy's stale a[k][k].
    """
    a = [row[:count] for row in rows[:count]]
    minors = [0] * count
    zero_to = 0
    prev = 1
    k = 0
    while k < count:
        row_k = a[k]
        col_k = row_k if symmetric else [row[k] for row in a]
        if row_k[k] == 0:
            t = next((j for j in range(k + 1, count) if col_k[j]), None)
            if t is None:
                break
            zero_to = max(zero_to, t)
            row_t = a[t]
            u = 1 if not symmetric or 2 * row_k[t] + row_t[t] else -1
            for j in range(k, count):
                row_k[j] += u * (a[j][t] if symmetric and j < t else row_t[j])
            if symmetric:
                row_k[k] += u * row_k[t]
        p = row_k[k]
        if k >= zero_to:
            minors[k] = p
        step, row_l, col_l, pivot = 1, row_k, col_k, p
        if k + 1 < count:
            b, c, d = row_k[k + 1], col_k[k + 1], a[k + 1][k + 1]
            q = (p * d - c * b) // prev
            if q:
                if k + 1 >= zero_to:
                    minors[k + 1] = q
                row_l = a[k + 1]
                col_l = row_l if symmetric else [row[k + 1] for row in a]
                step, pivot = 2, q
        for i in range(k + step, count):
            row_i, x, y = a[i], col_k[i], col_l[i]
            e, f = (-x, 0) if step == 1 else ((c * y - d * x) // prev, (p * y - b * x) // prev)
            for j in range(i if symmetric else k + step, count):
                row_i[j] = (row_k[j] * e - row_l[j] * f + row_i[j] * pivot) // prev
        prev = pivot
        k += step
    return minors


def principal_minors(M: CoeffMatrix, count: int) -> list:
    """First `count` leading principal minors, exactly; entry n is the (n+1) x (n+1) one."""
    if count < 0 or count > M.n:
        raise ValueError(f"requested {count} minors of a {M.n}x{M.n} matrix")
    return _exact_minors(M, count)


def det(M: CoeffMatrix):
    """Exact determinant of the whole matrix: the sweep's last minor."""
    return _exact_minors(M, M.n)[-1] if M.n else 1


def _exact_minors(M: CoeffMatrix, count: int) -> list:
    """The sweep's minors of sizes 1..count, in the mode the block allows, over d^size."""
    raw = _bareiss_minor_sweep(M.ints, count, M.is_symmetric(count))
    d = M.den
    if d == 1:
        return raw
    return [_exact(Fraction(v, d ** (m + 1))) for m, v in enumerate(raw)]
