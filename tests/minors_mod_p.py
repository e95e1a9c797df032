"""Every leading principal minor of an integer matrix modulo a prime, by
plain elimination with modular inverses: an oracle for ``riordan.minors``
that shares no code with it.

Import it from a checkout with ``tests`` on the path, e.g.
``PYTHONPATH=src:tests python -c "from minors_mod_p import leading_minors_mod"``.
"""

from operator import index

PRIMES = (2**61 - 1, 2**31 - 1, 10**9 + 7)


def leading_minors_mod(rows, p):
    """[det(M[:m, :m]) mod p for m = 1..N] for the square int matrix rows.

    Elimination without row exchanges keeps every leading block, so the
    m-th leading minor is the product of the first m pivots.  From the first
    pivot that is zero mod p on, each remaining minor is a determinant of
    its own block by `det_mod`.  A non-int entry raises TypeError.
    """
    residues = [[index(v) % p for v in row] for row in rows]
    a = [row[:] for row in residues]
    minors, det = [], 1
    for i, pivot_row in enumerate(a):
        pivot = pivot_row[i]
        if pivot == 0:
            blocks = ([row[:m] for row in residues[:m]] for m in range(i + 1, len(a) + 1))
            return minors + [det_mod(block, p) for block in blocks]
        det = det * pivot % p
        minors.append(det)
        _eliminate_below(a, i, p)
    return minors


def det_mod(rows, p):
    """det(rows) mod p for a square matrix of residues, with row exchanges."""
    a = [row[:] for row in rows]
    det = 1
    for i in range(len(a)):
        r = next((r for r in range(i, len(a)) if a[r][i]), None)
        if r is None:
            return 0
        if r != i:
            a[i], a[r] = a[r], a[i]
            det = -det
        det = det * a[i][i] % p
        _eliminate_below(a, i, p)
    return det


def _eliminate_below(a, i, p):
    """Subtract multiples of pivot row i from the rows below it, on columns > i."""
    inv = pow(a[i][i], -1, p)
    tail = a[i][i + 1 :]
    for row in a[i + 1 :]:
        c = row[i] * inv % p
        if c:
            row[i + 1 :] = [(u - c * v) % p for u, v in zip(row[i + 1 :], tail)]
