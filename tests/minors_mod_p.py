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
    m-th leading minor is the product of the first m pivots.  A pivot that
    is zero mod p raises ZeroDivisionError; a non-int entry raises TypeError.
    """
    a = [[index(v) % p for v in row] for row in rows]
    minors, det = [], 1
    for i, pivot_row in enumerate(a):
        pivot = pivot_row[i]
        if pivot == 0:
            raise ZeroDivisionError(f"pivot {i} is zero mod {p}")
        det = det * pivot % p
        minors.append(det)
        inv = pow(pivot, -1, p)
        tail = pivot_row[i + 1 :]
        for row in a[i + 1 :]:
            c = row[i] * inv % p
            if c:
                row[i + 1 :] = [(u - c * v) % p for u, v in zip(row[i + 1 :], tail)]
    return minors
