import random
from fractions import Fraction
from math import comb

import pytest

from riordan.bivar import (
    ONE,
    X,
    Y,
    BivarPoly,
    BivariateRational,
    CoeffMatrix,
    expand,
    gf_identity_check,
)

F = Fraction


def ints(M):
    return [[int(v) for v in row] for row in M.rows]


def test_bivar_poly_rejects_floats():
    with pytest.raises(TypeError):
        BivarPoly({(0, 0): 1, (1, 1): 0.5})


def test_coeff_matrix_rejects_floats_and_keeps_ints():
    with pytest.raises(TypeError):
        CoeffMatrix([[1, 0], [0.25, 1]])
    M = CoeffMatrix([[1, F(1, 2)], [2, F(3)]])
    assert [[type(c) for c in row] for row in M.rows] == [[int, F], [int, int]]


def test_bivar_poly_arithmetic():
    assert (ONE - X) * (ONE - Y) == ONE - X - Y + X * Y
    assert (ONE - X * Y) * (ONE - X - Y) == BivarPoly(
        {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): -1, (2, 1): 1, (1, 2): 1}
    )
    assert (ONE - Y + X * Y) + Y == ONE + X * Y


def test_expand_identity_diagonal():
    M = expand(BivariateRational(ONE, ONE - X * Y), 5)
    assert M == CoeffMatrix.identity(5)


def test_expand_example1_display():
    gf = BivariateRational(ONE, (ONE - Y + X * Y) * (ONE - X + X * Y))
    assert ints(expand(gf, 6)) == [
        [1, 1, 1, 1, 1, 1],
        [1, -1, -2, -3, -4, -5],
        [1, -2, 0, 2, 5, 9],
        [1, -3, 2, 1, -1, -6],
        [1, -4, 5, -1, -1, 0],
        [1, -5, 9, -6, 0, 0],
    ]


def test_expand_twenty_vertex_transformed_display():
    gf = BivariateRational((ONE - X) * (ONE - Y), (ONE - X * Y) * (ONE - X - Y - X * Y))
    assert ints(expand(gf, 6)) == [
        [1, 0, 0, 0, 0, 0],
        [0, 3, 2, 2, 2, 2],
        [0, 2, 9, 12, 16, 20],
        [0, 2, 12, 35, 62, 98],
        [0, 2, 16, 62, 161, 320],
        [0, 2, 20, 98, 320, 803],
    ]


def test_expand_rejects_zero_constant_denominator():
    with pytest.raises(ValueError, match="denominator vanishes at the origin"):
        BivariateRational(ONE, X + Y)
    gf = BivariateRational(ONE, ONE - X)
    gf.den = X  # bypass the constructor guard
    with pytest.raises(ValueError, match="denominator vanishes at the origin"):
        expand(gf, 3)


def test_gf_identity_check_twenty_vertex():
    lhs = BivariateRational(2 * Y, (ONE - Y) * (ONE - X - Y - X * Y)) + BivariateRational(
        ONE, ONE - X * Y
    )
    rhs = BivariateRational(
        (ONE - X) * (ONE + Y * Y), (ONE - Y) * (ONE - X * Y) * (ONE - X - Y - X * Y)
    )
    assert gf_identity_check(lhs, rhs)
    assert expand(lhs, 10) == expand(rhs, 10)
    # dropping the -y term from the last denominator factor breaks the identity
    wrong = BivariateRational(
        (ONE - X) * (ONE + Y * Y), (ONE - Y) * (ONE - X * Y) * (ONE - X - X * Y)
    )
    assert not gf_identity_check(lhs, wrong)
    assert expand(lhs, 10) != expand(wrong, 10)


def test_gf_identity_check_reflexive_and_distinct():
    a = BivariateRational(ONE, ONE - X - Y) - BivariateRational(Y, ONE - X * Y)
    assert gf_identity_check(a, a)
    b = BivariateRational(ONE, ONE - X - Y)
    c = BivariateRational(ONE, ONE - X - Y - X * Y)
    assert not gf_identity_check(b, c)


def _random_poly(rng, dx, dy, nonzero_origin=False):
    table = {}
    for i in range(dx + 1):
        for j in range(dy + 1):
            if rng.random() < 0.5:
                table[(i, j)] = rng.randint(-3, 3)
    if nonzero_origin:
        table[(0, 0)] = rng.choice([1, -1, 2])
    return BivarPoly(table)


def test_expand_times_denominator_recovers_numerator():
    rng = random.Random(7)
    N = 7
    for _ in range(60):
        P = _random_poly(rng, 3, 3)
        Q = _random_poly(rng, 3, 3, nonzero_origin=True)
        S = expand(BivariateRational(P, Q), N)
        # truncated 2-D convolution of S with Q must reproduce P
        for n in range(N - 3):
            for k in range(N - 3):
                acc = F(0)
                for (i, j), c in Q.coeffs.items():
                    if i <= n and j <= k:
                        acc += c * S[n - i][k - j]
                assert acc == P.coefficient(n, k)


def test_expand_is_linear_in_numerator():
    rng = random.Random(11)
    for _ in range(30):
        P1 = _random_poly(rng, 2, 2)
        P2 = _random_poly(rng, 2, 2)
        Q = _random_poly(rng, 2, 2, nonzero_origin=True)
        a = expand(BivariateRational(P1, Q), 6)
        b = expand(BivariateRational(P2, Q), 6)
        c = expand(BivariateRational(P1 + P2, Q), 6)
        assert all(
            a[n][k] + b[n][k] == c[n][k] for n in range(6) for k in range(6)
        )


def test_symmetric_gf_expands_to_symmetric_matrix():
    gfs = [
        BivariateRational(ONE, (ONE - X * Y) * (ONE - X - Y)),
        BivariateRational(ONE, (ONE - 2 * X * Y) * (ONE - X - Y)),
        BivariateRational(ONE, (ONE - Y + X * Y) * (ONE - X + X * Y)),
        BivariateRational(ONE, (ONE - X * Y) * (ONE - X - Y - 3 * X * Y)),
        BivariateRational((ONE - X) * (ONE - Y), (ONE - X * Y) * (ONE - X - Y - X * Y)),
    ]
    for gf in gfs:
        assert expand(gf, 9).is_symmetric()


def test_transpose_swaps_x_and_y():
    rng = random.Random(43)
    for _ in range(40):
        P = _random_poly(rng, 3, 2)
        Q = _random_poly(rng, 2, 3, nonzero_origin=True)
        assert P.transpose().coeffs == {(j, i): c for (i, j), c in P.coeffs.items()}
        assert P.transpose().transpose() == P
        r = BivariateRational(P, Q)
        back = r.transpose().transpose()
        assert (back.num, back.den) == (P, Q)
        # the gf of the transposed matrix
        assert expand(r.transpose(), 7) == expand(r, 7).transpose()


def test_coeff_matrix_operations():
    A = CoeffMatrix([[1, 2], [3, 4]])
    B = CoeffMatrix([[0, 1], [1, 0]])
    assert ints(A * B) == [[2, 1], [4, 3]]
    assert ints(A.transpose()) == [[1, 3], [2, 4]]
    assert not A.is_symmetric()
    assert CoeffMatrix([[1, 2], [2, 5]]).is_symmetric()
    C = CoeffMatrix([[1, 2, 3], [2, 5, 0], [9, 9, 9]])
    assert C.is_symmetric(2) and C.is_symmetric(0) and not C.is_symmetric()


def _symmetric_by_pairs(a, m):
    # the test is_symmetric replaced: one pair of entries at a time
    return all(a[i][j] == a[j][i] for i in range(m) for j in range(i))


def test_is_symmetric_matches_the_pairwise_test_randomized():
    # random int and Fraction matrices, and symmetric ones with one entry
    # changed at a random position (on the diagonal it stays symmetric);
    # every leading block m and the default
    rng = random.Random(59)

    def entry(rational):
        v = rng.randint(-3, 3)
        return Fraction(v, rng.randint(1, 4)) if rational and rng.random() < 0.5 else v

    for trial in range(300):
        n = rng.randint(0, 9)
        rational = trial % 2 == 1
        rows = [[entry(rational) for _ in range(n)] for _ in range(n)]
        if trial % 3:
            for i in range(n):
                for j in range(i):
                    rows[j][i] = rows[i][j]
            if trial % 3 == 2 and n:
                i, j = rng.randrange(n), rng.randrange(n)
                rows[i][j] += rng.choice([1, -1, Fraction(1, 2)])
        M = CoeffMatrix(rows)
        for m in range(n + 1):
            assert M.is_symmetric(m) == _symmetric_by_pairs(M.rows, m), (rows, m)
        assert M.is_symmetric() == _symmetric_by_pairs(M.rows, n)


# The matrix product and the expansion run on int over common denominators;
# the oracles are the naive Fraction matmul and the Fraction recurrence.


def _oracle_matmul(A, B):
    n = len(A)
    return [[sum((F(A[i][t]) * F(B[t][j]) for t in range(n)), F(0)) for j in range(n)] for i in range(n)]


def _oracle_expand(r, N):
    q0 = r.den.coefficient(0, 0)
    s = [[F(0)] * N for _ in range(N)]
    for n in range(N):
        for k in range(N):
            acc = r.num.coefficient(n, k)
            for (i, j), c in r.den.coeffs.items():
                if (i, j) != (0, 0) and i <= n and j <= k:
                    acc -= c * s[n - i][k - j]
            s[n][k] = acc / F(q0)
    return s


def _random_rows(rng, n, kind):
    rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    if kind != "int":
        rows = [[F(c) for c in row] for row in rows]
    if kind == "rational" and n:
        rows[rng.randrange(n)][rng.randrange(n)] = F(rng.choice([-3, 1, 7]), rng.choice([2, 3, 5]))
    return rows


def _types(M):
    return {type(c) for row in M.rows for c in row}


def _normal(M):
    """Every entry an int when integral and a Fraction otherwise."""
    return all(type(c) is (int if c.denominator == 1 else F) for row in M.rows for c in row)


def test_matmul_matches_naive_fraction_product():
    rng = random.Random(149)
    kinds = ("int", "integral", "rational")
    for n in range(0, 8):
        for ka in kinds:
            for kb in kinds:
                a, b = _random_rows(rng, n, ka), _random_rows(rng, n, kb)
                P = CoeffMatrix(a) * CoeffMatrix(b)
                assert P.rows == _oracle_matmul(a, b)
                assert _normal(P)
                if n and ka == kb == "int":
                    assert _types(P) == {int}


@pytest.mark.parametrize("q0", [1, -1, 2, F(3, 2), -2, F(-3, 2)])
def test_expand_matches_fraction_recurrence(q0):
    rng = random.Random(151)
    far_rng = random.Random(152)
    for t in range(40):
        P = _random_poly(rng, 3, 3)
        if t % 2:
            P = P + BivarPoly({(rng.randint(0, 3), rng.randint(0, 3)): F(rng.choice([1, -5]), 3)})
        Q = _random_poly(rng, 2, 3)
        Q = Q + (q0 - Q.coefficient(0, 0))
        integral = all(c.denominator == 1 for c in (*P.coeffs.values(), *Q.coeffs.values()))
        for N in (0, 1, 7):
            # a numerator monomial past the truncation, in x or in y
            far = (N + far_rng.randint(0, 2), far_rng.randint(0, 9))
            r = BivariateRational(P + BivarPoly({far if t % 2 else far[::-1]: far_rng.choice([1, -4])}), Q)
            S = expand(r, N)
            oracle = _oracle_expand(r, N)
            assert S.rows == oracle
            # the stored form too: ints over one positive denominator in lowest terms
            assert S == CoeffMatrix(oracle)
            assert _normal(S)
            if N and integral and q0 in (1, -1):
                assert _types(S) == {int}


def test_expand_rational_numerator_and_lead_two():
    # (1/2) / (2 - x - y): entry (n, k) is binom(n+k, k) / 2^(n+k+2)
    r = BivariateRational(BivarPoly({(0, 0): F(1, 2)}), 2 - X - Y)
    S = expand(r, 6)
    assert S.rows == [[F(comb(n + k, k), 2 ** (n + k + 2)) for k in range(6)] for n in range(6)]
    assert S.rows == _oracle_expand(r, 6)
