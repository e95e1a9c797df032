import random
from fractions import Fraction

import pytest

from riordan import series
from riordan.array import RiordanPair, identity_pair, matrix
from riordan.bivar import ONE, X, Y, BivariateRational, CoeffMatrix, expand
from riordan.families import (
    catalan_pair,
    make_A361654_embed,
    make_example1,
    make_R,
    make_R_inverse_closed,
    make_tilde_R,
    pascal_pair,
)
from riordan.series import InsufficientOrder
from riordan.symmetry import (
    NotLowerTriangular,
    closed_form_entry,
    closed_form_sym_entry,
    symmetrize,
    symmetrize_gf,
    symmetrize_matrix,
)

F = Fraction


def ints(M):
    return [[int(v) for v in row] for row in M.rows]


def test_symmetrize_gf_R1_display():
    S = symmetrize_gf(make_R(1, 12), 6)
    assert ints(S) == [
        [1, 1, 1, 1, 1, 1],
        [1, 3, 4, 5, 6, 7],
        [1, 4, 9, 14, 20, 27],
        [1, 5, 14, 29, 49, 76],
        [1, 6, 20, 49, 99, 175],
        [1, 7, 27, 76, 175, 351],
    ]


def test_symmetrize_gf_identity_pair():
    S = symmetrize_gf(identity_pair(12), 6)
    expected = [[1 if (n == 0 or k == 0) else 0 for k in range(6)] for n in range(6)]
    assert ints(S) == expected


def test_symmetrize_gf_example1_display():
    S = symmetrize_gf(make_example1(12), 6)
    assert ints(S) == [
        [1, 1, 1, 1, 1, 1],
        [1, -1, -2, -3, -4, -5],
        [1, -2, 0, 2, 5, 9],
        [1, -3, 2, 1, -1, -6],
        [1, -4, 5, -1, -1, 0],
        [1, -5, 9, -6, 0, 0],
    ]


def test_symmetrize_gf_order_guard():
    with pytest.raises(InsufficientOrder):
        symmetrize_gf(make_R(1, 5), 6)


def _random_rational_pair(rng, order):
    g = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order)]
    f = [0] + [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order - 1)]
    g[0] = g[0] or 1
    f[1] = f[1] or 1
    return RiordanPair(series.Series(g, order), series.Series(f, order))


def test_symmetrize_gf_at_order_exactly_N():
    # the gf route reads g_0..g_(N-1) and f_1..f_(N-1) only
    rng = random.Random(47)
    for N in range(2, 13):
        pairs = [
            build(r, N)
            for build in (make_R, make_tilde_R, make_R_inverse_closed)
            for r in (0, 1, 2)
        ]
        pairs += [
            build(N) for build in (make_example1, catalan_pair, pascal_pair, make_A361654_embed)
        ]
        pairs += [_random_rational_pair(rng, N) for _ in range(5)]
        for pair in pairs:
            assert pair.order == N
            assert symmetrize_gf(pair, N) == symmetrize(pair, N)


def test_symmetrize_matrix_examples():
    T = matrix(make_R(1, 8), 6)
    assert symmetrize_matrix(T) == symmetrize_gf(make_R(1, 12), 6)
    assert ints(symmetrize_matrix(CoeffMatrix.identity(4))) == [
        [1, 1, 1, 1],
        [1, 0, 0, 0],
        [1, 0, 0, 0],
        [1, 0, 0, 0],
    ]
    two = symmetrize_matrix(matrix(make_R(2, 4), 2))
    assert ints(two) == [[1, 1], [1, 4]]


def test_symmetrize_matrix_rejects_non_triangular():
    with pytest.raises(NotLowerTriangular):
        symmetrize_matrix(CoeffMatrix([[1, 2], [3, 4]]))


def test_route_equivalence_named_families():
    for pair in (make_R(0, 24), make_R(1, 24), make_R(2, 24), make_R(5, 24),
                 make_tilde_R(0, 24), make_tilde_R(3, 24), make_example1(24)):
        assert symmetrize_gf(pair, 12) == symmetrize_matrix(matrix(pair, 12))


def test_route_equivalence_randomized():
    rng = random.Random(41)
    for _ in range(100):
        g = [F(rng.randint(-3, 3)) for _ in range(16)]
        f = [F(0)] + [F(rng.randint(-3, 3)) for _ in range(15)]
        if g[0] == 0:
            g[0] = F(rng.choice([1, -1, 2]))
        if f[1] == 0:
            f[1] = F(rng.choice([1, -1, 2]))
        if rng.random() < 0.3:
            g[2] = F(rng.randint(-3, 3), 2)
        pair = RiordanPair(series.Series(g, 16), series.Series(f, 16))
        assert symmetrize_gf(pair, 8) == symmetrize_matrix(matrix(pair, 8))


def test_symmetrization_is_symmetric_and_diagonal_is_g():
    rng = random.Random(43)
    for _ in range(30):
        g = [F(rng.randint(-3, 3)) for _ in range(14)]
        f = [F(0)] + [F(rng.randint(-3, 3)) for _ in range(13)]
        if g[0] == 0:
            g[0] = F(1)
        if f[1] == 0:
            f[1] = F(1)
        pair = RiordanPair(series.Series(g, 14), series.Series(f, 14))
        S = symmetrize_gf(pair, 7)
        assert S == S.transpose()
        M = matrix(pair, 7)
        for n in range(7):
            assert S[n][n] == M[n][0] == pair.g.coeffs[n]


def test_gf_closed_forms():
    S1 = symmetrize(make_R(1, 28), 12)
    assert S1 == expand(BivariateRational(ONE, (ONE - X * Y) * (ONE - X - Y)), 12)
    S2 = symmetrize(make_R(2, 28), 12)
    assert S2 == expand(BivariateRational(ONE, (ONE - 2 * X * Y) * (ONE - X - Y)), 12)
    Se = symmetrize(make_example1(28), 12)
    assert Se == expand(
        BivariateRational(ONE, (ONE - Y + X * Y) * (ONE - X + X * Y)), 12
    )
    for r in range(5):
        St = symmetrize(make_tilde_R(r, 28), 12)
        assert St == expand(
            BivariateRational(ONE, (ONE - X * Y) * (ONE - X - Y - r * X * Y)), 12
        )


def test_closed_form_entry():
    assert closed_form_entry(1, 4, 1) == 49
    assert closed_form_entry(2, 5, 2) == 110
    assert closed_form_entry(1, 7, 7) == 1
    assert closed_form_entry(3, 2, 5) == 0
    for r in range(6):
        M = matrix(make_R(r, 21), 21)
        for n in range(21):
            for k in range(21):
                assert M[n][k] == closed_form_entry(r, n, k)


def test_closed_form_sym_entry():
    assert closed_form_sym_entry(3, 2) == 14
    assert closed_form_sym_entry(0, 5) == 1
    for n in range(11):
        for k in range(11):
            assert closed_form_sym_entry(n, k) == closed_form_sym_entry(k, n)
    S = symmetrize(make_R(1, 34), 15)
    for n in range(15):
        for k in range(15):
            assert S[n][k] == closed_form_sym_entry(n, k)
