import random
from fractions import Fraction
from math import comb, factorial

import pytest

from riordan import cli, families, series
from riordan.array import RiordanPair, conjugate, identity_pair, matrix, rational_pair
from riordan.bivar import ONE, X, Y, BivariateRational, CoeffMatrix, expand
from riordan.families import (
    catalan_pair,
    make_A361654_embed,
    make_example1,
    make_R,
    make_R_inverse_closed,
    make_tilde_R,
    pascal_pair,
    quadratic_pair,
)
from riordan.symmetry import (
    closed_form_rows,
    closed_form_sym_rows,
    symmetrize,
    symmetrize_gf,
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
    with pytest.raises(ValueError, match="symmetrization to 6x6 needs order >= 6, have 5"):
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
    for N in [*range(2, 13), 40]:
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
    assert symmetrize(make_R(1, 8), 6) == symmetrize_gf(make_R(1, 12), 6)
    assert ints(symmetrize(identity_pair(4), 4)) == [
        [1, 1, 1, 1],
        [1, 0, 0, 0],
        [1, 0, 0, 0],
        [1, 0, 0, 0],
    ]
    two = symmetrize(make_R(2, 4), 2)
    assert ints(two) == [[1, 1], [1, 4]]


def test_route_equivalence_named_families():
    for pair in (make_R(0, 24), make_R(1, 24), make_R(2, 24), make_R(5, 24),
                 make_tilde_R(0, 24), make_tilde_R(3, 24), make_example1(24)):
        assert symmetrize_gf(pair, 12) == symmetrize(pair, 12)


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
        assert symmetrize_gf(pair, 8) == symmetrize(pair, 8)


def _mirror_by_entry(a, N):
    # the mirror symmetrize replaced: one conditional per entry,
    # s[n][k] = T[n][n-k] for k <= n and T[k][k-n] above it
    T = matrix(a, N)
    t = T.ints
    rows = [[t[n][n - k] if k <= n else t[k][k - n] for k in range(N)] for n in range(N)]
    return CoeffMatrix._of(rows, T.den)


def _pair_family_cases():
    for name, family in cli.FAMILIES.items():
        if not family.full_matrix:
            for r in range(-3, 5) if family.takes_r else (None,):
                yield name, r


@pytest.mark.parametrize("name, r", list(_pair_family_cases()))
def test_symmetrize_matches_the_entrywise_mirror(name, r):
    # every pair family of the CLI, built at the order the CLI builds and
    # above N, and as a rational pair with g/3 and f/2 (den > 1, so the
    # triangle comes from the product route over a common denominator)
    build = getattr(families, cli.FAMILIES[name].constructor)
    for N in (0, 1, 2, 3, 17, 60):
        for order in (max(N, 2), N + 5):
            pair = build(r, order) if r is not None else build(order)
            scaled = RiordanPair(pair.g / 3, pair.f / 2)
            assert scaled.g.den > 1 and scaled.f.den > 1
            for a in (pair, scaled):
                assert symmetrize(a, N) == _mirror_by_entry(a, N), (N, order)


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


def _entry_sum(r, n, k):
    # the paper's closed form, one sum per entry
    if k > n:
        return 0
    return sum(r ** (n - j - k) * comb(k + 2 * j, j) for j in range(n - k + 1))


def _sym_entry_sum(n, k):
    # the bracketed binomial sum of the symmetrized r=1 array, one per entry
    if k <= n:
        return sum(comb(n - k + 2 * j, j) for j in range(k + 1))
    return sum(comb(k - n + 2 * j, j) for j in range(n + 1))


def test_closed_form_entry():
    T = closed_form_rows(1, 0, 8)
    assert T[4][1] == 49 and T[7][7] == 1 and T[2][5] == 0
    assert closed_form_rows(2, 0, 6)[5][2] == 110
    for r in range(-3, 7):
        for N in (0, 1, 2, 25):
            want = [[_entry_sum(r, n, k) for k in range(N)] for n in range(N)]
            assert closed_form_rows(r, 0, N) == want


def _lagrange_rows(a, s, N):
    # the Lagrange sum T0[n][k] = sum over i of C(n, i) s^i C(2n-k-i, n), then Horner in a
    rows = [[0] * N for _ in range(N)]
    for k in range(N):
        t = 0
        for n in range(k, N):
            t = a * t + sum(comb(n, i) * s**i * comb(2 * n - k - i, n) for i in range(n - k + 1))
            rows[n][k] = t
    return rows


def test_closed_form_rows_match_the_lagrange_sum():
    for a in range(-3, 5):
        for s in range(-3, 5):
            for N in (0, 1, 2, 25):
                assert closed_form_rows(a, s, N) == _lagrange_rows(a, s, N)


def test_closed_form_rows_on_the_plane():
    # tilde-R_1 = Q(1, 1); column 0: partial sums of the central Delannoy numbers 1, 3, 13, 63
    assert closed_form_rows(1, 1, 4) == [[1, 0, 0, 0], [4, 1, 0, 0], [17, 6, 1, 0], [80, 31, 8, 1]]
    for N in (0, 1, 2):
        assert closed_form_rows(1, 3, N) == matrix(make_tilde_R(3, 2), N).rows
    for r in range(-3, 7):
        assert closed_form_rows(1, r, 60) == matrix(make_tilde_R(r, 60), 60).rows
    for a in range(-3, 5):
        for s in range(-3, 5):
            assert closed_form_rows(a, s, 25) == matrix(quadratic_pair(a, s, 25), 25).rows


def test_closed_form_sym_entry():
    S = closed_form_sym_rows(1, 0, 6)
    assert S[3][2] == 14 and S[0][5] == 1
    for N in (*range(26), 60):
        want = [[_sym_entry_sum(n, k) for k in range(N)] for n in range(N)]
        assert closed_form_sym_rows(1, 0, N) == want
    assert symmetrize(make_R(1, 34), 15).rows == closed_form_sym_rows(1, 0, 15)


def _sym_q_rows(a, s, N):
    return symmetrize(quadratic_pair(a, s, max(N, 2)), N).rows


def test_closed_form_sym_rows_on_the_plane():
    for a in range(-3, 5):
        for s in range(-3, 5):
            for N in (0, 1, 2, 3, 14):
                assert closed_form_sym_rows(a, s, N) == _sym_q_rows(a, s, N)
    rng = random.Random(39)
    for _ in range(30):
        a, s, N = rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(0, 20)
        assert closed_form_sym_rows(a, s, N) == _sym_q_rows(a, s, N)


def _gram(B, w):
    # B diag(w) B^T
    return [[sum(u * c * v for u, c, v in zip(x, w, y)) for y in B] for x in B]


def test_closed_form_sym_rows_on_the_lines_a_0_and_s_minus_1():
    # Sym(Q(0, s)) = P diag((1 + s)^j) P^T and Sym(Q(a, -1)) = U^T diag(a^i) U,
    # P Pascal's triangle and U the all-ones upper triangle
    N = 12
    P = [[comb(n, j) for j in range(N)] for n in range(N)]
    Ut = [[int(i <= n) for i in range(N)] for n in range(N)]
    for t in range(-4, 6):
        assert closed_form_sym_rows(0, t, N) == _gram(P, [(1 + t) ** j for j in range(N)])
        assert closed_form_sym_rows(t, -1, N) == _gram(Ut, [t**i for i in range(N)])


def test_closed_form_sym_rows_under_the_involution():
    # A = (1/(1-x)^2, -x/(1-x)) gives A Sym(Q(a, s)) A^T = Sym(Q(s + 1, a - 1))
    A = rational_pair(([1], [1, -2, 1]), ([0, -1], [1, -1]), 12)
    for a in range(-3, 5):
        for s in range(-3, 5):
            S = CoeffMatrix(closed_form_sym_rows(a, s, 12))
            assert conjugate(S, A).rows == closed_form_sym_rows(s + 1, a - 1, 12)


def test_closed_form_sym_entries_have_total_degree_min_n_k():
    # the forward difference of order (i, j) in (a, s) at (0, 0) vanishes for
    # every i + j > min(n, k); the order (m, 0) one is m!, a^m's coefficient being 1
    N = 8
    S = [[closed_form_sym_rows(a, s, N) for s in range(N + 1)] for a in range(N + 1)]

    def diff(n, k, i, j):
        return sum(
            (-1) ** (i - t + j - u) * comb(i, t) * comb(j, u) * S[t][u][n][k]
            for t in range(i + 1)
            for u in range(j + 1)
        )

    for n in range(N):
        for k in range(N):
            m = min(n, k)
            assert diff(n, k, m, 0) == factorial(m)
            for i in range(m + 2):
                for j in range(m + 1 - i, m + 2):
                    assert diff(n, k, i, j) == 0
