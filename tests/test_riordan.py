import random
from fractions import Fraction
from math import comb

import pytest

from riordan import cli, series, verify
from riordan.array import (
    RiordanPair,
    apply,
    bivariate_gf,
    conjugate,
    diagonal_sums,
    gf_right_transform,
    identity_pair,
    inverse,
    matrix,
    product,
    row_sums,
)
from riordan.bivar import ONE, X, Y, BivariateRational, CoeffMatrix, expand, gf_identity_check
from riordan.families import catalan_pair, make_example1, make_R, pascal_pair
from riordan.series import InsufficientOrder
from riordan.symmetry import closed_form_entry

F = Fraction


def ints(M):
    return [[int(v) for v in row] for row in M.rows]


def seq(s):
    return [int(c) if c.denominator == 1 else c for c in s.coeffs]


def test_unipotence_helper():
    from riordan.array import require_unipotent

    require_unipotent(pascal_pair(4))
    assert pascal_pair(4).is_unipotent()
    assert make_R(1, 4).is_unipotent()
    assert not RiordanPair(series.poly([1], 4), series.poly([0, 2], 4)).is_unipotent()
    with pytest.raises(ValueError):
        require_unipotent(RiordanPair(series.poly([2], 4), series.poly([0, 1], 4)))


def test_pair_validation():
    with pytest.raises(ValueError):
        RiordanPair(series.poly([0, 1], 4), series.poly([0, 1], 4))
    with pytest.raises(ValueError):
        RiordanPair(series.poly([1], 4), series.poly([1, 1], 4))
    with pytest.raises(ValueError):
        RiordanPair(series.poly([1], 4), series.poly([0, 0, 1], 4))


def test_matrix_R1_display():
    assert ints(matrix(make_R(1, 8), 6)) == [
        [1, 0, 0, 0, 0, 0],
        [3, 1, 0, 0, 0, 0],
        [9, 4, 1, 0, 0, 0],
        [29, 14, 5, 1, 0, 0],
        [99, 49, 20, 6, 1, 0],
        [351, 175, 76, 27, 7, 1],
    ]


def test_matrix_R2_display():
    assert ints(matrix(make_R(2, 8), 6)) == [
        [1, 0, 0, 0, 0, 0],
        [4, 1, 0, 0, 0, 0],
        [14, 5, 1, 0, 0, 0],
        [48, 20, 6, 1, 0, 0],
        [166, 75, 27, 7, 1, 0],
        [584, 276, 110, 35, 8, 1],
    ]


def test_matrix_identity_and_order_guard():
    assert matrix(identity_pair(5), 5) == CoeffMatrix.identity(5)
    with pytest.raises(InsufficientOrder):
        matrix(identity_pair(4), 6)


def test_pascal_matrix():
    assert ints(matrix(pascal_pair(6), 5)) == [
        [comb(n, k) if k <= n else 0 for k in range(5)] for n in range(5)
    ]


def test_product_catalan_factorization_of_R1():
    cat = catalan_pair(12)
    right = RiordanPair(
        series.rational([1, -1], [1, -3, 3, -2], 12), series.poly([0, 1], 12)
    )
    assert product(cat, right) == make_R(1, 12)


def test_product_identity_and_inverse():
    a = make_example1(10)
    assert product(identity_pair(10), a) == a
    assert product(a, identity_pair(10)) == a
    assert product(a, inverse(a)) == identity_pair(10)


def test_inverse_closed_forms():
    inv2 = inverse(make_R(2, 10))
    assert seq(inv2.g) == [1, -4, 6, -4] + [0] * 6
    assert seq(inv2.f) == [0, 1, -1] + [0] * 7
    for r in (0, 1, 3):
        inv = inverse(make_R(r, 10))
        expected_g = series.poly([1, -2], 10) * series.poly([1, -r, r], 10)
        assert inv.g == expected_g
        assert inv.f == series.poly([0, 1, -1], 10)
    assert inverse(identity_pair(8)) == identity_pair(8)


def test_apply():
    h = series.poly([2, 0, -1, 5], 6)
    assert apply(identity_pair(6), h) == h
    geo = series.rational([1], [1, -1], 8)
    assert seq(apply(pascal_pair(8), geo)) == [2**n for n in range(8)]
    zero = series.poly([], 6)
    assert apply(make_example1(6), zero).is_zero()


def test_apply_matches_matrix_vector_product():
    rng = random.Random(5)
    a = make_example1(8)
    M = matrix(a, 8)
    h = series.Series([rng.randint(-3, 3) for _ in range(8)], 8)
    out = apply(a, h)
    for n in range(8):
        assert out.coeffs[n] == sum(M[n][k] * h.coeffs[k] for k in range(8))


def test_row_sums():
    assert seq(row_sums(pascal_pair(8), 8)) == [2**n for n in range(8)]
    assert seq(row_sums(identity_pair(6), 6)) == [1] * 6
    assert seq(row_sums(make_R(1, 8), 6)) == [1, 4, 14, 49, 175, 637]
    M = matrix(make_R(1, 8), 6)
    assert [sum(row) for row in M.rows] == [1, 4, 14, 49, 175, 637]


def test_diagonal_sums():
    assert seq(diagonal_sums(identity_pair(6), 6)) == [1, 0, 1, 0, 1, 0]
    fib = [1, 1]
    while len(fib) < 8:
        fib.append(fib[-1] + fib[-2])
    assert seq(diagonal_sums(pascal_pair(8), 8)) == fib
    a = make_example1(10)
    M = matrix(a, 10)
    direct = [sum(M[n - k][k] for k in range(n + 1) if n - k < 10) for n in range(5)]
    assert seq(diagonal_sums(a, 5)) == direct


def test_bivariate_gf_rational_route():
    ex1 = make_example1(10)
    gf = bivariate_gf(ex1)
    assert isinstance(gf, BivariateRational)
    closed_form = BivariateRational(ONE + X, (ONE + X + X * X) * (ONE + X - X * Y))
    assert gf_identity_check(gf, closed_form)
    assert expand(gf, 8) == matrix(ex1, 8)


def test_bivariate_gf_needs_rational_forms():
    with pytest.raises(ValueError):
        bivariate_gf(make_R(1, 10))
    assert expand(bivariate_gf(identity_pair(6)), 6) == CoeffMatrix.identity(6)


def test_conjugate_twenty_vertex_chain():
    N = 10
    g0 = expand(
        BivariateRational((ONE - X) * (ONE - Y), (ONE - X * Y) * (ONE - X - Y - X * Y)), N
    )
    a1 = RiordanPair(series.rational([1], [1, 1], 12), series.rational([0, 1], [1, 1], 12))
    step1 = conjugate(g0, a1)
    assert step1 == expand(BivariateRational(ONE, (ONE - 2 * X * Y) * (ONE + X + Y)), N)
    a2 = RiordanPair(series.poly([1], 12), series.poly([0, -1], 12))
    step2 = conjugate(step1, a2)
    assert step2 == expand(BivariateRational(ONE, (ONE - 2 * X * Y) * (ONE - X - Y)), N)


def test_conjugate_by_identity():
    M = expand(BivariateRational(ONE, ONE - X - Y), 6)
    assert conjugate(M, identity_pair(8)) == M


def test_conjugate_gf_relation_randomized():
    # result gf is p(x) p(y) m(q(x), q(y)): checked through matrices, with the
    # gf side expanded independently for a rational test pair
    rng = random.Random(13)
    for _ in range(20):
        P = {}
        for i in range(3):
            for j in range(3):
                if rng.random() < 0.5:
                    P[(i, j)] = rng.randint(-2, 2)
        from riordan.bivar import BivarPoly

        m = BivariateRational(BivarPoly(P), ONE - X - Y)
        M = expand(m, 8)
        a = RiordanPair(
            series.rational([1], [1, 1], 10), series.rational([0, 1], [1, 1], 10)
        )
        A = matrix(a, 8)
        assert conjugate(M, a) == A * M * A.transpose()


def test_gf_right_transform_example():
    m = BivariateRational(ONE, ONE - X - Y) - BivariateRational(Y, ONE - X * Y)
    mult = RiordanPair(
        series.rational([1], [1, -1, 1], 12),
        series.poly([0, 1], 12),
        g_rational=([1], [1, -1, 1]),
        f_rational=([0, 1], [1]),
    )
    out = gf_right_transform(m, mult)
    target = BivariateRational(ONE, (ONE - X * Y) * (ONE - X - Y))
    assert gf_identity_check(out, target)
    # definitional check at N = 8: expansion equals M times A^T
    assert expand(out, 8) == expand(m, 8) * matrix(mult, 8).transpose()


def test_gf_right_transform_identity_multiplier():
    m = BivariateRational(ONE, ONE - X - Y)
    out = gf_right_transform(m, identity_pair(8))
    assert gf_identity_check(out, m)


def _random_series(rng, order, zero_const=False, nonzero_const=False, unit=False):
    c = [F(rng.randint(-3, 3)) for _ in range(order)]
    if zero_const:
        c[0] = F(0)
        c[1] = F(1) if unit else F(rng.choice([1, -1, 2]))
    if nonzero_const:
        c[0] = F(1) if unit else F(rng.choice([1, -1, 2]))
    return series.Series(c, order)


def _random_pair(rng, order, unipotent=False):
    return RiordanPair(
        _random_series(rng, order, nonzero_const=True, unit=unipotent),
        _random_series(rng, order, zero_const=True, unit=unipotent),
    )


def test_group_laws_randomized():
    rng = random.Random(17)
    for _ in range(100):
        a = _random_pair(rng, 8)
        b = _random_pair(rng, 8)
        c = _random_pair(rng, 8)
        assert product(product(a, b), c) == product(a, product(b, c))
        assert product(a, inverse(a)) == identity_pair(8)
        assert inverse(inverse(a)) == a


def test_matrix_homomorphism_randomized():
    rng = random.Random(19)
    for _ in range(100):
        a = _random_pair(rng, 12)
        b = _random_pair(rng, 12)
        assert matrix(product(a, b), 12) == matrix(a, 12) * matrix(b, 12)


def test_gf_coefficient_identity_randomized():
    # [x^n y^k] g/(1-yf) = [x^n] g f^k, with the left side expanded from the
    # exact rational form for polynomial pairs
    rng = random.Random(23)
    for _ in range(100):
        pg = [rng.randint(-3, 3) for _ in range(4)]
        pf = [0] + [rng.randint(-3, 3) for _ in range(3)]
        if pg[0] == 0:
            pg[0] = 1
        if pf[1] == 0:
            pf[1] = 1
        pair = RiordanPair(
            series.poly(pg, 9),
            series.poly(pf, 9),
            g_rational=(pg, [1]),
            f_rational=(pf, [1]),
        )
        assert expand(bivariate_gf(pair), 9) == matrix(pair, 9)


def test_unit_diagonal_lower_triangular():
    rng = random.Random(29)
    for _ in range(40):
        a = _random_pair(rng, 9, unipotent=True)
        M = matrix(a, 9)
        assert M.is_lower_triangular()
        assert all(M[i][i] == 1 for i in range(9))


def test_sum_formulas_match_matrix_randomized():
    rng = random.Random(31)
    for _ in range(50):
        a = _random_pair(rng, 9)
        M = matrix(a, 9)
        rs = row_sums(a, 9)
        ds = diagonal_sums(a, 9)
        for n in range(9):
            assert rs.coeffs[n] == sum(M[n][k] for k in range(9))
            assert ds.coeffs[n] == sum(M[n - k][k] for k in range(n + 1))


def _fraction_triangle(a, N):
    """Reference triangle: [x^n] g * f^k by explicit Fraction convolutions."""
    g = [F(c) for c in a.g.coeffs[:N]]
    f = [F(c) for c in a.f.coeffs[:N]]
    cols = [g]
    for _ in range(1, N):
        prev = cols[-1]
        cols.append([sum((prev[i] * f[n - i] for i in range(n + 1)), F(0)) for n in range(N)])
    return [[cols[k][n] for k in range(N)] for n in range(N)]


@pytest.mark.parametrize("r", range(-2, 6))
def test_matrix_R_matches_closed_form_entry(r):
    M = matrix(make_R(r, 60), 60)
    assert all(type(c) is int for row in M.rows for c in row)
    assert M.rows == [[closed_form_entry(r, n, k) for k in range(60)] for n in range(60)]


@pytest.mark.parametrize(
    "spec",
    [*(f"tildeR:{r}" for r in range(-1, 4)), *(f"Rinv:{r}" for r in range(-1, 4))]
    + ["catalan", "pascal", "example1", "A361654"],
)
def test_integral_families_match_fraction_reference(spec):
    a = cli._build_pair(*cli._parse_family(spec), 30)
    M = matrix(a, 30)
    assert all(type(c) is int for row in M.rows for c in row)
    assert M.rows == _fraction_triangle(a, 30)


def test_rational_pair_matrix_keeps_fractions():
    rng = random.Random(41)
    rational = 0
    for _ in range(20):
        a = verify._random_pair(rng, 12)
        M = matrix(a, 12)
        assert M.rows == _fraction_triangle(a, 12)
        if any(c.denominator != 1 for c in a.g.coeffs + a.f.coeffs):
            rational += 1
            assert all(type(c) is (int if c.denominator == 1 else F) for row in M.rows for c in row)
    assert rational
