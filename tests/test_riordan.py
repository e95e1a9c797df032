import random
from fractions import Fraction
from functools import cache
from math import comb

import pytest

from riordan import cli, series, verify
from riordan.array import (
    RiordanPair,
    apply,
    bivariate_gf,
    conjugate,
    gf_right_transform,
    identity_pair,
    inverse,
    matrix,
    product,
    rational_pair,
)
from riordan.bivar import ONE, X, Y, BivariateRational, CoeffMatrix, expand, gf_identity_check
from riordan.families import (
    catalan_pair,
    make_example1,
    make_R,
    make_R_inverse_closed,
    pascal_pair,
)
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


def test_matrix_with_polynomial_f_matches_powers():
    # f = x - x^2 is stored with trailing zeros, which the column loop skips
    n = 9
    g = series.Series([1, Fraction(1, 3), -2, 0, 7], n)
    f = series.poly([0, 1, -1], n)
    powers = [series.poly([1], n)]
    for _ in range(1, n):
        powers.append(powers[-1] * f)
    want = [[(g * powers[k]).coeffs[i] if k <= i else 0 for k in range(n)] for i in range(n)]
    assert matrix(RiordanPair(g, f), n).rows == want


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
    mult = rational_pair(([1], [1, -1, 1]), ([0, 1], [1]), 12)
    out = gf_right_transform(m, mult)
    target = BivariateRational(ONE, (ONE - X * Y) * (ONE - X - Y))
    assert gf_identity_check(out, target)
    # definitional check at N = 8: expansion equals M times A^T
    assert expand(out, 8) == expand(m, 8) * matrix(mult, 8).transpose()


@pytest.mark.parametrize("build", [pascal_pair, make_example1])
def test_gf_right_transform_clears_the_denominator_of_f(build):
    # f = x/(1 -+ x): y -> q(y) multiplies y^j by pq^j qq^(d-j)
    m = BivariateRational(ONE, ONE - X - Y) - BivariateRational(Y, ONE - X * Y)
    a = build(12)
    assert expand(gf_right_transform(m, a), 8) == expand(m, 8) * matrix(a, 8).transpose()


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
        pair = rational_pair((pg, [1]), (pf, [1]), 9)
        assert expand(bivariate_gf(pair), 9) == matrix(pair, 9)


def test_unit_diagonal_lower_triangular():
    rng = random.Random(29)
    for _ in range(40):
        a = _random_pair(rng, 9, unipotent=True)
        M = matrix(a, 9)
        assert M.is_lower_triangular()
        assert all(M[i][i] == 1 for i in range(9))


def _fraction_triangle(a, N):
    """Reference triangle: [x^n] g * f^k by explicit schoolbook convolutions
    on the exact coefficients as stored (int when integral, Fraction
    otherwise)."""
    g = a.g.coeffs[:N]
    f = a.f.coeffs[:N]
    cols = [g]
    for _ in range(1, N):
        prev = cols[-1]
        cols.append([sum(prev[i] * f[n - i] for i in range(n + 1)) for n in range(N)])
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


RELATION_SPECS = [
    *(f"R:{r}" for r in range(-3, 7)),
    *(f"tildeR:{r}" for r in range(-3, 7)),
    "catalan",
    "A361654",
]


def _column_product(a, N):
    """Reference triangle: column k is g * f^k by Series products."""
    g, f = a.g.truncate(N), a.f.truncate(N)
    cols = [g]
    for _ in range(1, N):
        cols.append(cols[-1] * f)
    return [[cols[k].coeffs[n] for k in range(N)] for n in range(N)]


@cache
def _R0_product():
    return _column_product(make_R(0, 200), 200)


def _reference_200(spec):
    """The N = 200 column-product triangle of spec.  R_r = (1/(1-rx), x) R_0
    in the Riordan group, so the triangle of R:r is built from the one of R_0
    as T_r[n][k] = r T_r[n-1][k] + T_0[n][k]."""
    name, r = cli._parse_family(spec)
    if name != "R":
        return _column_product(cli._build_pair(name, r, 200), 200)
    rows, prev = [], [0] * 200
    for row in _R0_product():
        prev = [r * u + v for u, v in zip(prev, row)]
        rows.append(prev)
    return rows


def _built(a, N):
    """matrix(a, N) and the number of series._mul_lists calls it made: none
    on the relation route, N - 1 on the product route."""
    calls = 0
    kernel = series._mul_lists

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_mul_lists", counted)
        M = matrix(a, N)
    return M, calls


@pytest.mark.parametrize("spec", RELATION_SPECS)
def test_relation_route_matches_product_route_and_fraction_reference(spec):
    # f inverts x(1-x)/(1+sx), so every N > 2 takes the relation route
    a = cli._build_pair(*cli._parse_family(spec), 200)
    M, calls = _built(a, 200)
    assert calls == 0
    assert M.rows == _reference_200(spec)
    ref = _fraction_triangle(a, 40)
    for N in range(41):
        M, calls = _built(a, N)
        # N = 2 takes the product route, which is one product
        assert calls == (1 if N == 2 else 0)
        assert all(type(c) is int for row in M.rows for c in row)
        assert M.rows == [row[:N] for row in ref[:N]]


def test_relation_is_checked_to_the_order_built():
    # f + x^20 satisfies f - f^2 = x mod x^20 and not mod x^21
    a = make_R(1, 30)
    bent = RiordanPair(a.g, a.f + series.poly([0] * 20 + [1], 30))
    for N, expected in ((20, 0), (21, 20)):
        M, calls = _built(bent, N)
        assert calls == expected
        assert M.rows == _column_product(bent, N)
    assert matrix(bent, 20) == matrix(a, 20)


_R1 = make_R(1, 40)

# Pairs off the relation, each with the least N > 2 at which it takes the
# product route.  Every integral f with f_1 = 1 satisfies the relation mod
# x^3, so pascal and example1 take the relation route at N = 3.
PRODUCT_ROUTE = {
    "pascal": (pascal_pair(40), 4),
    "example1": (make_example1(40), 4),
    # f = x - x^2: s = -2, and f - f^2 - x(1 - 2f) = -x^4
    "Rinv:2": (make_R_inverse_closed(2, 40), 5),
    # f = -x c(x) has f_1 = -1
    "minus-xc": (RiordanPair(_R1.g, -_R1.f), 3),
    # f = x c(x) / 2 is not integral
    "half-xc": (RiordanPair(_R1.g, _R1.f / 2), 3),
}


@pytest.mark.parametrize("case", PRODUCT_ROUTE)
def test_other_pairs_take_the_product_route(case):
    a, first = PRODUCT_ROUTE[case]
    ref = _column_product(a, 40)
    for N in (3, 4, 5, 6, 40):
        M, calls = _built(a, N)
        assert calls == (0 if N < first else N - 1)
        assert M.rows == [row[:N] for row in ref[:N]]


def test_group_operations_take_the_relation_route():
    # the factorization suite's product (c, x c) . (u, x) has f = x c(x),
    # and so has the inverse of (g, x - x^2)
    cat = catalan_pair(30)
    for r in range(6):
        right = RiordanPair(
            series.rational([1, -1], [1, -r - 2, 3 * r, -2 * r], 30), series.poly([0, 1], 30)
        )
        R = matrix(make_R(r, 30), 30)
        assert _built(product(cat, right), 30) == (R, 0)
        assert _built(inverse(make_R_inverse_closed(r, 30)), 30) == (R, 0)
