import random
import tracemalloc
from fractions import Fraction
from functools import cache
from math import comb

import pytest

from riordan import cli, series, verify
from riordan.array import (
    RiordanPair,
    _relation_rows,
    _relation_s,
    bivariate_gf,
    conjugate,
    gf_conjugate,
    gf_right_transform,
    identity_pair,
    inverse,
    matrix,
    product,
    rational_pair,
)
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
from riordan.families import (
    catalan_pair,
    make_example1,
    make_R,
    make_R_inverse_closed,
    make_tilde_R,
    pascal_pair,
    quadratic_pair,
    tilde_inverse_closed,
    twenty_vertex_gf,
    twenty_vertex_matrix,
)
from riordan.minors import principal_minors
from riordan.symmetry import closed_form_rows

F = Fraction


def ints(M):
    return [[int(v) for v in row] for row in M.rows]


def seq(s):
    return [int(c) if c.denominator == 1 else c for c in s.coeffs]


def test_pair_validation():
    with pytest.raises(ValueError):
        RiordanPair(series.Series([0, 1], 4), series.Series([0, 1], 4))
    with pytest.raises(ValueError):
        RiordanPair(series.Series([1], 4), series.Series([1, 1], 4))
    with pytest.raises(ValueError):
        RiordanPair(series.Series([1], 4), series.Series([0, 0, 1], 4))


def test_pair_keeps_series_of_its_order():
    g, f = series.Series([1, 2, 3], 3), series.Series([0, 1, 1, 4], 4)
    a = RiordanPair(g, f)
    assert a.g is g and a.f == series.Series([0, 1, 1], 3)


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
    with pytest.raises(ValueError, match="order 4 cannot fill an 6x6 matrix"):
        matrix(identity_pair(4), 6)


def test_matrix_with_polynomial_f_matches_powers():
    # f = x - x^2 is stored with trailing zeros, which the column loop skips
    n = 9
    g = series.Series([1, Fraction(1, 3), -2, 0, 7], n)
    f = series.Series([0, 1, -1], n)
    powers = [series.Series([1], n)]
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
    right = rational_pair(([1, -1], [1, -3, 3, -2]), ([0, 1], [1]), 12)
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
        expected_g = series.Series([1, -2], 10) * series.Series([1, -r, r], 10)
        assert inv.g == expected_g
        assert inv.f == series.Series([0, 1, -1], 10)
    assert inverse(identity_pair(8)) == identity_pair(8)


IDENTITY_FORMS = ([1], [1]), ([0, 1], [1])
PASCAL_FORMS = ([1], [1, -1]), ([0, 1], [1, -1])
EXAMPLE1_FORMS = ([1], [1, 1, 1]), ([0, 1], [1, 1])
ASM_MULTIPLIER_FORMS = ([1], [1, -1, 1]), ([0, 1], [1])
CHAIN_FORMS = ([1], [1, 1]), ([0, 1], [1, 1])
NEGATION_FORMS = ([1], [1]), ([0, -1], [1])


def test_bivariate_gf_rational_route():
    ex1 = make_example1(10)
    gf = bivariate_gf(*EXAMPLE1_FORMS)
    assert isinstance(gf, BivariateRational)
    closed_form = BivariateRational(ONE + X, (ONE + X + X * X) * (ONE + X - X * Y))
    assert gf_identity_check(gf, closed_form)
    assert expand(gf, 8) == matrix(ex1, 8)


def test_bivariate_gf_needs_rational_forms():
    assert expand(bivariate_gf(*IDENTITY_FORMS), 6) == CoeffMatrix.identity(6)


def test_conjugate_twenty_vertex_chain():
    N = 10
    g0 = expand(
        BivariateRational((ONE - X) * (ONE - Y), (ONE - X * Y) * (ONE - X - Y - X * Y)), N
    )
    a1 = rational_pair(([1], [1, 1]), ([0, 1], [1, 1]), 12)
    step1 = conjugate(g0, a1)
    assert step1 == expand(BivariateRational(ONE, (ONE - 2 * X * Y) * (ONE + X + Y)), N)
    a2 = RiordanPair(series.Series([1], 12), series.Series([0, -1], 12))
    step2 = conjugate(step1, a2)
    assert step2 == expand(BivariateRational(ONE, (ONE - 2 * X * Y) * (ONE - X - Y)), N)


def test_conjugate_by_identity():
    M = expand(BivariateRational(ONE, ONE - X - Y), 6)
    assert conjugate(M, identity_pair(8)) == M


def _random_forms(rng):
    """The forms (pg, qg), (pf, qf) of a pair from short random integer
    lists; the constant terms of both denominators are in {1, -1, 2}."""
    pg = [rng.choice([1, -1, 2, 3])] + [rng.randint(-3, 3) for _ in range(2)]
    qg = [rng.choice([1, -1, 2])] + [rng.randint(-2, 2) for _ in range(2)]
    pf = [0, rng.choice([1, -1, 2])] + [rng.randint(-3, 3) for _ in range(2)]
    qf = [rng.choice([1, -1, 2])] + [rng.randint(-2, 2) for _ in range(2)]
    return (pg, qg), (pf, qf)


def test_conjugate_gf_relation_randomized():
    # result gf is p(x) p(y) m(q(x), q(y)): gf_conjugate expanded against the
    # matrix conjugation of the expansion of m, for a non-symmetric m
    rng = random.Random(13)
    for _ in range(20):
        P = {(0, 0): 1}
        for i in range(3):
            for j in range(3):
                if rng.random() < 0.5:
                    P[(i, j)] = rng.randint(-2, 2)
        m = BivariateRational(BivarPoly(P), ONE - X - 2 * Y + rng.randint(-2, 2) * X * Y)
        M = expand(m, 8)
        assert not M.is_symmetric()
        a = rational_pair(([1], [1, 1]), ([0, 1], [1, 1]), 10)
        A = matrix(a, 8)
        assert conjugate(M, a) == A * M * A.transpose()
        b = _random_forms(rng)
        assert expand(gf_conjugate(m, *b), 8) == conjugate(M, rational_pair(*b, 10))


def _bivariate_gf_oracle(g_form, f_form):
    """g(x) / (1 - y f(x)) written out: pg qf / (qg (qf - y pf)), in x."""
    (pg, qg), (pf, qf) = g_form, f_form

    def in_x(c):
        return BivarPoly({(i, 0): v for i, v in enumerate(c)})

    return BivariateRational(in_x(pg) * in_x(qf), in_x(qg) * (in_x(qf) - Y * in_x(pf)))


def test_bivariate_gf_is_the_transposed_right_transform():
    rng = random.Random(31)
    for _ in range(120):
        forms = _random_forms(rng)
        gf = bivariate_gf(*forms)
        assert gf_identity_check(gf, _bivariate_gf_oracle(*forms))
        assert expand(gf, 8) == matrix(rational_pair(*forms, 8), 8)


def test_twenty_vertex_chain_on_gfs():
    # the chain decided for the whole expansion; each link keeps every leading
    # minor, so the end matrix has the twenty-vertex minors at every N
    g0 = BivariateRational((ONE - X) * (ONE - Y), (ONE - X * Y) * (ONE - X - Y - X * Y))
    link = BivariateRational(ONE + Y * Y, (ONE - Y) * (ONE - Y))
    prod = BivariateRational(g0.num * link.num, g0.den * link.den)
    assert gf_identity_check(twenty_vertex_gf(), prod)
    step1 = gf_conjugate(g0, *CHAIN_FORMS)
    assert gf_identity_check(step1, BivariateRational(ONE, (ONE - 2 * X * Y) * (ONE + X + Y)))
    end = BivariateRational(ONE, (ONE - 2 * X * Y) * (ONE - X - Y))
    assert gf_identity_check(gf_conjugate(step1, *NEGATION_FORMS), end)
    assert not gf_identity_check(gf_conjugate(step1, *IDENTITY_FORMS), end)
    N = 14
    assert principal_minors(expand(end, N), N) == principal_minors(twenty_vertex_matrix(N), N)


def test_gf_right_transform_example():
    m = BivariateRational(ONE, ONE - X - Y) - BivariateRational(Y, ONE - X * Y)
    out = gf_right_transform(m, *ASM_MULTIPLIER_FORMS)
    target = BivariateRational(ONE, (ONE - X * Y) * (ONE - X - Y))
    assert gf_identity_check(out, target)
    # definitional check at N = 8: expansion equals M times A^T
    mult = rational_pair(*ASM_MULTIPLIER_FORMS, 8)
    assert expand(out, 8) == expand(m, 8) * matrix(mult, 8).transpose()


@pytest.mark.parametrize(
    "build, forms",
    [
        pytest.param(pascal_pair, PASCAL_FORMS, id="pascal_pair"),
        pytest.param(make_example1, EXAMPLE1_FORMS, id="make_example1"),
    ],
)
def test_gf_right_transform_clears_the_denominator_of_f(build, forms):
    # f = x/(1 -+ x): y -> q(y) multiplies y^j by pq^j qq^(d-j)
    m = BivariateRational(ONE, ONE - X - Y) - BivariateRational(Y, ONE - X * Y)
    out = gf_right_transform(m, *forms)
    assert expand(out, 8) == expand(m, 8) * matrix(build(12), 8).transpose()


def test_gf_right_transform_identity_multiplier():
    m = BivariateRational(ONE, ONE - X - Y)
    out = gf_right_transform(m, *IDENTITY_FORMS)
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
        forms = (pg, [1]), (pf, [1])
        assert expand(bivariate_gf(*forms), 9) == matrix(rational_pair(*forms, 9), 9)


def test_unit_diagonal_lower_triangular():
    rng = random.Random(29)
    for _ in range(40):
        a = _random_pair(rng, 9, unipotent=True)
        M = matrix(a, 9)
        assert all(M[i][j] == 0 for i in range(9) for j in range(i + 1, 9))
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
    assert M.rows == closed_form_rows(r, 0, 60)


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


def _counting(names, fn, *args):
    """fn(*args) and the number of calls it made to each named function of
    the series module."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        kernel = getattr(series, name)

        def call(*a):
            calls[name] += 1
            return kernel(*a)

        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            mp.setattr(series, name, counted(name))
        return fn(*args), calls


def _built(a, N):
    """matrix(a, N) and the number of series._mul_lists calls it made: none
    on the relation route, N - 1 on the product route."""
    M, calls = _counting(["_mul_lists"], matrix, a, N)
    return M, calls["_mul_lists"]


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
    bent = RiordanPair(a.g, a.f + series.Series([0] * 20 + [1], 30))
    for N, expected in ((20, 0), (21, 20)):
        M, calls = _built(bent, N)
        assert calls == expected
        assert M.rows == _column_product(bent, N)
    assert matrix(bent, 20) == matrix(a, 20)


def test_relation_check_matches_series_arithmetic():
    # f + x^j for j on both sides of every parity: the check takes the
    # relation exactly when f - f^2 - x(1 + s f) = 0 mod x^N, s = f_2 - 1
    for r in (-2, 0, 3):
        f = make_tilde_R(r, 30).f
        for j in range(3, 14):
            for bump in (-1, 1):
                bent = f + series.Series([0] * j + [bump], 30)
                for N in range(3, 18):
                    s = bent.nums[2] - 1
                    b = bent.truncate(N)
                    rest = b - b * b - series.Series([0, 1], N) * (1 + s * b)
                    holds = not any(rest.nums)
                    assert _relation_s(bent, N) == (s if holds else None)


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
        right = rational_pair(([1, -1], [1, -r - 2, 3 * r, -2 * r]), ([0, 1], [1]), 30)
        R = matrix(make_R(r, 30), 30)
        assert _built(product(cat, right), 30) == (R, 0)
        assert _built(inverse(make_R_inverse_closed(r, 30)), 30) == (R, 0)


def _inverse_by_reversion(a):
    """The group inverse from its definition: fbar by Lagrange reversion,
    then 1/g(fbar) by composition."""
    fbar = series.revert(a.f)
    return RiordanPair(1 / series.compose(a.g, fbar), fbar)


def _relation_f(spec, N):
    """An f on the relation route: a family's, x, or x - x^2 (on it only
    up to order 4)."""
    if spec == "identity":
        return series.Series([0, 1], N)
    if spec == "x-x^2":
        return series.Series([0, 1, -1], N)
    return cli._build_pair(*cli._parse_family(spec), N).f


def _random_g(rng, N):
    """An int g with g_0 in {1, -1, 2, 3}, or a rational one."""
    g0 = rng.choice([1, -1, 2, 3])
    if rng.random() < 0.5:
        return series.Series([g0] + [rng.randint(-9, 9) for _ in range(N - 1)], N)
    rest = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(N - 1)]
    return series.Series([F(g0, rng.choice([1, 2, 3]))] + rest, N)


@pytest.mark.parametrize("spec", [*RELATION_SPECS, "identity", "x-x^2"])
def test_relation_route_inverse_matches_reversion_randomized(spec):
    rng = random.Random(spec)
    for N in range(3, 41):
        a = RiordanPair(_random_g(rng, N), _relation_f(spec, N))
        inv = inverse(a)
        assert inv == _inverse_by_reversion(a)
        assert inverse(inv) == a


@pytest.mark.parametrize("spec", ["tildeR:2", "R:1"])
def test_relation_route_inverse_matches_reversion_at_order_300(spec):
    a = RiordanPair(_random_g(random.Random(spec), 300), _relation_f(spec, 300))
    assert inverse(a) == _inverse_by_reversion(a)


def test_relation_route_fbar_is_the_rational_expansion():
    # x - (s + 1) (x^2 - s x^3 + s^2 x^4 - ...), written out, is x(1 - x)/(1 + sx)
    for s in range(-5, 6):
        for n in range(3, 41):
            a = quadratic_pair(0, s, n)
            assert _relation_s(a.f, n) == s
            assert inverse(a).f == series.Series([0, 1, -1], n) / series.Series([1, s], n)


def test_relation_rows_match_the_closed_form():
    for a in range(-3, 5):
        for s in range(-3, 5):
            g = quadratic_pair(a, s, 30).g.nums
            closed = [row[: m + 1] for m, row in enumerate(closed_form_rows(a, s, 30))]
            for N in (1, 2, 3, 30):
                assert list(_relation_rows(g, s, N)) == closed[:N]


def test_relation_route_inverse_holds_no_n_by_n_table():
    a = make_tilde_R(1, 600)
    tracemalloc.start()
    try:
        inv = inverse(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inv == tilde_inverse_closed(1, 600)
    # the 600 x 600 table of the triangle took 22.6 MB; two rows take 0.3 MB
    assert peak < 2_000_000


def test_inverse_routes():
    relation = [cli._build_pair(*cli._parse_family(spec), 40) for spec in RELATION_SPECS]
    product_route = [a for a, _ in PRODUCT_ROUTE.values()]
    # f = x - x^2 meets the relation mod x^4 and not mod x^5, and
    # x c(x) + x^20 mod x^20 and not mod x^21
    relation.append(make_R_inverse_closed(2, 4))
    product_route.append(make_R_inverse_closed(2, 5))
    product_route.append(RiordanPair(_R1.g, _R1.f + series.Series([0] * 20 + [1], 40)))
    for pairs, n in ((relation, 0), (product_route, 1)):
        for a in pairs:
            inv, calls = _counting(["revert", "compose"], inverse, a)
            assert calls == {"revert": n, "compose": n}
            assert inv == _inverse_by_reversion(a)


@pytest.mark.parametrize("r", range(-3, 7))
def test_inverse_closed_forms_at_order_60(r):
    assert inverse(make_R(r, 60)) == make_R_inverse_closed(r, 60)
    assert inverse(make_tilde_R(r, 60)) == tilde_inverse_closed(r, 60)


def test_catalan_inverse_at_order_60():
    # c(x(1 - x)) = 1/(1 - x)
    assert inverse(catalan_pair(60)) == rational_pair(([1, -1], [1]), ([0, 1, -1], [1]), 60)
