import random
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import comb

import pytest

from riordan import cli, families, series
from riordan.array import (
    RiordanPair,
    bivariate_gf,
    conjugate,
    identity_pair,
    inverse,
    matrix,
    product,
    rational_pair,
)
from riordan.bivar import ONE, X, Y, BivariateRational, CoeffMatrix, expand
from riordan.families import (
    _alternating_rows,
    asm_count_bruteforce,
    catalan_gf,
    catalan_pair,
    catalan_shift,
    classical_asm_gf,
    classical_asm_matrix,
    make_A361654_embed,
    make_example1,
    make_R,
    make_R_inverse_closed,
    make_tilde_R,
    pascal_pair,
    quadratic_inverse,
    quadratic_pair,
    reference_B20,
    robbins,
    tilde_inverse_closed,
    twenty_vertex_gf,
    twenty_vertex_matrix,
)
from riordan.minors import principal_minors
from riordan.symmetry import closed_form_rows, closed_form_sym_rows, symmetrize

F = Fraction


def seq(s):
    return [int(c) if c.denominator == 1 else c for c in s.coeffs]


def test_catalan_gf():
    c = catalan_gf(8)
    assert seq(c) == [1, 1, 2, 5, 14, 42, 132, 429]
    # recurrence oracle: c = 1 + x c^2
    x = series.Series([0, 1], 8)
    assert c == 1 + x * c * c
    assert catalan_shift(8) == series.revert(series.Series([0, 1, -1], 8))
    for n in range(41):
        cat = [comb(2 * k, k) // (k + 1) for k in range(n)]
        assert catalan_gf(n) == series.Series(cat, n)
        assert catalan_shift(n) == series.Series([0] + cat, n)
    assert catalan_gf(0).order == catalan_shift(0).order == 0
    assert seq(catalan_gf(1)) == [1] and seq(catalan_shift(1)) == [0]
    for n in (0, 1):
        with pytest.raises(ValueError, match="a Riordan pair needs order >= 2"):
            catalan_pair(n)


def test_make_R():
    assert seq(make_R(0, 6).g) == [comb(2 * n, n) for n in range(6)]
    M1 = matrix(make_R(1, 8), 6)
    assert [int(M1[n][0]) for n in range(6)] == [1, 3, 9, 29, 99, 351]
    M2 = matrix(make_R(2, 8), 6)
    assert [int(M2[n][0]) for n in range(6)] == [1, 4, 14, 48, 166, 584]
    for r in range(-2, 6):
        for n in (2, 9, 30):
            cat = [comb(2 * k, k) // (k + 1) for k in range(n - 1)]
            assert make_R(r, n).f == series.Series([0] + cat, n)


def test_make_R_inverse_closed():
    r0 = make_R_inverse_closed(0, 6)
    assert seq(r0.g) == [1, -2, 0, 0, 0, 0]
    assert seq(r0.f) == [0, 1, -1, 0, 0, 0]
    assert seq(make_R_inverse_closed(1, 6).g) == [1, -3, 3, -2, 0, 0]
    assert seq(make_R_inverse_closed(2, 6).g) == [1, -4, 6, -4, 0, 0]


def test_inverse_matches_closed_form():
    for r in range(-2, 6):
        assert inverse(make_R(r, 20)) == make_R_inverse_closed(r, 20)


def test_inverse_matches_closed_form_at_order_100():
    for r in range(-1, 4):
        assert inverse(make_R(r, 100)) == make_R_inverse_closed(r, 100)


def test_revert_tilde_f_at_order_120():
    for r in range(4):
        fbar = series.Series([0, 1, -1], 120) / series.Series([1, r], 120)
        assert series.revert(make_tilde_R(r, 120).f) == fbar


def test_make_tilde_R():
    assert make_tilde_R(0, 16) == make_R(1, 16)
    t1 = make_tilde_R(1, 8)
    assert seq(t1.f) == [0, 1, 2, 6, 22, 90, 394, 1806]  # large Schroeder numbers


def test_tilde_inverse_closed_form():
    for a in range(-3, 5):
        for s in range(-3, 5):
            assert inverse(quadratic_pair(a, s, 40)) == quadratic_inverse(a, s, 40)


@pytest.mark.parametrize("order", [3, 4, 5, 33, 300])
def test_relation_route_inverse_of_Q_matches_its_closed_form(order):
    for a in range(-3, 5):
        for s in range(-3, 5):
            assert inverse(quadratic_pair(a, s, order)) == quadratic_inverse(a, s, order)


def test_tilde_inverse_variant_denominator_only_matches_at_r1():
    # a variant keeping (1+x) instead of (1+rx) inside the derivative factor,
    # g = (1 + (r-1)x + x^2)(1 - 2x - x^2)/(1+x)^2, only reproduces the
    # inverse at r = 1, where the two coincide
    def variant(r, order):
        g_num = [1, r - 3, 2 - 2 * r, -r - 1, -1]
        return rational_pair((g_num, [1, 2, 1]), ([0, 1, -1], [1, r]), order)

    assert inverse(make_tilde_R(1, 12)) == variant(1, 12)
    assert inverse(make_tilde_R(0, 12)) != variant(0, 12)


def _rinv_forms(r):
    return ([1, -r - 2, 3 * r, -2 * r], [1]), ([0, 1, -1], [1])


def _tilde_inv_forms(r):
    g_num = [1, r - 3, 3 - 3 * r, -(r * r - r + 2), -r]
    return (g_num, [1, 2 * r, r * r]), ([0, 1, -1], [1, r])


# each family's constructor with its forms, written out here
RATIONAL_FAMILIES = {
    "identity": (identity_pair, (([1], [1]), ([0, 1], [1]))),
    "pascal": (pascal_pair, (([1], [1, -1]), ([0, 1], [1, -1]))),
    "example1": (make_example1, (([1], [1, 1, 1]), ([0, 1], [1, 1]))),
    **{f"Rinv:{r}": (partial(make_R_inverse_closed, r), _rinv_forms(r)) for r in range(-2, 6)},
    **{
        f"tildeInv:{r}": (partial(tilde_inverse_closed, r), _tilde_inv_forms(r))
        for r in range(-3, 7)
    },
}


@pytest.mark.parametrize("name", RATIONAL_FAMILIES)
def test_rational_families_expand_from_their_forms(name):
    constructor, forms = RATIONAL_FAMILIES[name]
    a = constructor(30)
    assert a == rational_pair(*forms, 30)
    assert expand(bivariate_gf(*forms), 30) == matrix(a, 30)


def _Q_written_out(a, s, order):
    root = series.sqrt(series.Series([1, -2 * (s + 2), s * s], order))
    g = 1 / (series.Series([1, -a], order) * root)
    return RiordanPair(g, (series.Series([1, -s], order) - root) / 2)


def _A361654_written_out(order):
    # u = x c(x) from the Catalan numbers' closed form, not from the
    # recurrence of quadratic_pair that builds the pair under test
    xc = series.Series([0] + [comb(2 * m - 2, m - 1) // m for m in range(1, order)], order)
    one_minus_x = series.Series([1, -1], order)
    return RiordanPair((1 - xc) / (one_minus_x * (1 - 2 * xc)), xc)


def _Q_inverse_written_out(a, s, order):
    # (1 + (s-a)x + ax^2) * d/dx(x(1-x)/(1+sx)), the derivative termwise
    inner = series.Series([0, 1, -1], order + 1) / series.Series([1, s], order + 1)
    derivative = series.Series([k * c for k, c in enumerate(inner.coeffs)][1:], order)
    g = series.Series([1, s - a, a], order) * derivative
    return RiordanPair(g, series.Series([0, 1, -1], order) / series.Series([1, s], order))


@pytest.mark.parametrize("r", range(-3, 7))
def test_constructors_match_their_formulas_written_out(r):
    assert make_R(r, 200) == _Q_written_out(r, 0, 200)
    assert make_tilde_R(r, 200) == _Q_written_out(1, r, 200)
    assert make_R_inverse_closed(r, 200) == _Q_inverse_written_out(r, 0, 200)
    assert tilde_inverse_closed(r, 200) == _Q_inverse_written_out(1, r, 200)
    # Q(2r, 2r + 1) is on neither line: a != 1 and s != 0
    assert quadratic_pair(2 * r, 2 * r + 1, 60) == _Q_written_out(2 * r, 2 * r + 1, 60)
    assert quadratic_inverse(2 * r, 2 * r + 1, 60) == _Q_inverse_written_out(2 * r, 2 * r + 1, 60)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 33, 200])
def test_quadratic_pair_matches_the_root_construction(order):
    for a in range(-4, 6):
        for s in range(-4, 6):
            assert quadratic_pair(a, s, order) == _Q_written_out(a, s, order)


NON_INT_PARAMETER_CALLS = {
    "quadratic_pair a": lambda v: quadratic_pair(v, 0, 5),
    "quadratic_pair s": lambda v: quadratic_pair(1, v, 5),
    "make_R": lambda v: make_R(v, 5),
    "make_tilde_R": lambda v: make_tilde_R(v, 5),
    "closed_form_rows a": lambda v: closed_form_rows(v, 0, 3),
    "closed_form_rows s": lambda v: closed_form_rows(1, v, 3),
    "closed_form_sym_rows a": lambda v: closed_form_sym_rows(v, 0, 3),
    "closed_form_sym_rows s": lambda v: closed_form_sym_rows(1, v, 3),
}


@pytest.mark.parametrize("value", [1.5, F(1, 2)], ids=["float", "Fraction"])
@pytest.mark.parametrize("call", NON_INT_PARAMETER_CALLS.values(), ids=NON_INT_PARAMETER_CALLS)
def test_quadratic_families_and_closed_forms_refuse_a_non_int_parameter(call, value):
    # the int kernels would otherwise store float or Fraction coefficients,
    # and a Series its Fraction nums over den 1
    with pytest.raises(TypeError):
        call(value)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 17, 200])
def test_make_A361654_embed_matches_its_formula_written_out(order):
    a, want = make_A361654_embed(order), _A361654_written_out(order)
    assert a.f == want.f
    assert a.g == want.g
    assert a.g.den == 1


def test_make_example1():
    ex = make_example1(6)
    assert seq(ex.g) == [1, -1, 0, 1, -1, 0]
    assert seq(ex.f) == [0, 1, -1, 1, -1, 1]


def test_classical_asm_matrix():
    A = classical_asm_matrix(6)
    assert A[1][0] == 0  # binom(1,0) - delta
    assert A[2][2] == 6
    assert list(principal_minors(A, 5)) == [1, 2, 7, 42, 429]
    # the gf expands to the transpose (the delta sits across the diagonal)
    assert expand(classical_asm_gf(), 6) == A.transpose()
    assert list(principal_minors(expand(classical_asm_gf(), 5), 5)) == [1, 2, 7, 42, 429]


def test_twenty_vertex_matrix():
    M = twenty_vertex_matrix(9)
    assert M[0][0] == 1
    assert list(principal_minors(M, 9)) == reference_B20()
    assert expand(twenty_vertex_gf(), 4) == CoeffMatrix([row[:4] for row in M.rows[:4]])


def test_make_A361654_embed():
    g = series.Series([1, -3, 3, -2], 8) / series.Series([1, -1], 8)
    assert seq(g) == [1, -2, 1, -1, -1, -1, -1, -1]
    emb = make_A361654_embed(12)
    pre = rational_pair(([1, -3, 3, -2], [1, -1]), ([0, 1, -1], [1]), 12)
    assert inverse(emb) == pre


@pytest.mark.parametrize("N", [8, 60, 200])
def test_R1_sits_inside_A361654(N):
    # columns k >= 1 carry the r=1 array shifted one step down the diagonal
    M = matrix(make_A361654_embed(N), N)
    R1 = matrix(make_R(1, N), N)
    for n in range(1, N):
        for k in range(1, n + 1):
            assert M[n][k] == R1[n - 1][k - 1]


def test_R1_g_is_odd_so_the_embedding_halves_exactly():
    # g_R1 = sum over k <= n of C(2k, k), 1 plus even central binomials
    assert all(v % 2 == 1 for v in make_R(1, 200).g.coeffs)


@pytest.mark.parametrize("n", [*range(2, 61), 200])
def test_make_A361654_embed_inverts_its_preimage(n):
    pre = rational_pair(([1, -3, 3, -2], [1, -1]), ([0, 1, -1], [1]), n)
    assert make_A361654_embed(n) == inverse(pre)


# every command line family, plus the Catalan series and both inverse closed forms
KERNEL_FREE_BUILDS = {
    **{
        name: partial(cli._build_matrix, name, 1 if family.takes_r else None)
        for name, family in cli.FAMILIES.items()
    },
    "catalan_gf": catalan_gf,
    "catalan_shift": catalan_shift,
    "make_R_inverse_closed": partial(make_R_inverse_closed, 1),
    "tilde_inverse_closed": partial(tilde_inverse_closed, 1),
}


@pytest.mark.parametrize("name", KERNEL_FREE_BUILDS)
def test_no_family_takes_a_root_divides_reverts_or_composes(monkeypatch, name):
    # Q(a, s) runs its own recurrences and a rational form is one quotient by
    # its denominator, so no constructor takes a root, reverts or composes,
    # and each division is by a polynomial of at most 3 terms: O(n) at order n
    calls, divisors = [], []

    def counting(kernel, run):
        return lambda *args: calls.append(kernel) or run(*args)

    for kernel in ("sqrt", "revert", "compose"):
        monkeypatch.setattr(series, kernel, counting(kernel, getattr(series, kernel)))
    div = series.div
    monkeypatch.setattr(series, "div", lambda a, b: divisors.append(b) or div(a, b))
    KERNEL_FREE_BUILDS[name](40)
    assert calls == []
    assert all(sum(map(bool, b.nums)) <= 3 for b in divisors)


def _pair_build(family):
    build = getattr(families, family.constructor)
    return partial(build, 1) if family.takes_r else build


# every pair constructor: the command line's, Q(a, s) and its inverse, the
# tilde inverse closed form and the group identity
PAIR_BUILDS = {
    **{
        name: _pair_build(family)
        for name, family in cli.FAMILIES.items()
        if not family.full_matrix
    },
    "quadratic_pair": partial(quadratic_pair, 2, -1),
    "quadratic_inverse": partial(quadratic_inverse, 2, -1),
    "tilde_inverse_closed": partial(tilde_inverse_closed, 1),
    "identity_pair": identity_pair,
}


@pytest.mark.parametrize("name", PAIR_BUILDS)
def test_pair_constructors_build_exactly_their_order(name):
    build = PAIR_BUILDS[name]
    # every constructor refuses a short order with one text, before it expands
    for order in (-1, 0, 1):
        with pytest.raises(ValueError, match="^a Riordan pair needs order >= 2$"):
            build(order)
    for n in range(2, 7):
        a = build(n)
        assert a.order == a.g.order == a.f.order == n


def test_robbins():
    known = [1, 1, 2, 7, 42, 429, 7436, 218348, 10850216, 911835460,
             129534272700, 31095744852375]
    assert [robbins(n) for n in range(12)] == known
    assert robbins(0) == 1
    assert robbins(4) == 42
    assert robbins(11) == 31095744852375 and type(robbins(11)) is int


def test_reference_B20():
    ref = reference_B20()
    assert len(ref) == 9
    assert ref[0] == 1
    assert ref[4] == 19705
    assert ref[8] == 518369549769169


def test_asm_count_bruteforce():
    assert asm_count_bruteforce(1) == 1
    assert asm_count_bruteforce(3) == 7
    assert asm_count_bruteforce(5) == 429
    for n in range(1, 6):
        assert asm_count_bruteforce(n) == robbins(n)
    with pytest.raises(ValueError, match="brute force enumeration is capped at n = 5"):
        asm_count_bruteforce(6)
    with pytest.raises(ValueError):
        asm_count_bruteforce(0)


def test_alternating_rows_as_mask_pairs():
    for n in range(1, 6):
        rows = _alternating_rows(n)
        assert len(rows) == len(set(rows)) == 2 ** (n - 1)
        for plus, minus in rows:
            assert plus & minus == 0 and (plus | minus) >> n == 0
            assert plus.bit_count() == minus.bit_count() + 1
            # read left to right, the partial sums stay in {0, 1}
            sums = accumulate((plus >> p & 1) - (minus >> p & 1) for p in range(n))
            assert set(sums) <= {0, 1}


def test_catalan_factorization():
    cat = catalan_pair(20)
    for r in range(6):
        right = rational_pair(([1, -1], [1, -r - 2, 3 * r, -2 * r]), ([0, 1], [1]), 20)
        assert product(cat, right) == make_R(r, 20)


def test_minor_polynomial_table():
    # row r: the first six minors of Sym(R_r)
    table = [list(principal_minors(symmetrize(make_R(r, 6), 6), 6)) for r in range(6)]
    assert table[0] == [1, 1, 1, 1, 1, 1]
    assert table[3] == [1, 4, 55, 2494, 365953, 171944344]
    assert table == [
        [1, 1, 1, 1, 1, 1],
        [1, 2, 7, 42, 429, 7436],
        [1, 3, 23, 433, 19705, 2151843],
        [1, 4, 55, 2494, 365953, 171944344],
        [1, 5, 109, 9993, 3791001, 5898286349],
        [1, 6, 191, 31306, 26094301, 109913708076],
    ]
    for r in range(6):
        assert table[r][1] == r + 1
        assert table[r][2] == r**3 + 2 * r**2 + 3 * r + 1
        assert table[r][3] == (
            r**6 + 3 * r**5 + 7 * r**4 + 13 * r**3 + 11 * r**2 + 6 * r + 1
        )


def test_inverse_family_symmetrization_minors():
    got0 = principal_minors(symmetrize(make_R_inverse_closed(0, 22), 9), 9)
    assert list(got0) == [1, -3, -13, 81, 144, -2017, -1757, 79513, 22704]
    got1 = principal_minors(symmetrize(make_R_inverse_closed(1, 22), 9), 9)
    assert list(got1) == [1, -4, -33, 427, 5046, -56241, -316626, 7178034, 26671624]


def _involution(N, g_den=(1, -2, 1), f_num=(0, -1)):
    # A = (1/(1-x)^2, -x/(1-x)); the keywords build the variants that must fail
    return rational_pair(([1], list(g_den)), (list(f_num), [1, -1]), N)


def _sym_q(a, s, N):
    return symmetrize(quadratic_pair(a, s, N), N)


def test_minor_transfer_between_families():
    for r in range(1, 5):
        a = principal_minors(symmetrize(make_R(r, 18), 7), 7)
        b = principal_minors(symmetrize(make_tilde_R(r - 1, 18), 7), 7)
        assert list(a) == list(b)
    # A is an involution: A A = I
    assert product(_involution(40), _involution(40)) == identity_pair(40)
    # Sym(Q(a, s)) expands 1/((1 - axy)(1 - x - y - sxy)), and A Sym(Q(a, s)) A^T
    # is Sym(Q(s + 1, a - 1)): R_r = Q(r, 0) and tilde-R_(r-1) = Q(1, r - 1)
    # are one such pair, and so are Q(2, 2) and Q(3, 1)
    A = _involution(12)
    for a in range(-3, 5):
        for s in range(-3, 5):
            S = _sym_q(a, s, 12)
            gf = BivariateRational(ONE, (ONE - a * X * Y) * (ONE - X - Y - s * X * Y))
            assert S == expand(gf, 12)
            image = _sym_q(s + 1, a - 1, 12)
            assert conjugate(S, A) == image
            assert principal_minors(S, 12) == principal_minors(image, 12)
    rng = random.Random(31)
    for _ in range(12):
        a, s, N = rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(2, 20)
        S, image = _sym_q(a, s, N), _sym_q(s + 1, a - 1, N)
        assert conjugate(S, _involution(N)) == image
        assert principal_minors(S, N) == principal_minors(image, N)
    # neither the f nor the g of A can be simplified away
    S, image = _sym_q(2, 2, 12), _sym_q(3, 1, 12)
    assert conjugate(S, _involution(12, f_num=(0, 1))) != image
    assert conjugate(S, _involution(12, g_den=(1, -1))) != image
    assert list(principal_minors(S, 6)) == [1, 5, 101, 7753, 2207593, 2304818765]


def test_tilde2_minors():
    got = principal_minors(symmetrize(make_tilde_R(2, 16), 6), 6)
    assert list(got) == [1, 4, 55, 2494, 365953, 171944344]
