from fractions import Fraction
from math import comb

import pytest

from riordan import series
from riordan.array import RiordanPair, inverse, matrix, product
from riordan.bivar import expand
from riordan.families import (
    TooLarge,
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
    minor_polynomial_table,
    reference_B20,
    robbins,
    tilde_inverse_closed,
    twenty_vertex_gf,
    twenty_vertex_matrix,
)
from riordan.minors import principal_minors
from riordan.symmetry import symmetrize

F = Fraction


def seq(s):
    return [int(c) if c.denominator == 1 else c for c in s.coeffs]


def test_catalan_gf():
    c = catalan_gf(8)
    assert seq(c) == [1, 1, 2, 5, 14, 42, 132, 429]
    # recurrence oracle: c = 1 + x c^2
    x = series.poly([0, 1], 8)
    assert c == 1 + x * c * c
    assert catalan_shift(8) == series.revert(series.poly([0, 1, -1], 8))


def test_make_R():
    assert seq(make_R(0, 6).g) == [comb(2 * n, n) for n in range(6)]
    M1 = matrix(make_R(1, 8), 6)
    assert [int(M1[n][0]) for n in range(6)] == [1, 3, 9, 29, 99, 351]
    M2 = matrix(make_R(2, 8), 6)
    assert [int(M2[n][0]) for n in range(6)] == [1, 4, 14, 48, 166, 584]


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
        fbar = series.rational([0, 1, -1], [1, r], 120)
        assert series.revert(make_tilde_R(r, 120).f) == fbar


def test_make_tilde_R():
    assert make_tilde_R(0, 16) == make_R(1, 16)
    t1 = make_tilde_R(1, 8)
    assert seq(t1.f) == [0, 1, 2, 6, 22, 90, 394, 1806]  # large Schroeder numbers


def test_tilde_inverse_closed_form():
    for r in range(4):
        assert inverse(make_tilde_R(r, 14)) == tilde_inverse_closed(r, 14)


def test_tilde_inverse_variant_denominator_only_matches_at_r1():
    # a variant keeping (1+x) instead of (1+rx) inside the derivative factor
    # only reproduces the inverse at r = 1, where the two coincide
    def variant(r, order):
        inner = series.rational([0, 1, -1], [1, 1], order + 1)
        g = series.poly([1, r - 1, 1], order) * series.derivative(inner)
        f = series.rational([0, 1, -1], [1, r], order)
        return RiordanPair(g, f)

    assert inverse(make_tilde_R(1, 12)) == variant(1, 12)
    assert inverse(make_tilde_R(0, 12)) != variant(0, 12)


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
    assert expand(twenty_vertex_gf(), 4) == M.leading(4)


def test_make_A361654_embed():
    g = series.rational([1, -3, 3, -2], [1, -1], 8)
    assert seq(g) == [1, -2, 1, -1, -1, -1, -1, -1]
    emb = make_A361654_embed(12)
    pre = RiordanPair(
        series.rational([1, -3, 3, -2], [1, -1], 12), series.poly([0, 1, -1], 12)
    )
    assert inverse(emb) == pre
    # columns k >= 1 carry the r=1 array shifted one step down the diagonal
    M = matrix(emb, 8)
    R1 = matrix(make_R(1, 8), 8)
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert M[n][k] == R1[n - 1][k - 1]


def test_robbins():
    known = [1, 1, 2, 7, 42, 429, 7436, 218348, 10850216, 911835460,
             129534272700, 31095744852375]
    assert [robbins(n) for n in range(12)] == known
    assert robbins(0) == 1
    assert robbins(4) == 42
    assert robbins(11) == 31095744852375


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
    with pytest.raises(TooLarge):
        asm_count_bruteforce(6)
    with pytest.raises(ValueError):
        asm_count_bruteforce(0)


def test_catalan_factorization():
    cat = catalan_pair(20)
    for r in range(6):
        right = RiordanPair(
            series.rational([1, -1], [1, -r - 2, 3 * r, -2 * r], 20),
            series.poly([0, 1], 20),
        )
        assert product(cat, right) == make_R(r, 20)


def test_minor_polynomial_table():
    table = minor_polynomial_table()
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


def test_minor_transfer_between_families():
    for r in range(1, 5):
        a = principal_minors(symmetrize(make_R(r, 18), 7), 7)
        b = principal_minors(symmetrize(make_tilde_R(r - 1, 18), 7), 7)
        assert list(a) == list(b)


def test_tilde2_minors():
    got = principal_minors(symmetrize(make_tilde_R(2, 16), 6), 6)
    assert list(got) == [1, 4, 55, 2494, 365953, 171944344]
