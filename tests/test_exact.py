"""One rule for every stored value: an int when integral, a Fraction otherwise.

Each container and each exact result is fed int, integral-Fraction and
rational inputs; every value that comes back must be an ``int`` exactly
when its denominator is 1.
"""

from fractions import Fraction

import pytest

from riordan.array import RiordanPair, matrix
from riordan.bivar import BivarPoly, BivariateRational, CoeffMatrix, expand
from riordan.minors import det, det_cofactor, principal_minors
from riordan.series import Series

F = Fraction

ROWS = {
    "int": [[2, 1, 0], [1, 3, 4], [0, 4, -2]],
    "integral": [[F(2), F(1), F(0)], [F(1), F(3), F(4)], [F(0), F(4), F(-2)]],
    # leading minors 1/2, 0 and -8, determinant -8: rational in, integral out
    "rational": [[F(1, 2), F(1), F(0)], [F(1), F(2), F(4)], [F(0), F(4), F(3, 2)]],
}


def _normal(values):
    return all(type(v) is (int if v.denominator == 1 else F) for v in values)


def _entries(M):
    return [c for row in M.rows for c in row]


@pytest.mark.parametrize("kind", sorted(ROWS))
def test_every_container_and_result_follows_the_rule(kind):
    rows = ROWS[kind]
    flat = [c for row in rows for c in row]

    s = Series(flat, 12)
    assert _normal(s.coeffs)
    assert _normal((s + s).coeffs + (s * s).coeffs + (s - s).coeffs)

    P = BivarPoly({(i, j): c for i, row in enumerate(rows) for j, c in enumerate(row)})
    assert _normal(P.coeffs.values())
    assert _normal((P * P + P).coeffs.values())
    assert _normal([P.coefficient(0, 0), P.coefficient(9, 9)])

    M = CoeffMatrix(rows)
    assert _normal(_entries(M))
    assert _normal(_entries(M * M))

    Q = BivarPoly({(0, 0): rows[0][0], (1, 0): -1, (0, 1): rows[1][0]})
    assert _normal(_entries(expand(BivariateRational(P, Q), 6)))

    g = Series([rows[0][0], *flat[1:]], 6)
    f = Series([0, rows[1][0], *flat[2:]], 6)
    assert _normal(_entries(matrix(RiordanPair(g, f), 6)))

    minors = principal_minors(M, 3)
    assert _normal(minors)
    assert _normal([det(M), det_cofactor(M.rows), det_cofactor(rows)])
    assert det(M) == det_cofactor(rows) == minors[2]


def test_rational_inputs_with_integral_results_give_ints():
    M = CoeffMatrix(ROWS["rational"])
    assert list(principal_minors(M, 3)) == [F(1, 2), 0, -8]
    assert [type(v) for v in principal_minors(M, 3)] == [F, int, int]
    assert type(det(M)) is int and type(det_cofactor(ROWS["rational"])) is int
    half = Series([F(1, 2), F(3, 2)])
    assert [type(c) for c in (half + half).coeffs] == [int, int]
    assert type(BivarPoly({(0, 0): F(4, 2)}).coefficient(0, 0)) is int
