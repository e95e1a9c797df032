"""Canonical form of every kernel result.

A Series is the ints ``nums`` over one denominator ``den``, and a
CoeffMatrix the int rows ``ints`` over one ``den``: ``den > 0``, the gcd of
``den`` and every numerator is 1, the derived ``coeffs``/``rows`` follow the
package rule (an int when integral, else a Fraction), and the result equals
the same values built through the public constructor, which scales its input
once.  Each kernel returns through one internal constructor that reduces and
fixes the sign; a kernel that skipped either step fails here.
"""

import random
from fractions import Fraction as F
from itertools import chain
from math import gcd

import pytest

from riordan import series
from riordan.array import RiordanPair, matrix
from riordan.bivar import BivarPoly, BivariateRational, CoeffMatrix, expand
from riordan.series import Series
from riordan.symmetry import SymmetrizedMatrix, symmetrize_matrix

LEADS = (1, -1, 2, -3, F(3, 2))
KINDS = ("int", "integral", "rational")


def _values(rng, length, kind, lead):
    c = [rng.randint(-4, 4) for _ in range(length)]
    c[0] = lead
    if kind != "int":
        c = [F(v) for v in c]
    if kind == "rational" and length > 1:
        c[rng.randrange(1, length)] = F(rng.choice([-3, -1, 1, 5]), rng.choice([2, 3, 4, 6]))
    return c


def _exact_rule(values):
    return all(type(v) is (int if v.denominator == 1 else F) for v in values)


def _check_series(s):
    assert all(type(v) is int for v in s.nums) and len(s.nums) == s.order
    assert s.den > 0 and gcd(s.den, *s.nums) == 1
    assert _exact_rule(s.coeffs)
    assert s.den != 1 or s.coeffs is s.nums
    assert Series(list(s.coeffs), s.order) == s


def _check_matrix(M):
    assert all(type(v) is int for v in chain.from_iterable(M.ints))
    assert M.den > 0 and gcd(M.den, *chain.from_iterable(M.ints)) == 1
    assert _exact_rule(chain.from_iterable(M.rows))
    assert M.den != 1 or M.rows is M.ints
    assert CoeffMatrix(M.rows) == M


def _operands(rng, order, kind, lead):
    a = Series(_values(rng, order, kind, rng.choice(LEADS)), order)
    b = Series(_values(rng, order, kind, lead), order)
    f = Series([0] + _values(rng, order - 1, kind, lead), order)
    h = Series([1] + _values(rng, order, kind, lead)[1:], order)
    return a, b, f, h


@pytest.mark.parametrize("lead", LEADS, ids=str)
@pytest.mark.parametrize("kind", KINDS)
def test_series_kernels_return_canonical_form(kind, lead):
    rng = random.Random(307)
    for order in range(2, 11):
        a, b, f, h = _operands(rng, order, kind, lead)
        results = [
            a + b, a - b, a - a, 1 - a, -a,
            a * 2, a * lead, 2 * a, a / 2, a / lead, a / -3,
            a * b, b ** 2, series.div(a, b), 1 / b,
            series.compose(a, f), series.revert(f), series.sqrt(h),
            series.derivative(a), a.truncate(order - 1), b.truncate(1),
        ]
        for s in results:
            _check_series(s)


@pytest.mark.parametrize("lead", LEADS, ids=str)
@pytest.mark.parametrize("kind", KINDS)
def test_matrix_kernels_return_canonical_form(kind, lead):
    rng = random.Random(311)
    for N in range(1, 8):
        _, b, f, _ = _operands(rng, N + 1, kind, lead)
        T = matrix(RiordanPair(b, f), N)
        S = symmetrize_matrix(T)
        assert type(S) is SymmetrizedMatrix
        products = (T * T.transpose(), S * T)
        for M in (T, S, *products, T.transpose(), T.leading(N - 1), S.leading(N // 2)):
            _check_matrix(M)


@pytest.mark.parametrize("q0", [1, -1])
def test_integral_expansion_returns_canonical_form(q0):
    x, y = BivarPoly({(1, 0): 1}), BivarPoly({(0, 1): 1})
    r = BivariateRational(BivarPoly({(0, 0): 2, (1, 1): -3}), q0 - x - 2 * y + x * y)
    for N in range(0, 7):
        _check_matrix(expand(r, N))
