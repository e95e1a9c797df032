import random
from fractions import Fraction
from math import comb

import pytest

from riordan import series
from riordan.series import (
    BadConstantTerm,
    NonzeroLowOrder,
    NotReversible,
    Series,
    ZeroConstantTerm,
)

F = Fraction


def coeffs(s):
    return [int(c) if c.denominator == 1 else c for c in s.coeffs]


def test_poly_pads_and_truncates():
    assert coeffs(series.poly([1], 4)) == [1, 0, 0, 0]
    assert coeffs(series.poly([1, -4], 3)) == [1, -4, 0]
    assert coeffs(series.poly([0, 1, -1], 6)) == [0, 1, -1, 0, 0, 0]
    assert coeffs(series.poly([1, 2, 3, 4], 2)) == [1, 2]


def test_series_rejects_floats():
    with pytest.raises(TypeError):
        Series([0.1, 1])
    with pytest.raises(TypeError):
        series.poly([1, 0.5], 4)


def test_mul_examples():
    a = series.poly([1, -1], 4)
    b = series.poly([1, 1, 1], 4)
    assert coeffs(a * b) == [1, 0, 0, -1]
    # (1-x+x^2)(1-2x) = (1-x)^3 - x^3, both sides expanded independently
    lhs = series.poly([1, -1, 1], 4) * series.poly([1, -2], 4)
    cube = series.poly([1, -1], 4) ** 3 - series.poly([0, 0, 0, 1], 4)
    assert coeffs(lhs) == [1, -3, 3, -2]
    assert lhs == cube
    zero = series.poly([], 4)
    assert coeffs(a * zero) == [0, 0, 0, 0]


def test_mul_truncates_to_min_order():
    a = series.poly([1, 1, 1], 3)
    b = series.poly([1, 1], 7)
    assert (a * b).order == 3


def test_div_geometric():
    assert coeffs(series.rational([1], [1, -1], 5)) == [1, 1, 1, 1, 1]
    q = series.div(series.poly([1, 0, 0, -1], 5), series.poly([1, -1], 5))
    assert coeffs(q) == [1, 1, 1, 0, 0]


def test_div_partial_fraction_oracle():
    # 1/((1-x)(1-2x)): partial fractions give coefficient 2^(n+1) - 1
    den = series.poly([1, -1], 5) * series.poly([1, -2], 5)
    q = series.div(series.poly([1], 5), den)
    assert coeffs(q) == [2 ** (n + 1) - 1 for n in range(5)]


def test_div_zero_constant_term():
    with pytest.raises(ZeroConstantTerm):
        series.div(series.poly([1], 4), series.poly([0, 1], 4))


def test_compose_examples():
    geo = series.rational([1], [1, -1], 4)
    doubled = series.compose(geo, series.poly([0, 2], 4))
    assert coeffs(doubled) == [1, 2, 4, 8]
    g = series.poly([3, 1, -2, 5], 4)
    assert series.compose(g, series.poly([0, 1], 4)) == g
    collapsed = series.compose(series.poly([1, -4], 6), series.poly([0, 1, -1], 6))
    assert coeffs(collapsed) == [1, -4, 4, 0, 0, 0]
    assert collapsed == series.poly([1, -2], 6) ** 2


def test_compose_requires_zero_constant():
    with pytest.raises(NonzeroLowOrder):
        series.compose(series.poly([1, 1], 4), series.poly([1, 1], 4))


def test_revert_catalan_shift():
    v = series.revert(series.poly([0, 1, -1], 6))
    assert coeffs(v) == [0, 1, 1, 2, 5, 14]
    # cross-check: c = 1 + x c^2 determines the same numbers
    c = [1]
    for n in range(1, 6):
        c.append(sum(c[i] * c[n - 1 - i] for i in range(n)))
    assert coeffs(v) == [0] + c[:5]


def test_revert_closed_form():
    v = series.revert(series.rational([0, 1], [1, 1], 6))
    assert v == series.rational([0, 1], [1, -1], 6)


def test_revert_is_involution():
    f = series.poly([0, 1, -3, 1], 8)
    assert series.revert(series.revert(f)) == f


def test_revert_rejects_bad_input():
    with pytest.raises(NotReversible):
        series.revert(series.poly([1, 1], 4))
    with pytest.raises(NotReversible):
        series.revert(series.poly([0, 0, 1], 4))


def test_sqrt_examples():
    assert coeffs(series.sqrt(series.poly([1], 5))) == [1, 0, 0, 0, 0]
    assert coeffs(series.sqrt(series.poly([1, -4, 4], 5))) == [1, -2, 0, 0, 0]
    with pytest.raises(BadConstantTerm):
        series.sqrt(series.poly([2], 4))


def test_inverse_sqrt_central_binomials():
    s = series.div(series.poly([1], 31), series.sqrt(series.poly([1, -4], 31)))
    assert coeffs(s) == [comb(2 * n, n) for n in range(31)]


def test_derivative():
    d = series.derivative(series.poly([0, 1, -1], 4))
    assert coeffs(d) == [1, -2, 0]
    assert d.order == 3
    assert coeffs(series.derivative(series.poly([7], 3))) == [0, 0]


def test_derivative_quotient_rule_oracle():
    # d/dx of x(1-x)/(1+x) equals (1-2x-x^2)/(1+x)^2
    inner = series.rational([0, 1, -1], [1, 1], 7)
    direct = series.derivative(inner)
    closed = series.rational([1, -2, -1], [1, 2, 1], 6)
    assert direct == closed


def test_rational_examples():
    assert coeffs(series.rational([1], [1, -1], 4)) == [1, 1, 1, 1]
    assert coeffs(series.rational([1], [1, -1, 1], 7)) == [1, 1, 0, -1, -1, 0, 1]
    assert coeffs(series.rational([1, 1], [1, 1, 1], 6)) == [1, 0, -1, 1, 0, -1]
    with pytest.raises(ZeroConstantTerm):
        series.rational([1], [0, 1], 4)


def _random_series(rng, order, zero_const=False, nonzero_const=False):
    c = [F(rng.randint(-4, 4)) for _ in range(order)]
    if rng.random() < 0.3:
        c[rng.randrange(order)] = F(rng.randint(-4, 4), rng.randint(1, 3))
    if zero_const:
        c[0] = F(0)
        if c[1] == 0:
            c[1] = F(rng.choice([1, -1, 2]))
    if nonzero_const and c[0] == 0:
        c[0] = F(rng.choice([1, -1, 2, 3]))
    return Series(c, order)


def test_ring_laws_randomized():
    rng = random.Random(99)
    for _ in range(120):
        a = _random_series(rng, 8)
        b = _random_series(rng, 8)
        c = _random_series(rng, 8)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_div_mul_roundtrip_randomized():
    rng = random.Random(101)
    for _ in range(120):
        a = _random_series(rng, 8)
        b = _random_series(rng, 8, nonzero_const=True)
        assert series.div(a * b, b) == a


def test_compose_associativity_randomized():
    rng = random.Random(103)
    for _ in range(100):
        g = _random_series(rng, 7)
        f = _random_series(rng, 7, zero_const=True)
        h = _random_series(rng, 7, zero_const=True)
        assert series.compose(series.compose(g, f), h) == series.compose(
            g, series.compose(f, h)
        )


def test_revert_roundtrip_randomized():
    rng = random.Random(107)
    x = series.poly([0, 1], 8)
    for _ in range(120):
        f = _random_series(rng, 8, zero_const=True)
        v = series.revert(f)
        assert series.compose(f, v) == x
        assert series.compose(v, f) == x


def test_sqrt_roundtrip_randomized():
    rng = random.Random(109)
    for _ in range(120):
        g = _random_series(rng, 8)
        g = Series([1] + g.coeffs[1:], 8)
        s = series.sqrt(g)
        assert s * s == g
        assert s.coeffs[0] == 1
