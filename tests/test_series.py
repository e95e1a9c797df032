import random
import re
from fractions import Fraction
from math import comb

import pytest

from riordan import series
from riordan.families import catalan_shift
from riordan.series import Series

F = Fraction


def coeffs(s):
    return [int(c) if c.denominator == 1 else c for c in s.coeffs]


def test_poly_pads_and_truncates():
    assert coeffs(Series([1], 4)) == [1, 0, 0, 0]
    assert coeffs(Series([1, -4], 3)) == [1, -4, 0]
    assert coeffs(Series([0, 1, -1], 6)) == [0, 1, -1, 0, 0, 0]
    assert coeffs(Series([1, 2, 3, 4], 2)) == [1, 2]
    with pytest.raises(ValueError, match="order must be nonnegative"):
        Series([1], -1)
    s = Series([1, 2, 3])
    assert s.truncate(3) == s and s.truncate(1) == Series([1])
    with pytest.raises(ValueError, match="cannot extend order 3 to 4"):
        s.truncate(4)


def test_truncate_to_its_order_is_the_series_itself():
    s = Series([F(1, 2), 3, 5])
    assert s.truncate(s.order) is s
    # a shorter truncation is reduced by its own gcd: 2/2 is 1 over 1
    t = (Series([2, 1], 2) / 2).truncate(1)
    assert (t.nums, t.den, t.order) == ([1], 1, 1)
    with pytest.raises(ValueError, match="cannot extend order 3 to 4"):
        s.truncate(4)


def test_truncate_refuses_a_negative_order():
    with pytest.raises(ValueError, match="order must be nonnegative"):
        Series([1, 2, 3]).truncate(-1)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        catalan_shift(-1)


def test_scalar_division_is_exact():
    # int / int would be a float: the coefficients must come back as Fractions
    assert (Series([1, 3]) / 2).coeffs == [F(1, 2), F(3, 2)]
    assert [type(c) for c in (Series([1, 3]) / 2).coeffs] == [F, F]
    assert (Series([2, 6]) / 2).coeffs == [1, 3]
    assert [type(c) for c in (Series([2, 6]) / 2).coeffs] == [int, int]
    for zero in (0, F(0)):
        with pytest.raises(ZeroDivisionError, match="division of a series by zero"):
            Series([1, 2], 2) / zero


def test_series_rejects_floats():
    with pytest.raises(TypeError):
        Series([0.1, 1])
    with pytest.raises(TypeError):
        Series([1, 0.5], 4)


def test_mul_examples():
    a = Series([1, -1], 4)
    b = Series([1, 1, 1], 4)
    assert coeffs(a * b) == [1, 0, 0, -1]
    # (1-x+x^2)(1-2x) = (1-x)^3 - x^3, both sides expanded independently
    lhs = Series([1, -1, 1], 4) * Series([1, -2], 4)
    cube = a * a * a - Series([0, 0, 0, 1], 4)
    assert coeffs(lhs) == [1, -3, 3, -2]
    assert lhs == cube
    zero = Series([], 4)
    assert coeffs(a * zero) == [0, 0, 0, 0]


def test_mul_truncates_to_min_order():
    a = Series([1, 1, 1], 3)
    b = Series([1, 1], 7)
    assert (a * b).order == 3


def test_div_geometric():
    assert coeffs(Series([1], 5) / Series([1, -1], 5)) == [1, 1, 1, 1, 1]
    q = series.div(Series([1, 0, 0, -1], 5), Series([1, -1], 5))
    assert coeffs(q) == [1, 1, 1, 0, 0]


def test_div_partial_fraction_oracle():
    # 1/((1-x)(1-2x)): partial fractions give coefficient 2^(n+1) - 1
    den = Series([1, -1], 5) * Series([1, -2], 5)
    q = series.div(Series([1], 5), den)
    assert coeffs(q) == [2 ** (n + 1) - 1 for n in range(5)]


def test_div_zero_constant_term():
    with pytest.raises(ValueError, match="divisor has zero constant term"):
        series.div(Series([1], 4), Series([0, 1], 4))


def test_compose_examples():
    geo = Series([1], 4) / Series([1, -1], 4)
    doubled = series.compose(geo, Series([0, 2], 4))
    assert coeffs(doubled) == [1, 2, 4, 8]
    g = Series([3, 1, -2, 5], 4)
    assert series.compose(g, Series([0, 1], 4)) == g
    collapsed = series.compose(Series([1, -4], 6), Series([0, 1, -1], 6))
    assert coeffs(collapsed) == [1, -4, 4, 0, 0, 0]
    assert collapsed == Series([1, -2], 6) * Series([1, -2], 6)
    assert series.compose(Series([], 0), Series([0, 1], 4)) == Series([], 0)


def test_compose_requires_zero_constant():
    with pytest.raises(ValueError, match="inner series must have zero constant term"):
        series.compose(Series([1, 1], 4), Series([1, 1], 4))


def test_revert_catalan_shift():
    v = series.revert(Series([0, 1, -1], 6))
    assert coeffs(v) == [0, 1, 1, 2, 5, 14]
    # cross-check: c = 1 + x c^2 determines the same numbers
    c = [1]
    for n in range(1, 6):
        c.append(sum(c[i] * c[n - 1 - i] for i in range(n)))
    assert coeffs(v) == [0] + c[:5]


def test_revert_closed_form():
    v = series.revert(Series([0, 1], 6) / Series([1, 1], 6))
    assert v == Series([0, 1], 6) / Series([1, -1], 6)


def test_revert_is_involution():
    f = Series([0, 1, -3, 1], 8)
    assert series.revert(series.revert(f)) == f


def test_revert_rejects_bad_input():
    message = re.escape("revert needs f(0) = 0 and a nonzero linear coefficient")
    with pytest.raises(ValueError, match=message):
        series.revert(Series([1, 1], 4))
    with pytest.raises(ValueError, match=message):
        series.revert(Series([0, 0, 1], 4))


def test_sqrt_examples():
    assert coeffs(series.sqrt(Series([1], 5))) == [1, 0, 0, 0, 0]
    assert coeffs(series.sqrt(Series([1, -4, 4], 5))) == [1, -2, 0, 0, 0]
    with pytest.raises(ValueError, match="sqrt needs constant term 1"):
        series.sqrt(Series([2], 4))


def test_inverse_sqrt_central_binomials():
    s = series.div(Series([1], 31), series.sqrt(Series([1, -4], 31)))
    assert coeffs(s) == [comb(2 * n, n) for n in range(31)]


def test_rational_examples():
    assert coeffs(Series([1], 4) / Series([1, -1], 4)) == [1, 1, 1, 1]
    assert coeffs(Series([1], 7) / Series([1, -1, 1], 7)) == [1, 1, 0, -1, -1, 0, 1]
    assert coeffs(Series([1, 1], 6) / Series([1, 1, 1], 6)) == [1, 0, -1, 1, 0, -1]


def test_quotient_refuses_what_has_no_expansion():
    # a rational form p/q expands as one quotient, Series(p, order) / Series(q, order)
    zero_constant = (ValueError, "divisor has zero constant term")
    for p, q, order, (error, text) in [
        ([1], [1, -1], 0, zero_constant),
        ([1, 2], [0, 1], 5, zero_constant),
        ([F(1, 2)], [F(0), F(1, 3)], 3, zero_constant),
        ([1], [], 4, zero_constant),
        ([1.0], [1, -1], 4, (TypeError, "inexact coefficient 1.0: pass an int or a Fraction")),
        ([1], [1, 0.5], 4, (TypeError, "inexact coefficient 0.5: pass an int or a Fraction")),
        ([1], [1, -1], -1, (ValueError, "order must be nonnegative")),
    ]:
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            Series(p, order) / Series(q, order)


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
    x = Series([0, 1], 8)
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


# Reference kernels: the schoolbook product, the coefficient-by-coefficient
# reversion, full-length Horner composition and long division, all over
# Fraction.  The production
# kernels (Lagrange inversion, trimmed Horner, int fast paths) must match
# them exactly.


def _oracle_mul(a, b, n):
    """First n coefficients of the Cauchy product, by the schoolbook double
    loop over Fraction; it shares no code with ``series._mul_lists``."""
    out = [F(0)] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[: n - i]):
                out[i + j] += ai * bj
    return out


def _oracle_div(a, b):
    n = min(a.order, b.order)
    inv = F(1) / b.coeffs[0]
    q = []
    for k in range(n):
        s = a.coeffs[k]
        for j in range(1, k + 1):
            s -= b.coeffs[j] * q[k - j]
        q.append(s * inv)
    return Series(q, n)


def _oracle_compose(g, f):
    n = min(g.order, f.order)
    acc = [F(0)] * n
    for gk in reversed(g.coeffs[:n]):
        acc = _oracle_mul(acc, f.coeffs, n)
        acc[0] += gk
    return Series(acc, n)


def _oracle_revert(f):
    # once v_1 .. v_{m-1} are known, only f_1 v_m can still move the x^m
    # coefficient of f(v), so f(v) = x pins v_m
    n = f.order
    f1inv = F(1) / f.coeffs[1]
    v = [F(0)] * n
    v[1] = f1inv
    for m in range(2, n):
        acc = [F(0)] * (m + 1)
        for fk in reversed(f.coeffs[: m + 1]):
            acc = _oracle_mul(acc, v, m + 1)
            acc[0] += fk
        v[m] = -acc[m] * f1inv
    return Series(v, n)


LEADS = (1, -1, 2, F(3, 2))


def _kernel_case(rng, order, lead, integral):
    c = [F(rng.randint(-3, 3)) for _ in range(order)]
    if not integral:
        c[rng.randrange(order)] = F(rng.randint(-3, 3), rng.randint(2, 4))
    c[0] = F(lead)
    return c


def _exact(s):
    return all(type(c) is (int if c.denominator == 1 else F) for c in s.coeffs)


def test_kernels_match_reference_randomized():
    rng = random.Random(113)
    for order in range(2, 25):
        for t, lead in enumerate(LEADS):
            integral = (order + t) % 2 == 0
            a = Series(_kernel_case(rng, order, rng.choice(LEADS), integral), order)
            b = Series(_kernel_case(rng, order, lead, integral), order)
            f = Series([0] + _kernel_case(rng, order - 1, lead, integral), order)
            checks = [
                (series.div(a, b), _oracle_div(a, b)),
                (series.compose(a, f), _oracle_compose(a, f)),
            ]
            # the reference reversion is O(n^4): above order 14 one lead an order
            if order <= 14 or t == order % len(LEADS):
                checks.append((series.revert(f), _oracle_revert(f)))
            for got, want in checks:
                assert got == want
                assert _exact(got)


def test_kernels_on_short_operands_match_reference():
    # a divisor or an inner series shorter than the other operand
    rng = random.Random(127)
    for _ in range(60):
        n, m = rng.randint(2, 12), rng.randint(2, 12)
        lead = rng.choice(LEADS)
        a = Series(_kernel_case(rng, n, 1, rng.random() < 0.5), n)
        b = Series(_kernel_case(rng, m, lead, rng.random() < 0.5), m)
        f = Series([0] + _kernel_case(rng, m - 1, lead, rng.random() < 0.5), m)
        assert series.div(a, b) == _oracle_div(a, b)
        assert series.compose(a, f) == _oracle_compose(a, f)


@pytest.mark.parametrize(
    "inner",
    [
        [0],  # an all-zero inner series
        [0, 1, -1],  # x - x^2, the inverse of the Catalan f
        [0, F(1, 2)],
        [0, 2, 0, -3],
        [0, 0, 5],
    ],
)
def test_compose_with_zero_padded_inner_series_matches_reference(inner):
    rng = random.Random(131)
    for n, m in ((1, 1), (4, 4), (9, 9), (5, 12), (12, 5)):
        f = Series(inner, m)
        for integral in (True, False):
            g = Series(_kernel_case(rng, n, rng.choice(LEADS), integral), n)
            got = series.compose(g, f)
            assert got == _oracle_compose(g, f)
            assert _exact(got)


@pytest.mark.parametrize(
    "a, b, exact_type",
    [
        ([1, 0, 0, 0], [1, -1, 0, 0], int),
        ([3, 1, 4, 1], [-1, 5, 9, 2], int),
        ([1, 0, 0, 0], [2, -1, 0, 0], F),
        ([1, 0, 0, 0], [F(1), F(1, 2), 0, 0], F),
        ([F(1, 3), 0, 0, 0], [1, 1, 0, 0], F),
    ],
)
def test_div_kernel_stays_on_int_only_for_unit_integral_divisors(a, b, exact_type):
    q = series.div(Series(a, 4), Series(b, 4))
    assert (q.den == 1) is (exact_type is int)
    assert q == _oracle_div(Series(a, 4), Series(b, 4))


def test_revert_large_order_catalan():
    assert series.revert(catalan_shift(200)) == Series([0, 1, -1], 200)


# The kernels clear denominators and run on int.  Plain Fraction oracles:
# the naive convolution, the square-root recurrence and _oracle_div above.


def _oracle_sqrt(g):
    s = [F(1)] + [F(0)] * (g.order - 1)
    for m in range(1, g.order):
        s[m] = (g.coeffs[m] - sum((s[k] * s[m - k] for k in range(1, m)), F(0))) / 2
    return Series(s, g.order)


KINDS = ("int", "integral", "rational")


def _operand(rng, length, kind, lead=None):
    c = [rng.randint(-4, 4) for _ in range(length)]
    if lead is not None and length:
        c[0] = lead
    if kind == "int":
        return c
    c = [F(v) for v in c]
    if kind == "rational" and length:
        i = rng.randrange(1 if lead is not None and length > 1 else 0, length)
        c[i] = F(rng.choice([-3, -1, 1, 5]), rng.choice([2, 3, 4]))
    return c


def _all_int(*operands):
    return all(type(v) is int for c in operands for v in c)


def _check_types(out, int_out):
    """Every value an int when integral and a Fraction otherwise; all ints
    when int_out."""
    assert all(type(v) is (int if v.denominator == 1 else F) for v in out)
    if int_out:
        assert all(type(v) is int for v in out)


def test_mul_kernel_matches_naive_convolution():
    rng = random.Random(131)
    for n in range(0, 16):
        for ka in KINDS:
            for kb in KINDS:
                a = _operand(rng, rng.randint(0, n + 2), ka)
                b = _operand(rng, rng.randint(0, n + 2), kb)
                if _all_int(a, b):
                    out = series._mul_lists(a, b, n)
                else:
                    out = (Series(a, n) * Series(b, n)).coeffs
                assert out == _oracle_mul(a, b, n)
                _check_types(out, _all_int(a, b))


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("kind", KINDS)
def test_div_kernel_matches_oracle_on_every_lead(lead, kind):
    rng = random.Random(137)
    for n in range(1, 18):
        for ka in KINDS:
            a = _operand(rng, n, ka)
            b = _operand(rng, n, "integral" if kind == "int" and type(lead) is F else kind, lead)
            q = series.div(Series(a, n), Series(b, n))
            assert q == _oracle_div(Series(a, n), Series(b, n))
            _check_types(q.coeffs, _all_int(a, b) and lead in (1, -1))
            if _all_int(a, b):
                nums, d = series._div_lists(a, b, n)
                assert _all_int(nums) and d == b[0] ** n
                assert Series([F(v, d) for v in nums], n) == q


def test_sqrt_matches_recurrence_randomized():
    rng = random.Random(139)
    for order in range(1, 24):
        for kind in KINDS:
            g = Series([1] + _operand(rng, order - 1, kind), order)
            assert series.sqrt(g) == _oracle_sqrt(g)


def test_sqrt_leaves_int_path_partway():
    # integral radicands whose roots leave Z: the result must come out in
    # lowest terms however late the first fraction appears
    # 1 + x: the root's x coefficient is already 1/2
    s = series.sqrt(Series([1, 1], 12))
    assert s == _oracle_sqrt(Series([1, 1], 12))
    assert s.coeffs[:3] == [1, F(1, 2), F(-1, 8)]
    # (1 - 2x)^2 + x^k: the root is 1 - 2x exactly up to x^(k-1), and its
    # x^k coefficient is 1/2, so the root leaves Z at x^k
    for k in (3, 4, 5, 8, 13, 30):
        g = Series([1, -4, 4] + [0] * (k - 3) + [1], k + 12)
        s = series.sqrt(g)
        assert s == _oracle_sqrt(g)
        assert s.coeffs[:k] == [1, -2] + [0] * (k - 2)
        assert s.coeffs[k] == F(1, 2)
        assert s * s == g


@pytest.mark.parametrize("kind", KINDS)
def test_sqrt_of_sparse_radicands_matches_oracle(kind):
    # 2 to 4 terms, some with zeros inside or past the last term: the
    # recurrence runs over the radicand's terms up to its last nonzero one
    rng = random.Random(149)
    for order in (1, 2, 3, 5, 17, 60, 120):
        for terms in (2, 3, 4):
            g = Series([1] + _operand(rng, terms - 1, kind), order)
            s = series.sqrt(g)
            assert s == _oracle_sqrt(g)
            _check_types(s.coeffs, False)


def test_sqrt_families_at_large_order():
    for r in range(4):
        g = Series([1, -2 * (r + 2), r * r], 60)
        s = series.sqrt(g)
        assert s == _oracle_sqrt(g)
        assert all(c.denominator == 1 for c in s.coeffs)
    g = Series([1, -4], 80)
    assert coeffs(series.sqrt(g))[1:] == [-2 * comb(2 * k - 2, k - 1) // k for k in range(1, 80)]


@pytest.mark.parametrize("lead", [1, -1, 2, -3])
def test_div_kernel_by_short_divisors_matches_oracle(lead):
    # a divisor of degree 1 to 3, zero-padded to the numerator's length:
    # the recurrence runs over the divisor's terms up to its last nonzero one
    rng = random.Random(151)
    for n in (1, 2, 3, 4, 7, 20, 60):
        for deg in (1, 2, 3):
            a = _operand(rng, n, "int")
            b = [lead] + [rng.choice([-3, -1, 1, 2]) for _ in range(deg)]
            b += [0] * (n - len(b))
            nums, d = series._div_lists(a, b, n)
            assert d == lead**n
            assert Series([F(v, d) for v in nums], n) == _oracle_div(Series(a, n), Series(b, n))


def test_div_of_order_zero_numerator():
    assert series.div(Series([], 0), Series([1, 1], 2)) == Series([], 0)
    assert series._div_lists([], [2], 0) == ([], 1)
