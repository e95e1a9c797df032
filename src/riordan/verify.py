"""Named verification suites behind the `verify` command.

Each suite runs a fixed list of exact-equality checks and returns a
:class:`SuiteResult`.  Statuses are "pass", "fail", or "reported"; the last
is reserved for conjectural identities whose outcome is recorded without
affecting the exit status.  All randomized checks draw from a seeded
generator, so identical invocations produce identical reports.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import series
from .array import (
    RiordanPair,
    bivariate_gf,
    conjugate,
    gf_right_transform,
    identity_pair,
    inverse,
    matrix,
    product,
    require_unipotent,
)
from .bivar import ONE, X, Y, BivariateRational, CoeffMatrix, expand, gf_identity_check
from .families import (
    asm_count_bruteforce,
    catalan_pair,
    classical_asm_gf,
    classical_asm_matrix,
    make_example1,
    make_R,
    make_R_inverse_closed,
    make_tilde_R,
    minor_polynomial_table,
    reference_B20,
    robbins,
    twenty_vertex_gf,
    twenty_vertex_matrix,
)
from .minors import det, det_cofactor, principal_minors
from .symmetry import closed_form_entry, closed_form_sym_entry, symmetrize, symmetrize_gf

DEFAULT_SEED = 20230317
SUITE_NAMES = (
    "robbins",
    "vertex20",
    "table6",
    "inverse6",
    "tilde",
    "closed-forms",
    "factorization",
    "gf-identities",
    "group-laws",
)

ROBBINS_MINORS = [
    1,
    2,
    7,
    42,
    429,
    7436,
    218348,
    10850216,
    911835460,
    129534272700,
    31095744852375,
]

TABLE6 = [
    [1, 1, 1, 1, 1, 1],
    [1, 2, 7, 42, 429, 7436],
    [1, 3, 23, 433, 19705, 2151843],
    [1, 4, 55, 2494, 365953, 171944344],
    [1, 5, 109, 9993, 3791001, 5898286349],
    [1, 6, 191, 31306, 26094301, 109913708076],
]

INVERSE6_R0 = [1, -3, -13, 81, 144, -2017, -1757, 79513, 22704]
INVERSE6_R1 = [1, -4, -33, 427, 5046, -56241, -316626, 7178034, 26671624]

TILDE2_MINORS = [1, 4, 55, 2494, 365953, 171944344]


class Check:
    __slots__ = ("id", "status", "expected", "actual", "note")

    def __init__(self, check_id, status, expected="", actual="", note=""):
        self.id = check_id
        self.status = status
        self.expected = str(expected)
        self.actual = str(actual)
        self.note = note

    def as_dict(self):
        return {
            "id": self.id,
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
            "note": self.note,
        }


class SuiteResult:
    __slots__ = ("suite", "checks")

    def __init__(self, suite, checks):
        self.suite = suite
        self.checks = checks

    @property
    def failed(self):
        return [c for c in self.checks if c.status == "fail"]

    @property
    def exit_status(self):
        return 1 if self.failed else 0

    def as_dict(self):
        counts = {"pass": 0, "fail": 0, "reported": 0}
        for c in self.checks:
            counts[c.status] += 1
        return {
            "suite": self.suite,
            "checks": [c.as_dict() for c in self.checks],
            "counts": counts,
            "exit_status": self.exit_status,
        }


def _eq(check_id, expected, actual):
    status = "pass" if expected == actual else "fail"
    return Check(check_id, status, expected, actual)


def _true(check_id, ok, note=""):
    return Check(check_id, "pass" if ok else "fail", "true", str(bool(ok)).lower(), note)


def suite_robbins():
    pair = make_R(1, 11)
    values = principal_minors(symmetrize(pair, 11), 11)
    checks = []
    for n in range(11):
        expected = ROBBINS_MINORS[n]
        ok = values[n] == expected and values[n] == robbins(n + 1)
        checks.append(
            Check(
                f"robbins/minor-{n}",
                "pass" if ok else "fail",
                expected,
                values[n],
                note="minor equals both the reference list and the product formula",
            )
        )
    for n in range(1, 6):
        checks.append(_eq(f"robbins/asm-bruteforce-{n}", robbins(n), asm_count_bruteforce(n)))
    return SuiteResult("robbins", checks)


def suite_vertex20():
    ref = reference_B20()
    via_family = principal_minors(symmetrize(make_R(2, 9), 9), 9)
    via_gf = principal_minors(twenty_vertex_matrix(9), 9)
    checks = [
        _eq("vertex20/family-minors", ref, list(via_family)),
        _eq("vertex20/gf-minors", ref, list(via_gf)),
    ]
    factored = BivariateRational(
        (ONE - X) * (ONE + Y * Y), (ONE - Y) * (ONE - X * Y) * (ONE - X - Y - X * Y)
    )
    checks.append(
        _true(
            "vertex20/gf-forms-agree",
            gf_identity_check(twenty_vertex_gf(), factored),
            note="sum form vs factored form with denominator (1-y)(1-xy)(1-x-y-xy)",
        )
    )
    return SuiteResult("vertex20", checks)


def suite_table6():
    table = minor_polynomial_table()
    checks = []
    for r in range(6):
        checks.append(_eq(f"table6/row-r{r}", TABLE6[r], table[r]))
    for r in range(6):
        polys = [
            r + 1,
            r**3 + 2 * r**2 + 3 * r + 1,
            r**6 + 3 * r**5 + 7 * r**4 + 13 * r**3 + 11 * r**2 + 6 * r + 1,
        ]
        checks.append(_eq(f"table6/polynomials-r{r}", polys, table[r][1:4]))
    return SuiteResult("table6", checks)


def suite_inverse6():
    checks = []
    for r, expected in ((0, INVERSE6_R0), (1, INVERSE6_R1)):
        got = principal_minors(symmetrize(make_R_inverse_closed(r, 9), 9), 9)
        checks.append(_eq(f"inverse6/minors-r{r}", expected, list(got)))
    return SuiteResult("inverse6", checks)


def suite_tilde():
    checks = []
    for r in range(5):
        S = symmetrize(make_tilde_R(r, 10), 10)
        gf = expand(BivariateRational(ONE, (ONE - X * Y) * (ONE - X - Y - r * X * Y)), 10)
        checks.append(_true(f"tilde/sym-gf-r{r}", S == gf))
    got = principal_minors(symmetrize(make_tilde_R(2, 6), 6), 6)
    checks.append(_eq("tilde/tilde2-minors", TILDE2_MINORS, list(got)))
    for r in range(1, 5):
        a = principal_minors(symmetrize(make_R(r, 7), 7), 7)
        b = principal_minors(symmetrize(make_tilde_R(r - 1, 7), 7), 7)
        checks.append(_eq(f"tilde/transfer-r{r}", list(a), list(b)))
    return SuiteResult("tilde", checks)


def suite_closed_forms():
    checks = []
    for r in range(6):
        M = matrix(make_R(r, 21), 21)
        ok = all(
            M[n][k] == closed_form_entry(r, n, k) for n in range(21) for k in range(21)
        )
        checks.append(_true(f"closed-forms/entry-r{r}", ok))
    S = symmetrize(make_R(1, 15), 15)
    ok = all(S[n][k] == closed_form_sym_entry(n, k) for n in range(15) for k in range(15))
    checks.append(_true("closed-forms/sym-entry", ok))
    for r in range(-2, 6):
        checks.append(
            _true(
                f"closed-forms/inverse-r{r}",
                inverse(make_R(r, 20)) == make_R_inverse_closed(r, 20),
            )
        )
    return SuiteResult("closed-forms", checks)


def suite_factorization():
    checks = []
    cat = catalan_pair(20)
    for r in range(6):
        right = RiordanPair(
            series.rational([1, -1], [1, -r - 2, 3 * r, -2 * r], 20),
            series.poly([0, 1], 20),
        )
        checks.append(_true(f"factorization/r{r}", product(cat, right) == make_R(r, 20)))
    return SuiteResult("factorization", checks)


def suite_gf_identities():
    checks = []
    S1 = symmetrize(make_R(1, 12), 12)
    checks.append(
        _true(
            "gf-identities/sym-R1",
            S1 == expand(BivariateRational(ONE, (ONE - X * Y) * (ONE - X - Y)), 12),
        )
    )
    checks.append(
        _eq(
            "gf-identities/asm-classical-minors",
            [1, 2, 7, 42, 429],
            list(principal_minors(classical_asm_matrix(5), 5)),
        )
    )
    mult = RiordanPair(
        series.rational([1], [1, -1, 1], 12),
        series.poly([0, 1], 12),
        g_rational=([1], [1, -1, 1]),
        f_rational=([0, 1], [1]),
    )
    out = gf_right_transform(classical_asm_gf(), mult)
    target = BivariateRational(ONE, (ONE - X * Y) * (ONE - X - Y))
    checks.append(_true("gf-identities/right-transform", gf_identity_check(out, target)))
    ex1 = symmetrize(make_example1(12), 4)
    signs_ok = all(
        det(ex1.leading(m)) == (-1) ** (m * (m - 1) // 2) * [1, 2, 7, 42][m - 1]
        for m in range(1, 5)
    )
    checks.append(_true("gf-identities/example1-signed-minors", signs_ok))
    # the twenty-vertex conjugation chain
    g0 = expand(
        BivariateRational((ONE - X) * (ONE - Y), (ONE - X * Y) * (ONE - X - Y - X * Y)), 10
    )
    a1 = RiordanPair(series.rational([1], [1, 1], 12), series.rational([0, 1], [1, 1], 12))
    step1 = conjugate(g0, a1)
    checks.append(
        _true(
            "gf-identities/chain-step1",
            step1 == expand(BivariateRational(ONE, (ONE - 2 * X * Y) * (ONE + X + Y)), 10),
        )
    )
    a2 = RiordanPair(series.poly([1], 12), series.poly([0, -1], 12))
    step2 = conjugate(step1, a2)
    checks.append(
        _true(
            "gf-identities/chain-step2",
            step2 == expand(BivariateRational(ONE, (ONE - 2 * X * Y) * (ONE - X - Y)), 10),
        )
    )
    checks.append(
        _eq(
            "gf-identities/negation-minors",
            [(-1) ** ((n + 1) * n // 2) for n in range(6)],
            list(principal_minors(matrix(a2, 6), 6)),
        )
    )
    # conjectural general-r symmetrization gf: reported, never failing
    for r in range(6):
        S = symmetrize(make_R(r, 10), 10)
        gf = expand(BivariateRational(ONE, (ONE - r * X * Y) * (ONE - X - Y)), 10)
        holds = S == gf
        checks.append(
            Check(
                f"conjecture/sym-gf-r{r}",
                "reported",
                "conjectured equal",
                "holds" if holds else "differs",
                note="general-r symmetrization gf is conjectural; outcome recorded only",
            )
        )
    return SuiteResult("gf-identities", checks)


def _random_series(rng, order, nonzero_const=False, zero_const=False, unit_linear=False):
    coeffs = []
    for k in range(order):
        c = rng.randint(-4, 4)
        if rng.random() < 0.2:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        coeffs.append(c)
    if nonzero_const and coeffs[0] == 0:
        coeffs[0] = rng.choice([1, -1, 2, 3])
    if zero_const:
        coeffs[0] = 0
        if unit_linear or coeffs[1] == 0:
            coeffs[1] = 1 if unit_linear else rng.choice([1, -1, 2])
    return series.Series(coeffs, order)


def _random_pair(rng, order, unipotent=False):
    g = _random_series(rng, order, nonzero_const=True)
    f = _random_series(rng, order, zero_const=True, unit_linear=unipotent)
    if unipotent:
        g = series.Series([1] + g.coeffs[1:], order)
    return RiordanPair(g, f)


def _random_int_pair(rng, order, unipotent=False):
    g = [rng.randint(-3, 3) for _ in range(order)]
    f = [0] + [rng.randint(-3, 3) for _ in range(order - 1)]
    g[0] = 1 if unipotent else rng.choice([1, -1, 2])
    f[1] = 1 if unipotent else rng.choice([1, -1, 2])
    return RiordanPair(series.Series(g, order), series.Series(f, order))


def suite_group_laws(seed=DEFAULT_SEED, cases=100):
    rng = random.Random(seed)
    checks = []

    ok = True
    for _ in range(cases):
        a = _random_series(rng, 9)
        b = _random_series(rng, 9, nonzero_const=True)
        if (a * b) / b != a.truncate(9):
            ok = False
            break
    checks.append(_true("group-laws/div-mul-roundtrip", ok, note=f"{cases} cases"))

    ok = True
    for _ in range(cases):
        f = _random_series(rng, 9, zero_const=True)
        v = series.revert(f)
        x = series.poly([0, 1], 9)
        if series.compose(f, v) != x or series.compose(v, f) != x:
            ok = False
            break
    checks.append(_true("group-laws/revert-roundtrip", ok, note=f"{cases} cases"))

    ok = True
    for _ in range(cases):
        g = _random_series(rng, 9)
        g = series.Series([1] + g.coeffs[1:], 9)
        s = series.sqrt(g)
        if s * s != g:
            ok = False
            break
    checks.append(_true("group-laws/sqrt-roundtrip", ok, note=f"{cases} cases"))

    ok = True
    for _ in range(cases):
        a = _random_pair(rng, 8)
        b = _random_pair(rng, 8)
        c = _random_pair(rng, 8)
        if product(product(a, b), c) != product(a, product(b, c)):
            ok = False
            break
        if product(a, inverse(a)) != identity_pair(8):
            ok = False
            break
    checks.append(_true("group-laws/product-inverse", ok, note=f"{cases} cases"))

    ok = True
    for _ in range(cases):
        a = _random_pair(rng, 12)
        b = _random_pair(rng, 12)
        if matrix(product(a, b), 12) != matrix(a, 12) * matrix(b, 12):
            ok = False
            break
    checks.append(_true("group-laws/matrix-homomorphism", ok, note=f"{cases} cases"))

    ok = True
    for _ in range(cases):
        pg = [rng.randint(-3, 3) for _ in range(4)]
        pf = [0] + [rng.randint(-3, 3) for _ in range(3)]
        if pg[0] == 0:
            pg[0] = 1
        if pf[1] == 0:
            pf[1] = 1
        pair = RiordanPair(
            series.poly(pg, 8), series.poly(pf, 8), g_rational=(pg, [1]), f_rational=(pf, [1])
        )
        if expand(bivariate_gf(pair), 8) != matrix(pair, 8):
            ok = False
            break
    checks.append(_true("group-laws/gf-coefficients", ok, note=f"{cases} cases"))

    ok = True
    for _ in range(cases):
        a = _random_pair(rng, 12)
        if symmetrize_gf(a, 6) != symmetrize(a, 6):
            ok = False
            break
    checks.append(_true("group-laws/symmetrization-routes", ok, note=f"{cases} cases"))

    ok = True
    for _ in range(cases):
        n = rng.randint(1, 6)
        M = CoeffMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        if det(M) != det_cofactor(M.rows):
            ok = False
            break
    checks.append(_true("group-laws/bareiss-vs-cofactor", ok, note=f"{cases} cases"))

    ok = True
    for _ in range(cases):
        n = rng.randint(2, 8)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = rng.randint(-4, 4)
        M = CoeffMatrix(rows)
        a = _random_int_pair(rng, n + 2, unipotent=True)
        require_unipotent(a)
        if principal_minors(conjugate(M, a), n) != principal_minors(M, n):
            ok = False
            break
    checks.append(_true("group-laws/unipotent-minor-invariance", ok, note=f"{cases} cases"))

    return SuiteResult("group-laws", checks)


def run_suite(name, seed=DEFAULT_SEED):
    """Run ``suite_<name>``, looked up at call time; group-laws takes the seed."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    suite = globals()["suite_" + name.replace("-", "_")]
    return suite(seed=seed) if name == "group-laws" else suite()


def run_all(seed=DEFAULT_SEED):
    return [run_suite(name, seed=seed) for name in SUITE_NAMES]
