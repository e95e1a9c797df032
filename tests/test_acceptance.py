"""Acceptance criteria, one test per criterion.

Every check is an exact equality (tolerance zero).  Each test prints one
pass/fail line so a plain `pytest -s tests/test_acceptance.py` reads as a
checklist.
"""

from riordan import series, verify
from riordan.array import RiordanPair, conjugate, gf_right_transform, inverse, matrix, product
from riordan.bivar import ONE, X, Y, BivariateRational, expand, gf_identity_check
from riordan.families import (
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
    twenty_vertex_matrix,
)
from riordan.minors import det, principal_minors
from riordan.symmetry import closed_form_entry, closed_form_sym_entry, symmetrize

ROBBINS_MINORS = [1, 2, 7, 42, 429, 7436, 218348, 10850216, 911835460,
                  129534272700, 31095744852375]


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_robbins_reproduction():
    values = principal_minors(symmetrize(make_R(1, 26), 11), 11)
    ok = list(values) == ROBBINS_MINORS and all(
        values[n] == robbins(n + 1) for n in range(11)
    )
    report("1 robbins reproduction", ok, f"got {list(values)}")


def test_criterion_2_twenty_vertex_reproduction():
    ref = reference_B20()
    a = principal_minors(symmetrize(make_R(2, 22), 9), 9)
    b = principal_minors(twenty_vertex_matrix(9), 9)
    ok = list(a) == ref and list(b) == ref
    report("2 twenty-vertex reproduction", ok, f"family={list(a)} gf={list(b)}")


def test_criterion_3_parameter_table():
    expected = [
        [1, 1, 1, 1, 1, 1],
        [1, 2, 7, 42, 429, 7436],
        [1, 3, 23, 433, 19705, 2151843],
        [1, 4, 55, 2494, 365953, 171944344],
        [1, 5, 109, 9993, 3791001, 5898286349],
        [1, 6, 191, 31306, 26094301, 109913708076],
    ]
    table = minor_polynomial_table()
    ok = table == expected
    for r in range(6):
        ok = ok and table[r][1] == r + 1
        ok = ok and table[r][2] == r**3 + 2 * r**2 + 3 * r + 1
        ok = ok and table[r][3] == (
            r**6 + 3 * r**5 + 7 * r**4 + 13 * r**3 + 11 * r**2 + 6 * r + 1
        )
    report("3 general-r minor table", ok)


def test_criterion_4_inverse_family_minors():
    got0 = principal_minors(symmetrize(make_R_inverse_closed(0, 22), 9), 9)
    got1 = principal_minors(symmetrize(make_R_inverse_closed(1, 22), 9), 9)
    ok = list(got0) == [1, -3, -13, 81, 144, -2017, -1757, 79513, 22704] and list(
        got1
    ) == [1, -4, -33, 427, 5046, -56241, -316626, 7178034, 26671624]
    report("4 inverse-family signed minors", ok, f"r0={list(got0)} r1={list(got1)}")


def test_criterion_5_second_family():
    ok = True
    for r in range(5):
        S = symmetrize(make_tilde_R(r, 24), 10)
        gf = expand(BivariateRational(ONE, (ONE - X * Y) * (ONE - X - Y - r * X * Y)), 10)
        ok = ok and S == gf
    tilde2 = principal_minors(symmetrize(make_tilde_R(2, 16), 6), 6)
    ok = ok and list(tilde2) == [1, 4, 55, 2494, 365953, 171944344]
    for r in range(1, 5):
        a = principal_minors(symmetrize(make_R(r, 18), 7), 7)
        b = principal_minors(symmetrize(make_tilde_R(r - 1, 18), 7), 7)
        ok = ok and list(a) == list(b)
    report("5 second family", ok)


def test_criterion_6_robbins_identities():
    S1 = symmetrize(make_R(1, 28), 12)
    ok = S1 == expand(BivariateRational(ONE, (ONE - X * Y) * (ONE - X - Y)), 12)
    ok = ok and list(principal_minors(classical_asm_matrix(5), 5)) == [1, 2, 7, 42, 429]
    mult = RiordanPair(
        series.rational([1], [1, -1, 1], 12),
        series.poly([0, 1], 12),
        g_rational=([1], [1, -1, 1]),
        f_rational=([0, 1], [1]),
    )
    out = gf_right_transform(classical_asm_gf(), mult)
    target = BivariateRational(ONE, (ONE - X * Y) * (ONE - X - Y))
    ok = ok and gf_identity_check(out, target)
    ex1 = symmetrize(make_example1(12), 4)
    signed = [1, 2, 7, 42]
    ok = ok and all(
        det(ex1.leading(m)) == (-1) ** (m * (m - 1) // 2) * signed[m - 1]
        for m in range(1, 5)
    )
    report("6 classical robbins identities", ok)


def test_criterion_7_twenty_vertex_chain():
    N = 10
    g0 = expand(
        BivariateRational((ONE - X) * (ONE - Y), (ONE - X * Y) * (ONE - X - Y - X * Y)), N
    )
    a1 = RiordanPair(series.rational([1], [1, 1], 12), series.rational([0, 1], [1, 1], 12))
    step1 = conjugate(g0, a1)
    ok = step1 == expand(BivariateRational(ONE, (ONE - 2 * X * Y) * (ONE + X + Y)), N)
    a2 = RiordanPair(series.poly([1], 12), series.poly([0, -1], 12))
    step2 = conjugate(step1, a2)
    ok = ok and step2 == expand(BivariateRational(ONE, (ONE - 2 * X * Y) * (ONE - X - Y)), N)
    minors_neg = principal_minors(matrix(a2, 8), 8)
    ok = ok and list(minors_neg) == [(-1) ** ((n + 1) * n // 2) for n in range(8)]
    report("7 twenty-vertex conjugation chain", ok)


def test_criterion_8_closed_forms():
    ok = True
    for r in range(6):
        M = matrix(make_R(r, 21), 21)
        ok = ok and all(
            M[n][k] == closed_form_entry(r, n, k) for n in range(21) for k in range(21)
        )
    S = symmetrize(make_R(1, 34), 15)
    ok = ok and all(
        S[n][k] == closed_form_sym_entry(n, k) for n in range(15) for k in range(15)
    )
    cat = catalan_pair(20)
    for r in range(6):
        right = RiordanPair(
            series.rational([1, -1], [1, -r - 2, 3 * r, -2 * r], 20),
            series.poly([0, 1], 20),
        )
        ok = ok and product(cat, right) == make_R(r, 20)
    for r in range(-2, 6):
        ok = ok and inverse(make_R(r, 20)) == make_R_inverse_closed(r, 20)
    report("8 closed forms and factorization", ok)


def test_criterion_9_property_suites():
    result = verify.suite_group_laws(seed=verify.DEFAULT_SEED, cases=100)
    failed = [c.id for c in result.failed]
    names = {c.id for c in result.checks}
    expected = {
        "group-laws/div-mul-roundtrip",
        "group-laws/revert-roundtrip",
        "group-laws/sqrt-roundtrip",
        "group-laws/product-inverse",
        "group-laws/matrix-homomorphism",
        "group-laws/gf-coefficients",
        "group-laws/symmetrization-routes",
        "group-laws/bareiss-vs-cofactor",
        "group-laws/unipotent-minor-invariance",
    }
    ok = not failed and expected <= names
    report("9 randomized property suites", ok, f"failed={failed}")


def test_criterion_10_cross_oracle():
    counts = [asm_count_bruteforce(n) for n in range(1, 6)]
    ok = counts == [robbins(n) for n in range(1, 6)] and counts[-1] == 429
    report("10 brute-force cross-oracle", ok, f"counts={counts}")


def test_criterion_11_conjecture_reported():
    result = verify.suite_gf_identities()
    conjecture = [c for c in result.checks if c.id.startswith("conjecture/sym-gf-r")]
    ok = len(conjecture) == 6 and all(c.status == "reported" for c in conjecture)
    outcomes = {c.id: c.actual for c in conjecture}
    ok = ok and not result.failed
    report("11 general-r conjecture reported", ok, f"outcomes={outcomes}")
