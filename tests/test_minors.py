import math
import random
from fractions import Fraction

import pytest
from minors_mod_p import det_int

from riordan import minors, series
from riordan.array import RiordanPair, conjugate, matrix
from riordan.bivar import CoeffMatrix
from riordan.families import (
    classical_asm_matrix,
    make_R,
    quadratic_pair,
    reference_B20,
    robbins,
    twenty_vertex_matrix,
)
from riordan.minors import det, det_cofactor, principal_minors
from riordan.symmetry import symmetrize

F = Fraction


def test_robbins_minors():
    S = symmetrize(make_R(1, 26), 11)
    values = principal_minors(S, 11)
    assert list(values) == [robbins(n + 1) for n in range(11)]
    assert values[-1] == 31095744852375


def test_twenty_vertex_minors():
    S = symmetrize(make_R(2, 22), 9)
    assert list(principal_minors(S, 9)) == reference_B20()


def test_negation_pair_minors():
    pair = RiordanPair(series.Series([1], 8), series.Series([0, -1], 8))
    got = principal_minors(matrix(pair, 6), 6)
    assert list(got) == [1, -1, -1, 1, 1, -1]
    assert list(got) == [(-1) ** ((n + 1) * n // 2) for n in range(6)]


def test_det_examples():
    assert det(CoeffMatrix([[1]])) == 1
    assert det(CoeffMatrix([[1, 1], [1, 3]])) == 2
    assert det(CoeffMatrix([[1, 1], [1, -1]])) == -2


def test_minors_and_det_keep_the_exact_rule():
    M = CoeffMatrix([[2, 1], [1, 3]])
    assert [type(v) for v in principal_minors(M, 2)] == [int, int]
    assert type(det(M)) is int
    # over a denominator, an integral minor is still an int
    H = CoeffMatrix([[F(1, 2), F(1, 2)], [F(3, 2), F(-1, 2)]])
    assert list(principal_minors(H, 2)) == [F(1, 2), -1]
    assert type(principal_minors(H, 2)[1]) is int and type(det(H)) is int


def test_count_guard():
    with pytest.raises(ValueError, match="requested 2 minors of a 1x1 matrix"):
        principal_minors(CoeffMatrix([[1]]), 2)


def test_zero_leading_minors():
    M = CoeffMatrix([[0, 1], [1, 0]])
    assert list(principal_minors(M, 2)) == [0, -1]
    M = CoeffMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 2]])
    assert list(principal_minors(M, 3)) == [0, -1, -2]
    M = CoeffMatrix([[1, 2, 3], [2, 4, 5], [3, 5, 6]])  # 2x2 block singular
    assert list(principal_minors(M, 3)) == [1, 0, -1]
    assert det(M) == det_cofactor([[F(c) for c in row] for row in M.rows])


def test_rational_entries():
    M = CoeffMatrix([[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]])
    expected2 = F(1, 2) * F(1, 7) - F(1, 3) * F(1, 5)
    assert list(principal_minors(M, 2)) == [F(1, 2), expected2]
    assert det(M) == expected2


def test_bareiss_vs_cofactor_randomized():
    rng = random.Random(47)
    for _ in range(120):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2 and n >= 2:
            rows[n - 1] = rows[0][:]  # force singularity sometimes
        M = CoeffMatrix(rows)
        assert det(M) == det_cofactor([[F(c) for c in row] for row in rows])


def _cofactor_by_paths(rows):
    # the earlier form of the oracle: expansion along the first row, n! paths
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for j in range(n):
        c = rows[0][j]
        if not c:
            continue
        sub = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * c * _cofactor_by_paths(sub)
    return total


def test_det_cofactor_matches_the_path_expansion_randomized():
    rng = random.Random(83)
    for trial in range(160):
        n = trial % 8
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if n > 1 and trial % 3 == 0:
            _repeat(rows, *rng.sample(range(n), 2))
        got = det_cofactor(rows)
        assert got == _cofactor_by_paths(rows)
        assert type(got) is int
    for trial in range(120):
        n = trial % 6
        dens = (1,) if trial % 4 == 0 else (1, 2, 3)
        rows = [[F(rng.randint(-4, 4), rng.choice(dens)) for _ in range(n)] for _ in range(n)]
        want = F(_cofactor_by_paths(rows))
        got = det_cofactor(rows)
        assert got == want
        assert type(got) is (int if want.denominator == 1 else F)


def test_det_cofactor_at_12_by_12():
    # 12! = 479001600 expansion paths would run far past the per-test limit;
    # memoised on column sets it is 2^12 minors of at most 12 terms each
    rng = random.Random(12)
    rows = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]
    got = det_cofactor(rows)
    assert got == det_int(rows) != 0
    assert det_cofactor(rows[:11] + [rows[0]]) == 0


def _repeat(rows, i, j):
    # row and column j become copies of row and column i: every leading block
    # past both is singular, and a symmetric matrix stays symmetric
    for row in rows:
        row[j] = row[i]
    rows[j] = rows[i][:]


def test_det_matches_the_row_exchange_oracle_randomized():
    # det is the sweep's last minor; the oracle is a second elimination with
    # row exchanges, on the int rows or on Fraction rows scaled to int
    rng = random.Random(241)
    for trial in range(780):
        n = trial % 13
        dens = (1,) if trial % 4 < 2 else (1, 2, 3, 6)
        rows = [[F(rng.randint(-4, 4), rng.choice(dens)) for _ in range(n)] for _ in range(n)]
        if trial % 2:
            rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        if n and trial % 3 == 1:  # zeroed diagonals force zero pivots
            for i in rng.sample(range(n), rng.randint(1, n)):
                rows[i][i] = 0
        if n > 1 and trial % 5 == 2:
            _repeat(rows, *rng.sample(range(n), 2))
        scale = math.lcm(*(v.denominator for row in rows for v in row))
        want = F(det_int([[int(v * scale) for v in row] for row in rows]), scale**n)
        got = det(CoeffMatrix(rows))
        assert got == want
        assert type(got) is (int if want.denominator == 1 else F)
        if n <= 5:
            assert got == det_cofactor(rows)


def test_minor_sweep_vs_independent_dets_randomized():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(2, 7)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        M = CoeffMatrix(rows)
        got = principal_minors(M, n)
        for m in range(1, n + 1):
            block = [[F(rows[i][j]) for j in range(m)] for i in range(m)]
            assert got[m - 1] == det_cofactor(block)


def test_multiplicativity():
    rng = random.Random(59)
    for _ in range(30):
        n = rng.randint(2, 6)
        A = CoeffMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        M = CoeffMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert det(A * M * A.transpose()) == det(A) ** 2 * det(M)


def _random_symmetric(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = rng.randint(-4, 4)
    return CoeffMatrix(rows)


def _random_unipotent_pair(rng, order):
    g = [1] + [rng.randint(-3, 3) for _ in range(order - 1)]
    f = [0, 1] + [rng.randint(-3, 3) for _ in range(order - 2)]
    return RiordanPair(series.Series(g, order), series.Series(f, order))


def test_unipotent_conjugation_preserves_minors():
    rng = random.Random(61)
    for _ in range(100):
        n = rng.randint(2, 8)
        M = _random_symmetric(rng, n)
        a = _random_unipotent_pair(rng, n + 2)
        assert principal_minors(conjugate(M, a), n) == principal_minors(M, n)


def test_negation_conjugation_preserves_minors():
    rng = random.Random(67)
    neg = RiordanPair(series.Series([1], 10), series.Series([0, -1], 10))
    for _ in range(40):
        n = rng.randint(2, 8)
        M = _random_symmetric(rng, n)
        assert principal_minors(conjugate(M, neg), n) == principal_minors(M, n)


def test_principal_minors_returns_list():
    got = principal_minors(CoeffMatrix([[2, 0], [0, 3]]), 2)
    assert type(got) is list and got == [2, 6]
    got = principal_minors(CoeffMatrix([[F(1, 2), 1], [1, 3]]), 2)
    assert type(got) is list and got == [F(1, 2), F(1, 2)]
    got = principal_minors(CoeffMatrix([[2, 0], [0, 3]]), 0)
    assert type(got) is list and got == []


def test_zero_pivot_fixup_matches_cofactor():
    # a symmetric integer matrix with a zero pivot at step 0: the sweep folds
    # column 1 into column 0
    rows = [
        [0, 1, 2, 3, 1],
        [1, 0, 4, 1, 2],
        [2, 4, 0, 5, 1],
        [3, 1, 5, 7, 2],
        [1, 2, 1, 2, 3],
    ]
    got = principal_minors(CoeffMatrix(rows), 5)
    expected = [det_cofactor([[F(c) for c in row[:m]] for row in rows[:m]]) for m in range(1, 6)]
    assert list(got) == expected
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(2, 7)
        rows = [row[:] for row in _random_symmetric(rng, n).rows]
        for i in rng.sample(range(n), rng.randint(1, n)):
            rows[i][i] = 0
        M = CoeffMatrix(rows)
        got = principal_minors(M, n)
        for m in range(1, n + 1):
            assert got[m - 1] == det_cofactor([[F(c) for c in row[:m]] for row in M.rows[:m]])


def test_rational_rows_cleared_to_int_randomized():
    # rows with proper fractions are scaled to integers before the sweep;
    # every minor and the determinant must match cofactor expansion
    rng = random.Random(157)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 6])) for _ in range(n)] for _ in range(n)]
        M = CoeffMatrix(rows)
        got = principal_minors(M, n)
        for m in range(1, n + 1):
            want = det_cofactor([row[:m] for row in rows[:m]])
            assert got[m - 1] == want
            assert type(got[m - 1]) is (int if want.denominator == 1 else F)
        assert det(M) == det_cofactor(rows)


def _sweep_both_modes(rows):
    n = len(rows)
    sym = minors._bareiss_minor_sweep(rows, n, symmetric=True)
    gen = minors._bareiss_minor_sweep(rows, n, symmetric=False)
    return sym, gen


def _block_dets(rows):
    return [det_int([row[:m] for row in rows[:m]]) for m in range(1, len(rows) + 1)]


def test_symmetric_mode_matches_general_mode_and_oracles_randomized():
    rng = random.Random(211)
    for trial in range(200):
        n = rng.randint(1, 8)
        rows = _random_symmetric(rng, n).rows
        if trial % 2:  # zeroed diagonals send the sweep through the zero-pivot fold
            for i in rng.sample(range(n), rng.randint(1, n)):
                rows[i][i] = 0
        sym, gen = _sweep_both_modes(rows)
        assert sym == gen == _block_dets(rows)
        if n <= 6:
            assert sym == [det_cofactor([row[:m] for row in rows[:m]]) for m in range(1, n + 1)]


def test_symmetric_mode_on_large_entries_and_late_zero_pivots():
    rng = random.Random(223)
    for _ in range(40):
        n = rng.randint(6, 14)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = rng.randint(-(10**30), 10**30)
        # a singular leading 2 x 2 block: the first fold comes at step 1,
        # after the lower half has gone stale
        rows[0][0], rows[0][1], rows[1][0], rows[1][1] = 2, 6, 6, 18
        sym, gen = _sweep_both_modes(rows)
        assert sym[1] == 0
        assert sym == gen == _block_dets(rows)


def test_symmetric_mode_late_fold_reads_no_stale_entry():
    # minors 1, 0, ...: the zero pivot is met at step 1, after the lower half
    # has gone stale; the fold reads row 2 left of the diagonal as column 2
    rows = [
        [1, 1, 2, 3, 1],
        [1, 1, 4, 5, 2],
        [2, 4, 4, 6, 1],
        [3, 5, 6, 2, 7],
        [1, 2, 1, 7, 3],
    ]
    sym, gen = _sweep_both_modes(rows)
    assert sym == gen == _block_dets(rows)
    assert sym == [det_cofactor([row[:m] for row in rows[:m]]) for m in range(1, 6)]
    assert sym[1] == 0


def test_symmetric_mode_with_no_symmetric_pivot_left():
    # after step 0 both remaining diagonal entries are 0: the fold still
    # finds a pivot off the diagonal
    rows = [[1, 1, 1], [1, 1, 2], [1, 2, 1]]
    assert minors._bareiss_minor_sweep(rows, 3, symmetric=True) == [1, 0, -1]
    # a zero diagonal from the start
    rows = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
    assert minors._bareiss_minor_sweep(rows, 3, symmetric=True) == [0, -1, 12]


@pytest.mark.parametrize(
    "rows, want, modes",
    [
        # 2u a[0][1] + a[1][1] is 0 at u = 1: the fold needs u = -1
        ([[0, 1], [1, -2]], [0, -1], (True, False)),
        # with a third row the next step divides by that pivot
        ([[0, 1, 0], [1, -2, 0], [0, 0, 1]], [0, -1, -1], (True, False)),
        # row 0 is zero up to column 2, past the nonzero diagonal a[1][1]
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], [0, 0, -1], (True, False)),
        # row 0 is zero: every minor is 0 and the sweep stops
        ([[0, 0, 0], [0, 1, 2], [0, 2, 3]], [0, 0, 0], (True, False)),
        # the fold at step 0 skips to t = 3; inside that range step 1 folds
        # again with t = 2, and the minors are recorded only from index 3
        ([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], [0, 0, 0, 1], (True, False)),
        ([[0, 1], [-1, 0]], [0, 1], (False,)),
        # q = 0 after p = -3: one step at index 0, then a fold at index 1
        ([[-3, -3, 3, 2], [-3, -3, 1, 2], [3, 1, 3, -2], [2, 2, -2, -3]], [-3, 0, 12, -20], (True, False)),
        ([[-3, -2, 2, -2], [-3, -2, 1, 3], [0, 1, -2, 0], [-1, 3, 0, 0]], [-3, 0, -3, -102], (False,)),
        # a fold at index 2, right after the two-step over indices 0 and 1
        (
            [[-3, -3, -3, -2, 2], [-3, 2, -3, 2, -3], [-3, -3, -3, 3, 1], [-2, 2, 3, 3, 3], [2, -3, 1, 3, 3]],
            [-3, -15, 0, 375, 617],
            (True, False),
        ),
        (
            [[2, -3, 0, 2, 0], [2, 3, -2, 3, 1], [-2, -3, 2, -2, -1], [0, 1, 2, -2, 1], [-1, 1, -1, 3, 0]],
            [2, 12, 0, -28, -14],
            (False,),
        ),
        # a zero pivot at index 3: a two-step, a one-step at q = 0, a fold
        (
            [
                [2, 2, -3, 0, 1, 1],
                [2, -3, 3, 0, 1, 3],
                [-3, 3, 0, 0, -3, 1],
                [0, 0, 0, 0, 1, -2],
                [1, 1, -3, 1, 1, -2],
                [1, 3, 1, -2, -2, 2],
            ],
            [2, -10, -27, 0, 27, -190],
            (True, False),
        ),
        (
            [
                [3, -2, 3, -3, -2, 0],
                [-3, -3, 0, -3, -3, 0],
                [2, 0, 1, -3, 0, -2],
                [3, -2, 3, -3, 1, 0],
                [-2, -1, -1, 2, 0, 0],
                [0, -3, 2, 1, -3, -1],
            ],
            [3, -15, 3, 0, -72, 288],
            (False,),
        ),
        # a zero pivot at index 0: a fold, then a two-step from the folded state
        ([[0, 2, 0, -1], [2, -3, 1, 0], [0, 1, -3, 0], [-1, 0, 0, 1]], [0, -4, 12, 4], (True, False)),
        ([[0, -3, -3, -2], [3, 3, -3, 0], [3, 1, 2, 2], [-3, -1, -1, -3]], [0, 9, 63, -93], (False,)),
        # zero pivots at indices 2 and 3 after a two-step
        (
            [
                [2, 0, 3, 2, -2, -2],
                [0, -2, 3, 0, 1, -1],
                [3, 3, 0, 3, 3, 2],
                [2, 0, 3, -1, -1, 1],
                [-2, 1, 3, -1, 3, 1],
                [-2, -1, 2, 1, 1, 0],
            ],
            [2, -4, 0, 0, -675, -1597],
            (True, False),
        ),
        (
            [
                [3, 3, 2, 1, -2, 0],
                [1, 0, 1, 0, -2, 3],
                [1, 0, 1, 0, 1, 0],
                [-2, 3, -2, 3, 0, 1],
                [2, 2, -1, 3, -3, -3],
                [-1, 0, -1, -3, -3, 1],
            ],
            [3, -3, 0, 0, -63, -315],
            (False,),
        ),
        # row 1 is twice row 0: after step 0 the active row 1 is zero and
        # column 1 is not, so the general mode folds row 2 into row 1 and
        # eliminates on to the zero minors
        ([[1, 2, 3, 1], [2, 4, 6, 2], [3, 1, 2, 5], [1, 3, 2, 4]], [1, 0, 0, 0], (False,)),
        # its transpose: the active column 1 is zero and row 1 is not, so
        # the general mode stops
        ([[1, 2, 3, 1], [2, 4, 1, 3], [3, 6, 2, 2], [1, 2, 5, 4]], [1, 0, 0, 0], (False,)),
    ],
)
def test_zero_pivot_fold(rows, want, modes):
    n = len(rows)
    assert _block_dets(rows) == want
    assert want == [det_cofactor([row[:m] for row in rows[:m]]) for m in range(1, n + 1)]
    for symmetric in modes:
        assert minors._bareiss_minor_sweep(rows, n, symmetric) == want


def test_zero_pivot_fold_on_sparse_matrices_randomized():
    # sparse blocks meet zero pivots often, some of them inside a range the
    # fold has already skipped
    rng = random.Random(229)
    for trial in range(200):
        n = rng.randint(2, 7)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
        symmetric = bool(trial % 2)
        if symmetric:
            rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        got = minors._bareiss_minor_sweep(rows, n, symmetric)
        assert got == [det_cofactor([row[:m] for row in rows[:m]]) for m in range(1, n + 1)]


# Sym(Q(0, s)) = P diag((1 + s)^j) P^T and Sym(Q(a, -1)) = U^T diag(a^i) U,
# P Pascal and U the all-ones upper triangle
CLOSED_FORM_LINES = sorted({(0, s) for s in range(-3, 4)} | {(a, -1) for a in range(-3, 4)})


@pytest.mark.parametrize("a, s", CLOSED_FORM_LINES)
def test_minors_on_the_two_closed_form_lines(a, s):
    # minor m is (1 + s)^(m(m-1)/2) on the first line and a^(m(m-1)/2) on the
    # second; 1 + s = 0 or a = 0 gives zero pivots, and Sym(Q(0, -1)) is the
    # all-ones matrix, which takes one single step and then finds no fold
    N = 30
    base = 1 + s if a == 0 else a
    want = [base ** (m * (m - 1) // 2) for m in range(1, N + 1)]
    S = symmetrize(quadratic_pair(a, s, N), N)
    assert S.den == 1 and principal_minors(S, N) == want
    for symmetric in (False, True):
        # the odd count ends on a single step
        for count in (N - 1, N):
            assert minors._bareiss_minor_sweep(S.ints, count, symmetric) == want[:count]


def _spy_sweep(monkeypatch):
    modes = []
    sweep = minors._bareiss_minor_sweep

    def spy(rows, count, symmetric=False):
        modes.append(symmetric)
        return sweep(rows, count, symmetric)

    monkeypatch.setattr(minors, "_bareiss_minor_sweep", spy)
    return modes


def test_symmetrized_family_takes_the_symmetric_mode(monkeypatch):
    modes = _spy_sweep(monkeypatch)
    values = principal_minors(symmetrize(make_R(1, 20), 20), 20)
    assert modes == [True]
    assert list(values) == [robbins(n + 1) for n in range(20)]


def test_non_symmetric_and_rational_inputs_take_the_general_mode(monkeypatch):
    modes = _spy_sweep(monkeypatch)
    principal_minors(twenty_vertex_matrix(20), 20)
    assert list(principal_minors(classical_asm_matrix(8), 8))[:5] == [1, 2, 7, 42, 429]
    assert modes == [False, False]
    modes.clear()
    rows = [[F(1, 2), F(1, 3), 1], [F(1, 5), 2, F(5, 6)], [1, F(5, 6), F(-1, 4)]]
    got = principal_minors(CoeffMatrix(rows), 3)
    assert modes == [False]
    assert list(got) == [det_cofactor([row[:m] for row in rows[:m]]) for m in range(1, 4)]


def test_rational_symmetric_blocks_take_the_symmetric_mode(monkeypatch):
    # one common denominator keeps a symmetric rational block symmetric
    modes = _spy_sweep(monkeypatch)
    rows = [[F(1, 2), F(1, 3), 1], [F(1, 3), 2, F(5, 6)], [1, F(5, 6), F(-1, 4)]]
    got = principal_minors(CoeffMatrix(rows), 3)
    assert modes == [True]
    assert list(got) == [det_cofactor([row[:m] for row in rows[:m]]) for m in range(1, 4)]
    rng = random.Random(227)
    for trial in range(100):
        n = rng.randint(1, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = F(rng.randint(-4, 4), rng.randint(1, 6))
        if trial % 2:  # zeroed diagonals send the sweep through the zero-pivot fold
            for i in rng.sample(range(n), rng.randint(1, n)):
                rows[i][i] = 0
        modes.clear()
        M = CoeffMatrix(rows)
        got = principal_minors(M, n)
        assert modes == [True]
        assert list(got) == [
            det_cofactor([row[:m] for row in rows[:m]]) for m in range(1, n + 1)
        ]
        assert det(M) == got[-1] == det_cofactor(rows)


def test_symmetric_mode_is_taken_only_for_a_symmetric_leading_block(monkeypatch):
    modes = _spy_sweep(monkeypatch)
    rows = [[2, 1, 5], [1, 3, 1], [7, 1, 4]]  # symmetric 2 x 2 block only
    M = CoeffMatrix(rows)
    assert list(principal_minors(M, 2)) == [2, 5]
    assert list(principal_minors(M, 3)) == [2, 5, det_cofactor(rows)]
    assert modes == [True, False]


def _one_step_sweep(rows, count, symmetric=False):
    # the sweep one pivot per step, as it ran before the two-step update,
    # with the general mode's old column fold: the reference the two-step
    # sweep is held against
    a = [row[:count] for row in rows[:count]]
    out = [0] * count
    zero_to = 0
    prev = 1
    for k in range(count):
        row_k = a[k]
        if row_k[k] == 0:
            t = next((j for j in range(k + 1, count) if row_k[j]), None)
            if t is None:
                break
            zero_to = max(zero_to, t)
            if symmetric:
                row_t = a[t]
                u = 1 if 2 * row_k[t] + row_t[t] else -1
                for j in range(k, count):
                    row_k[j] += u * (a[j][t] if j < t else row_t[j])
                row_k[k] += u * row_k[t]
            else:
                for i in range(k, count):
                    a[i][k] += a[i][t]
        piv = row_k[k]
        if k >= zero_to:
            out[k] = piv
        for i in range(k + 1, count):
            row_i = a[i]
            if symmetric:
                aik, start = row_k[i], i
            else:
                aik, start = row_i[k], k + 1
            for j in range(start, count):
                row_i[j] = (row_i[j] * piv - aik * row_k[j]) // prev
        prev = piv
    return out


def test_two_step_sweep_matches_the_one_step_sweep_randomized():
    # every size 0-9 and every count up to it, so the last step is a two-step
    # or the lone one-step of an odd count; sparse entries give zero pivots
    # at odd and even indices, q = 0 after a nonzero p, and folds in between
    rng = random.Random(239)
    for trial in range(500):
        n = trial % 10
        entries = (0, 0, 0, 1, -1, 2) if trial % 3 else tuple(range(-6, 7))
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        for symmetric in (False, True):
            if symmetric:
                rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            for count in range(n + 1):
                got = minors._bareiss_minor_sweep(rows, count, symmetric)
                assert got == _one_step_sweep(rows, count, symmetric)
                assert got == [det_cofactor([row[:m] for row in rows[:m]]) for m in range(1, count + 1)]
