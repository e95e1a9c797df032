import random
from fractions import Fraction

import pytest

from riordan import minors, series
from riordan.array import RiordanPair, conjugate, matrix
from riordan.bivar import CoeffMatrix, DimensionError
from riordan.families import (
    classical_asm_matrix,
    make_R,
    reference_B20,
    robbins,
    twenty_vertex_matrix,
)
from riordan.minors import MinorSequence, det, det_cofactor, principal_minors
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
    pair = RiordanPair(series.poly([1], 8), series.poly([0, -1], 8))
    got = principal_minors(matrix(pair, 6), 6)
    assert list(got) == [1, -1, -1, 1, 1, -1]
    assert list(got) == [(-1) ** ((n + 1) * n // 2) for n in range(6)]


def test_det_examples():
    assert det(CoeffMatrix([[1]])) == 1
    assert det(CoeffMatrix([[1, 1], [1, 3]])) == 2
    assert det(CoeffMatrix([[1, 1], [1, -1]])) == -2


def test_count_guard():
    with pytest.raises(DimensionError):
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
    return RiordanPair(series.poly(g, order), series.poly(f, order))


def test_unipotent_conjugation_preserves_minors():
    rng = random.Random(61)
    for _ in range(100):
        n = rng.randint(2, 8)
        M = _random_symmetric(rng, n)
        a = _random_unipotent_pair(rng, n + 2)
        assert principal_minors(conjugate(M, a), n) == principal_minors(M, n)


def test_negation_conjugation_preserves_minors():
    rng = random.Random(67)
    neg = RiordanPair(series.poly([1], 10), series.poly([0, -1], 10))
    for _ in range(40):
        n = rng.randint(2, 8)
        M = _random_symmetric(rng, n)
        assert principal_minors(conjugate(M, neg), n) == principal_minors(M, n)


def test_minor_sequence_type():
    got = principal_minors(CoeffMatrix([[2, 0], [0, 3]]), 2)
    assert isinstance(got, MinorSequence)
    assert got == [2, 6]


def test_zero_pivot_fixup_matches_cofactor(monkeypatch):
    # a symmetric integer matrix whose sweep swaps index 0 with 3 and must
    # recompute the 2 x 2 and 3 x 3 minors independently
    rows = [
        [0, 1, 2, 3, 1],
        [1, 0, 4, 1, 2],
        [2, 4, 0, 5, 1],
        [3, 1, 5, 7, 2],
        [1, 2, 1, 2, 3],
    ]
    calls = []
    det_int = minors._det_int

    def counted(block):
        calls.append(len(block))
        return det_int(block)

    monkeypatch.setattr(minors, "_det_int", counted)
    got = principal_minors(CoeffMatrix(rows), 5)
    assert calls == [2, 3]
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
    return [minors._det_int([row[:m] for row in rows[:m]]) for m in range(1, len(rows) + 1)]


def test_symmetric_mode_matches_general_mode_and_oracles_randomized():
    rng = random.Random(211)
    for trial in range(200):
        n = rng.randint(1, 8)
        rows = _random_symmetric(rng, n).rows
        if trial % 2:  # zeroed diagonals send the sweep through swap and fix-up
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
        # a singular leading 2 x 2 block: the first swap comes at step 1,
        # after the lower half has gone stale
        rows[0][0], rows[0][1], rows[1][0], rows[1][1] = 2, 6, 6, 18
        sym, gen = _sweep_both_modes(rows)
        assert sym[1] == 0
        assert sym == gen == _block_dets(rows)


def test_symmetric_mode_mirrors_before_a_late_swap():
    # minors 1, 0, ...: the zero pivot is met at step 1 and swapped with
    # index 3, whose row and column come from the stale lower half
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


def test_symmetric_mode_with_no_symmetric_pivot_left(monkeypatch):
    calls = []
    det_int = minors._det_int

    def counted(block):
        calls.append(len(block))
        return det_int(block)

    monkeypatch.setattr(minors, "_det_int", counted)
    # after step 0 both remaining diagonal entries are 0: no pivot is left
    rows = [[1, 1, 1], [1, 1, 2], [1, 2, 1]]
    assert minors._bareiss_minor_sweep(rows, 3, symmetric=True) == [1, 0, -1]
    assert calls == [3]
    # a zero diagonal from the start: every minor is computed independently
    rows = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
    calls.clear()
    assert minors._bareiss_minor_sweep(rows, 3, symmetric=True) == [0, -1, 12]
    assert calls == [2, 3]


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
        if trial % 2:  # zeroed diagonals send the sweep through swap and fix-up
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
