import random
from fractions import Fraction

import pytest
from minors_mod_p import PRIMES, det_int, det_mod, leading_minors_mod

from riordan import families
from riordan.bivar import ONE, X, Y, BivariateRational, expand
from riordan.cli import main
from riordan.families import twenty_vertex_matrix
from riordan.minors import _bareiss_minor_sweep
from riordan.symmetry import symmetrize_gf


def test_leading_minors_mod_small_cases():
    rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]  # minors 2, 5, 18
    assert leading_minors_mod(rows, 7) == [2, 5, 4]
    assert leading_minors_mod([[-3, 5], [2, -1]], 11) == [8, 4]  # -3, -7
    with pytest.raises(TypeError):
        leading_minors_mod([[Fraction(1, 2)]], 7)


def test_leading_minors_mod_past_a_zero_pivot():
    assert leading_minors_mod([[1, 2], [2, 4]], 7) == [1, 0]  # the 2 x 2 minor is 0
    assert leading_minors_mod([[7, 1], [1, 1]], 7) == [0, 6]  # 7, 6
    # 7, 6, -1: zero mod 7 at the first minor only
    assert leading_minors_mod([[7, 1, 0], [1, 1, 1], [0, 1, 1]], 7) == [0, 6, 6]
    assert det_mod([[0, 1], [1, 0]], 5) == 4
    assert det_mod([[0, 1], [0, 2]], 5) == 0


def test_leading_minors_mod_match_block_determinants_randomized():
    # small primes make zero pivots common, also after the first one
    rng = random.Random(233)
    for _ in range(200):
        n = rng.randint(1, 7)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        want = [det_int([row[:m] for row in rows[:m]]) for m in range(1, n + 1)]
        for p in (2, 3, 5, 2**31 - 1):
            assert leading_minors_mod(rows, p) == [v % p for v in want]


# The symmetrizations as rational gfs, expanded independently of the
# triangle fill and of symmetrize (each expansion equals the program's
# symmetrization at N = 80).
SYMMETRIZATION_GF = {
    "R:2": BivariateRational(ONE, (ONE - 2 * X * Y) * (ONE - X - Y)),
    "R:3": BivariateRational(ONE, (ONE - 3 * X * Y) * (ONE - X - Y)),
    "tildeR:1": BivariateRational(ONE, (ONE - X * Y) * (ONE - X - Y - X * Y)),
    # the tilde suite's gf at r = 2: s = 2 in the fill, where s u + v and
    # u + s v differ
    "tildeR:2": BivariateRational(ONE, (ONE - X * Y) * (ONE - X - Y - 2 * X * Y)),
    "example1": BivariateRational(ONE, (ONE - X + X * Y) * (ONE - Y + X * Y)),
    "Rinv:1": BivariateRational(
        (ONE - 2 * X * Y)
        * (ONE - X * Y + X * X * Y * Y)
        * (ONE - X * Y + 2 * X * X * Y * Y - X * X * X * Y * Y * Y),
        (ONE - X + X * X * Y) * (ONE - Y + X * Y * Y),
    ),
}


def _printed_minors(capsys, *argv):
    assert main(list(argv)) == 0
    return [int(v) for v in capsys.readouterr().out.split()]


@pytest.mark.parametrize("spec", SYMMETRIZATION_GF)
def test_symmetrization_minors_match_elimination_mod_p(capsys, spec):
    rows = expand(SYMMETRIZATION_GF[spec], 80).rows
    residues = {p: leading_minors_mod(rows, p) for p in PRIMES}
    # the small block first, so that a wrong sweep fails before its numbers
    # grow out of reach
    for N in (16, 80):
        minors = _printed_minors(capsys, "minors", spec, "--symmetrize", str(N))
        for p in PRIMES:
            assert [m % p for m in minors] == residues[p][:N]


def test_general_mode_minors_match_elimination_mod_p(capsys):
    minors = _printed_minors(capsys, "minors", "vertex20", "80")
    rows = twenty_vertex_matrix(80).rows
    for p in PRIMES:
        assert [m % p for m in minors] == leading_minors_mod(rows, p)


# Symmetrizations with a zero leading minor, which the sweep meets as a zero
# pivot (catalan, pascal, R:-1 and tildeR:-2 at index 1, A361654 at index 2);
# the oracle's matrix comes from the gf route, not from the triangle fill.
ZERO_PIVOT_PAIRS = {
    "catalan": families.catalan_pair,
    "A361654": families.make_A361654_embed,
    "pascal": families.pascal_pair,
    "R:-1": lambda order: families.make_R(-1, order),
    "tildeR:-2": lambda order: families.make_tilde_R(-2, order),
}


@pytest.mark.parametrize("spec", ZERO_PIVOT_PAIRS)
def test_zero_pivot_symmetrization_minors_match_elimination_mod_p(capsys, spec):
    # the CLI takes the symmetric mode; the general mode meets the same real
    # zero pivots and folds them by rows, read down column k
    rows = symmetrize_gf(ZERO_PIVOT_PAIRS[spec](40), 40).rows
    for N in (16, 40):
        minors = _printed_minors(capsys, "minors", spec, "--symmetrize", str(N))
        assert 0 in minors[:3]
        block = [row[:N] for row in rows[:N]]
        for p in PRIMES:
            assert [m % p for m in minors] == leading_minors_mod(block, p)
        assert _bareiss_minor_sweep(block, N, False) == minors
