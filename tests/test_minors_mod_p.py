from fractions import Fraction

import pytest
from minors_mod_p import PRIMES, leading_minors_mod

from riordan.bivar import ONE, X, Y, BivariateRational, expand
from riordan.cli import main
from riordan.families import twenty_vertex_matrix


def test_leading_minors_mod_small_cases():
    rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]  # minors 2, 5, 18
    assert leading_minors_mod(rows, 7) == [2, 5, 4]
    assert leading_minors_mod([[-3, 5], [2, -1]], 11) == [8, 4]  # -3, -7
    with pytest.raises(ZeroDivisionError):
        leading_minors_mod([[1, 2], [2, 4]], 7)  # the 2 x 2 minor is 0
    with pytest.raises(ZeroDivisionError):
        leading_minors_mod([[7, 1], [1, 1]], 7)
    with pytest.raises(TypeError):
        leading_minors_mod([[Fraction(1, 2)]], 7)


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
