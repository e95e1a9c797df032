import hashlib
import json
import sys

import pytest

from riordan.cli import FAMILIES, _render_sequence, main
from riordan.families import reference_B20, robbins, twenty_vertex_matrix
from riordan.minors import principal_minors


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_matrix_table(capsys):
    rc, out = run(capsys, "matrix", "R:1", "6")
    assert rc == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows[5] == ["351", "175", "76", "27", "7", "1"]


def test_matrix_csv_pascal(capsys):
    rc, out = run(capsys, "matrix", "pascal", "4", "--format", "csv")
    assert rc == 0
    assert out.strip().splitlines() == ["1,0,0,0", "1,1,0,0", "1,2,1,0", "1,3,3,1"]


def test_matrix_json_roundtrip(capsys):
    rc, out = run(capsys, "minors", "R:1", "11", "--symmetrize", "--format", "json")
    assert rc == 0
    values = [int(s) for s in json.loads(out)]
    assert values == [robbins(n + 1) for n in range(11)]
    assert values[-1] == 31095744852375  # exceeds 2**53; decimal text survives


def test_matrix_vertex20_json(capsys):
    rc, out = run(capsys, "matrix", "vertex20", "3", "--format", "json")
    assert rc == 0
    from riordan.bivar import expand
    from riordan.families import twenty_vertex_gf

    expected = expand(twenty_vertex_gf(), 3)
    assert [[int(v) for v in row] for row in json.loads(out)] == [
        [int(v) for v in row] for row in expected.rows
    ]


def test_verify_seed_flag(capsys):
    rc, _ = run(capsys, "verify", "group-laws", "--seed", "7")
    assert rc == 0


def test_symmetrize_matches_display(capsys):
    rc, out = run(capsys, "symmetrize", "R:1", "6", "--format", "csv")
    assert rc == 0
    assert out.strip().splitlines()[1] == "1,3,4,5,6,7"


def test_minors_vertex20(capsys):
    rc, out = run(capsys, "minors", "R:2", "9", "--symmetrize")
    assert rc == 0
    assert [int(v) for v in out.split()] == reference_B20()
    rc, out = run(capsys, "minors", "vertex20", "9")
    assert rc == 0
    assert [int(v) for v in out.split()] == reference_B20()


def test_minors_inverse_family(capsys):
    rc, out = run(capsys, "minors", "Rinv:0", "9", "--symmetrize")
    assert rc == 0
    assert [int(v) for v in out.split()] == [1, -3, -13, 81, 144, -2017, -1757, 79513, 22704]


def test_family_table_looks_up_constructors_at_call_time(capsys, monkeypatch):
    # a constructor rebound on `families` after import (as the bench tracer
    # does) is the one the CLI calls, for pair and full-matrix specs alike
    from riordan import families

    built = []
    for attr in ("make_R", "twenty_vertex_matrix"):
        original = getattr(families, attr)
        monkeypatch.setattr(
            families, attr, lambda *a, attr=attr, original=original: built.append(attr) or original(*a)
        )
    assert run(capsys, "matrix", "R:1", "3")[0] == 0
    assert run(capsys, "minors", "vertex20", "3")[0] == 0
    assert built == ["make_R", "twenty_vertex_matrix"]


def test_usage_errors(capsys):
    rc, _ = run(capsys, "matrix", "nosuch", "4")
    assert rc == 2
    rc, _ = run(capsys, "matrix", "R:x", "4")
    assert rc == 2
    rc, _ = run(capsys, "symmetrize", "vertex20", "4")
    assert rc == 2
    rc, _ = run(capsys, "minors", "asm-classical", "4", "--symmetrize")
    assert rc == 2
    rc, _ = run(capsys, "nosuchcommand")
    assert rc == 2
    rc, _ = run(capsys, "matrix", "R:1", "8", "--order", "4")
    assert rc == 2


def test_output_determinism(capsys):
    rc1, out1 = run(capsys, "verify", "group-laws", "--json")
    rc2, out2 = run(capsys, "verify", "group-laws", "--json")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_robbins(capsys):
    rc, out = run(capsys, "verify", "robbins")
    assert rc == 0
    lines = out.strip().splitlines()
    minors = [l for l in lines if l.split()[1].startswith("robbins/minor-")]
    assert len(minors) == 11
    assert all(l.startswith("PASS") for l in minors)


def test_verify_all_json(capsys):
    rc, out = run(capsys, "verify", "all", "--json")
    assert rc == 0
    report = json.loads(out)
    assert report["exit_status"] == 0
    suites = {s["suite"] for s in report["suites"]}
    assert suites == {
        "robbins", "vertex20", "table6", "inverse6", "tilde",
        "closed-forms", "factorization", "gf-identities", "group-laws",
    }
    gf = next(s for s in report["suites"] if s["suite"] == "gf-identities")
    conjecture = [c for c in gf["checks"] if c["id"].startswith("conjecture/")]
    assert len(conjecture) == 6
    assert all(c["status"] == "reported" for c in conjecture)
    assert gf["counts"]["fail"] == 0
    # every numeric field round-trips through the JSON as decimal text
    rob = next(s for s in report["suites"] if s["suite"] == "robbins")
    big = next(c for c in rob["checks"] if c["id"] == "robbins/minor-10")
    assert int(big["actual"]) == 31095744852375


def test_oeis_check_robbins(capsys, tmp_path):
    lines = "\n".join(f"{n} {robbins(n)}" for n in range(12)) + "\n"
    (tmp_path / "b005130.txt").write_text(lines)
    rc, out = run(
        capsys, "oeis", "A005130", "--check", "robbins",
        "--offline", "--cache-dir", str(tmp_path),
    )
    assert rc == 0
    assert "match" in out


def test_oeis_print_values(capsys, tmp_path):
    (tmp_path / "b358069.txt").write_text(
        "\n".join(f"{n + 1} {v}" for n, v in enumerate(reference_B20())) + "\n"
    )
    rc, out = run(
        capsys, "oeis", "A358069", "--offline", "--cache-dir", str(tmp_path),
        "--format", "csv",
    )
    assert rc == 0
    assert out.strip() == ",".join(str(v) for v in reference_B20())


def test_oeis_check_catalan_triangle(capsys, tmp_path):
    # first rows of the Catalan matrix, built here from the ballot recurrence
    # T(n,k) = T(n-1,k-1) + T(n,k+1), independent of the series machinery
    rows = [[0] * 11 for _ in range(10)]
    rows[0][0] = 1
    for n in range(1, 10):
        for k in range(n, 0, -1):
            rows[n][k] = rows[n - 1][k - 1] + rows[n][k + 1]
        rows[n][0] = rows[n][1]
    flat = [rows[n][k] for n in range(10) for k in range(n + 1)]
    assert flat[:15] == [1, 1, 1, 2, 2, 1, 5, 5, 3, 1, 14, 14, 9, 4, 1]
    (tmp_path / "b033184.txt").write_text(
        "\n".join(f"{i + 1} {v}" for i, v in enumerate(flat)) + "\n"
    )
    rc, out = run(
        capsys, "oeis", "A033184", "--check", "catalan",
        "--offline", "--cache-dir", str(tmp_path),
    )
    assert rc == 0
    assert "match" in out


def test_oeis_exit_codes(capsys, tmp_path):
    rc, _ = run(capsys, "oeis", "nonsense")
    assert rc == 2
    rc, _ = run(capsys, "oeis", "A005130", "--offline", "--cache-dir", str(tmp_path))
    assert rc == 4
    (tmp_path / "b005130.txt").write_text("0 1\nbroken line here\n")
    rc, _ = run(capsys, "oeis", "A005130", "--offline", "--cache-dir", str(tmp_path))
    assert rc == 5


def test_oeis_mismatch_fails(capsys, tmp_path):
    (tmp_path / "b005130.txt").write_text("0 1\n1 1\n2 2\n3 99\n")
    rc, out = run(
        capsys, "oeis", "A005130", "--check", "robbins",
        "--offline", "--cache-dir", str(tmp_path),
    )
    assert rc == 1
    assert "MISMATCH" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "R:1", "-3"),
        ("minors", "R:1", "-2", "--symmetrize"),
        ("symmetrize", "R:1", "-1"),
        ("matrix", "vertex20", "-2"),
        ("minors", "R:2", "-1"),
        ("oeis", "A005130", "--limit", "-1", "--offline"),
    ],
)
def test_negative_size_is_usage_error(capsys, argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_symmetrized_minors_of_empty_and_unit_blocks(capsys):
    assert run(capsys, "minors", "R:1", "--symmetrize", "0") == (0, "\n")
    assert run(capsys, "minors", "R:1", "--symmetrize", "1") == (0, "1\n")


PAIR_SPECS = [
    f"{name}:{r}" if family.takes_r else name
    for name, family in FAMILIES.items()
    if not family.full_matrix
    for r in ((-2, 0, 1, 3) if family.takes_r else (None,))
]


@pytest.mark.parametrize("spec", PAIR_SPECS)
def test_every_pair_family_is_integral_at_the_order_it_is_built(capsys, spec):
    # the CLI builds each pair at order max(N, 2); every entry must be an int
    for N in ("0", "1", "2", "7"):
        for argv in (
            ("matrix", spec, N),
            ("symmetrize", spec, N),
            ("minors", spec, "--symmetrize", N),
        ):
            rc, out = run(capsys, *argv, "--format", "json")
            assert rc == 0, argv
            cells = json.loads(out)
            if argv[0] != "minors":
                assert len(cells) == int(N)
                cells = [c for row in cells for c in row]
            assert all(str(int(c)) == c for c in cells), argv


def test_robbins_minors_at_default_order(capsys):
    rc, out = run(capsys, "minors", "R:1", "--symmetrize", "60")
    assert rc == 0
    assert [int(v) for v in out.split()] == [robbins(n + 1) for n in range(60)]


def test_twenty_vertex_family_route_matches_gf_matrix(capsys):
    rc, out = run(capsys, "minors", "R:2", "--symmetrize", "40")
    assert rc == 0
    assert [int(v) for v in out.split()] == list(principal_minors(twenty_vertex_matrix(40), 40))


def test_twenty_vertex_family_route_matches_gf_matrix_at_60(capsys):
    # the family route's Sym(R_2) takes the symmetric sweep, the gf matrix
    # (not symmetric) the general one
    rc, out = run(capsys, "minors", "R:2", "--symmetrize", "60")
    assert rc == 0
    assert [int(v) for v in out.split()] == list(principal_minors(twenty_vertex_matrix(60), 60))


def test_render_sequence_past_the_digit_limit():
    # robbins(195) has 4321 digits, past CPython's default limit of 4300
    value = robbins(195)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    text = _render_sequence([value], "table")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    assert len(text) == 4321
    assert int(text[:2000]) * 10 ** (len(text) - 2000) + int(text[2000:]) == value


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no digit limit"
)
def test_minors_print_under_a_lowered_digit_limit(capsys):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the smallest limit CPython accepts
    try:
        rc, out = run(capsys, "minors", "R:1", "--symmetrize", "80")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(saved)
    assert rc == 0
    assert len(str(robbins(80))) > 640
    assert out.split() == [str(robbins(n + 1)) for n in range(80)]


# sha256 of stdout.  The verify reports were recorded before the series and
# matrix kernels moved from Fraction to int over common denominators; the
# other outputs before every container stored integral values as int.  Any
# change to the outputs, including a change of number formatting, shows here.
OUTPUT_SHA256 = {
    "verify all --json": "67d566bfb156965e23c053deb244b739756e47164def74173c62006d46458295",
    "verify group-laws --json": "329fcda653c4fe09138f34245b7deae76a46dfa066faf0e57a5be194b96006f7",
    "matrix tildeR:1 12 --format csv": "02464bcad8dcb1210856dd13b4affaf4e894f1ca0984a37f2e4131b2a9de408c",
    "matrix vertex20 8 --format json": "3561a862b48c38ecdd065f23bc1b6b045c0d9cae72ad78b0b3c7da6783ef2914",
    "symmetrize example1 8": "26a23c936600d6ee46ba619c4d0bebb2660d9ac1c3cbc2d45d3bed4932d03a5f",
    "minors R:1 --symmetrize 120": "00e6d4378990849480f0d46c73a94a7c994a99e2a04a258bcf509608836fc8c8",
}


def _assert_pinned(capsys, command):
    rc, out = run(capsys, *command.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256[command]


@pytest.mark.parametrize("suite", ["all", "group-laws"])
def test_verify_json_output_is_pinned(capsys, suite):
    _assert_pinned(capsys, f"verify {suite} --json")


@pytest.mark.parametrize("command", [c for c in OUTPUT_SHA256 if not c.startswith("verify ")])
def test_output_is_pinned(capsys, command):
    _assert_pinned(capsys, command)
