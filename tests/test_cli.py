import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from minors_mod_p import PRIMES, leading_minors_mod

import riordan
from riordan import cli
from riordan.cli import FAMILIES, _build_pair, _parse_family, _render_sequence, build_parser, main
from riordan.families import reference_B20, robbins, twenty_vertex_matrix
from riordan.minors import principal_minors
from riordan.symmetry import symmetrize_gf


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def _reference_parser(command=None):
    # a stand-in for build_parser that ignores `command`: the parser of every
    # command with the usage line argparse writes itself, no override being
    # set, not even while the subparsers take their prog
    top = build_parser()
    parser = argparse.ArgumentParser(prog=top.prog, description=top.description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in cli.COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _assert_minors_mod_p(minors, rows):
    for p in PRIMES:
        assert [m % p for m in minors] == leading_minors_mod(rows, p)


def _check_small_sweep_first(capsys, spec):
    # A wrong elimination step makes the entries of a large sweep grow
    # without bound, so a test that sweeps N >= 40 first checks the N = 16
    # minors of the same family against an oracle that shares no code with
    # the sweep: the product formula for R:1, else elimination mod p on the
    # gf route's symmetrization.  A broken sweep then fails here at once.
    rc, out = run(capsys, "minors", spec, "--symmetrize", "16")
    assert rc == 0
    minors = [int(v) for v in out.split()]
    if spec == "R:1":
        assert minors == [robbins(n + 1) for n in range(16)]
    else:
        pair = _build_pair(*_parse_family(spec), 16)
        _assert_minors_mod_p(minors, symmetrize_gf(pair, 16).rows)


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


def test_minors_accepts_and_ignores_seed(capsys):
    # the argv of the bench workload sym-robbins, which passes --seed to minors
    with_seed = run(capsys, "minors", "R:1", "--symmetrize", "30", "--seed", "7")
    assert with_seed[0] == 0
    assert with_seed == run(capsys, "minors", "R:1", "--symmetrize", "30")


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


def test_usage_errors(capsys, monkeypatch):
    # each UsageError path exits 2 with one "error: " line on stderr
    for argv, message in (
        (("matrix", "nosuch", "4"), "unknown family spec 'nosuch'"),
        (("matrix", "R:x", "4"), "bad family parameter 'x'"),
        (("symmetrize", "vertex20", "4"), "vertex20 is already a full matrix; it has no symmetrization"),
        (
            ("minors", "asm-classical", "4", "--symmetrize"),
            "asm-classical is already a full matrix; it has no symmetrization",
        ),
    ):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    rc, _ = run(capsys, "nosuchcommand")
    assert rc == 2
    # each flag is declared only on the commands that read it: --format on
    # the printing commands (verify reports with --json), --seed on verify
    # (and minors), --offline and --cache-dir on oeis.  argparse reports an
    # unrecognized argument under the top-level usage line, which names
    # every command even when only the invoked one was built.
    monkeypatch.setenv("COLUMNS", "80")
    usage = _reference_parser().format_usage()
    for argv, unrecognized in (
        (("matrix", "R:1", "8", "--order", "4"), "--order 4"),
        (("verify", "robbins", "--format", "json"), "--format json"),
        (("matrix", "R:1", "3", "--offline"), "--offline"),
        (("symmetrize", "R:1", "3", "--cache-dir", "x"), "--cache-dir x"),
        (("minors", "R:1", "3", "--offline"), "--offline"),
        (("verify", "robbins", "--cache-dir", "x"), "--cache-dir x"),
        (("matrix", "R:1", "3", "--seed", "1"), "--seed 1"),
        (("oeis", "A005130", "--seed", "1", "--offline"), "--seed 1"),
    ):
        assert main(list(argv)) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{usage}riordan: error: unrecognized arguments: {unrecognized}\n"
    # int() takes each of these; the parameter is ASCII digits with an optional sign
    for spec in ("R:1_0", "R: 2", "R:\u0663", "R:2 ", "R:"):
        assert main(["matrix", spec, "4"]) == 2
        assert "bad family parameter" in capsys.readouterr().err


ARGV_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["min"],
    ["-x", "minors"],
    ["minors"],
    ["minors", "--help"],
    ["minors", "R:1", "5", "--zz"],
    ["minors", "R:1", "--symmetrize", "8"],
    ["minors", "R:1", "3", "--seed", "x"],
    ["minors", "R:x", "3"],
    ["matrix", "R:1", "4", "--format", "xml"],
    ["matrix", "R:1", "8", "--offline"],
    ["matrix", "R:1", "-1"],
    ["matrix", "--help"],
    ["symmetrize", "R:1", "4"],
    ["symmetrize", "--help"],
    ["verify", "robbins", "--format", "json"],
    ["verify", "nosuch"],
    ["verify", "--help"],
    ["oeis", "--help"],
]


@pytest.mark.parametrize("argv", ARGV_CASES, ids=" ".join)
def test_command_parser_behaves_as_the_full_parser(capsys, monkeypatch, argv):
    # the parser of the invoked command alone gives the exit code, stdout
    # and stderr of the parser of every command with argparse's own usage
    monkeypatch.setenv("COLUMNS", "80")
    built = main(list(argv)), *capsys.readouterr()
    monkeypatch.setattr(cli, "build_parser", _reference_parser)
    assert built == (main(list(argv)), *capsys.readouterr())


@pytest.mark.parametrize(
    "argv, subparsers", [(["minors", "R:1", "--symmetrize", "8"], 1), (["--help"], 5)]
)
def test_parser_adds_the_invoked_command_only(capsys, monkeypatch, argv, subparsers):
    add_parser = argparse._SubParsersAction.add_parser
    added = []
    monkeypatch.setattr(
        argparse._SubParsersAction,
        "add_parser",
        lambda self, name, **kwargs: added.append(name) or add_parser(self, name, **kwargs),
    )
    assert main(argv) == 0
    capsys.readouterr()
    assert len(added) == subparsers


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
    _check_small_sweep_first(capsys, "R:1")
    rc, out = run(capsys, "minors", "R:1", "--symmetrize", "60")
    assert rc == 0
    assert [int(v) for v in out.split()] == [robbins(n + 1) for n in range(60)]


def _check_twenty_vertex_sweeps_first(capsys):
    # both sweeps at N = 16 against elimination mod p on the gf matrix, as in
    # _check_small_sweep_first
    M = twenty_vertex_matrix(16)
    rc, out = run(capsys, "minors", "R:2", "--symmetrize", "16")
    assert rc == 0
    _assert_minors_mod_p([int(v) for v in out.split()], M.rows)
    _assert_minors_mod_p(principal_minors(M, 16), M.rows)


def test_twenty_vertex_family_route_matches_gf_matrix(capsys):
    _check_twenty_vertex_sweeps_first(capsys)
    rc, out = run(capsys, "minors", "R:2", "--symmetrize", "40")
    assert rc == 0
    assert [int(v) for v in out.split()] == list(principal_minors(twenty_vertex_matrix(40), 40))


def test_twenty_vertex_family_route_matches_gf_matrix_at_60(capsys):
    # the family route's Sym(R_2) takes the symmetric sweep, the gf matrix
    # (not symmetric) the general one
    _check_twenty_vertex_sweeps_first(capsys)
    rc, out = run(capsys, "minors", "R:2", "--symmetrize", "60")
    assert rc == 0
    assert [int(v) for v in out.split()] == list(principal_minors(twenty_vertex_matrix(60), 60))


def test_closed_stdout_exits_141_without_a_traceback():
    # the csv of R:3 at N = 200 is larger than a pipe buffer, so the write
    # after the reader has gone always fails
    src = str(Path(riordan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "riordan.cli", "matrix", "R:3", "200", "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(600)) == 600
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


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
    _check_small_sweep_first(capsys, "R:1")
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
    # triangles whose f satisfies fbar(f) = x for fbar = x(1-x)/(1+sx), filled
    # from that relation and pinned from the product route
    "matrix R:3 40 --format csv": "0dca086aa3b2d8d406e9b05b32fbaf35813a1d282df0940ce9fcaec404a5f562",
    "symmetrize tildeR:2 30 --format csv": "3bc552c2a0734644ca43d4ca2107c137649d3ac2afc7c897666b1eaf4fc5dbb6",
    "matrix catalan 30": "fc39c539ce7e5358805bef37eb7a42f310b6684777016fdf1a3e16fc8d8fedb3",
    "matrix A361654 20": "af9a2e61f2f496fb9f4e0288b79a55a868d5d5a7cff6d048079c67757276f7d6",
    "minors tildeR:1 --symmetrize 60": "5b791f48654df8e2a67e549ae7b6144b0be7ac04ad8dbf1f3482257ec769b234",
    # f = x - x^2 meets the relation only mod x^4: relation route at N = 4,
    # product route above; pascal's f never meets it past x^3; s = -3 < 0
    "matrix Rinv:2 4": "fdbb635963540607213bb0fa113eccc5ddede9952307786c70221dcc14e3b0ee",
    "matrix pascal 40 --format csv": "94abb5bffb8be03b1a74f88ce2c0a099b6f31d96d1df5cc1c8f3cd55270fdcf5",
    "matrix tildeR:-3 60": "8193da60f3e63ce6f8c4779962e279befff8fcedf2fe6c1e205d063119af80d6",
    # a zero leading minor at index 1 (index 2 for A361654), so the sweep
    # takes its zero-pivot rule; pinned from the sweep that swapped pivots
    "minors pascal --symmetrize 60": "9c4461a7b74b830cc1f8541a4f0c40a1c506f2626952f1274dbf7895338bc4f3",
    "minors catalan --symmetrize 60": "e014b97789ec4568630f103420816481a94927ba586cc509e09987c4bb18ffc1",
    "minors A361654 --symmetrize 60": "a2134f03a3c07f5fd401cb0af6b4fbb1a0541a34abb20cb6c01471c56032af5a",
    "minors R:-1 --symmetrize 60": "87c5173aa79285ee2c0d2e744c431ab5c08ae0920082c7003705379608689e49",
}


def _assert_pinned(capsys, command):
    argv = command.split()
    if argv[0] == "minors":
        _check_small_sweep_first(capsys, argv[1])
    rc, out = run(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256[command]


@pytest.mark.parametrize("suite", ["all", "group-laws"])
def test_verify_json_output_is_pinned(capsys, suite):
    _assert_pinned(capsys, f"verify {suite} --json")


@pytest.mark.parametrize("command", [c for c in OUTPUT_SHA256 if not c.startswith("verify ")])
def test_output_is_pinned(capsys, command):
    _assert_pinned(capsys, command)
