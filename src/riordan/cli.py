"""Command line front end.

Subcommands: matrix, symmetrize, minors, verify, oeis.  A call builds the
parser of the command its first argument names only; any other argv (none,
-h, an unknown command, a leading option) gets the parser of every command.
Exit codes: 0 pass, 1 verification failure, 2 usage, 4 network, 5 parse,
and 141 (128 + SIGPIPE) from the console script when stdout closes early.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import namedtuple

from . import families, oeis, verify
from .array import matrix as pair_matrix
from .minors import principal_minors
from .series import unlimited_int_digits
from .symmetry import symmetrize

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NETWORK = 4
EXIT_PARSE = 5
EXIT_BROKEN_PIPE = 141


# Spec name -> Family.  A full-matrix constructor takes N, a pair constructor
# ([r,] order).  Constructors are held by name and looked up in `families` at
# call time, so a function rebound there later (the bench tracer) is called.
Family = namedtuple("Family", "takes_r full_matrix constructor")

FAMILIES = {
    "R": Family(True, False, "make_R"),
    "tildeR": Family(True, False, "make_tilde_R"),
    "Rinv": Family(True, False, "make_R_inverse_closed"),
    "example1": Family(False, False, "make_example1"),
    "catalan": Family(False, False, "catalan_pair"),
    "pascal": Family(False, False, "pascal_pair"),
    "A361654": Family(False, False, "make_A361654_embed"),
    "asm-classical": Family(False, True, "classical_asm_matrix"),
    "vertex20": Family(False, True, "twenty_vertex_matrix"),
}


class UsageError(Exception):
    pass


def _parse_family(spec):
    """Split a family spec like R:1 into (name, r); plain names get r=None."""
    name, colon, arg = spec.partition(":")
    family = FAMILIES.get(name)
    if colon:
        if family is None or not family.takes_r:
            raise UsageError(f"family {name!r} does not take a parameter")
        # ASCII digits only: int() would also take "1_0", " 2" and other scripts' digits
        if not re.fullmatch(r"[-+]?[0-9]+", arg):
            raise UsageError(f"bad family parameter {arg!r}")
        return name, int(arg)
    if family is None or family.takes_r:
        raise UsageError(f"unknown family spec {spec!r}")
    return name, None


def _build_pair(name, r, N):
    """The pair for an N x N request, at order max(N, 2).

    The matrix route (triangle, row-reversal symmetrization, minors) reads
    only the first N coefficients; a Riordan pair needs order >= 2.
    """
    family = FAMILIES[name]
    build = getattr(families, family.constructor)
    order = max(N, 2)
    return build(r, order) if family.takes_r else build(order)


def _build_matrix(name, r, N, symmetrized=False):
    """The N x N matrix of a family: a full matrix as built, else the pair's
    triangle, or its symmetrization when `symmetrized`."""
    family = FAMILIES[name]
    if family.full_matrix:
        if symmetrized:
            raise UsageError(f"{name} is already a full matrix; it has no symmetrization")
        return getattr(families, family.constructor)(N)
    pair = _build_pair(name, r, N)
    return symmetrize(pair, N) if symmetrized else pair_matrix(pair, N)


def _cells(values):
    """Decimal text of exact numbers, however many digits they have."""
    with unlimited_int_digits():
        return [str(v) for v in values]


def _render_matrix(M, fmt):
    cells = [_cells(row) for row in M.rows]
    if fmt == "json":
        return json.dumps(cells)
    if fmt == "csv":
        return "\n".join(",".join(row) for row in cells)
    widths = [max(len(cells[i][j]) for i in range(len(cells))) for j in range(len(cells))]
    return "\n".join(
        " ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    )


def _render_sequence(values, fmt):
    cells = _cells(values)
    if fmt == "json":
        return json.dumps(cells)
    if fmt == "csv":
        return ",".join(cells)
    return " ".join(cells)


def _require_nonnegative(**sizes):
    for name, value in sizes.items():
        if value < 0:
            raise UsageError(f"{name} must be nonnegative, got {value}")


def cmd_matrix(args):
    _require_nonnegative(N=args.N)
    M = _build_matrix(*_parse_family(args.family), args.N, args.symmetrized)
    print(_render_matrix(M, args.format))
    return EXIT_PASS


def cmd_minors(args):
    _require_nonnegative(count=args.count)
    M = _build_matrix(*_parse_family(args.family), args.count, args.symmetrized)
    print(_render_sequence(principal_minors(M, args.count), args.format))
    return EXIT_PASS


def _suite_summary(suite, counts):
    return (
        f"suite {suite}: {counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['reported']} reported"
    )


def cmd_verify(args):
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = [verify.run_suite(name, seed=args.seed) for name in names]
    exit_status = max(r.exit_status for r in results)
    if args.json:
        suites = [r.as_dict() for r in results]
        print(json.dumps({"suites": suites, "exit_status": exit_status}, indent=2))
        for d in suites:
            print(_suite_summary(d["suite"], d["counts"]), file=sys.stderr)
    else:
        for r in results:
            for c in r.checks:
                line = f"{c.status.upper():8s} {c.id}"
                if c.status == "fail":
                    line += f"  expected={c.expected} actual={c.actual}"
                elif c.status == "reported":
                    line += f"  outcome={c.actual}"
                print(line)
            print(_suite_summary(r.suite, r.counts()))
    return EXIT_FAIL if exit_status else EXIT_PASS


CHECK_SEQUENCES = ("robbins", "vertex20", "catalan", "A361654")


def _check_values(name):
    if name == "robbins":
        return [families.robbins(n) for n in range(30)]
    if name == "vertex20":
        return families.reference_B20()
    # catalan or A361654 (argparse rejects other names): the first 12 rows
    M = _build_matrix(name, None, 12)
    return [M[n][k] for n in range(12) for k in range(n + 1)]


def cmd_oeis(args):
    _require_nonnegative(limit=args.limit)
    try:
        oeis.check_seq_id(args.sequence)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    reference = oeis.oeis_fetch(args.sequence, cache_dir=args.cache_dir, offline=args.offline)
    if args.check is None:
        print(_render_sequence(reference[: args.limit], args.format))
        return EXIT_PASS
    alignment = oeis.align(_check_values(args.check), reference)
    verdict = "match" if alignment.ok else "MISMATCH"
    print(
        f"{args.sequence} vs {args.check}: {verdict} "
        f"({alignment.matched}/{alignment.compared} terms, offset {alignment.offset})"
    )
    return EXIT_PASS if alignment.ok else EXIT_FAIL


FORMATS = ("table", "csv", "json")


def _matrix_arguments(p, symmetrized=False):
    p.add_argument("family")
    p.add_argument("N", type=int)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_matrix, symmetrized=symmetrized)


def _minors_arguments(p):
    p.add_argument("family")
    p.add_argument("count", type=int)
    p.add_argument("--symmetrize", action="store_true", dest="symmetrized")
    p.add_argument("--format", choices=FORMATS, default="table")
    # read by no handler; accepted because bench/workloads.py (sym-robbins) passes it
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.set_defaults(func=cmd_minors)


def _verify_arguments(p):
    p.add_argument("suite", choices=verify.SUITE_NAMES + ("all",))
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)


def _oeis_arguments(p):
    p.add_argument("sequence")
    p.add_argument("--check", choices=CHECK_SEQUENCES, default=None)
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--offline", action="store_true")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_oeis)


# Command name -> (help line, function that declares its arguments), in the
# order the top-level usage and help list them.
COMMANDS = {
    "matrix": ("print an N x N family matrix", _matrix_arguments),
    "symmetrize": (
        "print a symmetrized matrix",
        lambda p: _matrix_arguments(p, symmetrized=True),
    ),
    "minors": ("print principal minors", _minors_arguments),
    "verify": ("run a verification suite", _verify_arguments),
    "oeis": ("fetch and compare OEIS b-files", _oeis_arguments),
}


def build_parser(command=None):
    """The parser of every command, or of `command` alone.

    Either way the top-level usage line names every command.  It is set
    after the subparsers are added, because each subparser's prog is taken
    from the usage line current when `add_subparsers` runs.
    """
    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Exact Riordan arrays, symmetrizations, and principal minors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS if command is None else (command,):
        help_text, add_arguments = COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    parser.usage = "%(prog)s [-h] {" + ",".join(COMMANDS) + "} ..."
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # only the named command's arguments are declared: the others would be
    # built on every call and never read
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (oeis.NetworkError, oeis.CacheMiss) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except oeis.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry():
    """Console script: exit with main's status, or quietly with 141 when the
    reader of stdout has gone (``riordan matrix R:3 200 | head``)."""
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's signal docs: send the rest of stdout to devnull, so the
        # flush at interpreter exit cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_BROKEN_PIPE)
    sys.exit(status)


if __name__ == "__main__":
    entry()
