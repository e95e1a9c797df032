"""Command line front end.

Subcommands: matrix, symmetrize, minors, verify, oeis.  Exit codes:
0 pass, 1 verification failure, 2 usage, 4 network, 5 parse.
"""

from __future__ import annotations

import argparse
import json
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
        try:
            return name, int(arg)
        except ValueError:
            raise UsageError(f"bad family parameter {arg!r}") from None
    if family is None or family.takes_r:
        raise UsageError(f"unknown family spec {spec!r}")
    return name, None


def _build_pair(name, r, N):
    """The pair for an N x N request, at order max(N, 2).

    The matrix route (triangle, row-reversal symmetrization, minors) reads
    only the first N coefficients; a Riordan pair needs order >= 2.
    """
    family = FAMILIES.get(name)
    if family is None or family.full_matrix:
        raise UsageError(f"{name!r} is not a Riordan pair spec")
    build = getattr(families, family.constructor)
    order = max(N, 2)
    return build(r, order) if family.takes_r else build(order)


def _build_matrix(name, r, N):
    family = FAMILIES[name]
    if family.full_matrix:
        return getattr(families, family.constructor)(N)
    return pair_matrix(_build_pair(name, r, N), N)


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
    name, r = _parse_family(args.family)
    M = _build_matrix(name, r, args.N)
    print(_render_matrix(M, args.format))
    return EXIT_PASS


def cmd_symmetrize(args):
    _require_nonnegative(N=args.N)
    name, r = _parse_family(args.family)
    if FAMILIES[name].full_matrix:
        raise UsageError(f"{name} is already a full matrix; it has no symmetrization")
    pair = _build_pair(name, r, args.N)
    S = symmetrize(pair, args.N)
    print(_render_matrix(S, args.format))
    return EXIT_PASS


def cmd_minors(args):
    _require_nonnegative(count=args.count)
    name, r = _parse_family(args.family)
    count = args.count
    if FAMILIES[name].full_matrix:
        if args.symmetrize:
            raise UsageError(f"{name} is already a full matrix; --symmetrize does not apply")
        M = _build_matrix(name, r, count)
    else:
        pair = _build_pair(name, r, count)
        M = symmetrize(pair, count) if args.symmetrize else pair_matrix(pair, count)
    print(_render_sequence(principal_minors(M, count), args.format))
    return EXIT_PASS


def cmd_verify(args):
    if args.suite == "all":
        results = verify.run_all(seed=args.seed)
    else:
        results = [verify.run_suite(args.suite, seed=args.seed)]
    exit_status = max(r.exit_status for r in results)
    if args.json:
        report = {
            "suites": [r.as_dict() for r in results],
            "exit_status": exit_status,
        }
        print(json.dumps(report, indent=2))
        for r in results:
            counts = r.as_dict()["counts"]
            print(
                f"suite {r.suite}: {counts['pass']} passed, {counts['fail']} failed, "
                f"{counts['reported']} reported",
                file=sys.stderr,
            )
    else:
        for r in results:
            for c in r.checks:
                line = f"{c.status.upper():8s} {c.id}"
                if c.status == "fail":
                    line += f"  expected={c.expected} actual={c.actual}"
                elif c.status == "reported":
                    line += f"  outcome={c.actual}"
                print(line)
            counts = r.as_dict()["counts"]
            print(
                f"suite {r.suite}: {counts['pass']} passed, {counts['fail']} failed, "
                f"{counts['reported']} reported"
            )
    return EXIT_FAIL if exit_status else EXIT_PASS


CHECK_SEQUENCES = ("robbins", "vertex20", "catalan", "A361654")


def _check_values(name, length):
    if name == "robbins":
        return [families.robbins(n) for n in range(length)]
    if name == "vertex20":
        return families.reference_B20()
    if name in ("catalan", "A361654"):
        M = _build_matrix(name, None, 12)
        return [M[n][k] for n in range(12) for k in range(n + 1)]
    raise UsageError(f"unknown check target {name!r}")


def cmd_oeis(args):
    _require_nonnegative(limit=args.limit)
    try:
        oeis.check_seq_id(args.sequence)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    bfile = oeis.oeis_fetch(args.sequence, cache_dir=args.cache_dir, offline=args.offline)
    if args.check is None:
        print(_render_sequence(bfile.values[: args.limit], args.format))
        return EXIT_PASS
    values = _check_values(args.check, 30)
    alignment = oeis.align(values, bfile)
    verdict = "match" if alignment.ok else "MISMATCH"
    print(
        f"{args.sequence} vs {args.check}: {verdict} "
        f"({alignment.matched}/{alignment.compared} terms, offset {alignment.offset})"
    )
    return EXIT_PASS if alignment.ok else EXIT_FAIL


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "csv", "json"), default="table")
    common.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    common.add_argument("--offline", action="store_true")
    common.add_argument("--cache-dir", default=None)

    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Exact Riordan arrays, symmetrizations, and principal minors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", parents=[common], help="print an N x N family matrix")
    p.add_argument("family")
    p.add_argument("N", type=int)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("symmetrize", parents=[common], help="print a symmetrized matrix")
    p.add_argument("family")
    p.add_argument("N", type=int)
    p.set_defaults(func=cmd_symmetrize)

    p = sub.add_parser("minors", parents=[common], help="print principal minors")
    p.add_argument("family")
    p.add_argument("count", type=int)
    p.add_argument("--symmetrize", action="store_true")
    p.set_defaults(func=cmd_minors)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=verify.SUITE_NAMES + ("all",))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oeis", parents=[common], help="fetch and compare OEIS b-files")
    p.add_argument("sequence")
    p.add_argument("--check", choices=CHECK_SEQUENCES, default=None)
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=cmd_oeis)
    return parser


def main(argv=None):
    parser = build_parser()
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
    sys.exit(main())


if __name__ == "__main__":
    entry()
