"""The three benchmark workloads: inputs from a seed, the timed call, the gate.

Each workload goes through the entry a user calls: ``riordan.cli.main`` with
stdout captured, or the public library functions.  The gate compares the
call's output with an oracle that does not share the code path under test;
it runs outside the timed region and returns a list of ``(check_id, ok)``.

The seed is passed on to the CLI as ``--seed`` and fixes the order of the
verify-all suites and of the inverse-family items; every workload does the
same work at every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import namedtuple
from pathlib import Path

from riordan import array, cli, families, verify

DIGESTS = json.loads(Path(__file__).with_name("digests.json").read_text())

# Sizes.  Each keeps the layer named in the workload's "why" dominant
# (see README.md) while one call stays short enough for many calls a run.
SYM_ROBBINS_N = 30
INVERSE_ORDER = 32
INVERSE_RS = (0, 1)
VERIFY_CHECKS = 86
# Random cases per group law; the CLI runs 100.
GROUP_LAW_CASES = 15


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Exit code and captured stdout of one riordan.cli.main call.
CliResult = namedtuple("CliResult", "code out")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue())


def _int_list(text):
    try:
        return [int(tok) for tok in text.split()]
    except ValueError:
        return None


class SymRobbins:
    """``riordan minors R:1 --symmetrize N``; every minor n is robbins(n+1)."""

    name = "sym-robbins"

    def prepare(self, seed):
        return ["minors", "R:1", "--symmetrize", str(SYM_ROBBINS_N), "--seed", str(seed)]

    def call(self, argv):
        return run_cli(argv)

    def oracle(self, seed):
        return [families.robbins(n + 1) for n in range(SYM_ROBBINS_N)]

    def gate(self, result, expected):
        got = _int_list(result.out)
        checks = [("exit-code", result.code == 0), ("count", got is not None and len(got) == len(expected))]
        got = got or []
        for n, want in enumerate(expected):
            checks.append((f"minor-{n}", n < len(got) and got[n] == want))
        return checks


class VerifyAll:
    """Every suite of ``riordan verify all``, group-laws at fewer cases.

    The suites run through ``verify.run_suite`` and, for group-laws,
    ``verify.suite_group_laws(seed=DEFAULT_SEED, cases=GROUP_LAW_CASES)``,
    in an order drawn from the workload seed.  The group-law cases come from
    the suite's default seed rather than the workload seed: their sizes are
    random (cofactor determinants up to 6 x 6), so at 15 cases a law the
    work would move between seeds by several percent, as much as the host's
    run-to-run noise.  Every check passes, and the report, in suite
    order and rendered as the CLI's ``--json`` renders each suite, matches a
    recorded digest.
    """

    name = "verify-all"

    def prepare(self, seed):
        order = list(verify.SUITE_NAMES)
        random.Random(seed).shuffle(order)
        return order

    def call(self, order):
        results = {
            name: verify.suite_group_laws(seed=verify.DEFAULT_SEED, cases=GROUP_LAW_CASES)
            if name == "group-laws"
            else verify.run_suite(name)
            for name in order
        }
        return [results[name] for name in verify.SUITE_NAMES]

    def oracle(self, seed):
        return DIGESTS["verify-all"]

    def gate(self, results, digest):
        suites = [r.as_dict() for r in results]
        checks = [c for s in suites for c in s["checks"]]
        out = [
            ("suites", [s["suite"] for s in suites] == list(verify.SUITE_NAMES)),
            ("check-count", len(checks) == VERIFY_CHECKS),
            ("digest", sha256(report_text(results)) == digest),
        ]
        out.extend((c["id"], c["status"] != "fail") for c in checks)
        return out


def report_text(results):
    """The suites of a verify report as JSON text, for the recorded digest."""
    return json.dumps([r.as_dict() for r in results], indent=2)


class InverseFamily:
    """``array.inverse`` of the R and tilde-R pairs against their closed forms."""

    name = "inverse-family"

    def prepare(self, seed):
        items = [(kind, r) for kind in ("R", "tildeR") for r in INVERSE_RS]
        random.Random(seed).shuffle(items)
        return items

    def call(self, items):
        out = {}
        for kind, r in items:
            build = families.make_R if kind == "R" else families.make_tilde_R
            out[(kind, r)] = array.inverse(build(r, INVERSE_ORDER))
        return out

    def oracle(self, seed):
        return {
            (kind, r): (families.make_R_inverse_closed if kind == "R" else families.tilde_inverse_closed)(
                r, INVERSE_ORDER
            )
            for kind in ("R", "tildeR")
            for r in INVERSE_RS
        }

    def gate(self, result, expected):
        checks = []
        for (kind, r), want in expected.items():
            got = result.get((kind, r))
            checks.append((f"{kind}{r}-g", got is not None and got.g == want.g))
            checks.append((f"{kind}{r}-f", got is not None and got.f == want.f))
        return checks


WORKLOADS = {w.name: w for w in (SymRobbins(), VerifyAll(), InverseFamily())}
