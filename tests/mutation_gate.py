"""Mutation gate: each row of MUTATIONS breaks one spot of ``src/`` in a
temporary copy, and the row's pytest selector must then fail.

Run from anywhere with ``python tests/mutation_gate.py``.  The file is not a
``test_*.py`` module, so a plain ``pytest`` run does not collect it.

* Every row's old text must occur exactly once in its file, or the gate
  fails before running anything: a refactor that moves the text must update
  the row, not drop it silently.
* Every selector must pass on an unmutated copy, and ``riordan verify all``
  must exit 0 on it.
* For each row, the replacement is applied to a fresh copy and the selector
  run against it.  The row is killed when pytest exits nonzero.
* Each row also records whether ``riordan verify all`` on the mutated copy
  exits 1.  A row that survives the report is listed as a survivor; the gate
  fails only when the outcome differs from the recorded one, so the record
  stays true as checks are added.
* ``riordan verify all`` must never print a traceback, on the unmutated copy
  or on any mutated one: a check that raises fails in the report instead.

``pyproject.toml`` sets ``pythonpath = ["src"]``, which pytest puts ahead of
``PYTHONPATH``; the copy is selected with ``-o pythonpath=<copy>/src``.
Exits 0 when every row is killed and every report outcome is as recorded.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120

Mutation = namedtuple("Mutation", "name file old new selector verify_fails")

MUTATIONS = [
    Mutation(
        "gf_conjugate without its final transpose",
        "array.py",
        "    return gf_right_transform(once, g_form, f_form).transpose()\n",
        "    return gf_right_transform(once, g_form, f_form)\n",
        "tests/test_riordan.py::test_conjugate_gf_relation_randomized",
        False,
    ),
    Mutation(
        "bivariate_gf without its transpose",
        "array.py",
        "ONE - X * Y), g_form, f_form).transpose()\n",
        "ONE - X * Y), g_form, f_form)\n",
        "tests/test_riordan.py::test_bivariate_gf_is_the_transposed_right_transform",
        True,
    ),
    Mutation(
        "relation rows without their s term",
        "array.py",
        "above = [u + s * v for u, v in zip(above, [0, *above])]",
        "above = [u for u, v in zip(above, [0, *above])]",
        "tests/test_symmetry.py::test_closed_form_rows_on_the_plane",
        True,
    ),
    Mutation(
        "relation rows shifting the s term the wrong way",
        "array.py",
        "zip(above, [0, *above])",
        "zip(above, [*above, 0])",
        "tests/test_riordan.py::test_relation_rows_match_the_closed_form",
        True,
    ),
    Mutation(
        "relation-route fbar with -s + 1 for -s - 1",
        "array.py",
        "initial=-s - 1)",
        "initial=-s + 1)",
        "tests/test_riordan.py::test_relation_route_fbar_is_the_rational_expansion",
        True,
    ),
    Mutation(
        "forward substitution without scaling z by the diagonal",
        "array.py",
        "            z = [v * d for v in z]\n",
        "",
        "tests/test_riordan.py::test_relation_route_inverse_matches_reversion_randomized",
        False,
    ),
    Mutation(
        "expand with q^(i+j) for q^(i+j-1)",
        "bivar.py",
        "(i, j, c * pw[i + j - 1])",
        "(i, j, c * pw[i + j])",
        "tests/test_bivar.py::test_expand_matches_fraction_recurrence",
        True,
    ),
    Mutation(
        "CoeffMatrix._set without its sign rule",
        "bivar.py",
        "            if den < 0:\n                g = -g\n",
        "",
        "tests/test_canonical.py::test_integral_expansion_returns_canonical_form",
        False,
    ),
    Mutation(
        "sqrt with c = 2d for 4d",
        "series.py",
        "c = 4 * d",
        "c = 2 * d",
        "tests/test_series.py::test_sqrt_matches_recurrence_randomized",
        True,
    ),
    Mutation(
        "revert without the lcm factor",
        "series.py",
        "den = lcm(*range(1, n)) * dh ** (n - 1)",
        "den = dh ** (n - 1)",
        "tests/test_series.py::test_kernels_match_reference_randomized",
        True,
    ),
    Mutation(
        "sqrt one term short in its loop bound",
        "series.py",
        "for j in range(1, min(m, len(h) - 1) + 1):",
        "for j in range(1, min(m, len(h) - 1)):",
        "tests/test_series.py::test_sqrt_matches_recurrence_randomized",
        True,
    ),
    Mutation(
        "_div_lists one term short in its loop bound",
        "series.py",
        "for j in range(1, min(k, deg) + 1):",
        "for j in range(1, min(k, deg)):",
        "tests/test_series.py::test_div_partial_fraction_oracle",
        True,
    ),
    Mutation(
        "truncate without its negative-order check",
        "series.py",
        "        if n < 0:\n            raise ValueError(\"order must be nonnegative\")\n",
        "",
        "tests/test_series.py::test_truncate_refuses_a_negative_order",
        False,
    ),
    Mutation(
        "quadratic_pair without cutting g and f to its order",
        "families.py",
        "series._series(g[:order], 1), series._series(f[:order], 1)",
        "series._series(g, 1), series._series(f, 1)",
        "tests/test_families.py::test_pair_constructors_build_exactly_their_order",
        False,
    ),
    Mutation(
        "quadratic_pair recurrence with (2m + 1) for (2m - 1)",
        "families.py",
        "h.append(((2 * m - 1) * b * h[m - 1]",
        "h.append(((2 * m + 1) * b * h[m - 1]",
        "tests/test_families.py::test_make_R",
        True,
    ),
    Mutation(
        "quadratic_pair with the radicand's s + 1 for s + 2",
        "families.py",
        "b, c = s + 2, s * s",
        "b, c = s + 1, s * s",
        "tests/test_families.py::test_make_R",
        True,
    ),
    Mutation(
        "quadratic_pair's f with b for 2b",
        "families.py",
        "f = [0, 1] + [(2 * b * u - c * w - v) // 2",
        "f = [0, 1] + [(b * u - c * w - v) // 2",
        "tests/test_families.py::test_make_R",
        True,
    ),
    Mutation(
        "quadratic_pair's running sum without its factor a",
        "families.py",
        "accumulate(h, lambda t, v: a * t + v)",
        "accumulate(h, lambda t, v: t + v)",
        "tests/test_families.py::test_make_R",
        True,
    ),
    Mutation(
        "quadratic_inverse with (a - s) for (s - a)",
        "families.py",
        "g_num = [1, s - a - 2,",
        "g_num = [1, a - s - 2,",
        "tests/test_families.py::test_tilde_inverse_closed_form",
        True,
    ),
    Mutation(
        "make_A361654_embed halving v + 3 for v + 1",
        "families.py",
        "g = [(v + 1) // 2 for v in r1.g.nums]",
        "g = [(v + 3) // 2 for v in r1.g.nums]",
        "tests/test_families.py::test_make_A361654_embed",
        False,
    ),
    Mutation(
        "catalan_shift from Q(0, 1) for Q(0, 0)",
        "families.py",
        "quadratic_pair(0, 0, max(order, 2))",
        "quadratic_pair(0, 1, max(order, 2))",
        "tests/test_families.py::test_catalan_gf",
        True,
    ),
    Mutation(
        "closed_form_rows with powers of s + 2 for s + 1",
        "symmetry.py",
        "powers = [(s + 1) ** i for i in range(N)]",
        "powers = [(s + 2) ** i for i in range(N)]",
        "tests/test_symmetry.py::test_closed_form_rows_on_the_plane",
        True,
    ),
    Mutation(
        "symmetrize_gf without the - g(xy) diagonal",
        "symmetry.py",
        " - (g.nums[n] * d if n == k else 0)",
        "",
        "tests/test_symmetry.py::test_route_equivalence_randomized",
        True,
    ),
    Mutation(
        "symmetrize mirror duplicating the diagonal",
        "symmetry.py",
        "list(cols[n][n + 1 :])",
        "list(cols[n][n:])",
        "tests/test_symmetry.py::test_symmetrize_matches_the_entrywise_mirror",
        True,
    ),
    Mutation(
        "diagonal Horner without its shift down the diagonal",
        "symmetry.py",
        "zip([0, *up], dels)",
        "zip(up, dels)",
        "tests/test_symmetry.py::test_closed_form_sym_entry",
        True,
    ),
    Mutation(
        "diagonal Horner with a * a for a",
        "symmetry.py",
        "up = [a * u + d for u, d in zip([0, *up]",
        "up = [a * a * u + d for u, d in zip([0, *up]",
        "tests/test_symmetry.py::test_closed_form_sym_rows_on_the_plane",
        False,
    ),
    Mutation(
        "is_symmetric comparing the block with itself",
        "bivar.py",
        "all(map(eq, map(list, zip(*block)), block))",
        "all(map(eq, block, block))",
        "tests/test_bivar.py::test_is_symmetric_matches_the_pairwise_test_randomized",
        True,
    ),
    Mutation(
        "symmetric fold reading a[t][j] for every j",
        "minors.py",
        "row_k[j] += u * (a[j][t] if symmetric and j < t else row_t[j])",
        "row_k[j] += u * row_t[j]",
        "tests/test_minors.py::test_zero_pivot_fold_on_sparse_matrices_randomized",
        True,
    ),
    Mutation(
        "fold scanning row_k for col_k",
        "minors.py",
        "if col_k[j]), None)",
        "if row_k[j]), None)",
        "tests/test_minors.py::test_zero_pivot_fold_on_sparse_matrices_randomized",
        True,
    ),
    Mutation(
        "fold without the symmetric pivot correction",
        "minors.py",
        "            if symmetric:\n                row_k[k] += u * row_k[t]\n",
        "",
        "tests/test_minors.py::test_zero_pivot_fold",
        True,
    ),
    Mutation(
        "fold with u = 1 in both modes",
        "minors.py",
        "u = 1 if not symmetric or 2 * row_k[t] + row_t[t] else -1",
        "u = 1",
        "tests/test_minors.py::test_two_step_sweep_matches_the_one_step_sweep_randomized",
        False,
    ),
    Mutation(
        "general mode reading column k as row k",
        "minors.py",
        "col_k = row_k if symmetric else [row[k] for row in a]",
        "col_k = row_k",
        "tests/test_minors.py::test_two_step_sweep_matches_the_one_step_sweep_randomized",
        True,
    ),
    Mutation(
        "two-step sweep with the sign of f flipped",
        "minors.py",
        "(p * y - b * x) // prev",
        "(b * x - p * y) // prev",
        "tests/test_minors.py::test_two_step_sweep_matches_the_one_step_sweep_randomized",
        True,
    ),
    Mutation(
        "row update divided by the pivot for prev",
        "minors.py",
        "row_i[j] = (row_k[j] * e - row_l[j] * f + row_i[j] * pivot) // prev",
        "row_i[j] = (row_k[j] * e - row_l[j] * f + row_i[j] * pivot) // pivot",
        "tests/test_minors.py::test_two_step_sweep_matches_the_one_step_sweep_randomized",
        True,
    ),
    Mutation(
        "single step with e = x",
        "minors.py",
        "(-x, 0)",
        "(x, 0)",
        "tests/test_minors.py::test_minors_on_the_two_closed_form_lines",
        True,
    ),
    Mutation(
        "build_parser without its cache",
        "cli.py",
        "@functools.cache\ndef build_parser():\n",
        "def build_parser():\n",
        "tests/test_cli.py::test_parser_is_built_once_for_every_command",
        False,
    ),
]


def _env(src=None):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    if src is not None:
        env["PYTHONPATH"] = str(src)
    return env


def _run(cmd, cwd, env):
    """(failed, seconds, stderr): a run past TIMEOUT_S counts as failed."""
    start = time.perf_counter()
    try:
        run = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, timeout=TIMEOUT_S)
        code, err = run.returncode, run.stderr
    except subprocess.TimeoutExpired:
        code, err = -1, b""
    return code != 0, time.perf_counter() - start, err


def _pytest_fails(src, selector):
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    cmd += ["-o", f"pythonpath={src}", selector]
    return _run(cmd, REPO, _env())[:2]


def _verify_fails(src):
    """(exits nonzero, prints a traceback) for ``riordan verify all`` on `src`."""
    cmd = [sys.executable, "-m", "riordan.cli", "verify", "all"]
    failed, _, err = _run(cmd, src.parent, _env(src))
    return failed, b"Traceback" in err


def _copy(root, mutation=None):
    src = Path(tempfile.mkdtemp(dir=root)) / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutation is not None:
        path = src / "riordan" / mutation.file
        text = path.read_text()
        path.write_text(text.replace(mutation.old, mutation.new))
    return src


def main():
    problems = []
    for m in MUTATIONS:
        found = (REPO / "src" / "riordan" / m.file).read_text().count(m.old)
        if found != 1:
            problems.append(f"{m.name}: old text found {found} times in {m.file}, not once")
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory() as root:
        clean = _copy(root)
        for selector in dict.fromkeys(m.selector for m in MUTATIONS):
            failed, secs = _pytest_fails(clean, selector)
            print(f"baseline {'FAILS' if failed else 'passes'} {secs:5.1f} s  {selector}")
            if failed:
                problems.append(f"{selector} fails on the unmutated copy")
        if any(_verify_fails(clean)):
            problems.append("riordan verify all fails on the unmutated copy")
        if problems:
            print("\n".join(problems))
            return 1
        survivors = []
        for m in MUTATIONS:
            src = _copy(root, m)
            killed, secs = _pytest_fails(src, m.selector)
            verify_fails, traceback = _verify_fails(src)
            print(
                f"{'killed' if killed else 'SURVIVED'} {secs:5.1f} s  {m.name}; "
                f"verify all {'fails' if verify_fails else 'passes'}"
                f"{' with a traceback' if traceback else ''}"
            )
            if not killed:
                problems.append(f"{m.name}: {m.selector} still passes")
            if verify_fails != m.verify_fails:
                recorded = "fail" if m.verify_fails else "pass"
                problems.append(f"{m.name}: verify all was recorded to {recorded}")
            if traceback:
                problems.append(f"{m.name}: verify all printed a traceback")
            if not verify_fails:
                survivors.append(m.name)
    print("survivors of riordan verify all: " + ("; ".join(survivors) or "none"))
    if problems:
        print("\n".join(problems))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
