import pytest

from riordan import verify
from riordan.verify import SUITE_NAMES, Check, SuiteResult, run_suite, suite_robbins


def test_suite_names():
    assert SUITE_NAMES == (
        "robbins", "vertex20", "table6", "inverse6", "tilde",
        "closed-forms", "factorization", "gf-identities", "group-laws",
    )
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_robbins_suite_structure():
    result = suite_robbins()
    assert result.exit_status == 0
    minors = [c for c in result.checks if c.id.startswith("robbins/minor-")]
    assert len(minors) == 11
    assert all(c.status == "pass" for c in minors)
    oracle = [c for c in result.checks if c.id.startswith("robbins/asm-bruteforce-")]
    assert len(oracle) == 5


def test_exit_status_reflects_failures():
    good = SuiteResult("demo", [Check("demo/a", "pass", 1, 1)])
    assert good.exit_status == 0
    reported = SuiteResult("demo", [Check("demo/b", "reported", "", "differs")])
    assert reported.exit_status == 0  # conjecture outcomes never fail a run
    bad = SuiteResult("demo", [Check("demo/c", "fail", 1, 2)])
    assert bad.exit_status == 1
    assert bad.failed[0].id == "demo/c"


def test_as_dict_shape():
    result = SuiteResult(
        "demo",
        [Check("demo/a", "pass", 42, 42, note="n"), Check("demo/b", "fail", 1, 2)],
    )
    d = result.as_dict()
    assert d["suite"] == "demo"
    assert d["counts"] == {"pass": 1, "fail": 1, "reported": 0}
    assert d["exit_status"] == 1
    assert d["checks"][0] == {
        "id": "demo/a", "status": "pass", "expected": "42", "actual": "42", "note": "n",
    }


def test_run_suite_looks_up_each_suite_at_call_time(monkeypatch):
    # a suite rebound on the module after import (as the bench tracer does)
    # is the one run_suite calls; only group-laws receives the seed
    calls = []
    for name in SUITE_NAMES:
        attr = "suite_" + name.replace("-", "_")
        monkeypatch.setattr(verify, attr, lambda name=name, **kw: calls.append((name, kw)) or name)
    assert [run_suite(name, seed=5) for name in SUITE_NAMES] == list(SUITE_NAMES)
    assert calls == [(name, {"seed": 5} if name == "group-laws" else {}) for name in SUITE_NAMES]


@pytest.mark.parametrize("raised", [ValueError("bad case"), KeyboardInterrupt(), SystemExit(3)])
def test_group_law_that_raises(monkeypatch, raised):
    # an Exception fails its law at that case and the later laws still run;
    # KeyboardInterrupt and SystemExit stop the suite
    def law(rng):
        raise raised

    monkeypatch.setattr(verify, "GROUP_LAWS", (("raises", law), verify.GROUP_LAWS[0]))
    if not isinstance(raised, Exception):
        with pytest.raises(type(raised)):
            verify.suite_group_laws(cases=5)
        return
    failed, later = verify.suite_group_laws(cases=5).checks
    actual = "ValueError at case 1: bad case"
    assert failed == Check("group-laws/raises", "fail", "true", actual, "5 cases")
    assert later.id == "group-laws/div-mul-roundtrip" and later.status == "pass"


@pytest.mark.parametrize("raised", [ValueError("bad rows"), KeyboardInterrupt(), SystemExit(3)])
def test_check_that_raises_outside_the_laws(monkeypatch, raised):
    # the same policy holds for every row: an Exception fails the checks that
    # read the faulty name, here the shared Catalan pair of all six rows
    def catalan_pair(order):
        raise raised

    monkeypatch.setattr(verify, "catalan_pair", catalan_pair)
    if not isinstance(raised, Exception):
        with pytest.raises(type(raised)):
            run_suite("factorization")
        return
    checks = run_suite("factorization").checks
    assert checks == [
        Check(f"factorization/r{r}", "fail", "true", "ValueError: bad rows") for r in range(6)
    ]


def test_expected_value_computed_by_program_code_runs_under_the_guard(monkeypatch):
    # robbins(n) is the expected side of asm-bruteforce-n and the formula side
    # of minor-(n - 1): exactly the two checks that read robbins(3) fail
    original = verify.robbins
    monkeypatch.setattr(verify, "robbins", lambda n: original(n) // (n != 3))
    failed = [c for c in suite_robbins().checks if c.status == "fail"]
    zero = "ZeroDivisionError: integer division or modulo by zero"
    assert [(c.id, c.expected, c.actual) for c in failed] == [
        ("robbins/minor-2", "7", zero),
        ("robbins/asm-bruteforce-3", "", zero),
    ]


def test_shared_work_runs_once_per_suite_call(monkeypatch):
    calls = []
    original = verify.principal_minors

    def counting(m, n):
        calls.append(n)
        return original(m, n)

    monkeypatch.setattr(verify, "principal_minors", counting)
    assert verify.suite_table6().exit_status == 0
    assert calls == [6] * 6
    calls.clear()
    assert suite_robbins().exit_status == 0
    assert calls == [11]
    calls.clear()
    assert suite_robbins().exit_status == 0  # nothing is cached between calls
    assert calls == [11]


def test_failing_law_names_its_case(monkeypatch):
    # a law that returns false stops drawing at that case and names it; the
    # laws after it still run
    cases = []

    def law(rng):
        cases.append(rng.random())
        return len(cases) != 3

    monkeypatch.setattr(verify, "GROUP_LAWS", (("fails", law), verify.GROUP_LAWS[0]))
    failed, later = verify.suite_group_laws(cases=5).checks
    assert failed == Check("group-laws/fails", "fail", "true", "false at case 3", "5 cases")
    assert len(cases) == 3
    assert later.status == "pass"
