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
