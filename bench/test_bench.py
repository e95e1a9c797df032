"""Tests of the benchmark itself: its gates, its tracer and its contract file.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from riordan import array, cli, series, symmetry, verify  # noqa: E402
from riordan.families import robbins  # noqa: E402
from tracer import PhaseClock, Tracer  # noqa: E402

SEED = 7


def gate(name, result):
    w = workloads.WORKLOADS[name]
    return [check for check, ok in w.gate(result, w.oracle(SEED)) if not ok]


@pytest.fixture(scope="module")
def outputs():
    return {name: w.call(w.prepare(SEED)) for name, w in workloads.WORKLOADS.items()}


def test_gates_pass_real_outputs(outputs):
    for name, result in outputs.items():
        assert gate(name, result) == [], name


def test_robbins_gate_rejects_minor_off_by_one(outputs):
    good = outputs["sym-robbins"]
    values = good.out.split()
    values[17] = str(int(values[17]) + 1)
    assert gate("sym-robbins", workloads.CliResult(0, " ".join(values) + "\n")) == ["minor-17"]


def test_verify_gate_rejects_flipped_check(outputs):
    good = outputs["verify-all"]
    checks = list(good[8].checks)
    c = checks[1]
    checks[1] = verify.Check(c.id, "fail", c.expected, c.actual, c.note)
    flipped = good[:8] + [verify.SuiteResult(good[8].suite, checks)]
    assert gate("verify-all", flipped) == ["digest", c.id]
    assert gate("verify-all", good[:8]) == ["suites", "check-count", "digest"]


def test_inverse_gate_rejects_changed_coefficient(outputs):
    good = outputs["inverse-family"]
    pair = good[("tildeR", 1)]
    coeffs = list(pair.g.coeffs)
    coeffs[23] += 1
    bad = dict(good)
    bad[("tildeR", 1)] = array.RiordanPair(series.Series(coeffs), pair.f)
    assert gate("inverse-family", bad) == ["tildeR1-g"]


def test_tracer_self_times_partition_the_root_spans():
    tracer = Tracer()
    tracer.install()
    try:
        workloads.run_cli(["minors", "R:1", "--symmetrize", "8"])
    finally:
        tracer.uninstall()
    agg, spans = tracer.take()
    roots = [end - start for name, start, end, parent in spans if parent < 0]
    assert [s[0] for s in spans if s[3] < 0] == ["cli.main"]
    assert sum(self_ns for _, self_ns, _ in agg.values()) == sum(roots)
    assert agg["array.matrix"][0] == 1 and agg["minors.principal_minors"][0] == 1
    # order 2N + 4 = 20, and catalan_gf takes one more term; the largest minor is robbins(8)
    assert tracer.sizes == {"series.max_order": 21, "minors.max_n": 8, "minors.max_bits": robbins(8).bit_length()}


def test_tracer_uninstall_restores_every_binding():
    before = (symmetry.matrix, cli.pair_matrix, cli.main, series.Series.__mul__, series.Series.__rmul__)
    tracer = Tracer()
    tracer.install()
    assert symmetry.matrix is not before[0] and series.Series.__rmul__ is series.Series.__mul__
    tracer.uninstall()
    after = (symmetry.matrix, cli.pair_matrix, cli.main, series.Series.__mul__, series.Series.__rmul__)
    assert after == before


def test_phase_clock_minima_bound_every_call():
    clock = PhaseClock()
    walls = []
    for _ in range(3):
        clock.install()
        try:
            wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
            workloads.run_cli(["minors", "R:1", "--symmetrize", "8"])
            wall1, cpu1 = time.perf_counter_ns(), time.process_time_ns()
        finally:
            clock.uninstall()
        clock.fold(wall0, cpu0, wall1, cpu1)
        walls.append(wall1 - wall0)
    wall_s, cpu_s, phases = clock.totals()
    assert clock.aligned and phases > 20
    assert 0 < wall_s <= min(walls) / 1e9 and 0 < cpu_s
    assert symmetry.matrix.__name__ == "matrix" and series._mul_lists.__name__ == "_mul_lists"


def test_contract_file_matches_run_py():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-all", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
