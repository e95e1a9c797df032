"""Benchmark runner: one workload, one seed, one run.

    python3 bench/run.py --workload sym-robbins --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  A run calls the workload repeatedly for about ``--seconds``,
checks every call's output against the workload's oracle outside the timed
region, and prints a readable summary followed, as the last line, by one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
``wall_s`` and ``cpu_s`` of one call on a quiet host, each the sum over the
call's phases of the phase's fastest time in the run (see ``PhaseClock`` in
``tracer.py``; whole-call minimum and median are printed beside them),
``setup_s`` as the median of fresh-interpreter probes made between the
calls, and the process's ``peak_rss_mb``.  ``--trace 1`` alternates untraced
and traced calls and reports the per-layer metrics, medians over the traced
calls (see ``tracer.py``).  Each run also writes its samples, environment
record and, for a traced run, the last call's spans under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 9
MIN_CALLS = 3
PROBE_TIMEOUT_S = 60

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    from tracer import FUNCTION_LAYERS, SUITE_SPANS

    units = {}
    for name in FUNCTION_LAYERS:
        if name != "cli.main":
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({f"{name}.s": "s" for name in SUITE_SPANS})
    units.update(
        {
            "series.max_order": "terms",
            "minors.max_n": "rows",
            "minors.max_bits": "bits",
            "cli.out_bytes": "bytes",
            "trace.overhead_s": "s",
        }
    )
    return units


def load_program():
    """Import ``riordan`` from this checkout's ``src/``; exit 2 if it is absent."""
    if not (SRC / "riordan" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'riordan'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import riordan

    if Path(riordan.__file__).resolve().parent != SRC / "riordan":
        print(f"error: riordan imported from {riordan.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment():
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
        "commit": git_commit(),
    }


def setup_probe(workload, seed):
    """Seconds from spawning a fresh interpreter until the workload's inputs exist."""
    start = time.monotonic_ns()
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return (int(done.stdout.split()[-1]) - start) / 1e9


class Run:
    """Timed calls of one workload plus the correctness tally of their outputs."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.inputs = workload.prepare(seed)
        self.expected = workload.oracle(seed)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.walls = []
        self.cpus = []
        self.setups = []
        self.traced_walls = []
        self.aggregates = []
        self.spans = []
        self.out_bytes = 0

    def call(self, tracer=None, clock=None):
        """One timed call, then its gate; False if the call raised.

        With a `tracer` the call is traced; with a PhaseClock `clock` it is
        also timed phase by phase.
        """
        gc.collect()
        hooks = tracer or clock
        if hooks:
            hooks.install()
        wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
        try:
            result = self.workload.call(self.inputs)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            self.failures.append("call-raised")
            return False
        finally:
            wall1, cpu1 = time.perf_counter_ns(), time.process_time_ns()
            wall, cpu = (wall1 - wall0) / 1e9, (cpu1 - cpu0) / 1e9
            if hooks:
                hooks.uninstall()
        if clock:
            clock.fold(wall0, cpu0, wall1, cpu1)
        for check_id, ok in self.workload.gate(result, self.expected):
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(check_id)
        if tracer:
            self.traced_walls.append(wall)
            agg, self.spans = tracer.take()
            self.aggregates.append(agg)
            self.out_bytes = len(getattr(result, "out", "").encode())
        else:
            self.walls.append(wall)
            self.cpus.append(cpu)
        return True


def measure(run, seconds, tracer=None, clock=None):
    """Call the workload for about `seconds`, at least MIN_CALLS times.

    Untraced, SETUP_PROBES set-up probes are spread over the run, so they
    sample the same stretch of time as the calls without taking much of it,
    and each call is timed by `clock` when one is given.  With a tracer,
    calls alternate untraced and traced, and the order within each pair
    alternates too, so neither kind always follows the other.
    """
    begin = time.perf_counter()
    deadline = begin + seconds
    while True:
        started = time.perf_counter()
        if tracer is None:
            if len(run.setups) < SETUP_PROBES * (started - begin) / seconds:
                run.setups.append(setup_probe(run.workload.name, run.seed))
            if not run.call(clock=clock):
                return
        else:
            modes = (None, tracer) if len(run.walls) % 2 == 0 else (tracer, None)
            if not all(run.call(mode) for mode in modes):
                return
        now = time.perf_counter()
        if len(run.walls) >= MIN_CALLS and now + (now - started) > deadline:
            break
    while tracer is None and len(run.setups) < SETUP_PROBES:
        run.setups.append(setup_probe(run.workload.name, run.seed))


def phase_totals(run, clock):
    """(wall_s, cpu_s, phase count) of a call on a quiet host.

    Each is the sum over the call's phases of the phase's fastest time in
    the run.  If the calls did not all pass the same phases, the fastest
    whole call stands in, with a phase count of 0.
    """
    if clock.best is None or not clock.aligned:
        return min(run.walls, default=0.0), min(run.cpus, default=0.0), 0
    return clock.totals()


def layer_metrics(run, tracer):
    from tracer import SUITE_SPANS

    def med(key, index):
        return statistics.median(agg.get(key, (0, 0, 0))[index] for agg in run.aggregates)

    values = {}
    for name in per_layer_units():
        if name.endswith(".calls"):
            values[name] = med(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = med(name[: -len(".self_s")], 1) / 1e9
        elif name[: -len(".s")] in SUITE_SPANS:
            values[name] = med(name[: -len(".s")], 2) / 1e9
    values.update(tracer.sizes)
    values["cli.out_bytes"] = run.out_bytes
    values["trace.overhead_s"] = min(run.traced_walls) - min(run.walls)
    return values


def write_spans(path, spans):
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    path.write_text(json.dumps({"names": names, "spans": [[index[n], a, b, p] for n, a, b, p in spans]}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment()
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "env": env}

    run = Run(workload, args.seed)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    from tracer import PhaseClock, Tracer

    if args.trace:
        tracer = Tracer()
        measure(run, args.seconds, tracer)
        metrics = layer_metrics(run, tracer) if run.aggregates and run.walls else {}
        units = per_layer_units()
        write_spans(OUT_DIR / f"{stem}-spans.json", run.spans)
        record["traced_walls"] = run.traced_walls
    else:
        clock = PhaseClock()
        measure(run, args.seconds, clock=clock)
        wall_s, cpu_s, phases = phase_totals(run, clock)
        record["phases"] = phases
        metrics = {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "setup_s": statistics.median(run.setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    record.update(walls=run.walls, cpus=run.cpus, setups=run.setups, failures=run.failures[:50], metrics=metrics)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {workload.name}  seed {args.seed}  env {json.dumps(env)}")
    if run.walls:
        print(
            f"  untraced calls {len(run.walls)}: wall min {min(run.walls):.4f} s, "
            f"median {statistics.median(run.walls):.4f} s, max {max(run.walls):.4f} s"
        )
    if not args.trace:
        print(f"  phases per call {phases}" if phases else "  phases differ between calls: whole-call minima reported")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6f} {units[name]}")
    print(f"  {'fail_ratio':34s} {run.failed / run.attempted:>16.6f} ({run.failed} failed / {run.attempted} checks)")
    if run.failures:
        print(f"  failed checks: {', '.join(run.failures[:10])}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
