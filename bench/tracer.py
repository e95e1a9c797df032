"""Spans around the public functions of each ``riordan`` layer.

The program has no tracing hooks of its own, so :class:`Tracer` rebinds each
traced function in every ``riordan`` module that holds it by name (``symmetry``
imports ``matrix``, ``cli`` imports it as ``pair_matrix``) and patches the
``__mul__`` operators on their classes.  ``uninstall`` puts every original
back.  Spans are kept in memory as ``(name, start_ns, end_ns, parent)``;
a span's self time is its duration minus the time its child spans cover.
:class:`PhaseClock` rebinds the same functions, and the series kernel
``_mul_lists``, to read the clocks only.
"""

from __future__ import annotations

import sys
from array import array as typed_array
from itertools import islice
from operator import sub
from time import perf_counter_ns, process_time_ns

from riordan import array, bivar, cli, families, minors, series, symmetry, verify

# (span name, owner, attribute).  Several attributes may share one span name.
TARGETS = [
    ("series.sqrt", series, "sqrt"),
    ("series.div", series, "div"),
    ("series.compose", series, "compose"),
    ("series.revert", series, "revert"),
    ("series.mul", series.Series, "__mul__"),
    ("array.matrix", array, "matrix"),
    ("array.product", array, "product"),
    ("array.inverse", array, "inverse"),
    ("array.conjugate", array, "conjugate"),
    ("symmetry.symmetrize", symmetry, "symmetrize"),
    ("symmetry.symmetrize_gf", symmetry, "symmetrize_gf"),
    ("bivar.expand", bivar, "expand"),
    ("bivar.matmul", bivar.CoeffMatrix, "__mul__"),
    ("bivar.gf_identity_check", bivar, "gf_identity_check"),
    ("minors.principal_minors", minors, "principal_minors"),
    ("minors.det", minors, "det"),
    ("minors.det_cofactor", minors, "det_cofactor"),
    ("cli.main", cli, "main"),
]
TARGETS += [
    ("families.build", families, fn)
    for fn in (
        "catalan_gf",
        "catalan_shift",
        "catalan_pair",
        "pascal_pair",
        "make_R",
        "make_R_inverse_closed",
        "make_tilde_R",
        "tilde_inverse_closed",
        "make_example1",
        "classical_asm_gf",
        "classical_asm_matrix",
        "twenty_vertex_gf",
        "twenty_vertex_matrix",
        "make_A361654_embed",
    )
]
TARGETS += [
    (f"verify.{suite}", verify, "suite_" + suite.replace("-", "_")) for suite in verify.SUITE_NAMES
]

# Internal kernels that PhaseClock also marks; see its docstring.
KERNELS = [("series._mul_lists", series, "_mul_lists")]

# The column products inside array.matrix are the triangle build itself, so
# they count toward array.matrix rather than opening series.mul spans.
FOLDED = {"series.mul": "array.matrix"}

FUNCTION_LAYERS = sorted({name for name, _, _ in TARGETS if not name.startswith("verify.")})
SUITE_SPANS = [f"verify.{suite}" for suite in verify.SUITE_NAMES]
SIZE_PROBES = ("series.max_order", "minors.max_n", "minors.max_bits")


def _bits(v) -> int:
    return abs(getattr(v, "numerator", v)).bit_length()


class Hooks:
    """Rebinds every target to ``self._wrap(name, original)``; ``uninstall`` undoes it."""

    targets = TARGETS
    _undo = ()

    def install(self):
        self._undo = []
        modules = [m for k, m in sys.modules.items() if k == "riordan" or k.startswith("riordan.")]
        for name, owner, attr in self.targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            holders = modules if not isinstance(owner, type) else [owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)


class PhaseClock(Hooks):
    """Wall and CPU clock readings at every entry to and exit from a target.

    The stretches between consecutive readings are the phases of a call.  The
    workloads are deterministic, so every call of one run passes the same
    phases in the same order, and a phase's fastest time over the run's calls
    is its time on a quiet host.  A reading costs about a microsecond, which
    is part of the measured call.

    Besides the traced functions it reads the clocks around the series
    kernel ``_mul_lists``, which splits a long ``revert`` or ``compose`` into
    short phases; a short phase is more likely to meet a quiet moment of the
    host in one of the run's calls.  A kernel the program no longer has is
    skipped, and the phases around it are longer.
    """

    targets = TARGETS + [(name, owner, attr) for name, owner, attr in KERNELS if hasattr(owner, attr)]

    def __init__(self):
        self.walls = typed_array("q")
        self.cpus = typed_array("q")
        self.best = None  # fastest (wall, cpu) ns of each phase so far
        self.aligned = True  # every call passed the same number of phases

    def _wrap(self, name, fn):
        wall, cpu = self.walls.append, self.cpus.append

        def clocked(*args, **kwargs):
            wall(perf_counter_ns())
            cpu(process_time_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                wall(perf_counter_ns())
                cpu(process_time_ns())

        return clocked

    def fold(self, wall0, cpu0, wall1, cpu1):
        """Close one call read from (wall0, cpu0) to (wall1, cpu1) ns; keep each phase's minimum."""
        first = self.best is None
        if first:
            self.best = (typed_array("q"), typed_array("q"))
        elif len(self.walls) + 1 != len(self.best[0]):
            self.aligned = False
        for best, start, readings, end in ((self.best[0], wall0, self.walls, wall1), (self.best[1], cpu0, self.cpus, cpu1)):
            readings.insert(0, start)
            readings.append(end)
            durations = map(sub, islice(readings, 1, None), readings)
            if first:
                best.extend(durations)
            elif self.aligned:
                for i, ns in enumerate(durations):
                    if ns < best[i]:
                        best[i] = ns
            del readings[:]

    def totals(self):
        """Sums of the per-phase minima, (wall, cpu) in seconds, and the phase count."""
        return sum(self.best[0]) / 1e9, sum(self.best[1]) / 1e9, len(self.best[0])


class Tracer(Hooks):
    """Installs span wrappers; collects spans and size probes for one rep at a time."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.sizes = dict.fromkeys(SIZE_PROBES, 0)

    def _wrap(self, name, fn):
        spans, stack, sizes = self.spans, self.stack, self.sizes
        Series = series.Series

        def probe(args, result):
            if name.startswith("series."):
                order = max((a.order for a in args if isinstance(a, Series)), default=0)
                if order > sizes["series.max_order"]:
                    sizes["series.max_order"] = order
            elif name == "minors.principal_minors" or name == "minors.det":
                n = args[1] if name == "minors.principal_minors" else args[0].n
                values = result if isinstance(result, list) else [result]
                sizes["minors.max_n"] = max(sizes["minors.max_n"], n)
                sizes["minors.max_bits"] = max(sizes["minors.max_bits"], *map(_bits, values), 0)

        folds_into = FOLDED.get(name)

        def traced(*args, **kwargs):
            if folds_into and stack and stack[-1][1] == folds_into:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, name))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            probe(args, result)
            return result

        return traced


    def take(self):
        """Per-name (calls, self_ns, total_ns) of the spans so far; then clears them."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        agg = {}
        for (name, start, end, _), inner in zip(spans, child_ns):
            calls, self_ns, total_ns = agg.get(name, (0, 0, 0))
            agg[name] = (calls + 1, self_ns + end - start - inner, total_ns + end - start)
        kept = list(spans)
        spans.clear()
        return agg, kept
