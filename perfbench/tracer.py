"""Observers that wrap evopore's public functions from outside the package.

The package binds names with ``from .x import f``, so replacing ``f`` where
it is defined changes nothing for its callers.  :func:`patch` therefore
replaces the function object in every loaded ``evopore`` module that holds
it.  A name that a refactor removed or renamed is skipped: its span reports
zero calls instead of failing the run.

Two observers share that mechanism:

* :class:`StepClock` is always on.  It times the ``step`` methods of the two
  solvers and the snapshot output (the only calls timed with tracing off),
  runs the calibration kernel after each step when it is given one, keeps
  each stepper's last state for the correctness gate, and reads every CG
  ``SolveReport``.
* :class:`Tracer` is on only in a traced run.  It records one span per call
  into each module's public functions, with a parent link, so self time is a
  span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref

import numpy as np


def _evopore_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "evopore" or name.startswith("evopore."))]


def patch(module_name: str, qualname: str, make_wrapper) -> list:
    """Replace ``module_name.qualname`` by ``make_wrapper(original)``.

    ``qualname`` is a function name or ``Class.method``.  Returns the undo
    records; an unknown module, class or name gives an empty list.
    """
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        original = vars(owner).get(attr) if isinstance(owner, type) else None
        if not callable(original):
            return []
        setattr(owner, attr, make_wrapper(original))
        return [(owner, attr, original)]
    original = getattr(module, attr, None)
    if not callable(original):
        return []
    wrapper = make_wrapper(original)
    undo = []
    for mod in _evopore_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                undo.append((mod, key, original))
    return undo


def unpatch(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


# ---------------------------------------------------------------------------
# Step clock: the end-to-end timings, tracing off
# ---------------------------------------------------------------------------

class Stepper:
    """One solver instance as seen through its ``step`` calls."""

    def __init__(self, kind: str, solver, nodes: int, epsilon: float | None):
        self.kind = kind                 # "micro" or "macro"
        self.ref = weakref.ref(solver)
        self.nodes = nodes
        self.epsilon = epsilon
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.kernel: list[float] = []    # calibration kernel time after each step
        self.last_state = None
        self.max_defect = 0.0
        self.radii_in_box = True


class StepClock:
    """Times every solver step and every output call, and reads every CG
    report of one command."""

    STEPS = (("micro", "evopore.micro", "MicroSimulator.step"),
             ("macro", "evopore.macro", "MacroSolver.step"))
    # Building a snapshot and writing a file; the CLI's private ``_write``
    # is wrapped too, and skipped like any other name once it is gone.
    OUTPUT = (("evopore.macro", "snapshot_csv"), ("evopore.macro", "ledger_csv"),
              ("evopore.micro", "micro_snapshot_csv"), ("evopore.micro", "cell_series_csv"),
              ("evopore.cli", "_write"))

    def __init__(self, kernel=None):
        self.kernel = kernel             # calibration.Kernel or None
        self.steppers: list[Stepper] = []
        self.cg_solves = 0
        self.cg_iterations = 0
        self.cg_unconverged = 0
        # Outermost output calls and calibration kernel runs: not set-up work.
        self.pauses: list[tuple[float, float]] = []
        self._output_depth = 0
        self._undo: list = []

    def install(self) -> "StepClock":
        for kind, module, qualname in self.STEPS:
            self._undo += patch(module, qualname, functools.partial(self._wrap_step, kind))
        self._undo += patch("evopore.sparse", "solve_cg", self._wrap_cg)
        for module, name in self.OUTPUT:
            self._undo += patch(module, name, self._wrap_output)
        return self

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def _stepper_for(self, kind: str, solver) -> Stepper:
        if self.steppers and self.steppers[-1].ref() is solver:
            return self.steppers[-1]
        mesh = getattr(solver, "mesh", None)
        grid = getattr(solver, "grid", None)
        nodes = int(getattr(mesh if mesh is not None else grid, "n_nodes", 0))
        stepper = Stepper(kind, solver, nodes, getattr(mesh, "epsilon", None))
        self.steppers.append(stepper)
        return stepper

    def _wrap_step(self, kind: str, original):
        @functools.wraps(original)
        def step(solver, *args, **kwargs):
            t0 = time.perf_counter()
            state = original(solver, *args, **kwargs)
            t1 = time.perf_counter()
            stepper = self._stepper_for(kind, solver)
            stepper.starts.append(t0)
            stepper.durations.append(t1 - t0)
            if self.kernel is not None:
                stepper.kernel.append(self.kernel())
                self.pauses.append((t1, time.perf_counter()))
            stepper.last_state = state
            stepper.max_defect = max(stepper.max_defect, float(state.defect))
            radii = state.radii if kind == "micro" else state.r
            spec = solver.spec
            if np.any(radii < spec.r_min) or np.any(radii > spec.r_max):
                stepper.radii_in_box = False
            return state
        return step

    def _wrap_cg(self, original):
        @functools.wraps(original)
        def solve_cg(*args, **kwargs):
            x, report = original(*args, **kwargs)
            self.cg_solves += 1
            self.cg_iterations += int(report.iterations)
            self.cg_unconverged += not report.converged
            return x, report
        return solve_cg

    def _wrap_output(self, original):
        @functools.wraps(original)
        def output(*args, **kwargs):
            self._output_depth += 1
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._output_depth -= 1
                if self._output_depth == 0:
                    self.pauses.append((t0, time.perf_counter()))
        return output

    def setup_gaps(self, command_start: float) -> list[float]:
        """Per stepper, the time before its first step, counted from the
        command start for the first stepper and from the previous stepper's
        last step for the others (mesh builds and ``init`` of later
        steppers), less the pauses in that gap: the output written (the
        step-0 snapshots) and the calibration kernel after the last step."""
        gaps = []
        boundary = command_start
        for s in self.steppers:
            gaps.append(s.starts[0] - boundary - sum(
                t1 - t0 for t0, t1 in self.pauses if boundary <= t0 and t1 <= s.starts[0]))
            boundary = s.starts[-1] + s.durations[-1]
        return gaps

    def kernel_seconds(self) -> float:
        return sum(sum(s.kernel) for s in self.steppers)


# ---------------------------------------------------------------------------
# Tracer: per-layer spans and counts, traced runs only
# ---------------------------------------------------------------------------

def _points(counts, name, args, kwargs, result):
    y = kwargs.get("y", args[2] if len(args) > 2 else None)
    counts[name + ".points"] += int(np.shape(y)[0]) if y is not None else 0


def _finalize(counts, name, args, kwargs, result):
    buf = args[0] if args else kwargs.get("buffer")
    # The buffer's private value list is read because its public arrays()
    # would concatenate every block a second time inside the traced step.
    counts["sparse.triplets"] += sum(np.size(v) for v in getattr(buf, "_vals", ()))
    csr = getattr(result, "_csr", result)
    counts["sparse.nnz"] += int(getattr(csr, "nnz", 0))


def _cg(counts, name, args, kwargs, result):
    report = result[1]
    counts["sparse.cg.iterations"] += int(report.iterations)
    counts["sparse.cg.unconverged"] += not report.converged


def _clamped(counts, name, args, kwargs, result):
    counts["unitcell.lookup.clamped"] += bool(result[3])


def _csv_bytes(counts, name, args, kwargs, result):
    counts[name + ".bytes"] += len(result)


# (span name, module, public function or Class.method, count hook)
SPANS = (
    ("transform.pullback", "evopore.transform", "pullback_coefficients", _points),
    ("transform.psi_batch", "evopore.transform", "eval_psi_batch", _points),
    ("kinetics.eval_f", "evopore.kinetics", "eval_f", None),
    ("kinetics.step_radius", "evopore.kinetics", "step_radius", None),
    ("fem.assemble_stiffness", "evopore.fem", "assemble_stiffness", None),
    ("fem.triangle_geometry", "evopore.fem", "triangle_geometry", None),
    ("sparse.finalize", "evopore.sparse", "finalize", _finalize),
    ("sparse.cg", "evopore.sparse", "solve_cg", _cg),
    ("unitcell.reference_mesh", "evopore.unitcell", "build_reference_mesh", None),
    ("unitcell.tabulate", "evopore.unitcell", "tabulate", None),
    ("unitcell.cell_problem", "evopore.unitcell", "solve_cell_problem", None),
    ("unitcell.lookup", "evopore.unitcell", "EffectiveTensorTable.lookup_many", _clamped),
    ("macro.step", "evopore.macro", "MacroSolver.step", None),
    ("macro.csv", "evopore.macro", "snapshot_csv", _csv_bytes),
    ("macro.csv", "evopore.macro", "ledger_csv", _csv_bytes),
    ("micro.mesh_build", "evopore.micro", "build_micro_mesh", None),
    ("micro.step", "evopore.micro", "MicroSimulator.step", None),
    ("micro.unfold", "evopore.micro", "unfold_compare", None),
    ("micro.csv", "evopore.micro", "micro_snapshot_csv", _csv_bytes),
    ("micro.csv", "evopore.micro", "cell_series_csv", _csv_bytes),
    ("config.parse", "evopore.config", "parse_config", None),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in SPANS)) + ("cli.command",)
STEP_SPANS = ("micro.step", "macro.step")
COUNTS = ("transform.pullback.points", "transform.psi_batch.points", "sparse.triplets",
          "sparse.nnz", "sparse.cg.iterations", "sparse.cg.unconverged",
          "unitcell.lookup.clamped", "macro.csv.bytes", "micro.csv.bytes")


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` plus counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> "Tracer":
        for name, module, qualname, hook in SPANS:
            self._undo += patch(module, qualname, functools.partial(self._wrap, name, hook))
        return self

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span opened by the benchmark itself."""
        return self._wrap(name, None, fn)(*args, **kwargs)

    def _wrap(self, name: str, hook, original):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, name, args, kwargs, result)
            return result
        return traced

    def summary(self) -> dict:
        """Per span name: inclusive seconds, self seconds, calls and calls
        made inside a solver step."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {n: {"s": 0.0, "self_s": 0.0, "calls": 0, "step_calls": 0} for n in SPAN_NAMES}
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            agg = out[name]
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child_time[i]
            agg["calls"] += 1
            while parent >= 0:
                if self.spans[parent][0] in STEP_SPANS:
                    agg["step_calls"] += 1
                    break
                parent = self.spans[parent][3]
        return out
