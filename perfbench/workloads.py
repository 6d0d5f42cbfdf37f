"""The three closed-loop workloads, one caller each, driven through
``evopore.cli.main`` exactly as a user runs the commands.

convergence  the canonical two-scale study (``DEFAULT_CONFIG`` unchanged,
             1/eps in {2, 4, 8}, t_end 0.5): the paper's headline result, and
             micro steps at three working-set sizes.  The seed changes
             nothing; shorter t_end makes the u errors non-monotone.
macro-fine   ``macro-run`` at macro_n 128 with a seeded decaying-cosine
             source and cosine initial fields: the homogenized path, bound
             by CG, which never touches ``transform`` or ``micro`` in a step.
micro-io     ``micro-run`` at 1/eps 4 (10.9k nodes) with pinned radii and a
             snapshot every step: assembly, CG and CSV output, with no
             transform and no kinetics in a step.  On a shared 2-core VM,
             before times were scaled by the calibration kernel, the median
             step time spread 12-30% between seeds at 1/eps 16 (172k nodes),
             10-25% at 1/eps 8 and 3-6% at 1/eps 4; the larger sizes were
             not tried again with scaled times.

A unit is one command invocation.  A run repeats units until ``--seconds``
have passed and at least ``min_units`` have finished; a convergence study
outlasts any ``--seconds`` the benchmark uses, so it runs once.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from tracer import StepClock, Tracer

# A config file cannot select a non-constant initial field: the parser always
# merges the default ``u_param.value``/``r_param.value`` into the parameters,
# which ``cosine_product`` rejects.  This field forwards to ``cosine_product``
# and drops that inherited key.
FIELD = "perfbench_cosine_product"


def register_field() -> None:
    from evopore.registry import build_field, register_field as register

    register(FIELD, lambda value=None, **params: build_field("cosine_product", params))


def _uniform(rng, lo: float, hi: float) -> str:
    return repr(float(rng.uniform(lo, hi)))


def macro_fine_config(seed: int) -> str:
    rng = np.random.default_rng([seed, 1])
    # r = offset + amplitude cos cos stays inside [0.195, 0.305] of [0.15, 0.35].
    # Narrow ranges keep the CG work per step within a few percent across seeds.
    return f"""\
[source]
name = decaying_cosine
param.amplitude = {_uniform(rng, 0.9, 1.1)}
param.rate = {_uniform(rng, 0.9, 1.1)}

[initial]
u_field = {FIELD}
u_param.offset = {_uniform(rng, 0.68, 0.72)}
u_param.amplitude = {_uniform(rng, 0.09, 0.11)}
r_field = {FIELD}
r_param.offset = {_uniform(rng, 0.24, 0.26)}
r_param.amplitude = {_uniform(rng, 0.035, 0.045)}

[discretization]
macro_n = 128
t_end = 0.15

[output]
snapshot_every = 10
"""


def micro_io_config(seed: int) -> str:
    rng = np.random.default_rng([seed, 2])
    return f"""\
[initial]
u_field = {FIELD}
u_param.offset = {_uniform(rng, 0.48, 0.52)}
u_param.amplitude = {_uniform(rng, 0.18, 0.22)}

[discretization]
epsilon_inverses = 4
t_end = 0.1

[micro]
pinned_radii = true

[output]
snapshot_every = 1
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: Callable[[int], str | None]   # seed -> config text; None: DEFAULT_CONFIG
    min_units: int
    seeded: bool = True     # whether the seed changes the inputs


WORKLOADS = {
    w.name: w for w in (
        Workload("convergence", "convergence", lambda seed: None, 1, seeded=False),
        Workload("macro-fine", "macro-run", macro_fine_config, 3),
        Workload("micro-io", "micro-run", micro_io_config, 3),
    )
}


@dataclass
class Unit:
    """One command invocation and what the benchmark observed of it."""

    wall: float
    setup: list[float]      # per stepper, the set-up time before its first step
    exit_code: int
    clock: StepClock
    files: int
    bytes: int
    final: dict
    stderr: str
    checks: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    @property
    def steps(self) -> int:
        return sum(len(s.durations) for s in self.clock.steppers)


def _label(stepper) -> str:
    if stepper.kind == "micro":
        return f"micro.eps{round(1.0 / stepper.epsilon)}"
    return "macro"


def _read_convergence(outdir: Path) -> dict:
    rows = (outdir / "convergence.csv").read_text().strip().splitlines()[1:]
    out = {}
    for row in rows:
        eps, u_err, r_err = (float(v) for v in row.split(","))
        out[f"eps{round(1.0 / eps)}.u_l2_error"] = u_err
        out[f"eps{round(1.0 / eps)}.r_l2_error"] = r_err
    return out


def run_unit(command: str, config_text: str | None, workdir: Path,
             trace: bool = False, kernel=None) -> Unit:
    """Run one CLI command with the step clock (and optionally the tracer,
    or the calibration ``kernel`` after every step).  The unit's wall time
    leaves out the kernel's runs."""
    from evopore import cli

    outdir = workdir / "out"
    argv = [command, "--out", str(outdir), "--quiet"]
    if config_text is not None:
        cfg = workdir / "config.ini"
        cfg.write_text(config_text)
        argv += ["--config", str(cfg)]
    clock = StepClock(kernel).install()
    tracer = Tracer().install() if trace else None
    stderr = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = tracer.span("cli.command", cli.main, argv) if tracer else cli.main(argv)
    except Exception as exc:  # any escape from the CLI fails the unit, not the run
        stderr.write(f"{type(exc).__name__}: {exc}\n")
        code = -1
    finally:
        t1 = time.perf_counter()
        if tracer:
            tracer.uninstall()
        clock.uninstall()
    final = {}
    if code == 0:
        for s in clock.steppers:
            final[f"{_label(s)}.fluid_mass"] = float(s.last_state.fluid_mass)
            final[f"{_label(s)}.solid_mass"] = float(s.last_state.solid_mass)
        if command == "convergence":
            final.update(_read_convergence(outdir))
    files = nbytes = 0
    if outdir.is_dir():
        for entry in os.scandir(outdir):
            files += 1
            nbytes += entry.stat().st_size
        shutil.rmtree(outdir)
    setup = clock.setup_gaps(t0)
    return Unit(t1 - t0 - clock.kernel_seconds(), setup, code, clock, files, nbytes, final, stderr.getvalue(),
                tracer=tracer)


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def _close(key: str, value: float, ref: float, tol: dict) -> bool:
    t = tol["error" if key.endswith("_error") else "mass"]
    return abs(value - ref) <= t["atol"] + t["rtol"] * abs(ref)


def check_unit(unit: Unit, command: str, reference: dict | None, tol: dict,
               first: Unit | None) -> dict:
    """Named pass/fail checks of one unit; each counts as one operation."""
    c = unit.clock
    checks = {
        "exit_code_0": unit.exit_code == 0,
        "ledger_defect_1e-9": bool(c.steppers) and max(s.max_defect for s in c.steppers) <= 1e-9,
        "radii_in_box": all(s.radii_in_box for s in c.steppers),
        "cg_all_converged": c.cg_solves > 0 and c.cg_unconverged == 0,
    }
    if command == "convergence":
        for var in ("u", "r"):
            keys = [k for k in unit.final if k.endswith(f".{var}_l2_error")]
            errs = [unit.final[k] for k in sorted(keys, key=lambda k: int(k[3:k.index(".")]))]
            checks[f"{var}_error_strictly_decreasing"] = (
                len(errs) >= 3 and all(b < a for a, b in zip(errs, errs[1:])))
    if reference is not None:
        for key, ref in reference.items():
            checks[f"reference.{key}"] = key in unit.final and _close(
                key, unit.final[key], ref, tol)
    if first is not None and first is not unit:
        checks["repeat_matches_first_unit"] = first.final.keys() == unit.final.keys() and all(
            _close(k, v, first.final[k], tol) for k, v in unit.final.items())
    unit.checks = checks
    return checks
