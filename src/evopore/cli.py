"""Command-line entry point: build tensor tables, run the macro and micro
solvers, execute the scale-convergence study, and validate the transform and
kinetics properties.

Each command of :data:`COMMANDS` writes its outputs and returns its checks;
:func:`main` adds the report and a manifest (config hash, versions, check
results).  Outputs are byte-deterministic for a fixed config and seed except
the separate timing file.  Progress lines are INFO records of the
``evopore`` logger, printed to stdout unless ``--quiet``.  Exit codes: 0 all
checks pass, 1 a named check in the report failed (nothing else exits with
1), 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import DEFAULT_CONFIG, ExperimentConfig, load_config, parse_config
from .errors import ConfigError, NumericalError
from .fem import csv_table
from .macro import MacroGrid, MacroSolver, MassRecord, ledger_csv, mass_balance, snapshot_csv
from .micro import (MicroSimulator, build_micro_mesh, cell_series_csv, cells_per_side,
                    micro_snapshot_csv, unfold_compare)
from .registry import build_field, build_source
from .unitcell import (EffectiveTensorTable, build_reference_mesh, porosity, table_checks,
                       tabulate)
from .validate import full_validation

log = logging.getLogger("evopore")


@dataclass
class ConvergenceRow:
    epsilon: float
    u_l2_error: float
    r_l2_error: float
    runtime: float
    cg_iterations: int   # micro CG iterations, summed over the steps
    max_defect: float    # largest micro ledger defect of the steps


@dataclass
class ConvergenceReport:
    rows: list
    u_slope: float | None
    r_slope: float | None
    u_decreasing: bool
    r_decreasing: bool
    slopes_skipped: bool

    @property
    def passed(self) -> bool:
        return self.u_decreasing and self.r_decreasing


def _check_outdir(outdir: Path) -> None:
    """An output directory that is, or lies under, an existing file is a
    config error, found before the command does its work."""
    try:
        existing = next(p for p in (outdir, *outdir.parents) if p.exists())
    except OSError as exc:
        raise ConfigError(f"output directory {outdir}: {exc.strerror or exc}") from None
    if not existing.is_dir():
        raise ConfigError(f"output directory {outdir}: {existing} is not a directory")


def _write(outdir: Path, name: str, text: str, outputs: list) -> None:
    # the directory appears with the first output, after every input check,
    # so a run rejected with exit 2 leaves none behind
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / name).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {outdir / name}: {exc.strerror or exc}") from None
    outputs.append(name)


def _write_report(outdir: Path, checks: list[dict], outputs: list) -> None:
    lines = [json.dumps(c, sort_keys=True) for c in checks]
    lines.append(json.dumps({"summary": "pass" if all(c["passed"] for c in checks) else "fail",
                             "n_checks": len(checks)}, sort_keys=True))
    _write(outdir, "report.jsonl", "\n".join(lines) + "\n", outputs)


def _write_manifest(outdir: Path, command: str, cfg: ExperimentConfig,
                    checks: list[dict], outputs: list) -> None:
    manifest = {
        "command": command,
        "config_sha256": cfg.sha256,
        "versions": {"evopore": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        "checks": {c["check"]: c["passed"] for c in checks},
        "outputs": sorted(outputs),
    }
    _write(outdir, "manifest.json", json.dumps(manifest, sort_keys=True, indent=1) + "\n", [])


def _source_of(cfg: ExperimentConfig):
    if cfg.source_name == "zero" and not cfg.source_params:
        return None
    return build_source(cfg.source_name, cfg.source_params)


def _initial_state(solver, cfg: ExperimentConfig):
    """The solver's state at t = 0 from the configured initial fields; fields
    outside the admissible state are a config error."""
    try:
        return solver.init(build_field(cfg.u_field, cfg.u_params),
                           build_field(cfg.r_field, cfg.r_params))
    except ValueError as exc:
        raise ConfigError(f"[initial] u_field = {cfg.u_field}, r_field = {cfg.r_field}: "
                          f"{exc}") from exc


def _require_cover(grid: str, radii: np.ndarray, cfg: ExperimentConfig) -> None:
    """A table grid that does not cover the radius box is a config error, so
    that no lookup leaves the table."""
    lo, hi = radii[0], radii[-1]
    if lo > cfg.spec.r_min or hi < cfg.spec.r_max:
        raise ConfigError(f"{grid} [{lo:g}, {hi:g}] do not cover "
                          f"[r_min, r_max] = [{cfg.spec.r_min:g}, {cfg.spec.r_max:g}]")


def _table_of(cfg: ExperimentConfig) -> EffectiveTensorTable:
    """The loaded ``[table] path`` or a fresh tabulation.  A loaded table
    must hold finite values, a positive definite tensor at every radius and
    the porosity of its radii, to 1e-12 relative, as ``theta``; either grid
    must cover the radius box, and the explicit grid is checked before its
    cost is paid."""
    if cfg.table_path:
        log.info(f"loading tensor table from {cfg.table_path}")
        source = f"[table] path = {cfg.table_path}"
        try:
            table = EffectiveTensorTable.from_csv(Path(cfg.table_path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{source}: cannot load: {exc}") from exc
        if not all(np.all(np.isfinite(a)) for a in (table.radii, table.tensors, table.theta)):
            raise ConfigError(f"{source}: non-finite values")
        if not table_checks(table)["positive_definite"]:
            raise ConfigError(f"{source}: a tensor is not positive definite")
        theta = porosity(table.radii)
        off = np.flatnonzero(np.abs(table.theta - theta) > 1e-12 * np.abs(theta))
        if off.size:
            raise ConfigError(f"{source}: theta {table.theta[off[0]]:.17g} at r = "
                              f"{table.radii[off[0]]:g} is not the porosity 1 - pi r^2")
        _require_cover(f"{source}: radii", table.radii, cfg)
        return table
    _require_cover("[table] radii", cfg.table_radii, cfg)
    log.info(f"tabulating effective tensors on {cfg.table_radii.size} radii")
    return tabulate(cfg.params, cfg.table_radii, cfg.n_boundary, cfg.target_h)


def _macro_solver(cfg: ExperimentConfig, grid: MacroGrid) -> MacroSolver:
    """The macro solver of ``cfg`` on ``grid``, with the :func:`_table_of` table."""
    return MacroSolver(grid, _table_of(cfg), cfg.spec, _source_of(cfg), cfg.diffusion,
                       cg_tol=cfg.cg_tol)


def _solver_work(iterations: list[int], solver) -> str:
    """The solver work of a run, or of a level of the convergence study, for
    its progress line: the CG iterations of its steps, ``iterations``, and
    the factorizations ``solver`` made."""
    return f"{sum(iterations)} CG iterations, {solver.factorizations} factorizations"


def _run_steps(solver, state, cfg: ExperimentConfig, label: str, record=None, snapshot=None):
    """``state`` stepped to t_end, calling ``record(state)`` after every step
    and ``snapshot(step, state)`` after the snapshot steps; a numerical
    failure names the step by ``label.format(step)``."""
    for step in range(1, cfg.n_steps + 1):
        try:
            state = solver.step(state, cfg.dt)
        except NumericalError as exc:
            raise NumericalError(f"{label.format(step)}: {exc}") from exc
        if record:
            record(state)
        if snapshot and (step % cfg.snapshot_every == 0 or step == cfg.n_steps):
            snapshot(step, state)
    return state


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_cell_table(cfg: ExperimentConfig, args: argparse.Namespace, outdir: Path,
                   outputs: list) -> list[dict]:
    table = tabulate(cfg.params, cfg.table_radii, cfg.n_boundary, cfg.target_h)
    _write(outdir, "table.csv", table.to_csv(), outputs)
    log.info(f"wrote {outdir / 'table.csv'} ({cfg.table_radii.size} radii)")
    return [{"check": name, "passed": ok, "value": None}
            for name, ok in table_checks(table).items()]


def cmd_macro_run(cfg: ExperimentConfig, args: argparse.Namespace, outdir: Path,
                  outputs: list) -> list[dict]:
    grid = MacroGrid.create(cfg.macro_n)
    solver = _macro_solver(cfg, grid)
    state = _initial_state(solver, cfg)
    records, iterations = [MassRecord.of(state)], []

    def record(state):
        records.append(MassRecord.of(state))
        iterations.append(state.cg_iterations)

    def snapshot(step, state):
        _write(outdir, f"snapshot_{step:06d}.csv", snapshot_csv(grid, state), outputs)

    snapshot(0, state)
    state = _run_steps(solver, state, cfg, "macro step {}", record, snapshot)
    _write(outdir, "ledger.csv", ledger_csv(records), outputs)

    balance = mass_balance(records)
    in_box = bool(np.all((state.r >= cfg.spec.r_min) & (state.r <= cfg.spec.r_max)))
    log.info(f"macro run: {cfg.n_steps} steps, {_solver_work(iterations, solver)}, "
             f"max ledger defect {balance.max_defect:.3e}")
    return [
        {"check": "mass_ledger_defect_1e-9", "passed": balance.max_defect <= 1e-9,
         "value": balance.max_defect},
        {"check": "radii_in_box", "passed": in_box, "value": None},
    ]


def cmd_micro_run(cfg: ExperimentConfig, args: argparse.Namespace, outdir: Path,
                  outputs: list) -> list[dict]:
    # --epsilon as 0.125 or 1/8; 1/epsilon must be a cell count the micro
    # mesh allows
    inv = cfg.epsilon_inverses[0]
    if args.epsilon:
        try:
            num, den = args.epsilon.split("/") if "/" in args.epsilon else (args.epsilon, "1")
            inv = cells_per_side(float(num) / float(den))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"--epsilon {args.epsilon}: {exc}") from None
    if cfg.micro_pinned_radii:
        # radii frozen at r0 are inputs: no reaction (rate_slope 0 makes
        # gated_affine, the one family a config can name, exactly 0) and
        # every radius at r0
        cfg = dataclasses.replace(cfg, spec=dataclasses.replace(cfg.spec, rate_slope=0.0),
                                  r_field="constant", r_params={"value": cfg.params.r0})
    reference = build_reference_mesh(cfg.params.r0, cfg.n_boundary, cfg.target_h)
    mesh = build_micro_mesh(reference, 1.0 / inv)
    sim = MicroSimulator(mesh, cfg.params, cfg.spec, _source_of(cfg), cfg.diffusion,
                         cg_tol=cfg.cg_tol)
    state = _initial_state(sim, cfg)
    records, rates, iterations = [MassRecord.of(state)], [], []

    def record(state):
        records.append(MassRecord.of(state))
        rates.append(float(np.abs(state.radii_rate).max()))
        iterations.append(state.cg_iterations)

    def snapshot(step, state):
        _write(outdir, f"micro_snapshot_{step:06d}.csv", micro_snapshot_csv(mesh, state), outputs)
        _write(outdir, f"cells_{step:06d}.csv", cell_series_csv(mesh, state), outputs)

    snapshot(0, state)
    _run_steps(sim, state, cfg, f"micro step {{}} (1/eps={inv})", record, snapshot)
    _write(outdir, "micro_ledger.csv", ledger_csv(records), outputs)
    max_defect = mass_balance(records).max_defect
    max_rate = max(rates)
    log.info(f"micro run 1/eps={inv}: {cfg.n_steps} steps, {_solver_work(iterations, sim)}, "
             f"max ledger defect {max_defect:.3e}")
    return [
        {"check": "transformed_mass_ledger_1e-9", "passed": max_defect <= 1e-9,
         "value": max_defect},
        {"check": "radius_rate_bound", "passed": max_rate <= cfg.spec.f_cap / cfg.spec.c_s + 1e-12,
         "value": max_rate},
    ]


def _final_macro_state(cfg: ExperimentConfig, grid: MacroGrid):
    """The macro state at t_end.  The solver, with its factor, is released
    on return, before the micro runs build theirs."""
    solver = _macro_solver(cfg, grid)
    return _run_steps(solver, _initial_state(solver, cfg), cfg, "macro step {}")


def run_convergence_study(cfg: ExperimentConfig) -> ConvergenceReport:
    """Macro once, micro per epsilon, unfolded errors at the final time."""
    grid = MacroGrid.create(cfg.macro_n)
    macro_state = _final_macro_state(cfg, grid)

    reference = build_reference_mesh(cfg.params.r0, cfg.n_boundary, cfg.target_h)
    rows = []
    for inv in sorted(cfg.epsilon_inverses):
        t0 = time.perf_counter()
        mesh = build_micro_mesh(reference, 1.0 / inv)
        sim = MicroSimulator(mesh, cfg.params, cfg.spec, _source_of(cfg), cfg.diffusion,
                             cg_tol=cfg.cg_tol)
        iterations, defects = [], []

        def record(state):
            iterations.append(state.cg_iterations)
            defects.append(state.defect)

        st = _run_steps(sim, _initial_state(sim, cfg), cfg, f"micro step {{}} (1/eps={inv})",
                        record)
        err = unfold_compare(mesh, st, grid, macro_state)
        row = ConvergenceRow(1.0 / inv, err.u_l2_error, err.r_l2_error,
                             time.perf_counter() - t0, sum(iterations), max(defects))
        rows.append(row)
        log.info(f"  1/eps={inv}: {cfg.n_steps} steps, {_solver_work(iterations, sim)}, "
                 f"max ledger defect {row.max_defect:.3e}, "
                 f"u_err={err.u_l2_error:.4e} r_err={err.r_l2_error:.4e}")

    rows.sort(key=lambda r: -r.epsilon)
    u_errs = np.array([r.u_l2_error for r in rows])
    r_errs = np.array([r.r_l2_error for r in rows])
    eps = np.array([r.epsilon for r in rows])
    tiny = 1e-9
    if np.all(u_errs <= tiny) and np.all(r_errs <= tiny):
        return ConvergenceReport(rows, None, None, True, True, True)
    u_slope = float(np.polyfit(np.log(eps), np.log(np.maximum(u_errs, 1e-300)), 1)[0])
    r_slope = float(np.polyfit(np.log(eps), np.log(np.maximum(r_errs, 1e-300)), 1)[0])
    return ConvergenceReport(rows, u_slope, r_slope,
                             bool(np.all(np.diff(u_errs) < 0)),
                             bool(np.all(np.diff(r_errs) < 0)), False)


def cmd_convergence(cfg: ExperimentConfig, args: argparse.Namespace, outdir: Path,
                    outputs: list) -> list[dict]:
    if len(cfg.epsilon_inverses) < 3:
        raise ConfigError("convergence study needs at least 3 epsilon values")
    report = run_convergence_study(cfg)
    eps = [row.epsilon for row in report.rows]
    _write(outdir, "convergence.csv",
           csv_table("epsilon,u_l2_error,r_l2_error", eps, [row.u_l2_error for row in report.rows],
                     [row.r_l2_error for row in report.rows]), outputs)
    timings = "".join("%.17g,%.3f,%d\n" % (row.epsilon, row.runtime, row.cg_iterations)
                      for row in report.rows)
    _write(outdir, "timings.csv", "epsilon,runtime_seconds,cg_iterations\n" + timings, [])
    log.info(f"convergence: u_slope={report.u_slope} r_slope={report.r_slope}")

    checks = [
        {"check": "u_error_strictly_decreasing", "passed": report.u_decreasing,
         "value": report.u_slope},
        {"check": "r_error_strictly_decreasing", "passed": report.r_decreasing,
         "value": report.r_slope},
    ]
    if report.slopes_skipped:
        checks.append({"check": "slope_fit_skipped_all_errors_tiny", "passed": True,
                       "value": None})
    checks += [{"check": f"transformed_mass_ledger_1e-9_eps{round(1.0 / row.epsilon)}",
                "passed": row.max_defect <= 1e-9, "value": row.max_defect}
               for row in report.rows]
    return checks


def cmd_validate(cfg: ExperimentConfig, args: argparse.Namespace, outdir: Path,
                 outputs: list) -> list[dict]:
    checks = full_validation(cfg.params, cfg.spec, cfg.seed)
    for c in checks:
        log.info(f"  {'PASS' if c['passed'] else 'FAIL'} {c['check']} ({c['value']:.3e})")
    return checks


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "cell-table": (cmd_cell_table, "tabulate the radius-dependent effective diffusion tensor"),
    "macro-run": (cmd_macro_run, "run the homogenized PDE-ODE solver"),
    "micro-run": (cmd_micro_run, "run the resolved micro-scale solver at one epsilon"),
    "convergence": (cmd_convergence, "run the scale-convergence study"),
    "validate": (cmd_validate, "run the transform and kinetics property suites"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="evopore",
        description="Reaction-diffusion with concentration-driven pore evolution")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="experiment config file (defaults used if omitted)")
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--quiet", action="store_true")
        if name == "micro-run":
            p.add_argument("--epsilon", help="cell size, e.g. 0.125 or 1/8")
    args = parser.parse_args(argv)

    # this call's progress lines go to the current stdout: the logger passes
    # INFO records while the call lasts, and the handler's level decides
    handler = logging.StreamHandler(sys.stdout)
    handler.setLevel(logging.WARNING if args.quiet else logging.INFO)
    level = log.level
    log.setLevel(logging.INFO)
    log.addHandler(handler)
    try:
        cfg = load_config(args.config) if args.config else parse_config(DEFAULT_CONFIG)
        outdir = Path(args.out or cfg.out_dir)
        _check_outdir(outdir)
        outputs = []
        checks = COMMANDS[args.command][0](cfg, args, outdir, outputs)
        _write_report(outdir, checks, outputs)
        _write_manifest(outdir, args.command, cfg, checks, outputs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        log.removeHandler(handler)
        log.setLevel(level)

    if all(c["passed"] for c in checks):
        return 0
    for c in checks:
        if not c["passed"]:
            print(f"check failed: {c['check']} (value {c.get('value')})", file=sys.stderr)
    return 1
