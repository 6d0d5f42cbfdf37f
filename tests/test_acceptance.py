"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see
them inline)."""

import time

import numpy as np
import pytest
from _manufactured import manufactured_error, temporal_gap

from evopore.cli import run_convergence_study
from evopore.config import DEFAULT_CONFIG, parse_config
from evopore.kinetics import eval_f, lipschitz_envelope, step_radius, validate_structure
from evopore.macro import MacroGrid, MacroSolver
from evopore.micro import MicroSimulator, build_micro_mesh
from evopore.transform import RadialFrame, profile
from evopore.unitcell import (build_reference_mesh, effective_tensor, porosity, table_checks,
                              tabulate)
from evopore.validate import epsilon_uniformity_checks

def _emit(num, ok, detail, elapsed, budget):
    line = (f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail} "
            f"[{elapsed:.2f}s < {budget:.0f}s]")
    print(line)
    assert ok, line
    assert elapsed < budget, line


def _constant(value):
    return lambda x: np.full(len(np.atleast_2d(x)), float(value))


def test_criterion_01_transform_identity_suite(params):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    y = rng.uniform(0.0, 1.0, (500, 2))
    frame = RadialFrame(params, y)
    mapped = frame.image(frame.scalars(params.r0).radius)
    id_dev = float(np.abs(mapped - y).max())

    rgs = np.linspace(params.r_min, params.r_max, 20)
    plateau_dev = float(np.abs(profile(params, rgs, np.full(20, params.r0))[0] - rgs).max())

    r_out = np.concatenate([rng.uniform(0.0, params.r_min - params.delta, 250),
                            rng.uniform(params.r_max + params.delta, 0.95, 250)])
    rg_out = rng.uniform(params.r_min, params.r_max, 500)
    out_dev = float(np.abs(profile(params, rg_out, r_out)[0] - r_out).max())

    elapsed = time.perf_counter() - t0
    ok = id_dev <= 1e-12 and plateau_dev <= 1e-12 and out_dev <= 1e-12
    _emit(1, ok, f"identity map {id_dev:.1e}, plateau {plateau_dev:.1e}, "
                 f"outside annulus {out_dev:.1e} (all <= 1e-12)", elapsed, 1.0)


def test_criterion_02_jacobian_consistency(params):
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    h = 1e-5
    rg = rng.uniform(params.r_min, params.r_max, 500)
    y = rng.uniform(2 * h, 1.0 - 2 * h, (500, 2))
    frame = RadialFrame(params, y)
    jac = frame.jacobian(rg)
    det = frame.scalars(rg).det
    fd = np.empty_like(jac)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        plus, minus = RadialFrame(params, y + e), RadialFrame(params, y - e)
        fd[:, :, j] = (plus.image(plus.scalars(rg).radius)
                       - minus.image(minus.scalars(rg).radius)) / (2 * h)
    gap = float(np.abs(fd - jac).max())
    c_j = float(det.min())
    c_sup = float(det.max())
    elapsed = time.perf_counter() - t0
    ok = gap <= 1e-7 and c_j > 0.1 and np.isfinite(c_sup)
    _emit(2, ok, f"max |analytic - FD| = {gap:.2e} (<= 1e-7), "
                 f"measured det range [{c_j:.3f}, {c_sup:.3f}] with c_J > 0.1",
          elapsed, 5.0)


def test_criterion_03_epsilon_uniformity(params):
    t0 = time.perf_counter()
    checks = epsilon_uniformity_checks(params, inverses=(2, 4, 8), rel_tol=0.05)
    elapsed = time.perf_counter() - t0
    worst = max(c["value"] for c in checks)
    ok = all(c["passed"] for c in checks)
    _emit(3, ok, f"constants across eps in {{1/2,1/4,1/8}} vary by {worst:.2e} (<= 5%)",
          elapsed, 10.0)


def test_criterion_04_effective_tensor(params, tensor_table):
    t0 = time.perf_counter()
    checks = table_checks(tensor_table)
    sym = float(np.abs(tensor_table.tensors[:, 0, 1] - tensor_table.tensors[:, 1, 0]).max())
    offd = float(np.abs(tensor_table.tensors[:, 0, 1]).max())
    voigt_ok = bool(np.all(tensor_table.tensors[:, 0, 0] <= porosity(tensor_table.radii)))
    # the pulled-back route of the table, on one mesh at r0, against cells
    # meshed at the radius
    pulled = tabulate(params, np.array([0.15, 0.2, 0.25, 0.3, 0.35]), 64, 0.03)
    rels = []
    for r, transformed in zip((0.15, 0.25, 0.35), pulled.tensors[::2]):
        direct = effective_tensor(build_reference_mesh(r, 64, 0.03))
        rels.append(float(np.linalg.norm(direct - transformed) / np.linalg.norm(direct)))
    elapsed = time.perf_counter() - t0
    ok = (sym <= 1e-12 and checks["positive_definite"] and offd <= 1e-6 and voigt_ok
          and checks["A11_strictly_decreasing"] and max(rels) <= 0.005)
    _emit(4, ok, f"sym {sym:.1e}, offdiag {offd:.1e}, SPD and Voigt hold, "
                 f"A11 strictly decreasing, meshed/pulled-back gap {max(rels):.2%} (<= 0.5%)",
          elapsed, 120.0)


def test_criterion_05_kinetics_structure(spec):
    t0 = time.perf_counter()
    report = validate_structure(spec, sample_count=10_000, seed=105)
    rng = np.random.default_rng(1105)
    box_ok = True
    for _ in range(1000):
        r = float(rng.uniform(spec.r_min, spec.r_max))
        u = float(rng.uniform(-1.0, 2.0))
        dt = float(rng.uniform(1e-3, 0.1))
        for _ in range(20):
            r = float(step_radius(spec, r, float(eval_f(spec, u, r)), dt))
            if not (spec.r_min <= r <= spec.r_max):
                box_ok = False
    elapsed = time.perf_counter() - t0
    ok = report.passed and box_ok and report.empirical_lipschitz <= lipschitz_envelope(spec)
    _emit(5, ok, f"signs/bound/Lipschitz on 1e4 samples "
                 f"(L_emp {report.empirical_lipschitz:.1f} <= {report.envelope:.1f}), "
                 f"box invariance on 1e3 trajectories", elapsed, 5.0)


def test_criterion_06_macro_conservation(spec, tensor_table):
    t0 = time.perf_counter()
    grid = MacroGrid.create(32)
    solver = MacroSolver(grid, tensor_table, spec, cg_tol=1e-11)
    state = solver.init(_constant(0.9), _constant(0.2))
    worst = 0.0
    for _ in range(100):
        state = solver.step(state, 1.0 / 200.0)
        worst = max(worst, state.defect)
    elapsed = time.perf_counter() - t0
    _emit(6, worst <= 1e-9, f"canonical growth n=32, 100 steps, "
                            f"max per-step ledger defect {worst:.2e} (<= 1e-9)",
          elapsed, 30.0)


def test_criterion_07_manufactured_orders(spec):
    t0 = time.perf_counter()
    errs = [manufactured_error(n, 0.4 / n**2, 0.1, spec) for n in (8, 16, 32)]
    sp_orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    gaps = [temporal_gap(32, dt, 0.5, spec) for dt in (1 / 40, 1 / 80, 1 / 160)]
    t_orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    elapsed = time.perf_counter() - t0
    ok = sp_orders.min() >= 1.9 and t_orders.min() >= 0.9
    _emit(7, ok, f"spatial orders {np.round(sp_orders, 2).tolist()} (>= 1.9), "
                 f"temporal orders {np.round(t_orders, 2).tolist()} (>= 0.9)",
          elapsed, 120.0)


def test_criterion_08_steady_state_fixed_point(params, spec, tensor_table, reference_mesh):
    t0 = time.perf_counter()
    grid = MacroGrid.create(32)
    macro = MacroSolver(grid, tensor_table, spec, cg_tol=1e-12)
    ms = macro.init(_constant(spec.u_eq), _constant(params.r0))
    for _ in range(50):
        ms = macro.step(ms, 1.0 / 200.0)
    macro_dev = max(float(np.abs(ms.u - spec.u_eq).max()),
                    float(np.abs(ms.r - params.r0).max()))

    sim = MicroSimulator(build_micro_mesh(reference_mesh, 0.5), params, spec, cg_tol=1e-12)
    st = sim.init(_constant(spec.u_eq), _constant(params.r0))
    for _ in range(50):
        st = sim.step(st, 1.0 / 200.0)
    micro_dev = max(float(np.abs(st.u_hat - spec.u_eq).max()),
                    float(np.abs(st.radii - params.r0).max()))
    elapsed = time.perf_counter() - t0
    ok = macro_dev <= 1e-10 and micro_dev <= 1e-10
    _emit(8, ok, f"50-step drift at (u_eq, r0): macro {macro_dev:.1e}, "
                 f"micro {micro_dev:.1e} (<= 1e-10)", elapsed, 30.0)


def test_criterion_09_two_scale_convergence():
    t0 = time.perf_counter()
    cfg = parse_config(DEFAULT_CONFIG)
    report = run_convergence_study(cfg)
    elapsed = time.perf_counter() - t0
    u_errs = [row.u_l2_error for row in report.rows]
    r_errs = [row.r_l2_error for row in report.rows]
    ok = report.u_decreasing and report.r_decreasing
    _emit(9, ok, f"canonical growth at T=0.5: u errors {np.format_float_scientific(u_errs[0], 2)}"
                 f" > ... > {np.format_float_scientific(u_errs[-1], 2)}, "
                 f"r errors likewise; fitted slopes u {report.u_slope:.2f}, "
                 f"r {report.r_slope:.2f} (reported, not asserted)", elapsed, 600.0)


def test_criterion_10_single_cell_ode_consistency(params, spec, reference_mesh):
    t0 = time.perf_counter()
    mesh = build_micro_mesh(reference_mesh, 1.0)
    sim = MicroSimulator(mesh, params, spec, cg_tol=1e-11)
    dt, steps = 0.01, 25
    state = sim.init(_constant(0.9), _constant(0.2))
    variation = 0.0
    traj = [0.2]
    for _ in range(steps):
        state = sim.step(state, dt)
        traj.append(float(state.radii[0, 0]))
        variation = max(variation, float(state.u_hat.max() - state.u_hat.min()))

    v, r = 0.9, 0.2
    oracle = [r]
    for _ in range(steps):
        r_new = float(step_radius(spec, r, float(eval_f(spec, v, r)), dt))
        flux = 2 * np.pi * r_new * float(eval_f(spec, v, r_new))
        v = (porosity(r) * v - dt * flux) / porosity(r_new)
        r = r_new
        oracle.append(r)
    gap = float(np.abs(np.array(traj) - np.array(oracle)).max())
    tol = 2.0 * (dt + variation)
    elapsed = time.perf_counter() - t0
    _emit(10, gap <= tol, f"radius trajectory vs well-mixed oracle: gap {gap:.2e} "
                          f"<= 2(dt + spatial variation) = {tol:.2e}", elapsed, 10.0)
