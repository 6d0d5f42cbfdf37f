"""The homogenized system in action: a supersaturated medium precipitates.

Concentration starts above equilibrium, so obstacles grow everywhere, the
porosity drops, and dissolved mass converts into solid mass; the discrete
ledger tracks the exchange exactly.  (This is the canonical growth scenario
the acceptance suite pins down.)
"""

import numpy as np

from evopore import (KineticsSpec, MacroGrid, MacroSolver, ReferenceCell, TransformParams,
                     mass_balance, tabulate)

params = TransformParams()
spec = KineticsSpec()
table = tabulate(ReferenceCell(params), np.linspace(params.r_min, params.r_max, 11))

grid = MacroGrid.create(32)
solver = MacroSolver(grid, table, spec)


def constant(v):
    return lambda x: np.full(len(np.atleast_2d(x)), v)


state = solver.init(constant(0.9), constant(0.2))
print("     t     mean u    mean r    fluid mass  solid mass   total")
dt, n_steps = 1 / 200, 100
for k in range(n_steps + 1):
    if k % 20 == 0:
        total = state.fluid_mass + state.solid_mass
        print(f"{state.t:6.3f}  {state.u.mean():9.6f} {state.r.mean():9.6f} "
              f"{state.fluid_mass:11.8f} {state.solid_mass:11.8f} {total:11.8f}")
    if k < n_steps:
        state = solver.step(state, dt)

states = [solver.init(constant(0.9), constant(0.2))]
for _ in range(n_steps):
    states.append(solver.step(states[-1], dt))
totals = [s.fluid_mass + s.solid_mass for s in (states[0], states[-1])]
print(f"\nmax per-step conservation defect over {n_steps} steps: "
      f"{mass_balance(states):.2e}")
print(f"total mass drift over the run: {abs(totals[1] - totals[0]):.2e}")
