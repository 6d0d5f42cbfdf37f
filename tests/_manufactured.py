"""Manufactured-solution helpers shared by the macro and acceptance tests.

With frozen radii (a zero rate slope) and a constant isotropic tensor a*I
the scheme solves theta u_t - a laplace(u) = theta f_p; choosing
u* = cos(pi x) cos(pi y) e^{-t} (zero-flux compatible) fixes
f_p = (2 pi^2 a / theta - 1) u*.
"""

import dataclasses

import numpy as np

from evopore.macro import MacroGrid, MacroSolver
from evopore.unitcell import EffectiveTensorTable, porosity

FROZEN_RADIUS = 0.25


def constant_table(a11, r_lo=0.15, r_hi=0.35):
    radii = np.linspace(r_lo, r_hi, 5)
    return EffectiveTensorTable(radii, np.tile([a11, 0.0, a11], (5, 1)))


def exact_solution(t, x):
    x = np.atleast_2d(x)
    return np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]) * np.exp(-t)


def _solver(n, spec, a11):
    theta = porosity(FROZEN_RADIUS)

    def source(t, x):
        return (2 * np.pi**2 * a11 / theta - 1.0) * exact_solution(t, x)

    grid = MacroGrid.create(n)
    return grid, MacroSolver(grid, constant_table(a11), dataclasses.replace(spec, rate_slope=0.0),
                             source=source, cg_tol=1e-13)


def _run(grid, solver, dt, t_end):
    state = solver.init(lambda x: exact_solution(0.0, x),
                        lambda x: np.full(len(np.atleast_2d(x)), FROZEN_RADIUS))
    for _ in range(int(round(t_end / dt))):
        state = solver.step(state, dt)
    return state


def _lumped_weights(grid):
    w = np.zeros(grid.n_nodes)
    np.add.at(w, grid.elements, (grid.areas / 3.0)[:, None] * np.ones((1, 3)))
    return w


def manufactured_error(n, dt, t_end, spec, a11=0.6):
    """Lumped L2 error against the exact solution at the final time."""
    grid, solver = _solver(n, spec, a11)
    state = _run(grid, solver, dt, t_end)
    err = state.u - exact_solution(state.t, grid.nodes)
    return float(np.sqrt(_lumped_weights(grid) @ err**2))


def temporal_gap(n, dt, t_end, spec, a11=0.6, dt_ref=1 / 1280):
    """Distance to a small-dt run on the same mesh; spatial error cancels."""
    grid, solver = _solver(n, spec, a11)
    u_coarse = _run(grid, solver, dt, t_end).u
    u_fine = _run(grid, solver, dt_ref, t_end).u
    diff = u_coarse - u_fine
    return float(np.sqrt(_lumped_weights(grid) @ diff**2))
