import numpy as np
import pytest

from evopore.kinetics import KineticsSpec
from evopore.transform import TransformParams
from evopore.unitcell import build_reference_mesh, tabulate


@pytest.fixture(scope="session")
def params():
    return TransformParams()


@pytest.fixture(scope="session")
def spec():
    return KineticsSpec()


@pytest.fixture(scope="session")
def reference_mesh():
    return build_reference_mesh(0.25, n_boundary=64, target_h=0.05)


@pytest.fixture(scope="session")
def tensor_table(params):
    grid = np.linspace(params.r_min, params.r_max, 11)
    return tabulate(params, grid, n_boundary=64, target_h=0.05)


@pytest.fixture(scope="session")
def run_steps():
    """``run_steps(solver, state, dt, n)``: every state of ``n`` steps, the
    initial one first."""
    def run(solver, state, dt, n_steps):
        states = [state]
        for _ in range(n_steps):
            states.append(solver.step(states[-1], dt))
        return states
    return run
