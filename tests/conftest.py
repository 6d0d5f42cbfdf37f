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


@pytest.fixture(scope="session")
def check_snapshot():
    """``check_snapshot(text, header, columns)``: ``text`` is the CSV that
    formats every value of every column by ``%.17g``, row by row, and every
    field parses back to the exact float it came from."""
    def check(text, header, columns):
        rows = zip(*(np.asarray(c).tolist() for c in columns))
        expect = "\n".join([header] + [",".join("%.17g" % v for v in row) for row in rows]) + "\n"
        # name the first differing line: a diff of the whole texts takes minutes
        same = text == expect
        assert same, next((k, a, b) for k, (a, b) in enumerate(
            zip(text.splitlines() + [None], expect.splitlines() + [None])) if a != b)
        lines = text.splitlines()
        parsed = np.array([[float(f) for f in line.split(",")] for line in lines[1:]])
        assert np.array_equal(parsed, np.column_stack(columns))
    return check
