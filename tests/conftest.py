import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from evopore import fem
from evopore.kinetics import KineticsSpec
from evopore.transform import TransformParams
from evopore.unitcell import build_reference_mesh, tabulate

# The ci profile runs every property test that sets no example budget of its
# own, the %.17g kernel's, on 20,000 examples instead of 100, and draws new
# examples on every run instead of hypothesis's fixed ones, so CI explores;
# a failure prints the blob that reproduces it.  The rest is hypothesis's own
# ci profile.  Hypothesis loads it by itself wherever CI or GITHUB_ACTIONS is
# set (registering the active profile reloads it), and
# `pytest --hypothesis-profile=ci` selects it in any other shell.
settings.register_profile("ci", settings.get_profile("ci"), max_examples=20_000,
                          derandomize=False)


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


@pytest.fixture
def check_extrapolated_start(monkeypatch):
    """``check(make_solver, u0, r0, dt, field)``: a state from ``init`` has no
    previous field, so its step starts CG from its field ``field``; a later
    state's ``previous`` is the earlier state's field array itself, and its
    step starts from the extrapolation 2 u_n - u_(n-1).  The same step
    started from u_n (a fresh solver, ``previous`` None) solves the same
    system; each solve stops within tol |b|, so the two fields differ by a
    vector whose image under the system is within 2 tol |b|.  Returns the
    two states of that step, extrapolated first."""
    solves = []
    solve = fem.solve_cg

    def recording(A, b, **kwargs):
        solves.append((A, b, kwargs["x0"].copy(), kwargs["tol"]))
        return solve(A, b, **kwargs)

    monkeypatch.setattr(fem, "solve_cg", recording)

    def check(make_solver, u0, r0, dt, field):
        solver = make_solver()
        states = [solver.init(u0, r0)]
        assert states[0].previous is None
        states.append(solver.step(states[0], dt))
        assert np.array_equal(solves[-1][2], getattr(states[0], field))
        for _ in range(2):
            states.append(solver.step(states[-1], dt))
            u_old, u = (getattr(s, field) for s in states[-3:-1])
            assert np.array_equal(solves[-1][2], 2.0 * u - u_old)
        assert all(new.previous is getattr(old, field) for old, new in zip(states, states[1:]))

        extrapolated = solver.step(states[-1], dt)
        plain = make_solver().step(dataclasses.replace(states[-1], previous=None), dt)
        (A, b, _, tol), (A_plain, b_plain, x0_plain, _) = solves[-2:]
        assert np.array_equal(x0_plain, getattr(states[-1], field))
        assert np.array_equal(A.data, A_plain.data) and np.array_equal(b, b_plain)
        difference = getattr(extrapolated, field) - getattr(plain, field)
        assert np.linalg.norm(A @ difference) <= 2.0 * tol * np.linalg.norm(b)
        return extrapolated, plain

    return check
