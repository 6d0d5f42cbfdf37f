"""Every CSV the package writes is the text of Python's ``'%.17g' % v`` for
every value: the vectorised kernel of :func:`evopore.fem.csv_table` against
``%`` value by value, and every deterministic writer against the row-by-row
writer it replaced (:func:`_oracles.row_csv`), byte for byte."""

from itertools import accumulate

import numpy as np
from _oracles import row_csv, xy_rows
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evopore import cli
from evopore.cli import ConvergenceReport, ConvergenceRow, main
from evopore.fem import csv_table, element_means
from evopore.macro import MacroGrid, MacroSolver, MassRecord, ledger_csv, snapshot_csv
from evopore.micro import MicroSimulator, build_micro_mesh, cell_series_csv, micro_snapshot_csv

LEDGER = "t,total_mass,solid_mass,fluid_mass,source_integral,defect"


def percent_csv(header, columns):
    """``header``, then every row of ``columns`` with each value by ``%``."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "".join([header + "\n"] + [",".join("%.17g" % v for v in row) + "\n" for row in rows])


def edge_values():
    """Powers of ten from 1e-6 to 1e17 and the doubles next to them, where
    ``log10`` may name the wrong decade; the kernel's range edges 1e-4 and
    1e16; the largest doubles below a decade; the exact ties of 17 digits;
    2^53 and its neighbours; the whole floats 0-15 of the cells file; and
    the values outside the kernel: signed zeros, infinities, NaN, the
    smallest subnormal and the largest double.  Every one with both signs."""
    powers = np.array([float(f"1e{k}") for k in range(-6, 18)])
    values = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
              [1e-4, 1e16, 0.99999999999999989, 9.9999999999999982, 0.099999999999999992,
               1000000000000000.25, 1000000000000000.75, 2.5, 0.125,
               2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 1, 2.0 ** 53 + 2],
              np.arange(16.0),
              [0.0, np.inf, np.nan, 5e-324, np.finfo(float).max]]
    values = np.concatenate([np.asarray(v, dtype=float) for v in values])
    return np.concatenate([values, -values])


def test_kernel_matches_percent_on_the_edges():
    values = edge_values()
    assert csv_table("v", values) == percent_csv("v", [values])
    lines = csv_table("v", values).splitlines()
    assert "1000000000000000.2" in lines and "1000000000000000.8" in lines   # ties to even
    assert "-0" in lines and "nan" in lines and "-inf" in lines


_IN_RANGE = st.floats(min_value=1e-4, max_value=1e16, exclude_max=True)
_VALUES = st.one_of(
    st.floats(),   # NaN, infinities, subnormals and signed zeros included
    _IN_RANGE, _IN_RANGE.map(lambda v: -v),
    # short decimals: many trailing zeros
    st.builds(lambda m, k: m / 10.0 ** k, st.integers(-10 ** 9, 10 ** 9), st.integers(0, 12)))


@given(arrays(np.float64, st.tuples(st.integers(0, 30), st.integers(1, 3)), elements=_VALUES))
def test_kernel_matches_percent(values):
    """The budget is the profile's: 100 examples, 20,000 under the ci
    profile (``tests/conftest.py``)."""
    header = ",".join(f"c{k}" for k in range(values.shape[1]))
    assert csv_table(header, *values.T) == percent_csv(header, values.T)


def test_an_empty_table_is_its_header():
    assert csv_table("a,b", [], np.empty(0)) == "a,b\n"


def constant_field(value):
    return lambda x: np.full(len(np.atleast_2d(x)), float(value))


def test_micro_writers_match_the_row_writer(reference_mesh, params, spec, run_steps):
    """Snapshots, cell files and the micro ledger of a run with moving
    radii, after init and each of 3 steps."""
    mesh = build_micro_mesh(reference_mesh, 0.5)
    sim = MicroSimulator(mesh, params, spec)
    state = sim.init(lambda x: 0.6 + 0.3 * np.cos(np.pi * np.atleast_2d(x)[:, 0]),
                     constant_field(0.2))
    states = run_steps(sim, state, 0.01, 3)
    xy = xy_rows(mesh.vertices)
    i, j = mesh.cell_index.T
    for s in states:
        assert micro_snapshot_csv(mesh, s) == row_csv("x1,x2,u_hat", "%s%.17g", xy, s.u_hat)
        assert cell_series_csv(mesh, s) == row_csv(
            "k1,k2,r,r_rate", "%d,%d,%.17g,%.17g", i, j, s.radii[i, j], s.radii_rate[i, j])
    assert np.all(states[-1].radii != 0.2)
    records = [MassRecord.of(s) for s in states]
    assert ledger_csv(records) == ledger_oracle(records)


def ledger_oracle(records):
    source = list(accumulate((r.source_step for r in records), initial=0.0))[1:]
    return row_csv(LEDGER, ",".join(["%.17g"] * 6), [r.t for r in records],
                   [r.fluid_mass + r.solid_mass for r in records],
                   [r.solid_mass for r in records], [r.fluid_mass for r in records], source,
                   [r.defect for r in records])


def test_macro_writers_match_the_row_writer(spec, tensor_table, run_steps):
    """Snapshots and the ledger of a run with a source, after init and each
    of 3 steps, and ``table.csv``."""
    grid = MacroGrid.create(8)
    solver = MacroSolver(grid, tensor_table, spec, source=lambda t, x: np.cos(t + 3 * x[:, 0]))
    state = solver.init(lambda x: 0.7 + 0.2 * np.sin(np.pi * np.atleast_2d(x)[:, 1]),
                        lambda x: 0.2 + 0.04 * np.atleast_2d(x)[:, 0])
    states = run_steps(solver, state, 0.01, 3)
    xy = xy_rows(grid.centers)
    for s in states:
        assert snapshot_csv(grid, s) == row_csv(
            "x1,x2,u,r,theta", "%s%.17g,%.17g,%.17g", xy, element_means(grid.elements, s.u),
            s.r, s.theta)
    records = [MassRecord.of(s) for s in states]
    assert ledger_csv(records) == ledger_csv(states) == ledger_oracle(records)
    t = tensor_table.tensors
    assert tensor_table.to_csv() == row_csv(
        "r,A11,A12,A22,theta", ",".join(["%.17g"] * 5), tensor_table.radii, t[:, 0, 0],
        t[:, 0, 1], t[:, 1, 1], tensor_table.theta)


def test_convergence_files_match_the_row_writer(tmp_path, monkeypatch):
    """``convergence.csv`` and the format of ``timings.csv``, for rows with
    errors of every kind: tiny, zero, whole and in the kernel's range."""
    rows = [ConvergenceRow(0.5, 0.1234567890123, 3e-20, 0.25, 120, 1e-12),
            ConvergenceRow(0.25, 1.0 / 3.0, 0.0, 1.0005, 7, 0.0),
            ConvergenceRow(0.125, 2.0, 1e-4, 12.3456, 0, 1e-15)]
    monkeypatch.setattr(cli, "run_convergence_study",
                        lambda cfg: ConvergenceReport(rows, -1.0, -1.0, True, True, False))
    assert main(["convergence", "--out", str(tmp_path), "--quiet"]) == 0
    eps = [r.epsilon for r in rows]
    assert (tmp_path / "convergence.csv").read_text() == row_csv(
        "epsilon,u_l2_error,r_l2_error", "%.17g,%.17g,%.17g", eps,
        [r.u_l2_error for r in rows], [r.r_l2_error for r in rows])
    assert (tmp_path / "timings.csv").read_text() == row_csv(
        "epsilon,runtime_seconds,cg_iterations", "%.17g,%.3f,%d", eps,
        [r.runtime for r in rows], [r.cg_iterations for r in rows])
