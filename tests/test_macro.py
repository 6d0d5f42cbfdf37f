import dataclasses
import sys

import numpy as np
import pytest

from evopore import fem
from evopore.fem import centroids, element_means, element_stiffness, lumped_mass
from evopore.macro import MacroGrid, MacroSolver, MassRecord, ledger_csv, mass_balance, snapshot_csv
from evopore.unitcell import EffectiveTensorTable, porosity


def constant_field(value):
    return lambda x: np.full(len(np.atleast_2d(x)), float(value))


def constant_table(a11, r_lo=0.15, r_hi=0.35):
    radii = np.linspace(r_lo, r_hi, 5)
    tensors = np.tile(a11 * np.eye(2), (5, 1, 1))
    return EffectiveTensorTable(radii, tensors, porosity(radii))


def frozen(spec):
    """The kinetics with a zero rate slope: every radius keeps its value."""
    return dataclasses.replace(spec, rate_slope=0.0)


@pytest.fixture(scope="module")
def grid():
    return MacroGrid.create(16)


def test_grid_structure():
    g = MacroGrid.create(4)
    assert g.n_nodes == 25
    assert g.n_elements == 32
    assert g.areas == pytest.approx(np.full(32, 0.5 / 16))
    assert np.sum(g.areas) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 3, 17, 128])
def test_grid_elements_in_the_loop_order(n):
    """The lower triangle of square k = ix n + iy is element 2 k and the upper
    one 2 k + 1, as the element loop of earlier versions built them."""
    def nid(ix, iy):
        return ix * (n + 1) + iy

    expect = np.empty((2 * n * n, 3), dtype=int)
    k = 0
    for ix in range(n):
        for iy in range(n):
            a, b = nid(ix, iy), nid(ix + 1, iy)
            c, d = nid(ix + 1, iy + 1), nid(ix, iy + 1)
            expect[k] = (a, b, c)
            expect[k + 1] = (a, c, d)
            k += 2
    elements = MacroGrid.create(n).elements
    assert elements.dtype == expect.dtype
    assert np.array_equal(elements, expect)


def test_grid_interpolation_reproduces_linear_fields():
    g = MacroGrid.create(8)
    nodal = 2.0 + 3.0 * g.nodes[:, 0] - 1.5 * g.nodes[:, 1]
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, (200, 2))
    expect = 2.0 + 3.0 * pts[:, 0] - 1.5 * pts[:, 1]
    assert g.interpolate(nodal, pts) == pytest.approx(expect, abs=1e-13)


@pytest.mark.parametrize("n", [2, 8, 32, 128])
def test_shape_operators_give_the_tabulated_element_matrices_bit_for_bit(n, tensor_table):
    """On a dyadic n every element of a shape has the same geometry bits, the
    operator entries are exact, and the table's A12 (about 1e-18) does not
    move A11 or A22 in the sums, so both products round alike."""
    g = MacroGrid.create(n)
    c = tensor_table.components(np.random.default_rng(n).uniform(0.15, 0.35, g.n_elements))
    A = c[..., [0, 1, 1, 2]].reshape(-1, 2, 2)
    expect = element_stiffness(g.areas, g.grads, A).reshape(-1, 9)
    assert np.array_equal(g.element_matrices(c), expect)


@pytest.mark.parametrize("n", [3, 100])
def test_shape_operators_with_random_symmetric_tensors(n):
    """Where the geometry is not dyadic and A12 is of order one, the two
    products agree to rounding."""
    g = MacroGrid.create(n)
    c = np.random.default_rng(n).uniform(-1.0, 1.0, (g.n_elements, 3))
    expect = element_stiffness(g.areas, g.grads, c[:, [0, 1, 1, 2]].reshape(-1, 2, 2))
    got = g.element_matrices(c)
    assert np.max(np.abs(got - expect.reshape(-1, 9))) <= 1e-14 * np.max(np.abs(expect))


@pytest.mark.parametrize("n", [2, 3, 16, 100])
def test_midpoints_are_the_centroids(n):
    g = MacroGrid.create(n)
    assert np.array_equal(g.centers, centroids(g.nodes, g.elements))


def test_state_carries_the_lumped_mass_of_its_porosity(grid, spec, tensor_table):
    solver = MacroSolver(grid, tensor_table, spec, source=lambda t, x: np.sin(t + x[:, 0]))
    u0 = lambda x: 0.8 + 0.1 * np.cos(np.pi * np.atleast_2d(x)[:, 0])
    state = solver.init(u0, lambda x: 0.2 + 0.05 * np.atleast_2d(x)[:, 1])
    for k in range(4):
        if k:
            state = solver.step(state, 0.01)
        expect = lumped_mass(grid.elements, grid.areas, state.theta, grid.n_nodes)
        assert np.array_equal(state.mass, expect), k
    assert state.r.min() > 0.2  # the radii moved, so each step had a new mass


def test_macro_step_forms_no_tensor_product_and_no_centroid(spec, tensor_table, monkeypatch):
    """The step's element matrices come from the grid's shape operators and
    its midpoints from the grid: neither ``element_stiffness`` nor
    ``centroids`` runs in a step, through any name an evopore module holds."""
    grid = MacroGrid.create(8)
    solver = MacroSolver(grid, tensor_table, spec, source=lambda t, x: np.cos(t + x[:, 1]))
    calls = []

    def recorded(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    originals = (element_stiffness, centroids)
    for module in [m for name, m in sys.modules.items()
                   if m is not None and (name == "evopore" or name.startswith("evopore."))]:
        for key, value in list(vars(module).items()):
            for original in originals:
                if value is original:
                    monkeypatch.setattr(module, key, recorded(original.__name__, original))
    state = solver.init(lambda x: np.full(len(x), 0.9), lambda x: np.full(len(x), 0.2))
    for _ in range(3):
        state = solver.step(state, 0.01)
    snapshot_csv(grid, state)
    assert calls == []
    # the names were replaced: a call through the module is seen
    fem.element_stiffness(grid.areas, grid.grads,
                          tensor_table.components(state.r)[..., [0, 1, 1, 2]].reshape(-1, 2, 2))
    fem.centroids(grid.nodes, grid.elements)
    assert calls == ["element_stiffness", "centroids"]


def test_init_constant_fields(grid, spec, tensor_table):
    solver = MacroSolver(grid, tensor_table, spec)
    state = solver.init(constant_field(0.5), constant_field(0.25))
    assert np.all(state.theta == pytest.approx(1 - np.pi / 16, abs=1e-15))
    assert state.t == 0.0


def test_init_nonconstant_radius_evaluated_at_midpoints(grid, spec, tensor_table):
    solver = MacroSolver(grid, tensor_table, spec)
    r0 = lambda x: 0.2 + 0.1 * np.atleast_2d(x)[:, 0]
    state = solver.init(constant_field(0.5), r0)
    mids = grid.centers
    assert state.r == pytest.approx(0.2 + 0.1 * mids[:, 0], abs=1e-15)


def test_init_rejects_out_of_box_radius(grid, spec, tensor_table):
    solver = MacroSolver(grid, tensor_table, spec)
    with pytest.raises(ValueError):
        solver.init(constant_field(0.5), constant_field(0.05))


def test_steady_state_is_exact(grid, spec, tensor_table):
    solver = MacroSolver(grid, tensor_table, spec)
    state = solver.init(constant_field(spec.u_eq), constant_field(0.25))
    for _ in range(20):
        state = solver.step(state, 0.01)
    assert np.max(np.abs(state.u - spec.u_eq)) < 1e-10
    assert np.max(np.abs(state.r - 0.25)) == 0.0


def test_frozen_radii_mass_conservation(grid, spec, tensor_table, run_steps):
    solver = MacroSolver(grid, tensor_table, frozen(spec), cg_tol=1e-13)
    u0 = lambda x: np.cos(np.pi * np.atleast_2d(x)[:, 0])
    state = solver.init(u0, constant_field(0.25))
    states = run_steps(solver, state, 1e-3, 25)
    report = mass_balance(states)
    assert report.max_defect < 1e-12
    assert report.final_total == pytest.approx(report.initial_total, abs=1e-11)


def test_mass_ledger_with_source(grid, spec, tensor_table):
    source = lambda t, x: np.ones(len(np.atleast_2d(x)))
    solver = MacroSolver(grid, tensor_table, spec, source=source, cg_tol=1e-13)
    state = solver.init(constant_field(spec.u_eq), constant_field(0.25))
    theta = 1 - np.pi * 0.25**2
    state2 = solver.step(state, 0.01)
    # with u = u_eq the kinetics are frozen, so growth is purely the source
    assert state2.source_step == pytest.approx(0.01 * theta, abs=1e-14)
    assert state2.defect < 1e-12


def test_growth_scenario_mass_exchange(grid, spec, tensor_table, run_steps):
    solver = MacroSolver(grid, tensor_table, spec, cg_tol=1e-12)
    state = solver.init(constant_field(0.9), constant_field(0.2))
    states = run_steps(solver, state, 0.005, 60)
    report = mass_balance(states)
    assert report.max_defect < 1e-9
    assert states[-1].fluid_mass < states[0].fluid_mass
    assert states[-1].solid_mass > states[0].solid_mass
    assert np.mean(states[-1].r) > np.mean(states[0].r)
    assert report.final_total == pytest.approx(report.initial_total, abs=1e-8)


def test_step_starts_from_the_extrapolated_field(grid, spec, tensor_table,
                                                 check_extrapolated_start):
    rng = np.random.default_rng(7)
    u0 = rng.uniform(0.6, 0.9, grid.n_nodes)
    extrapolated, plain = check_extrapolated_start(
        lambda: MacroSolver(grid, tensor_table, spec), lambda x: u0, constant_field(0.2), 0.005,
        "u")
    assert np.array_equal(extrapolated.r, plain.r)
    assert not np.array_equal(extrapolated.r, constant_field(0.2)(grid.centers))


def test_reflection_symmetry_preserved(grid, spec, tensor_table):
    n = grid.n
    solver = MacroSolver(grid, tensor_table, spec, cg_tol=1e-12)
    u0 = lambda x: 0.6 + 0.3 * np.cos(np.pi * np.atleast_2d(x)[:, 0]) * np.cos(np.pi * np.atleast_2d(x)[:, 1])
    state = solver.init(u0, constant_field(0.2))
    for _ in range(10):
        state = solver.step(state, 0.005)
    ids = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    swap = ids.T.ravel()
    assert np.max(np.abs(state.u - state.u[swap])) < 1e-10
    mids = grid.centers
    r_at = {(round(x, 12), round(y, 12)): v for (x, y), v in zip(mids, state.r)}
    worst = max(abs(v - r_at[(y, x)]) for (x, y), v in r_at.items())
    assert worst < 1e-10


def manufactured_error(n, dt, t_end, spec, a11=0.6):
    """L2 error against u* = cos(pi x) cos(pi y) exp(-t) with frozen radii."""
    grid = MacroGrid.create(n)
    theta = porosity(0.25)

    def exact(t, x):
        x = np.atleast_2d(x)
        return np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]) * np.exp(-t)

    def source(t, x):
        return (2 * np.pi**2 * a11 / theta - 1.0) * exact(t, x)

    solver = MacroSolver(grid, constant_table(a11), frozen(spec), source=source, cg_tol=1e-13)
    state = solver.init(lambda x: exact(0.0, x), constant_field(0.25))
    steps = int(round(t_end / dt))
    for _ in range(steps):
        state = solver.step(state, dt)
    weights = np.zeros(grid.n_nodes)
    np.add.at(weights, grid.elements, (grid.areas / 3.0)[:, None] * np.ones((1, 3)))
    err = state.u - exact(state.t, grid.nodes)
    return float(np.sqrt(weights @ err**2))


def test_manufactured_spatial_order(spec):
    t_end = 0.1
    errs = [manufactured_error(n, 0.4 / n**2, t_end, spec) for n in (8, 16, 32)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert errs[2] < errs[1] < errs[0]
    assert orders.min() >= 1.9


def test_manufactured_temporal_order(spec):
    # gap to a small-dt run on the same mesh isolates the first-order time error
    t_end = 0.5
    gaps = [_temporal_gap(32, dt, t_end, spec) for dt in (1 / 40, 1 / 80, 1 / 160)]
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert gaps[2] < gaps[1] < gaps[0]
    assert orders.min() >= 0.9


def _temporal_gap(n, dt, t_end, spec, a11=0.6):
    """Distance to a small-dt run on the same mesh (spatial error cancels)."""
    grid = MacroGrid.create(n)
    theta = porosity(0.25)

    def exact(t, x):
        x = np.atleast_2d(x)
        return np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]) * np.exp(-t)

    def source(t, x):
        return (2 * np.pi**2 * a11 / theta - 1.0) * exact(t, x)

    def final_u(dt_run):
        solver = MacroSolver(grid, constant_table(a11), frozen(spec), source=source,
                             cg_tol=1e-13)
        state = solver.init(lambda x: exact(0.0, x), lambda x: np.full(len(np.atleast_2d(x)), 0.25))
        for _ in range(int(round(t_end / dt_run))):
            state = solver.step(state, dt_run)
        return state.u

    weights = np.zeros(grid.n_nodes)
    np.add.at(weights, grid.elements, (grid.areas / 3.0)[:, None] * np.ones((1, 3)))
    diff = final_u(dt) - final_u(1 / 1280)
    return float(np.sqrt(weights @ diff**2))


def test_csv_outputs(grid, spec, tensor_table):
    solver = MacroSolver(grid, tensor_table, spec)
    state = solver.init(constant_field(0.9), constant_field(0.2))
    state2 = solver.step(state, 0.005)
    snap = snapshot_csv(grid, state2)
    lines = snap.strip().splitlines()
    assert lines[0] == "x1,x2,u,r,theta"
    assert len(lines) == grid.n_elements + 1
    led = ledger_csv([state, state2])
    assert led.splitlines()[0] == "t,total_mass,solid_mass,fluid_mass,source_integral,defect"
    assert len(led.strip().splitlines()) == 3


def test_snapshot_formats_every_value_by_percent_17g(spec, tensor_table, check_snapshot):
    """After init and after 3 steps with a source, a snapshot is every column
    formatted by ``%.17g``; the centroid text is built once per grid."""
    grid = MacroGrid.create(8)
    solver = MacroSolver(grid, tensor_table, spec, source=lambda t, x: np.cos(t + 3 * x[:, 0]))
    state = solver.init(lambda x: 0.7 + 0.2 * np.sin(np.pi * np.atleast_2d(x)[:, 1]),
                        lambda x: 0.2 + 0.04 * np.atleast_2d(x)[:, 0])
    for k in range(4):
        if k:
            state = solver.step(state, 0.01)
        mids = centroids(grid.nodes, grid.elements)
        u_el = element_means(grid.elements, state.u)
        check_snapshot(snapshot_csv(grid, state), "x1,x2,u,r,theta",
                       [mids[:, 0], mids[:, 1], u_el, state.r, state.theta])
        if k == 0:
            text = grid.coordinate_text
    assert grid.coordinate_text is text
    # a second grid formats its own centroids
    other = MacroGrid.create(5)
    state = MacroSolver(other, tensor_table, spec).init(constant_field(0.9), constant_field(0.2))
    mids = centroids(other.nodes, other.elements)
    check_snapshot(snapshot_csv(other, state), "x1,x2,u,r,theta",
                   [mids[:, 0], mids[:, 1], element_means(other.elements, state.u), state.r,
                    state.theta])
    assert other.coordinate_text is not text


def test_ledger_from_mass_records_matches_states(grid, spec, tensor_table, run_steps):
    source = lambda t, x: np.ones(len(np.atleast_2d(x)))
    solver = MacroSolver(grid, tensor_table, spec, source=source)
    state = solver.init(lambda x: 0.6 + 0.3 * np.atleast_2d(x)[:, 0], constant_field(0.2))
    states = run_steps(solver, state, 0.005, 5)
    records = [MassRecord.of(s) for s in states]
    assert ledger_csv(records) == ledger_csv(states)
    from_records, from_states = mass_balance(records), mass_balance(states)
    assert np.array_equal(from_records.per_step_defect, from_states.per_step_defect)
    assert (from_records.initial_total, from_records.final_total) == \
        (from_states.initial_total, from_states.final_total)
