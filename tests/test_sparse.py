"""The sparse systems the solvers build and solve: P1 stiffness assembly
(``fem.StiffnessPattern`` of ``fem.element_stiffness``) against a
per-element dense loop and an input-order sum, the CG ``solve_cg`` on scipy
CSR matrices (by default Jacobi with an exact solve on the constant
vector), the exact factor preconditioner (``fem.Factor``): sparse LU in
single precision and in double precision, as a micro step makes it for
the system it keeps, and the banded Cholesky factor of a pattern
(``fem.BandedCholesky``), which factors the reference cell's periodic
systems and the macro step's kept single precision factor."""

import gc
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from _oracles import cell_of_element, lumped_mass, pulled_back, tiled_triangles
from hypothesis import given, settings
from hypothesis import strategies as st

from evopore import fem
from evopore.errors import NumericalError
from evopore.fem import (BAND_LIMIT, REFACTOR_ITERATIONS, UPPER3, BandedCholesky, Factor,
                         StiffnessPattern, backward_euler_step, centroids, element_stiffness,
                         triangle_geometry)
from evopore.macro import MacroGrid, MacroSolver
from evopore.micro import MicroSimulator, build_micro_mesh
from evopore.sparse import SolveReport, solve_cg
from evopore.unitcell import ReferenceCell, porosity, solve_cell_problem, tabulate
from evopore.validate import patterned_radii


def random_elements(rng, n_nodes, n_el):
    """Element data with arbitrary (possibly repeated) node indices and
    symmetric positive definite coefficients."""
    triangles = rng.integers(0, n_nodes, (n_el, 3))
    areas = rng.uniform(0.1, 1.0, n_el)
    grads = rng.standard_normal((n_el, 3, 2))
    m = rng.standard_normal((n_el, 2, 2))
    coeff = m @ m.transpose(0, 2, 1) + np.eye(2)
    return triangles, areas, grads, coeff


def upper(k_el):
    """The cell data of element matrices (nt, 3, 3) on a P1 pattern: their
    upper halves, row by row, entry-major (6, nt)."""
    return np.ascontiguousarray(k_el[:, UPPER3[0], UPPER3[1]].T)


def assemble(dofs, n_dof, areas, grads, coeff, diagonal=None):
    """One-off assembly on a fresh pattern of the element dofs ``dofs``."""
    return StiffnessPattern(dofs, n_dof, UPPER3).assemble(
        upper(element_stiffness(areas, grads, coeff)), diagonal)


def dense_stiffness(triangles, areas, grads, coeff, n_dof, dof_of_node=None, diagonal=None):
    """Independent accumulation oracle: one element entry at a time."""
    dof = np.arange(n_dof) if dof_of_node is None else dof_of_node
    d = np.zeros((n_dof, n_dof))
    for t, tri in enumerate(triangles):
        for i in range(3):
            for j in range(3):
                d[dof[tri[i]], dof[tri[j]]] += areas[t] * grads[t, i] @ coeff[t] @ grads[t, j]
    if diagonal is not None:
        d += np.diag(diagonal)
    return d


def test_duplicate_accumulation():
    rng = np.random.default_rng(1)
    _, areas, grads, coeff = random_elements(rng, 3, 1)
    tri = np.array([[0, 1, 2]])
    single = assemble(tri, 3, areas, grads, coeff).toarray()
    twice = assemble(np.repeat(tri, 2, axis=0), 3, np.repeat(areas, 2),
                     np.repeat(grads, 2, axis=0), np.repeat(coeff, 2, axis=0))
    assert np.array_equal(twice.toarray(), 2.0 * single)
    merged = assemble(np.array([0, 0, 1])[tri], 2, areas, grads, coeff)
    assert merged[0, 0] == pytest.approx(single[:2, :2].sum(), abs=1e-14)
    with_diag = assemble(tri, 3, areas, grads, coeff, diagonal=np.array([1.0, 2.0, 3.0]))
    assert with_diag.toarray() == pytest.approx(single + np.diag([1.0, 2.0, 3.0]), abs=1e-14)


def input_order_sums(dofs, local, data, diagonal):
    """The entries of the matrix that the entry-major cell data ``data`` (s,
    n_cells) of the cells ``dofs`` with the sparsity ``local`` assemble to,
    each summed in the data's memory order, then the diagonal: entry by
    entry, within an entry cell by cell, an entry off its cell's diagonal
    adding to its own and the mirrored slot."""
    dofs = dofs.tolist()
    sums = {}
    for k, (i, j) in enumerate(zip(*(np.asarray(a).tolist() for a in local))):
        for cell, value in enumerate(data[k].tolist()):
            pair = (dofs[cell][i], dofs[cell][j])
            for key in (pair, pair[::-1]) if i != j else (pair,):
                sums[key] = sums.get(key, 0.0) + value
    for d, v in enumerate(diagonal.tolist()):
        sums[(d, d)] = sums.get((d, d), 0.0) + v
    return sums


def test_duplicates_summed_in_input_order(reference_cell, params):
    """Every CSR entry is the sum of its cell entries in the data's memory
    order, then the diagonal, bit for bit: entry by entry and within an
    entry cell by cell.  The cells are the micro mesh's elements, with
    their upper halves, and the macro grid's squares, with a step's 9
    entries of each; an entry off the cell's diagonal adds to both its slot
    and the mirrored one.  The slot map is C-contiguous intp: every slot's
    first entry, the later entries, and their slots followed by the
    diagonal's."""
    m = build_micro_mesh(reference_cell, 0.5)
    rng = np.random.default_rng(8)
    r_el = rng.uniform(params.r_min, params.r_max, m.n_cells)[cell_of_element(m)]
    in_cell = np.tile(centroids(m.cell.mesh.vertices, m.cell.mesh.triangles), (m.n_cells, 1))
    coeff = pulled_back(params, in_cell, r_el)[2]
    tiled = tiled_triangles(m)
    areas, grads = triangle_geometry(m.vertices, tiled)
    diagonal = lumped_mass(tiled, areas, np.ones(len(tiled)), m.n_nodes) / 0.01
    grid = MacroGrid.create(7)
    components = rng.uniform(-1.0, 1.0, (grid.n_elements, 3))
    for dofs, n_dof, local, data, diag in (
            (tiled, m.n_nodes, UPPER3, upper(element_stiffness(areas, grads, coeff)), diagonal),
            (grid.squares, grid.n_nodes, grid.entries, grid.square_matrices(components),
             rng.uniform(1.0, 2.0, grid.n_nodes))):
        pattern = StiffnessPattern(dofs, n_dof, local)
        slots = pattern.slots()
        for index in slots[2:]:
            assert index.dtype == np.intp and index.flags.c_contiguous
        assert slots.first.shape == slots.indices.shape
        assert slots.targets.shape == (len(slots.later) + n_dof,)
        off = np.count_nonzero(np.asarray(local[0]) != np.asarray(local[1]))
        assert len(slots.first) + len(slots.later) == (len(local[0]) + off) * len(dofs)
        coo = pattern.assemble(data, diag).tocoo()
        assert (dict(zip(zip(coo.row.tolist(), coo.col.tolist()), coo.data.tolist()))
                == input_order_sums(dofs, local, data, diag))


def test_pattern_reuse_matches_fresh_assembly():
    rng = np.random.default_rng(9)
    tri, areas, grads, coeff = random_elements(rng, 12, 30)
    coeff2 = random_elements(rng, 12, 30)[3]
    diagonal = rng.uniform(0.0, 1.0, 12)
    k_el = upper(element_stiffness(areas, grads, coeff))
    k_el2 = upper(element_stiffness(areas, grads, coeff2))
    pattern = StiffnessPattern(tri, 12, UPPER3)
    first = pattern.assemble(k_el)
    second = pattern.assemble(k_el2, diagonal)
    for A, fresh in ((first, StiffnessPattern(tri, 12, UPPER3).assemble(k_el)),
                     (second, StiffnessPattern(tri, 12, UPPER3).assemble(k_el2, diagonal))):
        assert np.array_equal(A.indptr, fresh.indptr)
        assert np.array_equal(A.indices, fresh.indices)
        assert np.array_equal(A.data, fresh.data)


def test_pattern_rejects_out_of_range_dof():
    for dofs in ([[0, 1, 3]], [[0, -1, 2]]):
        with pytest.raises(ValueError):
            StiffnessPattern(np.array(dofs), 3, UPPER3)


def test_empty_mesh_is_zero_operator():
    A = assemble(np.empty((0, 3), int), 3, np.empty(0), np.empty((0, 3, 2)),
                 np.empty((0, 2, 2)))
    x = np.array([1.0, -2.0, 5.0])
    assert np.all(A @ x == 0.0)


def test_random_triplets_match_dense_oracle():
    rng = np.random.default_rng(7)
    elements = random_elements(rng, 5, 40)
    diagonal = rng.uniform(0.0, 1.0, 5)
    A = assemble(elements[0], 5, *elements[1:], diagonal=diagonal)
    dense = dense_stiffness(*elements, 5, diagonal=diagonal)
    x = rng.standard_normal(5)
    assert A @ x == pytest.approx(dense @ x, abs=1e-12)
    assert A.toarray() == pytest.approx(dense)


def test_index_out_of_range_rejected():
    _, areas, grads, coeff = random_elements(np.random.default_rng(2), 3, 1)
    with pytest.raises(ValueError):
        assemble(np.array([0, 1, 3])[np.array([[0, 1, 2]])], 3, areas, grads, coeff)


def test_nonfinite_entries_rejected():
    tri, areas, grads, coeff = random_elements(np.random.default_rng(4), 3, 2)
    coeff[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        assemble(tri, 3, areas, grads, coeff)


def test_csr_invariants():
    rng = np.random.default_rng(3)
    tri, areas, grads, coeff = random_elements(rng, 8, 20)
    A = assemble(tri, 8, areas, grads, coeff, diagonal=np.ones(8))
    assert isinstance(A, sp.csr_matrix)
    assert len(A.indptr) == 9
    assert np.all(np.diff(A.indptr) >= 0)
    for r in range(8):
        cols = A.indices[A.indptr[r]:A.indptr[r + 1]]
        assert np.all(np.diff(cols) > 0)
    assert np.all(np.isfinite(A.data))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=10**6))
def test_matvec_matches_dense_oracle_property(n, seed):
    rng = np.random.default_rng(seed)
    n_nodes = n + int(rng.integers(0, 3))
    elements = random_elements(rng, n_nodes, int(rng.integers(1, 2 * n)))
    dof_of_node = rng.integers(0, n, n_nodes)
    A = assemble(dof_of_node[elements[0]], n, *elements[1:])
    dense = dense_stiffness(*elements, n, dof_of_node=dof_of_node)
    x = rng.standard_normal(n)
    assert np.allclose(A @ x, dense @ x, atol=1e-10)


def test_symmetry_identity_in_samples():
    rng = np.random.default_rng(5)
    for size in (5, 17, 50):
        tri, areas, grads, coeff = random_elements(rng, size, 3 * size)
        A = assemble(tri, size, areas, grads, coeff)
        x = rng.standard_normal(size)
        y = rng.standard_normal(size)
        assert abs(x @ (A @ y) - y @ (A @ x)) < 1e-12 * max(1.0, abs(x @ (A @ y)))


def test_identity_converges_in_one_iteration():
    A = sp.csr_matrix(np.eye(4))
    b = np.array([1.0, 2.0, 3.0, 4.0])
    x, rep = solve_cg(A, b, tol=1e-12)
    assert rep.converged and rep.iterations == 1
    assert x == pytest.approx(b)


def test_dirichlet_laplacian_matches_direct_solve():
    n = 8
    d = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    A = sp.csr_matrix(d)
    b = np.ones(n)
    x, rep = solve_cg(A, b, tol=1e-12)
    assert rep.converged
    assert x == pytest.approx(np.linalg.solve(d, b), abs=1e-10)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=5, max_value=200), st.integers(min_value=0, max_value=10**6))
def test_spd_converges_within_3n(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) / np.sqrt(n)
    spd = m @ m.T + np.eye(n)
    A = sp.csr_matrix(spd)
    b = rng.standard_normal(n)
    x, rep = solve_cg(A, b, tol=1e-10)
    assert rep.converged
    assert rep.iterations <= 3 * n


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_nonfinite_breakdown():
    d = np.array([[1.0, 0.0], [0.0, 1e308]])
    d[0, 1] = d[1, 0] = 1e308
    A = sp.csr_matrix(d)
    with pytest.raises((NumericalError, ValueError)):
        solve_cg(A, np.array([1.0, 1.0]))


def test_report_contract():
    A = sp.csr_matrix(np.eye(3))
    _, rep = solve_cg(A, np.zeros(3))
    assert isinstance(rep, SolveReport)
    assert rep.converged and rep.final_residual == 0.0


def allocating_solve_cg(A, b, tol=1e-10, x0=None, precondition=None):
    """Preconditioned CG written plainly: a new array for every vector
    update, and by default Jacobi as a division by the diagonal plus the
    exact solve on the constant vector, 1 (1^T r) / (1^T A 1), with the
    start corrected on that vector first.  The reference of ``solve_cg``'s
    iterates."""
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    r = b - (A @ x)
    if precondition is None:
        diag = A.diagonal().copy()
        diag[diag == 0.0] = 1.0
        coarse = (A @ np.ones(n)).sum()
        if np.linalg.norm(r) > tol * bnorm:
            x = x + r.sum() / coarse
            r = b - (A @ x)

        def precondition(r):
            return r / diag + r.sum() / coarse

    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    res = float(np.linalg.norm(r))
    it = 0
    while res > tol * bnorm and it < 10 * n + 100:
        Ap = A @ p
        pAp = float(p @ Ap)
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        z = precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        res = float(np.linalg.norm(r))
        it += 1
    return x, SolveReport(it, res / bnorm, res <= tol * bnorm)


def cg_cases(reference_cell, params, spec):
    """(A, b, solve_cg keywords) of the two kinds of solve in the package:
    Jacobi on a micro system from a start vector, and a stale single
    precision factor on a macro system."""
    rng = np.random.default_rng(21)
    sim = MicroSimulator(build_micro_mesh(reference_cell, 0.5), spec)
    radii = rng.uniform(params.r_min, params.r_max, sim.mesh.n_cells)
    micro = sim._system(radii, sim._mass(radii) / 0.01)
    grid = MacroGrid.create(24)
    macro = macro_system(grid, rng.uniform(0.15, 0.35, grid.n_elements), 0.005)
    stale = macro_system(grid, np.full(grid.n_elements, 0.2), 0.005)
    return [
        (micro, rng.standard_normal(micro.shape[0]),
         dict(tol=1e-12, x0=rng.uniform(0.2, 0.8, micro.shape[0]))),
        (macro, rng.standard_normal(grid.n_nodes),
         dict(tol=1e-12, precondition=Factor(np.float32).preconditioner(stale))),
    ]


def test_in_place_cg_matches_the_allocating_loop(reference_cell, params, spec):
    """The in-place loop (BLAS axpy updates, Jacobi by a reciprocal
    diagonal, the constant vector's sums by a BLAS dot) rounds differently
    from the plain allocating loop but is the same iteration: on the two
    kinds of solve it takes as many iterations, and both iterates solve the
    system to ``tol``.  Each loop stops once its residual is within
    tol |b|, so the two iterates differ by a vector whose image under A is
    within 2 tol |b|: the bound asserted."""
    for A, b, kwargs in cg_cases(reference_cell, params, spec):
        tol = kwargs["tol"]
        x, report = solve_cg(A, b, **kwargs)
        x_ref, report_ref = allocating_solve_cg(A, b, **kwargs)
        assert report.converged and report_ref.converged
        assert report.iterations == report_ref.iterations > 2
        assert np.linalg.norm(A @ (x - x_ref)) <= 2.0 * tol * np.linalg.norm(b)


def test_preconditioner_may_reuse_its_output_buffer(reference_cell, params, spec):
    """``solve_cg`` copies what ``precondition`` returns before the loop
    writes into its own buffer: a preconditioner that returns one buffer it
    overwrites on every call, or the residual itself, gives the iterate and
    iteration count of one that returns fresh arrays, bit for bit."""
    for A, b, kwargs in cg_cases(reference_cell, params, spec):
        kwargs = dict(kwargs)
        fresh = kwargs.pop("precondition", None)
        if fresh is None:
            diag = A.diagonal()

            def fresh(r):
                return r / diag

        buffer = np.empty(A.shape[0])

        def reusing(r):
            np.copyto(buffer, fresh(r))
            return buffer

        x, report = solve_cg(A, b, precondition=fresh, **kwargs)
        x_reuse, report_reuse = solve_cg(A, b, precondition=reusing, **kwargs)
        assert report.iterations > 2
        assert report_reuse == report
        assert np.array_equal(x_reuse, x)

        x_own, report_own = solve_cg(A, b, precondition=lambda r: r.copy(), **kwargs)
        x_same, report_same = solve_cg(A, b, precondition=lambda r: r, **kwargs)
        assert report_own.converged and report_same == report_own
        assert np.array_equal(x_same, x_own)


def counting(precondition, calls):
    """``precondition`` (Jacobi on ``A`` when a matrix) that appends to
    ``calls`` on every application."""
    if sp.issparse(precondition):
        diag = precondition.diagonal()

        def precondition(r):
            return r / diag

    def counted(r):
        calls.append(1)
        return precondition(r)

    return counted


def test_one_preconditioner_application_per_iteration(reference_cell, params, spec):
    """An iteration preconditions the residual its direction is built from
    and nothing else: on the two kinds of solve the preconditioner runs
    ``report.iterations`` times, not once more for the final residual.  A
    start that already solves the system is returned as it is, bit for
    bit, without a single application, so a factor of either precision is
    never built."""
    for A, b, kwargs in cg_cases(reference_cell, params, spec):
        kwargs = dict(kwargs)
        calls = []
        precondition = counting(kwargs.pop("precondition", A), calls)
        _, report = solve_cg(A, b, precondition=precondition, **kwargs)
        assert report.converged and report.iterations > 2
        assert len(calls) == report.iterations

        x0 = np.random.default_rng(22).uniform(0.2, 0.8, A.shape[0])
        factors = [Factor(np.float32), Factor(np.float64)]
        for precondition in [A] + [factor.preconditioner(A) for factor in factors]:
            calls = []
            x, report = solve_cg(A, A @ x0, tol=1e-12, x0=x0,
                                 precondition=counting(precondition, calls))
            assert report == SolveReport(0, 0.0, True)
            assert calls == [] and not any(factor.factored for factor in factors)
            assert np.array_equal(x, x0)


def test_nonfinite_rhs_stops_before_preconditioning(macro_grid):
    """A right-hand side holding NaN gives a NaN residual, which fails the
    loop's stop test at once: no iteration, no preconditioner application,
    no factorization in either precision, and a report that is not
    converged.  The step reports it as a stalled solve."""
    A = macro_system(macro_grid, np.full(macro_grid.n_elements, 0.2), 0.005)
    b = np.ones(macro_grid.n_nodes)
    b[7] = np.nan
    for dtype in (np.float32, np.float64):
        calls, factor = [], Factor(dtype)
        _, report = solve_cg(A, b, precondition=counting(factor.preconditioner(A), calls))
        assert report.iterations == 0 and np.isnan(report.final_residual)
        assert not report.converged and calls == [] and not factor.factored
        with pytest.raises(NumericalError, match="macro CG stalled at t=0.5"):
            backward_euler_step(A, b, np.zeros(macro_grid.n_nodes), 1e-10, "macro", 0.5,
                                factor)
        assert not factor.factored


def test_every_step_solves_through_the_module_solver(reference_cell, params, spec, tensor_table,
                                                     monkeypatch):
    """The benchmark counts CG solves by replacing ``evopore.sparse.solve_cg``
    in every loaded evopore module; each micro and macro step must reach the
    solver through one of those names."""
    calls = []
    original = solve_cg

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in [m for name, m in sys.modules.items()
                   if m is not None and (name == "evopore" or name.startswith("evopore."))]:
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counted)

    def steps(solver, n_steps):
        state = solver.init(lambda x: np.full(len(x), 0.9), lambda x: np.full(len(x), 0.2))
        for k in range(n_steps):
            calls.clear()
            state = solver.step(state, 0.01)
            assert len(calls) >= 1, (type(solver).__name__, k)

    steps(MicroSimulator(build_micro_mesh(reference_cell, 0.5), spec), 2)
    steps(MacroSolver(MacroGrid.create(8), tensor_table, spec), 2)


# -- the sparse LU factor preconditioner of both steps -----------------------

def macro_system(grid, r, dt):
    """The macro step's implicit system at element radii ``r``, with the
    isotropic tensor (1 - 2 r) I standing in for the tabulated one."""
    coeff = (1.0 - 2.0 * r)[:, None, None] * np.eye(2)
    k_el = upper(element_stiffness(grid.areas, grid.grads, coeff))
    mass = lumped_mass(grid.elements, grid.areas, porosity(r), grid.n_nodes)
    return StiffnessPattern(grid.elements, grid.n_nodes, UPPER3).assemble(k_el, diagonal=mass / dt)


@pytest.fixture(scope="module")
def macro_grid():
    return MacroGrid.create(24)


def test_exact_factor_converges_in_two_iterations(macro_grid):
    rng = np.random.default_rng(11)
    A = macro_system(macro_grid, rng.uniform(0.15, 0.35, macro_grid.n_elements), 0.005)
    b = rng.standard_normal(macro_grid.n_nodes)
    x, rep = solve_cg(A, b, tol=1e-10, precondition=Factor(np.float32).preconditioner(A))
    assert rep.converged and rep.iterations <= 2
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_double_factor_solves_its_system_in_one_iteration(reference_cell, params, spec):
    """The double precision factor of a micro system, as a micro step makes
    it for the system it keeps, is exact: every CG solve with it converges
    in 1 iteration, from 1 factorization on the first application, which
    leaves the system's values as they were."""
    rng = np.random.default_rng(14)
    sim = MicroSimulator(build_micro_mesh(reference_cell, 0.5), spec)
    radii = np.full(sim.mesh.n_cells, params.r0)
    A = sim._system(radii, sim._mass(radii) / 0.01)
    data = A.data.copy()
    factor = Factor(np.float64)
    for k in range(3):
        b = rng.standard_normal(A.shape[0])
        x, rep = solve_cg(A, b, tol=1e-10, x0=rng.uniform(0.2, 0.8, A.shape[0]),
                          precondition=factor.preconditioner(A))
        assert rep.converged and rep.iterations == 1 and factor.factored == (k == 0)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert np.array_equal(A.data, data)


@pytest.mark.parametrize("dt_factor", [1.0, 0.25, 4.0])
def test_stale_factor_matches_jacobi_solution(macro_grid, dt_factor):
    rng = np.random.default_rng(12)
    stale = macro_system(macro_grid, np.full(macro_grid.n_elements, 0.2), 0.005)
    A = macro_system(macro_grid, rng.uniform(0.15, 0.35, macro_grid.n_elements),
                     0.005 * dt_factor)
    b = rng.standard_normal(macro_grid.n_nodes)
    x_jacobi, rep_jacobi = solve_cg(A, b, tol=1e-12)
    x, rep = solve_cg(A, b, tol=1e-12, precondition=Factor(np.float32).preconditioner(stale))
    assert rep.converged and rep_jacobi.converged
    assert rep.final_residual <= 1e-12
    assert rep.iterations < rep_jacobi.iterations
    assert np.linalg.norm(x - x_jacobi) <= 1e-9 * np.linalg.norm(x_jacobi)


def test_refactor_after_a_jump_in_radii_or_dt(macro_grid):
    rng = np.random.default_rng(13)
    n_el = macro_grid.n_elements
    r_smooth = np.full(n_el, 0.2)
    r_rough = rng.uniform(0.15, 0.35, n_el)
    b = rng.standard_normal(macro_grid.n_nodes)
    x0 = np.zeros(macro_grid.n_nodes)
    factor = Factor(np.float32)

    def solve(r, dt):
        _, iterations, factorizations = backward_euler_step(
            macro_system(macro_grid, r, dt), b, x0, 1e-10, "test", 0.0, factor)
        return iterations, factorizations

    assert solve(r_smooth, 0.005) == (2, 1)
    assert solve(r_smooth, 0.005) == (2, 0)
    # the jump is solved with the stale factor and marks it stale ...
    iterations, factorizations = solve(r_rough, 0.005)
    assert iterations > REFACTOR_ITERATIONS and factorizations == 0
    # ... so the next solve refactors
    assert solve(r_rough, 0.005) == (2, 1)
    iterations, factorizations = solve(r_rough, 0.005 / 8)
    assert iterations > REFACTOR_ITERATIONS and factorizations == 0
    assert solve(r_rough, 0.005 / 8) == (2, 1)


def test_a_dropped_factor_is_freed_at_once(macro_grid, tensor_table, spec):
    """A factor of either precision takes megabytes of fill.  Once its owner
    lets it go, reference counting alone frees it, without waiting for the
    cyclic garbage collector: the factor and its solve form no cycle, and
    neither does a macro solver with the banded factor of its pattern."""
    A = macro_system(macro_grid, np.full(macro_grid.n_elements, 0.2), 0.005)
    b = np.ones(macro_grid.n_nodes)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for dtype in (np.float32, np.float64):
            factor = Factor(dtype)
            _, _, factorizations = backward_euler_step(A, b, np.zeros(macro_grid.n_nodes),
                                                       1e-10, "macro", 0.5, factor)
            assert factorizations == 1
            dropped = weakref.ref(factor)
            del factor
            assert dropped() is None
        solver = MacroSolver(macro_grid, tensor_table, spec)
        solver.step(solver.init(lambda x: 0.6 + 0.2 * np.cos(np.pi * x[:, 0]),
                                lambda x: np.full(len(x), 0.25)), 0.005)
        assert solver.factorizations == 1 and isinstance(solver._factor._lu, BandedCholesky)
        dropped = weakref.ref(solver._factor._lu)
        del solver
        assert dropped() is None
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def factored(monkeypatch):
    """Every matrix ``symmetric_lu`` or ``BandedCholesky`` is given from
    here on, as a list."""
    systems = []

    def recording(factorize):
        def record(system, *args):
            systems.append(system)
            return factorize(system, *args)
        return record

    for name in ("symmetric_lu", "BandedCholesky"):
        monkeypatch.setattr(fem, name, recording(getattr(fem, name)))
    return systems


def exactly_symmetric(system) -> bool:
    return system.shape[0] == system.shape[1] and (system != system.T).nnz == 0


@pytest.mark.parametrize("inv", (2, 4))
def test_micro_systems_are_exactly_symmetric(reference_cell, params, spec, inv, factored):
    """A micro step's system at patterned radii, of moving radii and kept,
    and its eps-periodic start's system are assembled from upper halves, so
    each equals its transpose exactly, and ``symmetric_lu``, which reads a
    CSR matrix's arrays as the CSC of its transpose, and ``BandedCholesky``,
    which reads one slot of each mirrored pair, factor the matrix itself:
    the kept system's factor and the start's are checked as they are
    factored."""
    m = build_micro_mesh(reference_cell, 1.0 / inv)
    radii = patterned_radii(params, inv)
    sim = MicroSimulator(m, spec)
    diagonal = sim._mass(radii) / 0.005
    moving = sim._system(radii, diagonal)
    start = sim._periodic_system(diagonal)
    kept = MicroSimulator(m, replace(spec, rate_slope=0.0))
    state = kept.init(lambda x: 0.5 + 0.2 * np.cos(np.pi * x[:, 0]), lambda x: radii.ravel())
    kept.step(state, 0.005)
    growing = MicroSimulator(m, spec)
    growing.step(growing.init(lambda x: np.full(len(x), 0.9), lambda x: radii.ravel()), 0.005)
    assert growing.coarse_factorizations == 1 and kept.factorizations == 1
    assert [s.shape for s in factored] == [kept._kept[2].shape, start.shape]
    assert factored[0] is kept._kept[2]
    for system in [moving, start, kept._kept[2]] + factored:
        assert exactly_symmetric(system)


def test_cell_problem_and_macro_systems_are_exactly_symmetric(reference_cell, params, spec,
                                                              tensor_table, factored):
    """The periodic system of a cell problem, from the cell's ``system`` at
    a radius off r0, and the macro system of a step are exactly symmetric as
    ``BandedCholesky`` and ``symmetric_lu`` receive them."""
    sc = reference_cell.frame.scalars(0.31)
    solve_cell_problem(reference_cell.mesh,
                       stiffness=reference_cell.system @ np.concatenate([sc.b, 1 / sc.b - sc.b]))
    grid = MacroGrid.create(16)
    solver = MacroSolver(grid, tensor_table, spec)
    state = solver.init(lambda x: 0.6 + 0.2 * np.cos(np.pi * x[:, 0]),
                        lambda x: 0.25 + 0.05 * np.sin(np.pi * x[:, 1]))
    solver.step(state, 0.005)
    assert [s.shape[0] for s in factored] == [reference_cell.mesh.dof_map[1], grid.n_nodes]
    assert all(exactly_symmetric(s) for s in factored)


def cell_problem_system(cell, r):
    """The periodic system of the cell problems of radius ``r`` on ``cell``,
    as :func:`evopore.unitcell.tabulate` assembles it: the stiffness of
    ``cell.system`` at the frame's scalars, dof 0 pinned."""
    scalars = cell.frame.tensor_scalars(np.array([[r]]), np.empty((2 * len(cell.mesh.triangles), 1)))
    pin = np.zeros(cell.mesh.dof_map[1])
    pin[0] = 1.0
    return cell.mesh.periodic.assemble(cell.system @ scalars[:, 0], pin)


def test_banded_solves_match_the_dense_solve(reference_cell, params, spec):
    """On the default cell the banded Cholesky of a cell problem's system
    and of a micro step's eps-periodic start's system solves each as
    ``np.linalg.solve`` does, to 1e-13 relative; the negated system, which
    is not positive definite, fails as ``RuntimeError``, and the cell
    problem reports it as ``NumericalError``."""
    mesh = reference_cell.mesh
    sim = MicroSimulator(build_micro_mesh(reference_cell, 0.5), spec)
    radii = patterned_radii(params, 2)
    diagonal = sim._mass(radii) / 0.005
    sim._system(radii, diagonal)
    rng = np.random.default_rng(3)
    for system in (cell_problem_system(reference_cell, 0.31), sim._periodic_system(diagonal)):
        factor = mesh.periodic.factorize(system)
        assert isinstance(factor, BandedCholesky)
        for rhs in (rng.standard_normal(system.shape[0]), rng.standard_normal((system.shape[0], 2))):
            want = np.linalg.solve(system.toarray(), rhs)
            assert np.linalg.norm(factor.solve(rhs) - want) <= 1e-13 * np.linalg.norm(want)
        with pytest.raises(RuntimeError, match="not positive definite"):
            mesh.periodic.factorize(-system)
    stiffness = reference_cell.system @ np.concatenate([np.ones(len(mesh.triangles)),
                                                        np.zeros(len(mesh.triangles))])
    with pytest.raises(NumericalError, match="^cell problem: .* not positive definite$"):
        solve_cell_problem(mesh, stiffness=-stiffness)


def test_periodic_systems_take_the_band_up_to_its_limit(reference_cell, params):
    """The default cell's 671 periodic dofs lie on a band of half width 67,
    within ``BAND_LIMIT``, and factor by the banded Cholesky; the 9,599 of
    ``n_boundary = 256``, ``target_h = 0.0125`` lie on one of 265, beyond
    it, and factor by sparse LU."""
    assert (reference_cell.mesh.dof_map[1], reference_cell.mesh.periodic.band.kd) == (671, 67)
    fine = ReferenceCell(params, 256, 0.0125)
    assert fine.mesh.dof_map[1] == 9599 and fine.mesh.periodic.band.kd > BAND_LIMIT
    for cell, kind in ((reference_cell, BandedCholesky), (fine, spla.SuperLU)):
        system = cell_problem_system(cell, 0.31)
        factor = cell.mesh.periodic.factorize(system)
        assert isinstance(factor, kind)
        rhs = np.cos(np.arange(system.shape[0]))
        rhs -= rhs.mean()   # as the cell problems' loads sum to zero
        assert np.linalg.norm(system @ factor.solve(rhs) - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_band_and_lu_tables_agree(params, monkeypatch):
    """At ``n_boundary = 128`` the table whose cell problems the banded
    Cholesky solves matches, to 1e-13 relative, the table whose same
    assembled systems sparse LU solves, as it does above ``BAND_LIMIT``."""
    cell = ReferenceCell(params, 128)
    periodic = cell.mesh.periodic
    assert periodic.band.kd <= BAND_LIMIT
    radii = np.linspace(params.r_min, params.r_max, 5)
    factors = []
    factorize = periodic.factorize
    monkeypatch.setattr(periodic, "factorize",
                        lambda system: factors.append(factorize(system)) or factors[-1])
    band = tabulate(cell, radii).entries
    monkeypatch.setattr(fem, "BAND_LIMIT", -1)
    lu = tabulate(cell, radii).entries
    assert [type(f) for f in factors] == [BandedCholesky] * 5 + [spla.SuperLU] * 5
    assert np.max(np.abs(band - lu)) <= 1e-13 * np.max(np.abs(lu))


@pytest.mark.parametrize("n, kd, kind", [(128, 129, BandedCholesky), (160, 161, spla.SuperLU)])
def test_macro_systems_take_the_band_up_to_its_limit(tensor_table, spec, n, kd, kind):
    """The macro grid of n x n squares lies on a band of half width n + 1
    in reverse Cuthill-McKee order: at n = 128 it is within ``BAND_LIMIT``
    and the stepper keeps a float32 banded Cholesky, at n = 160 beyond it
    and the stepper keeps a float32 sparse LU."""
    solver = MacroSolver(MacroGrid.create(n), tensor_table, spec)
    state = solver.init(lambda x: 0.6 + 0.2 * np.cos(np.pi * x[:, 0]),
                        lambda x: 0.25 + 0.05 * np.sin(np.pi * x[:, 1]))
    assert solver._pattern.band.kd == kd and (kd <= BAND_LIMIT) == (kind is BandedCholesky)
    solver.step(state, 0.005)
    factor = solver._factor._lu
    assert isinstance(factor, kind) and solver.factorizations == 1
    if kind is BandedCholesky:
        assert factor.upper.dtype == np.float32 and factor.upper.shape == (kd + 1, (n + 1)**2)


def test_single_precision_band_solves_match_the_dense_solve(macro_grid):
    """The macro pattern's float32 banded Cholesky solves a macro system in
    float32 as ``np.linalg.solve`` does in float64, to 100 float32 epsilons
    relative, and its float64 one to 1e-13."""
    pattern = StiffnessPattern(macro_grid.elements, macro_grid.n_nodes, UPPER3)
    r = np.random.default_rng(5).uniform(0.15, 0.35, macro_grid.n_elements)
    A = macro_system(macro_grid, r, 0.005)
    rhs = np.random.default_rng(6).standard_normal(macro_grid.n_nodes)
    want = np.linalg.solve(A.toarray(), rhs)
    for dtype, bound in ((np.float32, 100 * np.finfo(np.float32).eps), (np.float64, 1e-13)):
        factor = pattern.factorize(A, dtype)
        assert isinstance(factor, BandedCholesky) and factor.upper.dtype == dtype
        x = factor.solve(rhs.astype(dtype))
        assert x.dtype == dtype
        assert np.linalg.norm(x - want) <= bound * np.linalg.norm(want)


def test_band_and_lu_macro_runs_agree(tensor_table, spec, monkeypatch):
    """A macro run whose kept float32 factor is the pattern's banded
    Cholesky does no more CG iterations and factorizations than the same
    run with the sparse LU, which it takes when ``BAND_LIMIT`` is below
    every band, and its fields agree with that run's to 1e-8 relative:
    both CG solves stop at the same 1e-10 residual."""
    grid = MacroGrid.create(32)
    runs = []
    for limit in (BAND_LIMIT, -1):
        monkeypatch.setattr(fem, "BAND_LIMIT", limit)
        solver = MacroSolver(grid, tensor_table, spec,
                             source=lambda t, x: np.cos(np.pi * x[:, 0]) * np.exp(-t))
        state = solver.init(lambda x: 0.7 + 0.1 * np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]),
                            lambda x: 0.25 + 0.04 * np.sin(np.pi * x[:, 1]))
        for _ in range(30):
            state = solver.step(state, 0.005)
        runs.append((solver.cg_iterations, solver.factorizations, state.u,
                     type(solver._factor._lu)))
    (band_cg, band_factors, band_u, band_kind), (lu_cg, lu_factors, lu_u, lu_kind) = runs
    assert (band_kind, lu_kind) == (BandedCholesky, spla.SuperLU)
    assert band_cg <= lu_cg and band_factors <= lu_factors
    assert np.max(np.abs(band_u - lu_u)) <= 1e-8 * np.max(np.abs(lu_u))


def test_a_factor_whose_entries_overflow_its_precision_is_numerical_error(macro_grid):
    """A system whose entries exceed float32 fails its single precision
    factorization, sparse LU or the macro pattern's banded Cholesky, as a
    ``NumericalError`` naming the factorization, with no RuntimeWarning
    from the cast; its double precision factor is fine."""
    A = macro_system(macro_grid, np.full(macro_grid.n_elements, 0.2), 0.005) * 1e200
    b = np.ones(macro_grid.n_nodes)
    pattern = StiffnessPattern(macro_grid.elements, macro_grid.n_nodes, UPPER3)
    assert pattern.band.kd <= BAND_LIMIT
    for factorize in (None, pattern.factorize):
        with pytest.raises(NumericalError, match="^macro factorization failed at t=0.5: "
                                                 "matrix entries overflow float32$"):
            backward_euler_step(A, b, np.zeros(macro_grid.n_nodes), 1e-10, "macro", 0.5,
                                Factor(np.float32, factorize))
        x, iterations, factorizations = backward_euler_step(
            A, b, np.zeros(macro_grid.n_nodes), 1e-10, "macro", 0.5,
            Factor(np.float64, factorize))
        assert factorizations == 1 and iterations <= 2


def test_singular_system_factorization_is_numerical_error():
    # the fourth dof belongs to no element and has no mass: a zero row
    grid = MacroGrid.create(2)
    k_el = upper(element_stiffness(grid.areas, grid.grads,
                                   np.tile(np.eye(2), (grid.n_elements, 1, 1))))
    mass = np.ones(grid.n_nodes)
    mass[3] = 0.0
    system = StiffnessPattern(grid.elements, grid.n_nodes, UPPER3).assemble(k_el, diagonal=mass)
    system.data[system.indptr[3]:system.indptr[4]] = 0.0
    for dtype in (np.float32, np.float64):
        with pytest.raises(NumericalError, match="factorization failed"):
            backward_euler_step(system, np.ones(grid.n_nodes), np.zeros(grid.n_nodes),
                                1e-10, "macro", 0.5, Factor(dtype))


def test_step_reports_the_factorization_its_solve_made(macro_grid):
    """``backward_euler_step`` reports 0 factorizations for a start that
    already solves the system, 1 for the factor's first application and 0
    for a solve that reuses it; a step without a factor reports 0."""
    A = macro_system(macro_grid, np.full(macro_grid.n_elements, 0.2), 0.005)
    u = np.random.default_rng(15).uniform(0.2, 0.8, macro_grid.n_nodes)
    b = A @ u
    zeros = np.zeros(macro_grid.n_nodes)
    factor = Factor(np.float32)
    assert backward_euler_step(A, b, u, 1e-10, "macro", 0.5, factor)[1:] == (0, 0)
    assert backward_euler_step(A, b, zeros, 1e-10, "macro", 0.5, factor)[1:] == (2, 1)
    assert backward_euler_step(A, 2.0 * b, zeros, 1e-10, "macro", 0.5, factor)[1:] == (2, 0)
    assert backward_euler_step(A, b, zeros, 1e-10, "macro", 0.5)[2] == 0
